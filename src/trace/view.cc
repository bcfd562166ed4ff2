#include "trace/view.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace branchlab::trace
{

TraceView
TraceView::of(const SoaTrace &stream)
{
    return mapped(stream.ops().data(), stream.conditionalPlane().data(),
                  stream.takenPlane().data(),
                  stream.targetKnownPlane().data(),
                  stream.anomalyPlane().data(), stream.deltas().data(),
                  stream.deltas().size(), stream.anomalyDeltas().data(),
                  stream.anomalyDeltas().size(), stream.size(),
                  stream.maxPc());
}

TraceView
TraceView::mapped(const std::uint8_t *ops,
                  const std::uint8_t *cond_plane,
                  const std::uint8_t *taken_plane,
                  const std::uint8_t *target_known_plane,
                  const std::uint8_t *anomaly_plane,
                  const std::uint8_t *deltas, std::size_t deltas_len,
                  const std::uint8_t *anomaly_deltas,
                  std::size_t anomaly_deltas_len, std::size_t count,
                  ir::Addr max_pc)
{
    TraceView view;
    view.size_ = count;
    view.maxPc_ = max_pc;
    view.ops_ = ops;
    view.condPlane_ = cond_plane;
    view.takenPlane_ = taken_plane;
    view.targetKnownPlane_ = target_known_plane;
    view.anomalyPlane_ = anomaly_plane;
    view.deltas_ = deltas;
    view.deltasLen_ = deltas_len;
    view.anomalyDeltas_ = anomaly_deltas;
    view.anomalyDeltasLen_ = anomaly_deltas_len;
    return view;
}

TraceView::Cursor
TraceView::cursor() const
{
    return Cursor(*this);
}

void
TraceView::Cursor::decode(TraceBlock &block, std::size_t count)
{
    // Work on locals: the scratch stores below would otherwise force
    // the cursor state back to memory on every event.
    VarintCursor deltas = deltas_;
    ir::Addr prev_pc = prevPc_;
    const ir::Addr max_pc = view_->maxPc_;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t zpc = 0;
        std::uint64_t ztarget = 0;
        std::uint64_t zfall = 0;
        if (!deltas.get(zpc) || !deltas.get(ztarget) ||
            !deltas.get(zfall)) {
            // Mapped sections were checksum-validated at map time and
            // owned ones were encoded by append(), so a short column
            // here is an internal inconsistency (writer bug), not
            // media corruption to soft-fail on.
            blab_fatal("trace view: delta column ended at event ",
                       block.base + i, " of ", view_->size());
        }
        const ir::Addr pc = prev_pc + unzigzag(zpc);
        prev_pc = pc;
        if (pc > max_pc) {
            // Backs the replay kernels' pc-indexed flat tables: no
            // decoded event may exceed the declared bound.
            blab_fatal("trace view: pc ", pc, " at event ",
                       block.base + i, " exceeds declared max pc ",
                       max_pc);
        }
        const ir::Addr target = pc + unzigzag(ztarget);
        const ir::Addr fall = pc + unzigzag(zfall);
        pcScratch_[i] = pc;
        targetScratch_[i] = target;
        fallScratch_[i] = fall;
        nextScratch_[i] = block.taken(i) ? target : fall;
    }
    deltas_ = deltas;
    prevPc_ = prev_pc;
    // "Anomalous next" events (never VM-emitted, but the format
    // allows them): one trailing varint per set bit. The plane is
    // almost always zero, so skip it a byte at a time.
    const std::uint8_t *anomaly =
        view_->anomalyPlane_ + (block.base >> 3);
    for (std::size_t byte = 0; byte < (count + 7) / 8; ++byte) {
        for (unsigned bits = anomaly[byte]; bits != 0; bits &= bits - 1) {
            const std::size_t i =
                8 * byte + static_cast<std::size_t>(std::countr_zero(bits));
            if (i >= count)
                break;
            std::uint64_t z = 0;
            if (!anomalies_.get(z)) {
                blab_fatal("trace view: anomalous-next column ended at "
                           "event ",
                           block.base + i, " of ", view_->size());
            }
            nextScratch_[i] = pcScratch_[i] + unzigzag(z);
        }
    }
}

bool
TraceView::Cursor::next(TraceBlock &block)
{
    if (base_ >= view_->size())
        return false;
    if (!started_) {
        started_ = true;
        deltas_ = VarintCursor{view_->deltas_,
                               view_->deltas_ + view_->deltasLen_};
        anomalies_ = VarintCursor{
            view_->anomalyDeltas_,
            view_->anomalyDeltas_ + view_->anomalyDeltasLen_};
    }
    const std::size_t count =
        std::min(kTraceBlockEvents, view_->size() - base_);
    block.base = base_;
    block.count = count;
    // base_ is always a multiple of kTraceBlockEvents (itself a
    // multiple of 8), so block-local plane pointers are byte-exact.
    block.ops = view_->ops_ + base_;
    block.condPlane = view_->condPlane_ + (base_ >> 3);
    block.takenPlane = view_->takenPlane_ + (base_ >> 3);
    block.targetKnownPlane = view_->targetKnownPlane_ + (base_ >> 3);
    decode(block, count);
    block.pc = pcScratch_.data();
    block.nextPc = nextScratch_.data();
    block.targetAddr = targetScratch_.data();
    block.fallthroughAddr = fallScratch_.data();
    base_ += count;
    return true;
}

SoaTrace
materializeView(const TraceView &view)
{
    SoaTrace out;
    out.reserve(view.size());
    TraceView::Cursor cursor = view.cursor();
    TraceBlock block;
    while (cursor.next(block))
        for (std::size_t i = 0; i < block.count; ++i)
            out.append(block.event(i));
    return out;
}

} // namespace branchlab::trace
