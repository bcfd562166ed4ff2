/**
 * @file
 * SoaTrace out-of-line members: the v2 block encoder.
 */

#include "trace/soa.hh"

#include <algorithm>
#include <array>

#include "support/logging.hh"
#include "trace/varint.hh"
#include "trace/view.hh"

namespace branchlab::trace
{

namespace
{

/** Append the first @p count bits of a block-local @p bits plane to
 *  @p plane, which holds @p used bits. The plane ends at
 *  (used + count + 7) / 8 bytes, and its bits past the last event
 *  stay zero whatever the block's pad bits hold. */
void
appendBits(std::vector<std::uint8_t> &plane, std::size_t used,
           const std::uint8_t *bits, std::size_t count)
{
    plane.resize((used + count + 7) / 8);
    std::uint8_t *out = plane.data() + (used >> 3);
    const unsigned shift = used & 7;
    const std::size_t bytes = (count + 7) / 8;
    for (std::size_t k = 0; k < bytes; ++k) {
        unsigned byte = bits[k];
        if (k + 1 == bytes && (count & 7) != 0)
            byte &= (1u << (count & 7)) - 1;
        out[k] |= static_cast<std::uint8_t>(byte << shift);
        // Bits shifted past this byte belong to events, so the next
        // byte exists whenever any of them is set.
        if ((byte << shift) >> 8 != 0)
            out[k + 1] |= static_cast<std::uint8_t>((byte << shift) >> 8);
    }
}

} // namespace

void
SoaTrace::clear()
{
    ops_.clear();
    conditionalPlane_.clear();
    takenPlane_.clear();
    targetKnownPlane_.clear();
    anomalyPlane_.clear();
    deltas_.clear();
    anomalyDeltas_.clear();
    prevPc_ = 0;
    maxPc_ = 0;
}

void
SoaTrace::reserve(std::size_t n)
{
    const std::size_t plane_bytes = (n + 7) / 8;
    ops_.reserve(n);
    conditionalPlane_.reserve(plane_bytes);
    takenPlane_.reserve(plane_bytes);
    targetKnownPlane_.reserve(plane_bytes);
    anomalyPlane_.reserve(plane_bytes);
    deltas_.reserve(3 * n);
}

void
SoaTrace::appendBlock(const TraceBlock &block)
{
    const std::size_t count = block.count;
    blab_assert(count <= kTraceBlockEvents, "oversized trace block");
    // One interleaved (pc, target, fallthrough) triple per event, so
    // the decoder fills each event in a single sequential pass. The
    // block's triples go to the stack first and are appended at once;
    // only the bytes written, [deltas, out), are ever read.
    std::array<std::uint8_t, 3 * kMaxVarintBytes * kTraceBlockEvents>
        deltas;
    std::uint8_t *out = deltas.data();
    std::array<std::uint8_t, kTraceBlockEvents / 8> anomalies{};
    ir::Addr prev_pc = prevPc_;
    ir::Addr max_pc = maxPc_;
    for (std::size_t i = 0; i < count; ++i) {
        const ir::Addr pc = block.pc[i];
        const ir::Addr target = block.targetAddr[i];
        const ir::Addr fall = block.fallthroughAddr[i];
        // "Anomalous next" events (never VM-emitted, but
        // representable) carry their nextPc in a side column.
        if (block.nextPc[i] != (block.taken(i) ? target : fall)) {
            anomalies[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
            putVarint(anomalyDeltas_, zigzag(block.nextPc[i] - pc));
        }
        out = writeVarint(out, zigzag(pc - prev_pc));
        out = writeVarint(out, zigzag(target - pc));
        out = writeVarint(out, zigzag(fall - pc));
        prev_pc = pc;
        max_pc = std::max(max_pc, pc);
    }
    // The delta column goes first: at about three bytes an event it
    // outgrows its reservation just before the opcode column does,
    // and regrowing the columns in that order, as the per-event
    // encoder did, lets one record's freed buffers serve the next
    // (the other order left a cold suite's peak RSS 5 MB higher).
    deltas_.insert(deltas_.end(), deltas.data(), out);
    const std::size_t used = ops_.size();
    ops_.insert(ops_.end(), block.ops, block.ops + count);
    appendBits(conditionalPlane_, used, block.condPlane, count);
    appendBits(takenPlane_, used, block.takenPlane, count);
    appendBits(targetKnownPlane_, used, block.targetKnownPlane, count);
    appendBits(anomalyPlane_, used, anomalies.data(), count);
    prevPc_ = prev_pc;
    maxPc_ = max_pc;
}

void
SoaTrace::append(const BranchEvent &event)
{
    const BlockBuffer<1> one(event);
    appendBlock(one.block());
}

SoaTrace
SoaTrace::fromEvents(const std::vector<BranchEvent> &events)
{
    SoaTrace out;
    out.reserve(events.size());
    for (const BranchEvent &event : events)
        out.append(event);
    return out;
}

std::vector<BranchEvent>
SoaTrace::toEvents() const
{
    std::vector<BranchEvent> out;
    out.reserve(size());
    const TraceView view = TraceView::of(*this);
    TraceView::Cursor cursor = view.cursor();
    TraceBlock block;
    while (cursor.next(block))
        for (std::size_t i = 0; i < block.count; ++i)
            out.push_back(block.event(i));
    return out;
}

} // namespace branchlab::trace
