/**
 * @file
 * The owning branch-trace buffer: a recorded stream held in exactly
 * the encoded form a BLTC cache entry stores (trace/format.hh).
 *
 * There is one encoded form of a stream, owned or mapped. SoaTrace
 * owns its seven columns -- the opcode bytes, four LSB-first
 * bit-planes (conditional, taken, target-known, anomalous next), the
 * interleaved zig-zag delta column and the anomalous-next delta
 * column -- and appendBlock() is the only v2 encoder: it takes the
 * TraceBlock the VM hands SoaRecorder (or a view's cursor yields),
 * copies the opcodes and planes a block at a time, and writes the
 * block's varints into a stack buffer it appends once. append() is a
 * one-event block through the same code. A cold record therefore
 * builds, block by block, the very bytes a warm cache hit maps:
 * TraceCache::store writes the columns verbatim as the entry's
 * sections, and TraceView::of() hands replay the same decoding view
 * a mapped entry gives (trace/view.hh), so cold and warm replay walk
 * one form.
 *
 * The columns cost about five bytes per event on real traces (one
 * opcode byte, half a byte of planes, three mostly one-byte deltas).
 * Access is sequential only, through TraceView's cursor; toEvents()
 * materialises the whole stream for consumers that want event
 * vectors (tests, dumps). Encoding is exact, so fromEvents/toEvents
 * round-trip bit-identically.
 */

#ifndef BRANCHLAB_TRACE_SOA_HH
#define BRANCHLAB_TRACE_SOA_HH

#include <cstdint>
#include <vector>

#include "trace/event.hh"

namespace branchlab::trace
{

/** One recorded branch stream as its encoded v2 columns. */
class SoaTrace
{
  public:
    SoaTrace() = default;

    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    void clear();

    /** Reserve room for @p n events (deltas sized for the one-byte
     *  case that dominates real traces). */
    void reserve(std::size_t n);

    /** Append one block of events: the v2 encoder (the recording
     *  path). Blocks may start at any event index. */
    void appendBlock(const TraceBlock &block);

    /** Append one event (a one-event block). */
    void append(const BranchEvent &event);

    /** Largest branch pc in the stream (0 when empty). The replay
     *  kernels use this to size their pc-indexed flat tables and to
     *  decide kernel eligibility; views enforce it per event. */
    ir::Addr maxPc() const { return maxPc_; }

    // ---- The v2 sections, in file order (trace/format.hh). ----

    const std::vector<std::uint8_t> &ops() const { return ops_; }
    const std::vector<std::uint8_t> &conditionalPlane() const
    {
        return conditionalPlane_;
    }
    const std::vector<std::uint8_t> &takenPlane() const
    {
        return takenPlane_;
    }
    const std::vector<std::uint8_t> &targetKnownPlane() const
    {
        return targetKnownPlane_;
    }
    const std::vector<std::uint8_t> &anomalyPlane() const
    {
        return anomalyPlane_;
    }
    /** One (pc vs previous pc, target vs pc, fallthrough vs pc)
     *  zig-zag varint triple per event. */
    const std::vector<std::uint8_t> &deltas() const { return deltas_; }
    /** One zig-zag varint (nextPc vs pc) per set anomaly bit. */
    const std::vector<std::uint8_t> &anomalyDeltas() const
    {
        return anomalyDeltas_;
    }

    // ---- Bulk conversions (exact round trips). ----

    static SoaTrace fromEvents(const std::vector<BranchEvent> &events);
    std::vector<BranchEvent> toEvents() const;

  private:
    std::vector<std::uint8_t> ops_;
    /** LSB-first bit-planes, (size + 7) / 8 bytes each. */
    std::vector<std::uint8_t> conditionalPlane_;
    std::vector<std::uint8_t> takenPlane_;
    std::vector<std::uint8_t> targetKnownPlane_;
    std::vector<std::uint8_t> anomalyPlane_;
    std::vector<std::uint8_t> deltas_;
    std::vector<std::uint8_t> anomalyDeltas_;
    /** The last appended pc: the base of the next pc delta. */
    ir::Addr prevPc_ = 0;
    ir::Addr maxPc_ = 0;
};

/** Records every block of branch events straight into the encoded
 *  columns -- the replay engine's recorder (no intermediate event
 *  vector). */
class SoaRecorder : public TraceSink
{
  public:
    SoaRecorder() = default;

    explicit SoaRecorder(std::size_t reserve_hint)
    {
        trace_.reserve(reserve_hint);
    }

    void onBlock(const TraceBlock &block) override
    {
        trace_.appendBlock(block);
    }

    void onBranch(const BranchEvent &event) override
    {
        trace_.append(event);
    }

    const SoaTrace &trace() const { return trace_; }

    /** Move the recorded stream out, leaving the recorder empty. */
    SoaTrace
    take()
    {
        SoaTrace taken = std::move(trace_);
        trace_.clear();
        return taken;
    }

  private:
    SoaTrace trace_;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_SOA_HH
