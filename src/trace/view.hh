/**
 * @file
 * Non-owning trace views: the one replay-facing interface over the
 * one encoded form of a recorded stream -- the BLTC stream sections
 * (trace/format.hh), owned by a SoaTrace after a cold record or
 * mapped out of a cache entry on a warm hit. Both arrive through the
 * same view and decode the same way.
 *
 * Replay is strictly sequential (every kernel is a fold over the
 * stream), so the view hands out fixed-size blocks through a Cursor
 * instead of random access. The opcode bytes and all four bit-planes
 * point straight into the sections -- no per-plane copy, ever --
 * while the varint-encoded address columns decode lazily into a small
 * cursor-owned scratch buffer, one block at a time. Memory per
 * consumer is a few tens of kilobytes regardless of trace size, which
 * is what lets a replay walk a multi-gigabyte mapped trace under a
 * constant address-space budget (bench/stream_smoke.cc proves this
 * under ulimit -v).
 *
 * The block length is a multiple of 8 so block-local bit-plane
 * pointers stay byte-aligned.
 *
 * Corruption discipline: a mapped entry is fully validated (section
 * bounds, checksums, opcode range) before a view over it exists
 * (trace/cache.cc), and an owned stream was encoded by
 * SoaTrace::append, so decode errors are internal inconsistencies and
 * fail fatally rather than soft-failing. The per-event pc <= maxPc
 * guard backs the replay kernels' pc-indexed flat tables: a view can
 * never hand them an out-of-range pc.
 */

#ifndef BRANCHLAB_TRACE_VIEW_HH
#define BRANCHLAB_TRACE_VIEW_HH

#include <array>
#include <cstdint>

#include "trace/soa.hh"
#include "trace/varint.hh"

namespace branchlab::trace
{

/** Events per cursor block. Multiple of 8 (bit-plane byte
 *  alignment); sized so a block of materialised kernel events stays
 *  L1-resident (predict/replay_kernels.hh strip-mines at the same
 *  width). */
inline constexpr std::size_t kTraceBlockEvents = 512;

/**
 * One block of events [base, base + count). Field pointers are
 * block-local: element i of the block is ops[i], pc[i], and bit
 * (i & 7) of plane byte (i >> 3).
 */
struct TraceBlock
{
    std::size_t base = 0;
    std::size_t count = 0;
    const std::uint8_t *ops = nullptr;
    const std::uint8_t *condPlane = nullptr;
    const std::uint8_t *takenPlane = nullptr;
    const std::uint8_t *targetKnownPlane = nullptr;
    const ir::Addr *pc = nullptr;
    const ir::Addr *nextPc = nullptr;
    const ir::Addr *targetAddr = nullptr;
    const ir::Addr *fallthroughAddr = nullptr;

    ir::Opcode
    opcode(std::size_t i) const
    {
        return static_cast<ir::Opcode>(ops[i]);
    }

    bool conditional(std::size_t i) const
    {
        return bit(condPlane, i);
    }

    bool taken(std::size_t i) const { return bit(takenPlane, i); }

    bool targetKnown(std::size_t i) const
    {
        return bit(targetKnownPlane, i);
    }

    /** Materialise block element @p i as a whole event. */
    BranchEvent
    event(std::size_t i) const
    {
        BranchEvent e;
        e.pc = pc[i];
        e.nextPc = nextPc[i];
        e.targetAddr = targetAddr[i];
        e.fallthroughAddr = fallthroughAddr[i];
        e.op = opcode(i);
        e.conditional = conditional(i);
        e.taken = taken(i);
        e.targetKnown = targetKnown(i);
        return e;
    }

  private:
    static bool
    bit(const std::uint8_t *plane, std::size_t i)
    {
        return (plane[i >> 3] >> (i & 7)) & 1u;
    }
};

/**
 * A non-owning view of one recorded stream. Plain value: copy
 * freely, but never outlive the SoaTrace or mapping it points into.
 * Concurrent replays of the same view are safe -- all shared state
 * is read-only; each consumer's mutable decode state lives in its
 * own Cursor.
 */
class TraceView
{
  public:
    class Cursor;

    TraceView() = default;

    /** View an owned stream's encoded columns. */
    static TraceView of(const SoaTrace &stream);

    /**
     * View BLTC stream sections directly (zero-copy). @p deltas /
     * @p anomaly_deltas are the varint sections; the planes are
     * LSB-first with ceil(count / 8) bytes; @p max_pc is the declared
     * bound, enforced per event during decode.
     */
    static TraceView
    mapped(const std::uint8_t *ops, const std::uint8_t *cond_plane,
           const std::uint8_t *taken_plane,
           const std::uint8_t *target_known_plane,
           const std::uint8_t *anomaly_plane,
           const std::uint8_t *deltas, std::size_t deltas_len,
           const std::uint8_t *anomaly_deltas,
           std::size_t anomaly_deltas_len, std::size_t count,
           ir::Addr max_pc);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    ir::Addr maxPc() const { return maxPc_; }

    Cursor cursor() const;

    /**
     * Sequential block iterator; see the file comment. One cursor per
     * consumer -- it owns the decode scratch. Holds a pointer to its
     * view, which must stay alive (and in place) for the cursor's
     * lifetime.
     */
    class Cursor
    {
      public:
        explicit Cursor(const TraceView &view) : view_(&view) {}

        /** Fill @p block with the next <= kTraceBlockEvents events.
         *  @return false when the stream is exhausted. */
        bool next(TraceBlock &block);

      private:
        void decode(TraceBlock &block, std::size_t count);

        const TraceView *view_;
        std::size_t base_ = 0;
        bool started_ = false;
        VarintCursor deltas_;
        VarintCursor anomalies_;
        ir::Addr prevPc_ = 0;
        std::array<ir::Addr, kTraceBlockEvents> pcScratch_;
        std::array<ir::Addr, kTraceBlockEvents> nextScratch_;
        std::array<ir::Addr, kTraceBlockEvents> targetScratch_;
        std::array<ir::Addr, kTraceBlockEvents> fallScratch_;
    };

  private:
    std::size_t size_ = 0;
    ir::Addr maxPc_ = 0;
    const std::uint8_t *ops_ = nullptr;
    const std::uint8_t *condPlane_ = nullptr;
    const std::uint8_t *takenPlane_ = nullptr;
    const std::uint8_t *targetKnownPlane_ = nullptr;
    const std::uint8_t *anomalyPlane_ = nullptr;
    const std::uint8_t *deltas_ = nullptr;
    std::size_t deltasLen_ = 0;
    const std::uint8_t *anomalyDeltas_ = nullptr;
    std::size_t anomalyDeltasLen_ = 0;
};

/** Decode a view into an owning SoaTrace (exact copy; re-encoded
 *  event by event, so the result is append()'s canonical bytes). */
SoaTrace materializeView(const TraceView &view);

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_VIEW_HH
