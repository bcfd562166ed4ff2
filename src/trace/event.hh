/**
 * @file
 * Dynamic trace events emitted by the IR virtual machine, and the one
 * block type every stream consumer reads them in.
 *
 * Branch events carry everything the three schemes in the paper need:
 * the branch's static address (BTB tag), its actual next PC, the
 * static taken-target address, and the known/unknown-target
 * classification from Table 2.
 *
 * Events travel in blocks. The VM fills a BlockBuffer and hands each
 * full block (and the partial one before a run ends) to
 * TraceSink::onBlock; a view's cursor (trace/view.hh) yields the same
 * TraceBlock when it decodes a recorded stream. A consumer that folds
 * a stream -- the encoder, the profile, the Table 1/2 counters -- so
 * has one loop over one layout whether its events come from the VM or
 * from a mapped entry.
 */

#ifndef BRANCHLAB_TRACE_EVENT_HH
#define BRANCHLAB_TRACE_EVENT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "ir/opcode.hh"
#include "ir/types.hh"

namespace branchlab::trace
{

/** One executed branch instruction. */
struct BranchEvent
{
    /** Static address of the branch instruction. */
    ir::Addr pc = ir::kNoAddr;
    /** Address execution actually continues at. */
    ir::Addr nextPc = ir::kNoAddr;
    /**
     * Address of the taken-path target. For conditional branches this
     * is the static taken target even when the branch falls through;
     * for unconditional branches it equals nextPc.
     */
    ir::Addr targetAddr = ir::kNoAddr;
    /** Address of the next sequential instruction (fallthrough). */
    ir::Addr fallthroughAddr = ir::kNoAddr;
    /** The branch opcode (Beq..Ret). */
    ir::Opcode op = ir::Opcode::Jmp;
    /** True for Beq..Bge. */
    bool conditional = false;
    /** Outcome; unconditional branches are always taken. */
    bool taken = true;
    /**
     * True when the target is statically encoded or register-readable
     * at decode (jumps, calls, returns); false for jumps/calls through
     * run-time data (JTab, CallInd). Paper Table 2's Known column.
     */
    bool targetKnown = true;

    /** True for a backward transfer (target before the branch). */
    bool
    isBackward() const
    {
        return targetAddr != ir::kNoAddr && targetAddr < pc;
    }
};

/** One executed instruction (instruction-level tracing only). */
struct InstEvent
{
    ir::Addr pc = ir::kNoAddr;
    ir::Opcode op = ir::Opcode::Nop;
};

/** Events per block. Multiple of 8 (bit-plane byte alignment); sized
 *  so a block of materialised kernel events stays L1-resident
 *  (predict/replay_kernels.hh strip-mines at the same width). */
inline constexpr std::size_t kTraceBlockEvents = 512;

/**
 * One block of at most kTraceBlockEvents events. Field pointers are
 * block-local: element i of the block is ops[i], pc[i], and bit
 * (i & 7) of plane byte (i >> 3); plane bits past `count` are
 * meaningless. `base` is the position of element 0 among every event
 * the block's producer has handed on (a view's stream index, a VM
 * machine's branch count).
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
 * Owned storage for one block of up to @p Capacity events, filled
 * event by event: the VM's emit buffer (Capacity kTraceBlockEvents)
 * and, at Capacity 1, how a per-event entry point (SoaTrace::append,
 * ProgramProfile::onBranch, TraceStats::onBranch) reaches its block
 * routine. block() points into the buffer, so the buffer is neither
 * copied nor moved.
 */
template <std::size_t Capacity>
class BlockBuffer
{
    static_assert(Capacity >= 1 && Capacity <= kTraceBlockEvents);

  public:
    BlockBuffer() = default;

    /** A one-event buffer holding @p event. */
    explicit BlockBuffer(const BranchEvent &event) { push(event); }

    BlockBuffer(const BlockBuffer &) = delete;
    BlockBuffer &operator=(const BlockBuffer &) = delete;

    std::size_t size() const { return count_; }

    /** Append @p event; the buffer must not be full. */
    void
    push(const BranchEvent &event)
    {
        const std::size_t i = count_++;
        ops_[i] = static_cast<std::uint8_t>(event.op);
        pc_[i] = event.pc;
        next_[i] = event.nextPc;
        target_[i] = event.targetAddr;
        fall_[i] = event.fallthroughAddr;
        const unsigned shift = i & 7;
        cond_[i >> 3] |= static_cast<std::uint8_t>(
            unsigned{event.conditional} << shift);
        taken_[i >> 3] |=
            static_cast<std::uint8_t>(unsigned{event.taken} << shift);
        known_[i >> 3] |= static_cast<std::uint8_t>(
            unsigned{event.targetKnown} << shift);
    }

    /** The buffered events as a block. */
    TraceBlock
    block() const
    {
        TraceBlock out;
        out.base = base_;
        out.count = count_;
        out.ops = ops_.data();
        out.condPlane = cond_.data();
        out.takenPlane = taken_.data();
        out.targetKnownPlane = known_.data();
        out.pc = pc_.data();
        out.nextPc = next_.data();
        out.targetAddr = target_.data();
        out.fallthroughAddr = fall_.data();
        return out;
    }

    /** Empty the buffer; the next block's base follows this one's. */
    void
    clear()
    {
        const std::size_t used = (count_ + 7) / 8;
        std::memset(cond_.data(), 0, used);
        std::memset(taken_.data(), 0, used);
        std::memset(known_.data(), 0, used);
        base_ += count_;
        count_ = 0;
    }

  private:
    static constexpr std::size_t kPlaneBytes = (Capacity + 7) / 8;

    std::size_t base_ = 0;
    std::size_t count_ = 0;
    std::array<std::uint8_t, Capacity> ops_{};
    std::array<ir::Addr, Capacity> pc_{};
    std::array<ir::Addr, Capacity> next_{};
    std::array<ir::Addr, Capacity> target_{};
    std::array<ir::Addr, Capacity> fall_{};
    std::array<std::uint8_t, kPlaneBytes> cond_{};
    std::array<std::uint8_t, kPlaneBytes> taken_{};
    std::array<std::uint8_t, kPlaneBytes> known_{};
};

/**
 * Receiver of trace events. The VM drives exactly one sink; fan out
 * with trace::FanoutSink when several consumers are needed.
 *
 * Branches arrive in blocks, in execution order: the VM hands over
 * every executed branch before run() returns or throws. A sink that
 * folds whole blocks overrides onBlock(); the default forwards event
 * by event to onBranch(), so a per-event sink needs nothing else.
 *
 * onInstruction is only called when wantsInstructions() returns true,
 * keeping the common predictors-only path cheap; such a sink still
 * sees each branch before the next instruction.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Return true to receive per-instruction events. */
    virtual bool wantsInstructions() const { return false; }

    /** Called for every executed instruction (branches included). */
    virtual void onInstruction(const InstEvent &event) { (void)event; }

    /** Called for every block of executed branches. */
    virtual void
    onBlock(const TraceBlock &block)
    {
        for (std::size_t i = 0; i < block.count; ++i)
            onBranch(block.event(i));
    }

    /** Called for every executed branch by the default onBlock(). */
    virtual void onBranch(const BranchEvent &event) = 0;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_EVENT_HH
