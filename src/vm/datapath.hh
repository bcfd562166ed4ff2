/**
 * @file
 * The datapath both interpreters share: what every non-branch opcode
 * does to the frame registers, the data memory and the I/O channels,
 * the call stack, how a branch finds its data-dependent destination,
 * and the trace event each branch kind produces.
 *
 * vm::Machine (the record pass) and profile::ImageExecutor (Figure 2's
 * execution of a Forward Semantic image) differ only in where they
 * fetch the next instruction from: the machine walks the original
 * layout, the executor the image's homes, slot regions and duplicates.
 * What an instruction computes comes from here, and the ALU results
 * from ir::evalBinary / ir::evalUnary, so the two cannot disagree on a
 * value, a fault or an event.
 *
 * Faults go to a caller-supplied callable, @c fault(what), which must
 * throw; each interpreter adds where it was.
 */

#ifndef BRANCHLAB_VM_DATAPATH_HH
#define BRANCHLAB_VM_DATAPATH_HH

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "ir/opcode.hh"
#include "ir/verifier.hh"
#include "trace/event.hh"
#include "vm/memory.hh"
#include "vm/predecode.hh"

namespace branchlab::vm
{

/** The word streams of one run, one per channel: In reads a channel's
 *  input (-1 once it runs dry), Out appends to its output. */
class Channels
{
  public:
    static constexpr auto kCount =
        static_cast<std::size_t>(ir::kMaxChannels);

    /** Replace a channel's input and rewind it. */
    void setInput(std::size_t channel, std::vector<ir::Word> words);

    /** Rewind every input and clear every output (inputs are kept). */
    void rewind();

    ir::Word
    read(std::size_t channel)
    {
        std::size_t &cursor = cursors_[channel];
        const std::vector<ir::Word> &input = inputs_[channel];
        return cursor < input.size() ? input[cursor++] : -1;
    }

    void
    write(std::size_t channel, ir::Word word)
    {
        outputs_[channel].push_back(word);
    }

    const std::vector<ir::Word> &output(std::size_t channel) const;

    /** Every channel's output, moved out. */
    std::vector<std::vector<ir::Word>> takeOutputs();

  private:
    std::array<std::vector<ir::Word>, kCount> inputs_;
    std::array<std::size_t, kCount> cursors_{};
    std::array<std::vector<ir::Word>, kCount> outputs_;
};

/** The call stack: one frame of registers per active call, all of
 *  them in one register stack. */
class CallStack
{
  public:
    void
    clear()
    {
        frames_.clear();
        regs_.clear();
    }

    std::size_t depth() const { return frames_.size(); }

    /** The current frame's registers, valid until the next push or
     *  pop. */
    ir::Word *regs() { return regs_.data() + frames_.back().regBase; }

    /**
     * Enter @p callee: push a frame of its registers, zeroed but for
     * @p args copied from the current frame, that resumes at @p resume
     * and returns its result to @p ret_dst. Faults when @p max_frames
     * frames are already active. Returns the callee's registers.
     */
    template <typename Fault>
    ir::Word *
    push(const DecodedFunction &callee, const std::vector<ir::Reg> &args,
         ir::Reg ret_dst, std::uint32_t resume, std::size_t max_frames,
         const Fault &fault)
    {
        if (frames_.size() >= max_frames)
            fault("call stack overflow");
        const std::size_t caller =
            frames_.empty() ? 0 : frames_.back().regBase;
        const std::size_t base = regs_.size();
        regs_.resize(base + callee.numRegs, 0);
        for (std::size_t i = 0; i < args.size(); ++i)
            regs_[base + i] = regs_[caller + args[i]];
        frames_.push_back(Frame{base, ret_dst, resume});
        return regs();
    }

    /** Leave the current frame through @p ret, handing its src1 (0
     *  without one) to the caller. Returns the slot to resume at. */
    std::uint32_t
    pop(const DecodedInst &ret)
    {
        const Frame finished = frames_.back();
        const ir::Word value =
            ret.src1 != ir::kNoReg ? regs_[finished.regBase + ret.src1] : 0;
        frames_.pop_back();
        regs_.resize(finished.regBase);
        if (finished.retDst != ir::kNoReg)
            regs()[finished.retDst] = value;
        return finished.resume;
    }

  private:
    struct Frame
    {
        /** Base of this frame's registers in regs_. */
        std::size_t regBase;
        /** Caller register receiving the return value (kNoReg: none). */
        ir::Reg retDst;
        /** Flat slot the caller resumes at when this frame returns. */
        std::uint32_t resume;
    };

    std::vector<Frame> frames_;
    std::vector<ir::Word> regs_;
};

/** The right-hand operand of an ALU opcode or a comparison. */
inline ir::Word
rhs(const DecodedInst &d, const ir::Word *regs)
{
    return d.useImm ? d.imm : regs[d.src2];
}

/** A data address: base plus offset, wrapping, so an overflowing sum
 *  is one more address out of range. */
inline ir::Word
dataAddress(ir::Word base, ir::Word offset)
{
    return static_cast<ir::Word>(static_cast<std::uint64_t>(base) +
                                 static_cast<std::uint64_t>(offset));
}

/** Execute the non-branch instruction @p d, whose opcode is @p Op. */
template <ir::Opcode Op, typename Fault>
inline void
execute(const DecodedInst &d, ir::Word *regs, Memory &memory,
        Channels &channels, const Fault &fault)
{
    using ir::Opcode;
    if constexpr (ir::isBinaryAlu(Op)) {
        if (const std::optional<ir::Word> value =
                ir::evalBinary(Op, regs[d.src1], rhs(d, regs)))
            regs[d.dst] = *value;
        else
            fault(Op == Opcode::Div ? "division by zero"
                                    : "remainder by zero");
    } else if constexpr (ir::isUnaryAlu(Op)) {
        regs[d.dst] = ir::evalUnary(Op, regs[d.src1]);
    } else if constexpr (Op == Opcode::Ldi) {
        regs[d.dst] = d.imm;
    } else if constexpr (Op == Opcode::Ld) {
        const ir::Word addr = dataAddress(regs[d.src1], d.imm);
        ir::Word value = 0;
        if (!memory.tryRead(addr, value))
            fault("load from bad address " + std::to_string(addr));
        regs[d.dst] = value;
    } else if constexpr (Op == Opcode::St) {
        const ir::Word addr = dataAddress(regs[d.src1], d.imm);
        if (!memory.tryWrite(addr, regs[d.src2]))
            fault("store to bad address " + std::to_string(addr));
    } else if constexpr (Op == Opcode::Ldf) {
        regs[d.dst] = static_cast<ir::Word>(d.func);
    } else if constexpr (Op == Opcode::In) {
        regs[d.dst] = channels.read(static_cast<std::size_t>(d.imm));
    } else if constexpr (Op == Opcode::Out) {
        channels.write(static_cast<std::size_t>(d.imm), regs[d.src1]);
    } else {
        static_assert(Op == Opcode::Nop, "execute takes non-branch opcodes");
    }
}

/** execute() for an opcode known only at run time. */
template <typename Fault>
void
execute(const DecodedInst &d, ir::Word *regs, Memory &memory,
        Channels &channels, const Fault &fault)
{
    using ir::Opcode;
    switch (d.op) {
      case Opcode::Add:
        return execute<Opcode::Add>(d, regs, memory, channels, fault);
      case Opcode::Sub:
        return execute<Opcode::Sub>(d, regs, memory, channels, fault);
      case Opcode::Mul:
        return execute<Opcode::Mul>(d, regs, memory, channels, fault);
      case Opcode::Div:
        return execute<Opcode::Div>(d, regs, memory, channels, fault);
      case Opcode::Rem:
        return execute<Opcode::Rem>(d, regs, memory, channels, fault);
      case Opcode::And:
        return execute<Opcode::And>(d, regs, memory, channels, fault);
      case Opcode::Or:
        return execute<Opcode::Or>(d, regs, memory, channels, fault);
      case Opcode::Xor:
        return execute<Opcode::Xor>(d, regs, memory, channels, fault);
      case Opcode::Shl:
        return execute<Opcode::Shl>(d, regs, memory, channels, fault);
      case Opcode::Shr:
        return execute<Opcode::Shr>(d, regs, memory, channels, fault);
      case Opcode::Not:
        return execute<Opcode::Not>(d, regs, memory, channels, fault);
      case Opcode::Neg:
        return execute<Opcode::Neg>(d, regs, memory, channels, fault);
      case Opcode::Mov:
        return execute<Opcode::Mov>(d, regs, memory, channels, fault);
      case Opcode::Ldi:
        return execute<Opcode::Ldi>(d, regs, memory, channels, fault);
      case Opcode::Ld:
        return execute<Opcode::Ld>(d, regs, memory, channels, fault);
      case Opcode::St:
        return execute<Opcode::St>(d, regs, memory, channels, fault);
      case Opcode::Ldf:
        return execute<Opcode::Ldf>(d, regs, memory, channels, fault);
      case Opcode::In:
        return execute<Opcode::In>(d, regs, memory, channels, fault);
      case Opcode::Out:
        return execute<Opcode::Out>(d, regs, memory, channels, fault);
      case Opcode::Nop:
        return;
      default:
        ir::badOpcode("vm::execute", d.op);
    }
}

/** Whether conditional branch @p d is taken; @p op is d.op, a
 *  constant where the caller knows it. */
inline bool
taken(ir::Opcode op, const DecodedInst &d, const ir::Word *regs)
{
    return ir::evalCondition(op, regs[d.src1], rhs(d, regs));
}

/** The flat slot jump table @p d selects with the index in src1. */
template <typename Fault>
std::uint32_t
jumpTableSlot(const DecodedInst &d, const ir::Word *regs,
              const PredecodedProgram &code, const Fault &fault)
{
    const ir::Word index = regs[d.src1];
    const std::vector<ir::BlockId> &table = d.inst->table;
    if (index < 0 || index >= static_cast<ir::Word>(table.size()))
        fault("jump-table index " + std::to_string(index) +
              " out of range");
    return code.blockSlot(d.func, table[static_cast<std::size_t>(index)]);
}

/** The function call @p d enters: a Call's callee, or the reference a
 *  CallInd finds in src1; either must take the call's arguments. */
template <typename Fault>
ir::FuncId
callee(const DecodedInst &d, const ir::Word *regs,
       const PredecodedProgram &code, const Fault &fault)
{
    ir::FuncId func = d.func;
    if (d.op == ir::Opcode::CallInd) {
        const ir::Word ref = regs[d.src1];
        if (ref < 0 ||
            ref >= static_cast<ir::Word>(code.program().numFunctions()))
            fault("indirect call to bad function ref " +
                  std::to_string(ref));
        func = static_cast<ir::FuncId>(ref);
    }
    if (d.inst->args.size() != code.func(func).numArgs)
        fault("argument count mismatch in indirect call");
    return func;
}

/** The event of conditional branch @p d. */
inline trace::BranchEvent
conditionalEvent(const DecodedInst &d, bool taken)
{
    trace::BranchEvent ev;
    ev.pc = d.pc;
    ev.op = d.op;
    ev.conditional = true;
    ev.taken = taken;
    ev.targetKnown = true;
    ev.targetAddr = d.takenAddr;
    ev.fallthroughAddr = d.fallAddr;
    ev.nextPc = taken ? d.takenAddr : d.fallAddr;
    return ev;
}

/** The event of unconditional transfer @p d (Jmp, JTab, Call, CallInd
 *  or Ret) to @p target. */
inline trace::BranchEvent
transferEvent(const DecodedInst &d, ir::Addr target)
{
    trace::BranchEvent ev;
    ev.pc = d.pc;
    ev.op = d.op;
    ev.taken = true;
    // A return's address is register-resident and readable at decode:
    // a known target (see DESIGN.md).
    ev.targetKnown = ir::hasKnownTarget(d.op);
    ev.targetAddr = target;
    ev.fallthroughAddr = d.pc + 1;
    ev.nextPc = target;
    return ev;
}

} // namespace branchlab::vm

#endif // BRANCHLAB_VM_DATAPATH_HH
