/**
 * @file
 * Predecoded program image: the VM interpreter's fast path.
 *
 * The layout pass assigns one contiguous address unit per instruction
 * (functions in creation order, blocks in creation order), so a whole
 * program flattens into a single array indexed by
 * (address - kCodeBase). Predecoding resolves, once per program, what
 * the interpreter previously recomputed for every *executed*
 * instruction: the function/block/instruction triple indirection, the
 * layout address of the slot, and the branch-target addresses and
 * flat-slot indices.
 *
 * One PredecodedProgram serves any number of machines (it is
 * immutable after construction), so a workload's whole input suite
 * decodes its program exactly once. The Forward Semantic image
 * executor reads each image slot's original instruction from one as
 * well.
 */

#ifndef BRANCHLAB_VM_PREDECODE_HH
#define BRANCHLAB_VM_PREDECODE_HH

#include <vector>

#include "ir/layout.hh"
#include "ir/program.hh"

namespace branchlab::vm
{

/**
 * One flattened, pre-resolved instruction slot. Scalar operands are
 * copied next to the opcode; the rare vector operands (jump tables,
 * call argument lists) stay behind the @c inst pointer.
 */
struct DecodedInst
{
    ir::Opcode op = ir::Opcode::Nop;
    bool useImm = false;
    ir::Reg dst = ir::kNoReg;
    ir::Reg src1 = ir::kNoReg;
    ir::Reg src2 = ir::kNoReg;
    /** Call/CallInd callee or Ldf reference; for JTab the *owning*
     *  function (its table targets are function-local blocks). */
    ir::FuncId func = ir::kNoFunc;
    ir::Word imm = 0;
    /** This slot's layout address (== slot index + kCodeBase). */
    ir::Addr pc = ir::kNoAddr;
    /** Taken-target address: conditional/Jmp target block, or the
     *  callee entry for a direct Call. */
    ir::Addr takenAddr = ir::kNoAddr;
    /** Conditional fallthrough *block* address (the event's
     *  fallthroughAddr); pc + 1 for every other opcode. */
    ir::Addr fallAddr = ir::kNoAddr;
    /** Flat slot of the taken-target block head (cond/Jmp/Call). */
    std::uint32_t takenSlot = 0;
    /** Flat slot of the fallthrough block head (conditionals) or of
     *  the call continuation block head (Call/CallInd). */
    std::uint32_t nextSlot = 0;
    /** The original instruction (jump tables, argument lists). */
    const ir::Instruction *inst = nullptr;
};

/** Per-function facts the call/return path needs. */
struct DecodedFunction
{
    std::uint32_t entrySlot = 0;
    ir::Addr entryAddr = ir::kNoAddr;
    std::uint32_t numRegs = 0;
    std::uint32_t numArgs = 0;
};

/**
 * Immutable flat decoding of one (program, layout) pair. The program
 * and layout must outlive it and must not be mutated afterwards.
 */
class PredecodedProgram
{
  public:
    PredecodedProgram(const ir::Program &program,
                      const ir::Layout &layout);

    const ir::Program &program() const { return prog_; }

    const DecodedInst *slots() const { return slots_.data(); }
    std::uint32_t numSlots() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    const DecodedFunction &func(ir::FuncId id) const
    {
        return funcs_[id];
    }

    /** Flat slot of a block's first instruction. */
    std::uint32_t blockSlot(ir::FuncId func, ir::BlockId block) const
    {
        return static_cast<std::uint32_t>(
            layout_.blockAddr(func, block) - ir::kCodeBase);
    }

    ir::FuncId mainFunction() const { return main_; }

  private:
    const ir::Program &prog_;
    const ir::Layout &layout_;
    std::vector<DecodedInst> slots_;
    std::vector<DecodedFunction> funcs_;
    ir::FuncId main_ = ir::kNoFunc;
};

} // namespace branchlab::vm

#endif // BRANCHLAB_VM_PREDECODE_HH
