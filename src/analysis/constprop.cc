#include "analysis/constprop.hh"

#include "analysis/dataflow.hh"
#include "analysis/operands.hh"

namespace branchlab::analysis
{

using ir::BlockId;
using ir::Opcode;
using ir::Reg;
using ir::Word;

namespace
{

ConstVal
meetVals(const ConstVal &a, const ConstVal &b)
{
    if (a.kind == ConstVal::Kind::Unknown)
        return b;
    if (b.kind == ConstVal::Kind::Unknown)
        return a;
    if (a.isConst() && b.isConst() && a.value == b.value)
        return a;
    return ConstVal::varying();
}

struct ConstProblem
{
    using Domain = std::vector<ConstVal>;

    const ir::Function &fn;

    Domain top() const
    {
        return Domain(fn.numRegs(), ConstVal::unknown());
    }

    /** Entry facts: nothing provable, including the zero fill. */
    Domain boundary() const
    {
        return Domain(fn.numRegs(), ConstVal::varying());
    }

    void
    meetInto(Domain &into, const Domain &from) const
    {
        for (std::size_t i = 0; i < into.size(); ++i)
            into[i] = meetVals(into[i], from[i]);
    }

    Domain
    transfer(BlockId block, const Domain &in) const
    {
        Domain regs = in;
        for (const ir::Instruction &inst :
             fn.block(block).instructions())
            applyConstTransfer(inst, regs);
        return regs;
    }
};

ConstVal
valueOf(const std::vector<ConstVal> &regs, Reg reg)
{
    if (reg == ir::kNoReg || reg >= regs.size())
        return ConstVal::varying();
    return regs[reg];
}

/** Right-hand operand of an ALU/compare instruction. */
ConstVal
rhsValue(const ir::Instruction &inst,
         const std::vector<ConstVal> &regs)
{
    return inst.useImm ? ConstVal::constant(inst.imm)
                       : valueOf(regs, inst.src2);
}

} // namespace

void
applyConstTransfer(const ir::Instruction &inst,
                   std::vector<ConstVal> &regs)
{
    const Reg def = definedReg(inst);
    if (def == ir::kNoReg || def >= regs.size())
        return;

    // Ld, Ldf, In and call results are unprovable.
    ConstVal result = ConstVal::varying();
    if (inst.op == Opcode::Ldi) {
        result = ConstVal::constant(inst.imm);
    } else if (inst.op == Opcode::Mov) {
        result = valueOf(regs, inst.src1); // Unknown stays Unknown
    } else if (ir::isUnaryAlu(inst.op)) {
        const ConstVal src = valueOf(regs, inst.src1);
        if (src.isConst())
            result = ConstVal::constant(ir::evalUnary(inst.op, src.value));
    } else if (ir::isBinaryAlu(inst.op)) {
        const ConstVal lhs = valueOf(regs, inst.src1);
        const ConstVal rhs = rhsValue(inst, regs);
        if (lhs.isConst() && rhs.isConst()) {
            // A division by zero faults: no value to fold.
            if (const std::optional<Word> value =
                    ir::evalBinary(inst.op, lhs.value, rhs.value))
                result = ConstVal::constant(*value);
        }
    }
    regs[def] = result;
}

ConstProp::ConstProp(const Cfg &cfg) : cfg_(cfg)
{
    const ConstProblem problem{cfg.function()};
    auto result = solveDataflow(cfg, problem, Direction::Forward);
    in_ = std::move(result.in);
}

std::vector<ConstVal>
ConstProp::atInstruction(BlockId block, std::size_t index) const
{
    std::vector<ConstVal> regs = in_[block];
    const ir::BasicBlock &bb = cfg_.function().block(block);
    for (std::size_t i = 0; i < index; ++i)
        applyConstTransfer(bb.inst(i), regs);
    return regs;
}

std::optional<Word>
ConstProp::constantConditionValue(BlockId block, std::size_t index) const
{
    const ir::Instruction &inst =
        cfg_.function().block(block).inst(index);
    const std::vector<ConstVal> regs = atInstruction(block, index);

    if (inst.isConditional()) {
        const ConstVal lhs = valueOf(regs, inst.src1);
        const ConstVal rhs = rhsValue(inst, regs);
        if (!lhs.isConst() || !rhs.isConst())
            return std::nullopt;
        return ir::evalCondition(inst.op, lhs.value, rhs.value) ? 1 : 0;
    }
    if (inst.op == Opcode::JTab) {
        const ConstVal index_val = valueOf(regs, inst.src1);
        if (!index_val.isConst())
            return std::nullopt;
        return index_val.value;
    }
    return std::nullopt;
}

} // namespace branchlab::analysis
