#include "analysis/liveness.hh"

#include "analysis/dataflow.hh"
#include "analysis/operands.hh"

namespace branchlab::analysis
{

using ir::BlockId;
using ir::Reg;

namespace
{

void
orInto(RegSet &into, const RegSet &from)
{
    for (std::size_t i = 0; i < into.size(); ++i)
        into[i] = into[i] || from[i];
}

void
andInto(RegSet &into, const RegSet &from)
{
    for (std::size_t i = 0; i < into.size(); ++i)
        into[i] = into[i] && from[i];
}

/** Backward may-analysis: live = (live - defs) + uses, per
 *  instruction from the block's end. */
struct LivenessProblem
{
    using Domain = RegSet;

    const ir::Function &fn;

    Domain top() const { return RegSet(fn.numRegs(), false); }
    Domain boundary() const { return top(); }
    void meetInto(Domain &into, const Domain &from) const
    {
        orInto(into, from);
    }

    Domain
    transfer(BlockId block, const Domain &live_out) const
    {
        Domain live = live_out;
        const ir::BasicBlock &bb = fn.block(block);
        for (std::size_t i = bb.size(); i-- > 0;) {
            const Reg def = definedReg(bb.inst(i));
            if (def != ir::kNoReg && def < live.size())
                live[def] = false;
            for (Reg use : usedRegs(bb.inst(i))) {
                if (use < live.size())
                    live[use] = true;
            }
        }
        return live;
    }
};

/** Forward must-analysis: assigned = assigned + defs. */
struct AssignmentProblem
{
    using Domain = RegSet;

    const ir::Function &fn;

    Domain top() const { return RegSet(fn.numRegs(), true); }

    Domain
    boundary() const
    {
        RegSet assigned(fn.numRegs(), false);
        for (unsigned a = 0; a < fn.numArgs(); ++a)
            assigned[a] = true;
        return assigned;
    }

    void meetInto(Domain &into, const Domain &from) const
    {
        andInto(into, from);
    }

    Domain
    transfer(BlockId block, const Domain &assigned_in) const
    {
        Domain assigned = assigned_in;
        for (const ir::Instruction &inst :
             fn.block(block).instructions()) {
            const Reg def = definedReg(inst);
            if (def != ir::kNoReg && def < assigned.size())
                assigned[def] = true;
        }
        return assigned;
    }
};

} // namespace

Liveness::Liveness(const Cfg &cfg) : cfg_(cfg)
{
    const LivenessProblem problem{cfg.function()};
    auto result = solveDataflow(cfg, problem, Direction::Backward);
    in_ = std::move(result.in);
    out_ = std::move(result.out);

    const ir::Function &fn = cfg.function();
    perInst_.resize(fn.numBlocks());
    for (BlockId b = 0; b < fn.numBlocks(); ++b) {
        const ir::BasicBlock &bb = fn.block(b);
        std::vector<RegSet> &rows = perInst_[b];
        rows.assign(bb.size() + 1, RegSet());
        rows[bb.size()] = out_[b];
        for (std::size_t i = bb.size(); i-- > 0;) {
            RegSet live = rows[i + 1];
            const Reg def = definedReg(bb.inst(i));
            if (def != ir::kNoReg && def < live.size())
                live[def] = false;
            for (Reg use : usedRegs(bb.inst(i))) {
                if (use < live.size())
                    live[use] = true;
            }
            rows[i] = std::move(live);
        }
    }
}

RegSet
Liveness::liveBefore(BlockId block, std::size_t index) const
{
    RegSet live = out_[block];
    const ir::BasicBlock &bb = cfg_.function().block(block);
    for (std::size_t i = bb.size(); i-- > index;) {
        const Reg def = definedReg(bb.inst(i));
        if (def != ir::kNoReg && def < live.size())
            live[def] = false;
        for (Reg use : usedRegs(bb.inst(i))) {
            if (use < live.size())
                live[use] = true;
        }
    }
    return live;
}

DefiniteAssignment::DefiniteAssignment(const Cfg &cfg) : cfg_(cfg)
{
    const AssignmentProblem problem{cfg.function()};
    auto result = solveDataflow(cfg, problem, Direction::Forward);
    in_ = std::move(result.in);
}

} // namespace branchlab::analysis
