#include "profile/delay_fill.hh"

#include <algorithm>

#include "support/logging.hh"

namespace branchlab::profile
{

using ir::BlockId;
using ir::FuncId;
using ir::Instruction;
using ir::Opcode;
using ir::Reg;

namespace
{

/** Registers the terminator reads (its condition/index operands). */
std::vector<Reg>
terminatorSources(const Instruction &term)
{
    std::vector<Reg> sources;
    const auto add = [&](Reg reg) {
        if (reg != ir::kNoReg)
            sources.push_back(reg);
    };
    switch (term.op) {
      case Opcode::Jmp:
      case Opcode::Halt:
        break;
      case Opcode::JTab:
      case Opcode::CallInd:
        add(term.src1);
        break;
      case Opcode::Ret:
        add(term.src1);
        break;
      case Opcode::Call:
        break;
      default:
        blab_assert(term.isConditional(), "unexpected terminator");
        add(term.src1);
        if (!term.useImm)
            add(term.src2);
        break;
    }
    for (Reg arg : term.args)
        add(arg);
    return sources;
}

/** Destination register written by an instruction (kNoReg if none). */
Reg
destinationOf(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::St:
      case Opcode::Out:
      case Opcode::Nop:
        return ir::kNoReg;
      default:
        return inst.isTerminator() ? ir::kNoReg : inst.dst;
    }
}

} // namespace

unsigned
fillableFromAbove(const ir::BasicBlock &block, unsigned slots)
{
    blab_assert(block.isSealed(), "fill analysis on unsealed block");
    const Instruction &term = block.terminator();
    const std::vector<Reg> sources = terminatorSources(term);

    unsigned filled = 0;
    // Walk backward from the instruction just above the terminator.
    for (std::size_t offset = 1; offset < block.size() && filled < slots;
         ++offset) {
        const Instruction &inst = block.inst(block.size() - 1 - offset);
        const Reg dst = destinationOf(inst);
        if (dst != ir::kNoReg &&
            std::find(sources.begin(), sources.end(), dst) !=
                sources.end()) {
            // Produces a condition operand: it must stay above.
            break;
        }
        ++filled;
    }
    return filled;
}

DelayFillResult
analyzeDelaySlots(const ProgramProfile &profile, unsigned slots)
{
    const ir::Program &prog = profile.program();
    const ir::Layout &layout = profile.layout();

    DelayFillResult result;
    result.slots = slots;

    for (FuncId f = 0; f < prog.numFunctions(); ++f) {
        const ir::Function &fn = prog.function(f);
        for (const ir::BasicBlock &block : fn.blocks()) {
            const Instruction &term = block.terminator();
            if (!term.isBranch())
                continue;
            const auto term_index =
                static_cast<std::uint32_t>(block.size() - 1);
            const ir::Addr addr =
                layout.blockAddr(f, block.id()) + term_index;
            const BranchCounts &counts = profile.branchCounts(addr);
            if (counts.executions() == 0)
                continue;

            DelaySite site;
            site.branch = ir::CodeLocation{f, block.id(), term_index};
            site.weight = counts.executions();
            site.fromAbove = fillableFromAbove(block, slots);

            // The predicted direction's probability, and whether its
            // path is statically available for squashing fill.
            bool target_static = false;
            if (term.isConditional()) {
                const std::uint64_t majority =
                    std::max(counts.taken, counts.notTaken);
                site.predictProb =
                    static_cast<double>(majority) /
                    static_cast<double>(counts.executions());
                target_static = true; // both sides are labels
            } else if (term.op == Opcode::Jmp ||
                       term.op == Opcode::Call) {
                site.predictProb = 1.0;
                target_static = true;
            } else {
                // Ret / JTab / CallInd: dominant-target probability,
                // but no compile-time path to copy from.
                const std::uint64_t dom_count =
                    counts.nextCount(counts.dominantTarget());
                site.predictProb =
                    static_cast<double>(dom_count) /
                    static_cast<double>(counts.executions());
                target_static = false;
            }

            const unsigned rest = slots - site.fromAbove;
            if (target_static) {
                site.fromTarget = rest;
                site.nops = 0;
            } else {
                site.fromTarget = 0;
                site.nops = rest;
            }
            result.sites.push_back(site);
        }
    }
    return result;
}

double
DelayFillResult::aboveFillRate(unsigned index) const
{
    std::uint64_t total = 0;
    std::uint64_t filled = 0;
    for (const DelaySite &site : sites) {
        total += site.weight;
        if (site.fromAbove > index)
            filled += site.weight;
    }
    if (total == 0)
        return 0.0;
    return static_cast<double>(filled) / static_cast<double>(total);
}

double
DelayFillResult::meanAboveFilled() const
{
    std::uint64_t total = 0;
    double weighted = 0.0;
    for (const DelaySite &site : sites) {
        total += site.weight;
        weighted += static_cast<double>(site.weight) * site.fromAbove;
    }
    if (total == 0)
        return 0.0;
    return weighted / static_cast<double>(total);
}

double
DelayFillResult::expectedBranchCost() const
{
    std::uint64_t total = 0;
    double cycles = 0.0;
    for (const DelaySite &site : sites) {
        total += site.weight;
        const double waste =
            static_cast<double>(site.nops) +
            (1.0 - site.predictProb) *
                static_cast<double>(site.fromTarget);
        cycles += static_cast<double>(site.weight) * (1.0 + waste);
    }
    if (total == 0)
        return 0.0;
    return cycles / static_cast<double>(total);
}

} // namespace branchlab::profile
