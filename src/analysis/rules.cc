/**
 * @file
 * The built-in lint rules. Program rules catch suspicious but
 * structurally valid IR. Image rules flag suspicious but safe Forward
 * Semantic images: every safety property of an image is the image
 * verifier's (verifyFsOptImage, profile/fs_opt_verify.cc), which the
 * caller runs first, so no rule here re-derives one.
 */

#include <functional>
#include <set>

#include "analysis/diagnostics.hh"
#include "analysis/operands.hh"
#include "ir/layout.hh"
#include "ir/printer.hh"
#include "profile/fs_opt.hh"

namespace branchlab::analysis
{

namespace
{

using ir::BlockId;
using ir::formatLocation;
using ir::FuncId;
using ir::Opcode;
using ir::Reg;

std::string
blockText(const ir::Function &fn, BlockId block)
{
    return fn.name() + "." + fn.block(block).label();
}

void
forEachFunction(const ProgramContext &context,
                const std::function<void(const ir::Function &)> &fn)
{
    for (FuncId f = 0; f < context.program.numFunctions(); ++f)
        fn(context.program.function(f));
}

// ---------------------------------------------------------------------
// unreachable-block
// ---------------------------------------------------------------------

class UnreachableBlockRule final : public LintRule
{
  public:
    std::string_view name() const override { return "unreachable-block"; }
    std::string_view
    description() const override
    {
        return "blocks no path from the function entry can execute";
    }

    void
    checkProgram(ProgramContext &context,
                 std::vector<Diagnostic> &out) const override
    {
        forEachFunction(context, [&](const ir::Function &fn) {
            const Cfg &cfg = context.analyses.cfg(fn.id());
            for (BlockId b = 0; b < fn.numBlocks(); ++b) {
                if (cfg.isReachable(b))
                    continue;
                out.push_back(Diagnostic{
                    Severity::Warning, std::string(name()),
                    "block '" + fn.block(b).label() +
                        "' is unreachable from the entry",
                    blockText(fn, b), true, "inst", 0,
                    fn.block(b).size()});
            }
        });
    }
};

// ---------------------------------------------------------------------
// use-before-def
// ---------------------------------------------------------------------

class UseBeforeDefRule final : public LintRule
{
  public:
    std::string_view name() const override { return "use-before-def"; }
    std::string_view
    description() const override
    {
        return "register reads not preceded by a write on every path "
               "(the VM's zero fill hides them)";
    }

    void
    checkProgram(ProgramContext &context,
                 std::vector<Diagnostic> &out) const override
    {
        forEachFunction(context, [&](const ir::Function &fn) {
            const DefiniteAssignment &da =
                context.analyses.assignment(fn.id());
            for (BlockId b = 0; b < fn.numBlocks(); ++b) {
                RegSet assigned = da.assignedIn(b);
                const ir::BasicBlock &bb = fn.block(b);
                for (std::size_t i = 0; i < bb.size(); ++i) {
                    const ir::Instruction &inst = bb.inst(i);
                    for (Reg use : usedRegs(inst)) {
                        if (use >= assigned.size() || assigned[use])
                            continue;
                        out.push_back(Diagnostic{
                            Severity::Warning, std::string(name()),
                            "register r" + std::to_string(use) +
                                " may be read before any assignment",
                            formatLocation(fn, b, i), true, "inst", i, i + 1});
                        assigned[use] = true; // one report per path
                    }
                    const Reg def = definedReg(inst);
                    if (def != ir::kNoReg && def < assigned.size())
                        assigned[def] = true;
                }
            }
        });
    }
};

// ---------------------------------------------------------------------
// dead-store
// ---------------------------------------------------------------------

class DeadStoreRule final : public LintRule
{
  public:
    std::string_view name() const override { return "dead-store"; }
    std::string_view
    description() const override
    {
        return "side-effect-free register writes whose value is "
               "never read";
    }

    void
    checkProgram(ProgramContext &context,
                 std::vector<Diagnostic> &out) const override
    {
        forEachFunction(context, [&](const ir::Function &fn) {
            const Liveness &liveness =
                context.analyses.liveness(fn.id());
            for (BlockId b = 0; b < fn.numBlocks(); ++b) {
                const ir::BasicBlock &bb = fn.block(b);
                RegSet live = liveness.liveOut(b);
                for (std::size_t i = bb.size(); i-- > 0;) {
                    const ir::Instruction &inst = bb.inst(i);
                    const Reg def = definedReg(inst);
                    if (def != ir::kNoReg && def < live.size()) {
                        if (!live[def] && isPureRegWrite(inst)) {
                            out.push_back(Diagnostic{
                                Severity::Warning, std::string(name()),
                                "value written to r" +
                                    std::to_string(def) + " by '" +
                                    ir::opcodeName(inst.op) +
                                    "' is never read",
                                formatLocation(fn, b, i), true, "inst", i,
                                i + 1});
                        }
                        live[def] = false;
                    }
                    for (Reg use : usedRegs(inst)) {
                        if (use < live.size())
                            live[use] = true;
                    }
                }
            }
        });
    }
};

// ---------------------------------------------------------------------
// constant-condition
// ---------------------------------------------------------------------

class ConstantConditionRule final : public LintRule
{
  public:
    std::string_view
    name() const override
    {
        return "constant-condition";
    }
    std::string_view
    description() const override
    {
        return "conditional branches whose outcome is statically "
               "known";
    }

    void
    checkProgram(ProgramContext &context,
                 std::vector<Diagnostic> &out) const override
    {
        forEachFunction(context, [&](const ir::Function &fn) {
            const ConstProp &constants =
                context.analyses.constants(fn.id());
            for (BlockId b = 0; b < fn.numBlocks(); ++b) {
                const ir::BasicBlock &bb = fn.block(b);
                if (!bb.isSealed() || !bb.terminator().isConditional())
                    continue;
                const std::size_t index = bb.size() - 1;
                const auto outcome =
                    constants.constantConditionValue(b, index);
                if (!outcome.has_value())
                    continue;
                out.push_back(Diagnostic{
                    Severity::Warning, std::string(name()),
                    std::string("branch condition is always ") +
                        (*outcome != 0 ? "true (taken)"
                                       : "false (fallthrough)"),
                    formatLocation(fn, b, index), true, "inst", index,
                    index + 1});
            }
        });
    }
};

// ---------------------------------------------------------------------
// jump-table
// ---------------------------------------------------------------------

class JumpTableRule final : public LintRule
{
  public:
    std::string_view name() const override { return "jump-table"; }
    std::string_view
    description() const override
    {
        return "degenerate, duplicate-arm, or statically-indexed "
               "jump tables";
    }

    void
    checkProgram(ProgramContext &context,
                 std::vector<Diagnostic> &out) const override
    {
        forEachFunction(context, [&](const ir::Function &fn) {
            const ConstProp &constants =
                context.analyses.constants(fn.id());
            for (BlockId b = 0; b < fn.numBlocks(); ++b) {
                const ir::BasicBlock &bb = fn.block(b);
                if (!bb.isSealed() ||
                    bb.terminator().op != Opcode::JTab)
                    continue;
                const std::size_t index = bb.size() - 1;
                const ir::Instruction &jtab = bb.terminator();
                check(fn, b, index, jtab, constants, out);
            }
        });
    }

  private:
    void
    check(const ir::Function &fn, BlockId b, std::size_t index,
          const ir::Instruction &jtab, const ConstProp &constants,
          std::vector<Diagnostic> &out) const
    {
        const std::set<BlockId> distinct(jtab.table.begin(),
                                         jtab.table.end());
        if (distinct.size() == 1) {
            out.push_back(Diagnostic{
                Severity::Warning, std::string(name()),
                "jump table has a single distinct target; a direct "
                "jump would do",
                formatLocation(fn, b, index), true, "inst", index, index + 1});
        } else if (distinct.size() < jtab.table.size()) {
            out.push_back(Diagnostic{
                Severity::Note, std::string(name()),
                "jump table repeats " +
                    std::to_string(jtab.table.size() -
                                   distinct.size()) +
                    " arm(s)",
                formatLocation(fn, b, index), true, "inst", index, index + 1});
        }

        const auto value = constants.constantConditionValue(b, index);
        if (!value.has_value())
            return;
        if (*value < 0 ||
            *value >= static_cast<ir::Word>(jtab.table.size())) {
            out.push_back(Diagnostic{
                Severity::Error, std::string(name()),
                "jump-table index is always " + std::to_string(*value) +
                    ", outside the table of " +
                    std::to_string(jtab.table.size()) +
                    " arms (the VM faults here)",
                formatLocation(fn, b, index), true, "inst", index, index + 1});
        } else {
            out.push_back(Diagnostic{
                Severity::Warning, std::string(name()),
                "jump-table index is always " + std::to_string(*value) +
                    "; every other arm is unreachable through this "
                    "table",
                formatLocation(fn, b, index), true, "inst", index, index + 1});
        }
    }
};

// ---------------------------------------------------------------------
// fs-clobbered-live-register
// ---------------------------------------------------------------------

class FsClobberedLiveRegisterRule final : public LintRule
{
  public:
    std::string_view
    name() const override
    {
        return "fs-clobbered-live-register";
    }
    std::string_view
    description() const override
    {
        return "forward-slot copies writing registers live on the "
               "branch's untaken path (benign under squashing, fatal "
               "without it)";
    }

    void
    checkFsImage(FsImageContext &context,
                 std::vector<Diagnostic> &out) const override
    {
        const ir::Program &prog = context.profile.program();
        const ir::Layout &layout = context.profile.layout();
        const profile::FsResult &image = context.opt.image;

        for (const profile::SlotSite &site : image.sites) {
            const ir::CodeLocation &branch = site.branchOrig;
            const ir::Function &fn = prog.function(branch.func);
            const ir::Instruction &inst =
                fn.block(branch.block).inst(branch.index);
            if (!inst.isConditional())
                continue; // no untaken path to protect

            // The likely side got the slots; the other side is the
            // untaken path the copies must not poison.
            const BlockId untaken =
                layout.blockAddr(branch.func, inst.target) ==
                        site.origTargetAddr
                    ? inst.next
                    : inst.target;

            RegSet clobbered(fn.numRegs(), false);
            for (unsigned c = 0; c < site.copied; ++c) {
                const profile::ImageSlot &slot =
                    image.slots[site.branchImageIndex + 1 +
                                site.filled + c];
                if (slot.kind != profile::ImageSlot::Kind::Copy ||
                    slot.orig.func != branch.func)
                    continue;
                const Reg def = definedReg(
                    prog.function(slot.orig.func)
                        .block(slot.orig.block)
                        .inst(slot.orig.index));
                if (def != ir::kNoReg && def < clobbered.size())
                    clobbered[def] = true;
            }

            const RegSet &live =
                context.analyses.liveness(branch.func).liveIn(untaken);
            for (Reg r = 0; r < clobbered.size(); ++r) {
                if (!clobbered[r] || !live[r])
                    continue;
                out.push_back(Diagnostic{
                    Severity::Note, std::string(name()),
                    "forward-slot copies clobber r" +
                        std::to_string(r) +
                        ", live on the untaken path to '" +
                        fn.block(untaken).label() +
                        "' (safe only with slot squashing)",
                    formatLocation(fn, branch.block, branch.index), true,
                    "image-slot",
                    site.branchImageIndex + 1 + site.filled,
                    site.branchImageIndex + 1 + site.filled +
                        site.copied});
            }
        }
    }
};

// ---------------------------------------------------------------------
// fs-unreachable-dup-tail
// ---------------------------------------------------------------------

class FsUnreachableDupTailRule final : public LintRule
{
  public:
    std::string_view
    name() const override
    {
        return "fs-unreachable-dup-tail";
    }
    std::string_view
    description() const override
    {
        return "duplicated tails whose predecessor arc does not exist "
               "in the CFG or was never taken in the profile";
    }

    void
    checkFsImage(FsImageContext &context,
                 std::vector<Diagnostic> &out) const override
    {
        const ir::Program &prog = context.profile.program();

        for (const profile::DupTail &dup : context.opt.dups) {
            // Zero when the profile never took the arc, and when the
            // CFG has no such arc at all.
            std::uint64_t arc_weight = 0;
            for (const profile::Arc &arc :
                 context.profile.outArcs(dup.func, dup.pred)) {
                if (arc.to == dup.block)
                    arc_weight += arc.weight;
            }
            if (arc_weight != 0)
                continue;
            const ir::Function &fn = prog.function(dup.func);
            out.push_back(Diagnostic{
                Severity::Warning, std::string(name()),
                "tail of '" + fn.block(dup.block).label() +
                    "' was duplicated for predecessor '" +
                    fn.block(dup.pred).label() +
                    "', an arc the profile never observed -- "
                    "pure code growth",
                blockText(fn, dup.block), true, "image-slot",
                dup.imageStart, dup.imageStart + dup.length});
        }
    }
};

// ---------------------------------------------------------------------
// fs-profile-cfg-mismatch
// ---------------------------------------------------------------------

class FsProfileCfgMismatchRule final : public LintRule
{
  public:
    std::string_view
    name() const override
    {
        return "fs-profile-cfg-mismatch";
    }
    std::string_view
    description() const override
    {
        return "profile counts that contradict the program's CFG or "
               "constant analysis (stale or foreign profile)";
    }

    void
    checkFsImage(FsImageContext &context,
                 std::vector<Diagnostic> &out) const override
    {
        const ir::Program &prog = context.profile.program();
        const ir::Layout &layout = context.profile.layout();

        for (FuncId f = 0; f < prog.numFunctions(); ++f) {
            const ir::Function &fn = prog.function(f);
            const Cfg &cfg = context.analyses.cfg(f);
            const ConstProp &constants = context.analyses.constants(f);

            for (BlockId b = 0; b < fn.numBlocks(); ++b) {
                const std::uint64_t weight =
                    context.profile.blockWeight(f, b);
                if (weight > 0 && !cfg.isReachable(b)) {
                    out.push_back(Diagnostic{
                        Severity::Error, std::string(name()),
                        "block '" + fn.block(b).label() +
                            "' executed " + std::to_string(weight) +
                            " time(s) in the profile but is "
                            "CFG-unreachable -- the profile does not "
                            "belong to this program",
                        blockText(fn, b), true, "inst", 0,
                        fn.block(b).size()});
                }

                // Profiled arcs must be CFG edges.
                for (const profile::Arc &arc :
                     context.profile.outArcs(f, b)) {
                    if (arc.weight > 0 &&
                        !cfg.hasEdge(arc.from, arc.to)) {
                        out.push_back(Diagnostic{
                            Severity::Error, std::string(name()),
                            "profile records " +
                                std::to_string(arc.weight) +
                                " transition(s) from '" +
                                fn.block(arc.from).label() +
                                "' to '" + fn.block(arc.to).label() +
                                "', but the CFG has no such edge",
                            blockText(fn, arc.from)});
                    }
                }

                const ir::BasicBlock &bb = fn.block(b);
                if (!bb.isSealed() ||
                    !bb.terminator().isConditional())
                    continue;
                const std::size_t index = bb.size() - 1;
                const auto outcome =
                    constants.constantConditionValue(b, index);
                if (!outcome.has_value())
                    continue;
                const profile::BranchCounts &counts =
                    context.profile.branchCounts(
                        layout.instAddr(f, b, index));
                const std::uint64_t impossible =
                    *outcome != 0 ? counts.notTaken : counts.taken;
                if (impossible > 0) {
                    out.push_back(Diagnostic{
                        Severity::Warning, std::string(name()),
                        std::string("branch condition is always ") +
                            (*outcome != 0 ? "true" : "false") +
                            ", yet the profile counts " +
                            std::to_string(impossible) +
                            " execution(s) of the impossible "
                            "direction",
                        formatLocation(fn, b, index), true, "inst", index,
                        index + 1});
                }
            }
        }
    }
};

} // namespace

void
registerBuiltinRules(DiagnosticEngine &engine)
{
    engine.registerRule(std::make_unique<UnreachableBlockRule>());
    engine.registerRule(std::make_unique<UseBeforeDefRule>());
    engine.registerRule(std::make_unique<DeadStoreRule>());
    engine.registerRule(std::make_unique<ConstantConditionRule>());
    engine.registerRule(std::make_unique<JumpTableRule>());
    engine.registerRule(std::make_unique<FsClobberedLiveRegisterRule>());
    engine.registerRule(std::make_unique<FsUnreachableDupTailRule>());
    engine.registerRule(std::make_unique<FsProfileCfgMismatchRule>());
}

} // namespace branchlab::analysis
