/**
 * @file
 * Tests for the analysis-driven FS optimizer (fs_opt.hh): level
 * plumbing, level none as the seed transform (no records, a clean
 * verify, exact equivalence), liveness-proven slot filling,
 * superblock tail duplication, dominator-based hoisting, the accuracy
 * walk against the FS replay kernel and the profile-row form against
 * the walk, the adversarial corruption suite for verifyFsOptImage at
 * level none and above, the all-workloads equivalence sweep at every
 * level, and the image pins that hold every workload's images to
 * committed digests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/replay_kernel.hh"
#include "helpers.hh"
#include "ir/printer.hh"
#include "profile/fs_opt.hh"
#include "profile/image_exec.hh"
#include "support/logging.hh"
#include "trace/soa.hh"
#include "workloads/workload.hh"

namespace branchlab::profile
{
namespace
{

using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;

struct Built
{
    ir::Program program;
    std::unique_ptr<ir::Layout> layout;
    std::unique_ptr<ProgramProfile> profile;
};

Built
profileOver(ir::Program prog, std::vector<ir::Word> input = {},
            int extra_runs = 0)
{
    ir::verifyProgramOrDie(prog);
    Built built{std::move(prog), nullptr, nullptr};
    built.layout = std::make_unique<ir::Layout>(built.program);
    built.profile = std::make_unique<ProgramProfile>(built.program,
                                                     *built.layout);
    for (int r = 0; r <= extra_runs; ++r) {
        built.profile->noteRun();
        vm::Machine machine(built.program, *built.layout);
        machine.setSink(built.profile.get());
        if (!input.empty())
            machine.setInput(0, input);
        machine.run();
    }
    return built;
}

/** Record the program's branch stream over the profiled run's inputs
 *  (deterministic programs: the same stream the profile saw). */
trace::SoaTrace
recordStream(const Built &built, std::vector<ir::Word> input = {})
{
    trace::SoaRecorder recorder;
    vm::Machine machine(built.program, *built.layout);
    machine.setSink(&recorder);
    if (!input.empty())
        machine.setInput(0, std::move(input));
    machine.run();
    return recorder.take();
}

FsOptResult
optimize(const Built &built, FsOptLevel level, unsigned slots = 2)
{
    FsOptConfig config;
    config.fs.slotCount = slots;
    config.level = level;
    // The crafted programs are tiny; the default 5%-of-static-size
    // duplication budget would reject every candidate outright, and
    // their entry paths carry no direction correlation for the
    // profile-guided gain gate to find.
    config.dupMaxGrowth = 1.0;
    config.dupRequireGain = false;
    return FsOptimizer(*built.profile, config).build();
}

/** The paper's Figure 2 shape: hot loop, rare inner path, join. */
ir::Program
buildFigure2Like()
{
    ir::Program prog("fig2");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg n = b.newReg();
    const Reg acc = b.newReg();
    b.ldiTo(n, 50);
    b.ldiTo(acc, 0);
    b.doWhile(
        [&] {
            const Reg r = b.remi(n, 7);
            b.ifThen([&] { return IrBuilder::cmpEqi(r, 0); },
                     [&] {
                         b.emitBinaryImmTo(Opcode::Add, acc, acc, 100);
                     });
            b.emitBinaryImmTo(Opcode::Sub, n, n, 1);
        },
        [&] { return IrBuilder::cmpGti(n, 0); });
    b.out(acc, 1);
    b.halt();
    b.endFunction();
    return prog;
}

/** With @p wanted, build an empty function `leaf` for addLeafCall to
 *  call; otherwise build nothing and return ir::kNoFunc. */
ir::FuncId
addLeaf(IrBuilder &b, bool wanted)
{
    if (!wanted)
        return ir::kNoFunc;
    const ir::FuncId leaf = b.beginFunction("leaf");
    b.ret();
    b.endFunction();
    return leaf;
}

/** Call @p leaf (a no-op when it is ir::kNoFunc); the call ends the
 *  current block and the builder continues in a fresh one. */
void
addLeafCall(IrBuilder &b, ir::FuncId leaf)
{
    if (leaf != ir::kNoFunc)
        b.callVoid(leaf, {});
}

/** The first direct call terminator in @p prog's main function. */
ir::CodeLocation
firstCall(const ir::Program &prog)
{
    const ir::FuncId main = prog.mainFunction();
    const ir::Function &fn = prog.function(main);
    for (ir::BlockId id = 0; id < fn.numBlocks(); ++id) {
        const ir::BasicBlock &block = fn.block(id);
        if (block.terminator().op == Opcode::Call)
            return {main, id,
                    static_cast<std::uint32_t>(block.size() - 1)};
    }
    ADD_FAILURE() << "no call in main";
    return {};
}

/**
 * A two-block loop built for slot filling: the check block computes a
 * value dead outside the loop right before its likely-taken back
 * branch, and the branch's target block is short, so the slot group
 * has pad space (dropped at level slots) for the move.
 *
 *   body:  t += 1; i -= 1; jmp check
 *   check: t += 0; s = i * 3; bgt i, 0 -> body  (s dead on exit)
 *
 * With @p with_call the exit block first calls an empty function, so
 * the program holds a call terminator (see addLeafCall).
 */
ir::Program
buildFillable(bool with_call = false)
{
    ir::Program prog("fillable");
    IrBuilder b(prog);
    const ir::FuncId leaf = addLeaf(b, with_call);
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg t = b.newReg();
    const Reg s = b.newReg();
    b.ldiTo(i, 30);
    b.ldiTo(t, 0);
    const ir::BlockId body = b.newBlock("body");
    const ir::BlockId check = b.newBlock("check");
    const ir::BlockId done = b.newBlock("done");
    b.jmp(body);
    b.setBlock(body);
    b.emitBinaryImmTo(Opcode::Add, t, t, 1);
    b.emitBinaryImmTo(Opcode::Sub, i, i, 1);
    b.jmp(check);
    b.setBlock(check);
    b.emitBinaryImmTo(Opcode::Add, t, t, 0);
    b.emitBinaryImmTo(Opcode::Mul, s, i, 3);
    b.branch(IrBuilder::cmpGti(i, 0), body, done);
    b.setBlock(done);
    addLeafCall(b, leaf);
    b.out(t, 1);
    b.halt();
    b.endFunction();
    return prog;
}

/**
 * A shape for branch target forwarding: the loop head ends in a 60/40
 * conditional (below the 0.7 trace-growth threshold, so the trace
 * stops there and the branch becomes a slot site), and the majority
 * target `hot` has that branch as its only CFG entry -- its copied
 * prefix can carry the home.
 *
 *   head: r = i % 5; s = r / 3; i -= 1; beq s, 0 -> hot else cold
 *   hot:  t += 10; jmp join          (single entry, from head only)
 *   cold: t += 1;  jmp join
 *   join: bgt i, 0 -> head else exit
 *
 * @p with_call adds a call on the exit path, as in buildFillable.
 */
ir::Program
buildForwardable(bool with_call = false)
{
    ir::Program prog("forwardable");
    IrBuilder b(prog);
    const ir::FuncId leaf = addLeaf(b, with_call);
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg t = b.newReg();
    const Reg r = b.newReg();
    const Reg s = b.newReg();
    b.ldiTo(i, 20);
    b.ldiTo(t, 0);
    const ir::BlockId head = b.newBlock("head");
    const ir::BlockId hot = b.newBlock("hot");
    const ir::BlockId cold = b.newBlock("cold");
    const ir::BlockId join = b.newBlock("join");
    const ir::BlockId done = b.newBlock("done");
    b.jmp(head);
    b.setBlock(head);
    b.emitBinaryImmTo(Opcode::Rem, r, i, 5);
    b.emitBinaryImmTo(Opcode::Div, s, r, 3);
    b.emitBinaryImmTo(Opcode::Sub, i, i, 1);
    b.branch(IrBuilder::cmpEqi(s, 0), hot, cold);
    b.setBlock(hot);
    b.emitBinaryImmTo(Opcode::Add, t, t, 10);
    b.jmp(join);
    b.setBlock(cold);
    b.emitBinaryImmTo(Opcode::Add, t, t, 1);
    b.jmp(join);
    b.setBlock(join);
    b.branch(IrBuilder::cmpGti(i, 0), head, done);
    b.setBlock(done);
    addLeafCall(b, leaf);
    b.out(t, 1);
    b.halt();
    b.endFunction();
    return prog;
}

/**
 * A dominated recomputation for the hoist level: a compute block
 * derives base = x * 9, the loop leaves x and base alone, and the
 * exit recomputes base = x * 9 identically -- the dominating value
 * still holds. x is defined in a separate predecessor so no
 * definition of it sits on the compute -> exit paths. The compute
 * block multiplies by @p compute_imm (9 makes the two identical).
 * With @p redefine_after the exit bumps x after the recomputation:
 * the exit lies on no cycle, so that later write cannot reach the use.
 */
ir::Program
buildHoistable(ir::Word compute_imm = 9, bool redefine_after = false)
{
    ir::Program prog("hoistable");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.newReg();
    const Reg base = b.newReg();
    const Reg i = b.newReg();
    const Reg t = b.newReg();
    b.ldiTo(x, 11);
    const ir::BlockId compute = b.newBlock("compute");
    b.jmp(compute);
    b.setBlock(compute);
    b.emitBinaryImmTo(Opcode::Mul, base, x, compute_imm);
    b.ldiTo(i, 25);
    b.ldiTo(t, 0);
    b.doWhile(
        [&] {
            b.emitBinaryTo(Opcode::Add, t, t, base);
            b.emitBinaryImmTo(Opcode::Sub, i, i, 1);
        },
        [&] { return IrBuilder::cmpGti(i, 0); });
    b.emitBinaryImmTo(Opcode::Add, t, t, 7);
    b.emitBinaryImmTo(Opcode::Mul, base, x, 9);
    b.emitBinaryTo(Opcode::Add, t, t, base);
    if (redefine_after)
        b.emitBinaryImmTo(Opcode::Add, x, x, 1);
    b.out(t, 1);
    b.halt();
    b.endFunction();
    return prog;
}

} // namespace

// ---------------------------------------------------------------------
// Level plumbing
// ---------------------------------------------------------------------

TEST(FsOpt, LevelNamesRoundTrip)
{
    const auto &levels = allFsOptLevels();
    ASSERT_EQ(levels.size(), 4u);
    EXPECT_EQ(levels.front(), FsOptLevel::None);
    EXPECT_EQ(levels.back(), FsOptLevel::Hoist);
    for (const FsOptLevel level : levels)
        EXPECT_EQ(parseFsOptLevel(fsOptLevelName(level)), level);
    EXPECT_STREQ(fsOptLevelName(FsOptLevel::Superblock), "superblock");
}

// ---------------------------------------------------------------------
// Level none: the seed transform, bit for bit
// ---------------------------------------------------------------------

TEST(FsOpt, NoneWrapsTheSeedBitIdentically)
{
    Built built = profileOver(buildFigure2Like());
    const FsOptResult opt = optimize(built, FsOptLevel::None);

    EXPECT_TRUE(opt.fills.empty());
    EXPECT_TRUE(opt.forwards.empty());
    EXPECT_TRUE(opt.dups.empty());
    EXPECT_TRUE(opt.elisions.empty());
    EXPECT_EQ(opt.counters.slotsFilled, 0u);
    // Every check holds at level none: every site keeps its planned
    // copies and NO-OP pads.
    EXPECT_EQ(verifyFsOptImage(*built.profile, opt).message(), "");
    // Committed-stream equivalence against the original program is
    // exact at level none: no relaxation is in play.
    EXPECT_TRUE(opt.relaxedAddrs.empty());
    EXPECT_EQ(checkImageEquivalence(*built.profile, opt, {}), "");
}

// ---------------------------------------------------------------------
// Level slots: pad dropping and liveness-proven fills
// ---------------------------------------------------------------------

TEST(FsOpt, SlotsLevelShrinksTheImageAndVerifies)
{
    Built built = profileOver(buildFigure2Like());
    const FsOptResult none = optimize(built, FsOptLevel::None, 8);
    const FsOptResult slots = optimize(built, FsOptLevel::Slots, 8);

    EXPECT_LE(slots.image.slots.size(), none.image.slots.size());
    EXPECT_GT(slots.counters.padsDropped + slots.counters.copiesTruncated +
                  slots.counters.deadCopiesDropped,
              0u);
    EXPECT_LE(slots.codeSizeIncrease(), none.codeSizeIncrease());
    EXPECT_EQ(verifyFsOptImage(*built.profile, slots).message(), "");
    EXPECT_EQ(checkImageEquivalence(*built.profile, slots, {}), "");
}

TEST(FsOpt, FillsAreProvenAndSurviveExecution)
{
    Built built = profileOver(buildFillable());
    const FsOptResult opt = optimize(built, FsOptLevel::Slots, 4);

    ASSERT_GT(opt.counters.slotsFilled, 0u) << "the crafted loop must "
                                               "yield at least one "
                                               "liveness-proven fill";
    ASSERT_FALSE(opt.fills.empty());
    for (const FillRecord &fill : opt.fills) {
        // Moved definitions relax the stream at their address.
        EXPECT_TRUE(opt.relaxedAddrs.count(fill.originAddr) > 0);
        const ImageSlot &slot = opt.image.slots[fill.imageIndex];
        EXPECT_EQ(slot.kind, ImageSlot::Kind::Fill);
    }
    EXPECT_EQ(verifyFsOptImage(*built.profile, opt).message(), "");
    EXPECT_EQ(checkImageEquivalence(*built.profile, opt, {}), "");
}

// ---------------------------------------------------------------------
// Level superblock: tail duplication
// ---------------------------------------------------------------------

TEST(FsOpt, SuperblockDuplicationPreservesSemantics)
{
    Built built = profileOver(buildFigure2Like());
    const FsOptResult opt = optimize(built, FsOptLevel::Superblock);
    // Figure 2's rare path re-enters the hot trace at the join block:
    // that side entrance earns the join a duplicate.
    ASSERT_FALSE(opt.dups.empty());
    EXPECT_EQ(opt.counters.tailsDuplicated, opt.dups.size());
    for (const DupTail &dup : opt.dups) {
        EXPECT_GT(dup.arcWeight, 0u);
        EXPECT_GT(dup.length, 0u);
    }
    EXPECT_EQ(verifyFsOptImage(*built.profile, opt).message(), "");
    EXPECT_EQ(checkImageEquivalence(*built.profile, opt, {}), "");
}

TEST(FsOpt, SuperblockNeverLosesAccuracy)
{
    Built built = profileOver(buildFigure2Like());
    const trace::SoaTrace stream = recordStream(built);
    const trace::TraceView view = trace::TraceView::of(stream);

    const FsOptResult none = optimize(built, FsOptLevel::None);
    const FsOptResult super = optimize(built, FsOptLevel::Superblock);
    const double base = fsOptAccuracy(*built.profile, none, view);
    const double dup = fsOptAccuracy(*built.profile, super, view);
    // Per-duplicate likely bits predict a superset of what the shared
    // bit predicts; accuracy must not regress.
    EXPECT_GE(dup, base);
}

// ---------------------------------------------------------------------
// Level hoist: dominator-based redundancy elision
// ---------------------------------------------------------------------

TEST(FsOpt, HoistElidesDominatedRecomputation)
{
    Built built = profileOver(buildHoistable());
    const FsOptResult opt = optimize(built, FsOptLevel::Hoist);
    ASSERT_GT(opt.counters.hoistElisions, 0u)
        << "the duplicated base = x * 9 must be elided";
    for (const HoistElision &elision : opt.elisions) {
        EXPECT_TRUE(opt.relaxedAddrs.count(elision.addr) > 0);
        EXPECT_NE(elision.addr, elision.fromAddr);
    }
    const FsOptResult none = optimize(built, FsOptLevel::None);
    EXPECT_LT(opt.codeSizeIncrease(), none.codeSizeIncrease());
    EXPECT_EQ(verifyFsOptImage(*built.profile, opt).message(), "");
    EXPECT_EQ(checkImageEquivalence(*built.profile, opt, {}), "");
}

TEST(FsOpt, HoistNeedsAnIdenticalSource)
{
    // base = x * 8 cannot supply base = x * 9: the immediate is part
    // of the instruction's identity.
    Built built = profileOver(buildHoistable(8));
    const FsOptResult opt = optimize(built, FsOptLevel::Hoist);
    EXPECT_EQ(opt.counters.hoistElisions, 0u);
    EXPECT_EQ(checkImageEquivalence(*built.profile, opt, {}), "");
}

TEST(FsOpt, HoistIgnoresWritesAfterAnAcyclicUse)
{
    // Only blocks on a path from source to use (or a cycle through
    // either) can interfere; a write after the use in an acyclic exit
    // never runs between them.
    Built built = profileOver(buildHoistable(9, true));
    const FsOptResult opt = optimize(built, FsOptLevel::Hoist);
    EXPECT_GT(opt.counters.hoistElisions, 0u);
    EXPECT_EQ(verifyFsOptImage(*built.profile, opt).message(), "");
    EXPECT_EQ(checkImageEquivalence(*built.profile, opt, {}), "");
}

// ---------------------------------------------------------------------
// Branch target forwarding
// ---------------------------------------------------------------------

TEST(FsOpt, ForwardsSingleEntryTargetHomes)
{
    Built built = profileOver(buildForwardable());
    const FsOptResult opt = optimize(built, FsOptLevel::Slots);

    ASSERT_GT(opt.counters.homesForwarded, 0u)
        << "the 60/40 site's single-entry target must forward";
    ASSERT_FALSE(opt.forwards.empty());
    for (const ForwardedHome &fwd : opt.forwards) {
        // The home now lives in its site's Copy slot...
        const ImageSlot &slot = opt.image.slots[fwd.imageIndex];
        EXPECT_EQ(slot.kind, ImageSlot::Kind::Copy);
        EXPECT_TRUE(slot.orig == fwd.loc);
        const auto it = opt.image.homeIndex.find(fwd.addr);
        ASSERT_NE(it, opt.image.homeIndex.end());
        EXPECT_EQ(it->second, fwd.imageIndex);
        const SlotSite &site = opt.image.sites[fwd.site];
        EXPECT_GT(fwd.imageIndex, site.branchImageIndex);
        EXPECT_LE(fwd.imageIndex, site.branchImageIndex +
                                      site.filled + site.copied);
        // ...and the committed stream is untouched: forwarding never
        // relaxes an address.
        EXPECT_EQ(opt.relaxedAddrs.count(fwd.addr), 0u);
    }
    // The elided homes shrink the image (O7 re-proves the exact
    // accounting).
    const FsOptResult none = optimize(built, FsOptLevel::None);
    EXPECT_LT(opt.image.expandedSize(), none.image.expandedSize());
    EXPECT_EQ(verifyFsOptImage(*built.profile, opt).message(), "");
    EXPECT_EQ(checkImageEquivalence(*built.profile, opt, {}), "");
}

// ---------------------------------------------------------------------
// The accuracy walk against the FS replay kernel, and the row form
// against the walk
// ---------------------------------------------------------------------

TEST(FsOpt, AccuracyWalkMatchesTheKernelBelowSuperblock)
{
    Built built = profileOver(buildFigure2Like());
    const trace::SoaTrace stream = recordStream(built);
    const trace::TraceView view = trace::TraceView::of(stream);

    const predict::LikelyMap likely = built.profile->buildLikelyMap();
    core::KernelSpec spec;
    spec.kind = core::SchemeKind::ForwardSemantic;
    spec.likely = &likely;
    const double kernel = core::replayKernel(view, spec).accuracy;

    for (const FsOptLevel level : allFsOptLevels()) {
        const FsOptResult opt = optimize(built, level);
        const double walk = fsOptAccuracy(*built.profile, opt, view);
        if (level == FsOptLevel::None || level == FsOptLevel::Slots) {
            EXPECT_DOUBLE_EQ(walk, kernel) << fsOptLevelName(level);
        }
        EXPECT_EQ(fsOptAccuracyFromProfile(*built.profile, opt), walk)
            << fsOptLevelName(level);
    }

    // The row form equals the walk on every workload, level and slot
    // count the sweep can ask for, duplicated tails included.
    std::size_t dups = 0;
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        const core::RecordedWorkload recorded =
            core::recordWorkload(*workload);
        for (const FsOptLevel level : allFsOptLevels()) {
            for (const unsigned slots : {1u, 2u, 4u, 8u}) {
                FsOptConfig config;
                config.level = level;
                config.fs.slotCount = slots;
                const FsOptResult opt =
                    FsOptimizer(*recorded.profile, config).build();
                dups += opt.dups.size();
                EXPECT_EQ(fsOptAccuracyFromProfile(*recorded.profile, opt),
                          fsOptAccuracy(*recorded.profile, opt,
                                        recorded.traceView()))
                    << workload->name() << " " << fsOptLevelName(level)
                    << " slots " << slots;
            }
        }
    }
    EXPECT_GT(dups, 0u);
}

// ---------------------------------------------------------------------
// Adversarial corruption: the safety verifier must reject, with the
// full violation set and slot provenance
// ---------------------------------------------------------------------

/**
 * Slots mask conditional branches only (Figure 2). Point site
 * @p site_index of @p opt and its branch Home slot at the call
 * terminator in @p built's program: the verifier derives the branch
 * from the program, not from the site, and must reject the site.
 */
void
expectCallSiteRejected(const Built &built, FsOptResult &opt,
                       std::size_t site_index)
{
    SlotSite &site = opt.image.sites[site_index];
    const ir::CodeLocation call = firstCall(built.program);
    ASSERT_NE(call.func, ir::kNoFunc);
    site.branchOrig = call;
    opt.image.slots[site.branchImageIndex].orig = call;
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.message().find(
                  "O1: site at " +
                  ir::formatLocation(built.program, call) +
                  " is not a conditional terminator"),
              std::string::npos)
        << verdict.message();
}

TEST(FsOptVerify, RejectsFillAtACallSite)
{
    Built built = profileOver(buildFillable(true));
    FsOptResult opt = optimize(built, FsOptLevel::Slots, 4);
    ASSERT_FALSE(opt.fills.empty());
    ASSERT_TRUE(verifyFsOptImage(*built.profile, opt).ok());

    // A call's slot region never executes: the moved instructions
    // would be lost.
    expectCallSiteRejected(built, opt, opt.fills.front().site);
}

TEST(FsOptVerify, RejectsAClobberingFill)
{
    Built built = profileOver(buildFillable());
    FsOptResult opt = optimize(built, FsOptLevel::Slots, 4);
    ASSERT_FALSE(opt.fills.empty());

    // Redirect the moved instruction's record at index 0 of its block:
    // position 0 is never movable (the block must keep an entry).
    opt.fills.front().origin.index = 0;
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.message().find("O2"), std::string::npos);
    EXPECT_NE(verdict.message().find("[slot-fill]"), std::string::npos);
}

TEST(FsOptVerify, RejectsADuplicateWithoutItsEdge)
{
    Built built = profileOver(buildFigure2Like());
    FsOptResult opt = optimize(built, FsOptLevel::Superblock);
    ASSERT_FALSE(opt.dups.empty());
    // Reassign the duplicate to a predecessor with no arc into the
    // duplicated block.
    DupTail &dup = opt.dups.front();
    dup.pred = dup.block;
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.message().find("O5"), std::string::npos);
}

TEST(FsOptVerify, RejectsACorruptedElision)
{
    Built built = profileOver(buildHoistable());
    FsOptResult opt = optimize(built, FsOptLevel::Hoist);
    ASSERT_FALSE(opt.elisions.empty());

    // Re-point the elision's dominating source at the elided location
    // itself: the claimed value supplier no longer exists.
    opt.elisions.front().from = opt.elisions.front().loc;
    opt.elisions.front().fromAddr = opt.elisions.front().addr;
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.message().find("O6"), std::string::npos);
}

TEST(FsOptVerify, RejectsAForwardAcrossACall)
{
    Built built = profileOver(buildForwardable(true));
    FsOptResult opt = optimize(built, FsOptLevel::Slots);
    ASSERT_FALSE(opt.forwards.empty());
    ASSERT_TRUE(verifyFsOptImage(*built.profile, opt).ok());

    // A call's region is bypassed on the return path: the forwarded
    // home would be lost.
    expectCallSiteRejected(built, opt, opt.forwards.front().site);
}

TEST(FsOptVerify, RejectsABrokenForwardPrefix)
{
    Built built = profileOver(buildForwardable());
    FsOptResult opt = optimize(built, FsOptLevel::Slots);
    ASSERT_FALSE(opt.forwards.empty());

    // Shift the forwarded position off the block's copied prefix: the
    // claimed Copy slot no longer carries the block start.
    opt.forwards.front().loc.index += 1;
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.message().find("O9"), std::string::npos);
    EXPECT_NE(verdict.message().find("prefix"), std::string::npos);
}

TEST(FsOptVerify, RejectsAReversalMarkOnANonConditional)
{
    Built built = profileOver(buildFigure2Like());
    FsOptResult opt = optimize(built, FsOptLevel::Slots);
    ASSERT_TRUE(verifyFsOptImage(*built.profile, opt).ok());

    // Only a conditional has a direction to reverse: mark the
    // program's first instruction.
    const ir::Function &fn = built.program.function(0);
    ASSERT_FALSE(fn.block(fn.entry()).inst(0).isConditional());
    opt.image.reversed.insert(built.layout->blockAddr(0, fn.entry()));
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    EXPECT_NE(verdict.message().find("O11"), std::string::npos)
        << verdict.message();
}

TEST(FsOptVerify, RejectsAFlippedInTraceReversal)
{
    Built built = profileOver(buildFigure2Like());
    FsOptResult opt = optimize(built, FsOptLevel::Slots);
    ASSERT_TRUE(verifyFsOptImage(*built.profile, opt).ok());

    // Flip the reversal of a conditional inside a trace: its likely
    // path no longer falls through to the next trace block.
    ir::Addr flipped = ir::kNoAddr;
    for (const Trace &trace : opt.image.traces) {
        for (std::size_t j = 0; j + 1 < trace.blocks.size(); ++j) {
            const ir::BasicBlock &bb =
                built.program.function(trace.func).block(trace.blocks[j]);
            const ir::Instruction &term = bb.terminator();
            if (term.isConditional() && term.target != term.next) {
                flipped =
                    built.layout->blockAddr(trace.func, trace.blocks[j]) +
                    bb.size() - 1;
            }
        }
    }
    ASSERT_NE(flipped, ir::kNoAddr);
    if (opt.image.reversed.erase(flipped) == 0)
        opt.image.reversed.insert(flipped);
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    EXPECT_NE(verdict.message().find("O10"), std::string::npos)
        << verdict.message();
}

TEST(FsOptVerify, RejectsALevelNoneHomeIndexIntoACopySlot)
{
    Built built = profileOver(buildFigure2Like());
    FsOptResult opt = optimize(built, FsOptLevel::None);
    ASSERT_TRUE(verifyFsOptImage(*built.profile, opt).ok());

    // Index a copied instruction at its forward-slot copy instead of
    // its home: nothing is forwarded at level none, so control would
    // resolve into the slot region.
    ASSERT_FALSE(opt.image.sites.empty());
    const SlotSite &site = opt.image.sites.front();
    ASSERT_GT(site.copied, 0u);
    const std::size_t copy_index = site.branchImageIndex + 1;
    const ImageSlot &copy = opt.image.slots[copy_index];
    ASSERT_EQ(copy.kind, ImageSlot::Kind::Copy);
    opt.image.homeIndex.at(built.layout->instAddr(
        copy.orig.func, copy.orig.block, copy.orig.index)) = copy_index;
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    EXPECT_NE(verdict.message().find("O7: homeIndex entry"),
              std::string::npos)
        << verdict.message();
}

TEST(FsOptVerify, RejectsFillAndForwardRecordsAtLevelNone)
{
    Built built = profileOver(buildFillable());
    const FsOptResult slots = optimize(built, FsOptLevel::Slots, 4);
    ASSERT_FALSE(slots.fills.empty());
    FsOptResult none = optimize(built, FsOptLevel::None, 4);
    ASSERT_TRUE(verifyFsOptImage(*built.profile, none).ok());

    // The slot filler and branch target forwarding run from level
    // slots up: their records on the seed transform's image are
    // rejected by level.
    none.fills.push_back(slots.fills.front());
    none.forwards.push_back(ForwardedHome{});
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, none);
    EXPECT_NE(verdict.message().find("O1: 1 fills at level none"),
              std::string::npos)
        << verdict.message();
    EXPECT_NE(verdict.message().find("O1: 1 forwards at level none"),
              std::string::npos)
        << verdict.message();
}

TEST(FsOptVerify, RejectsAPadBeforeTheTargetTraceIsExhausted)
{
    Built built = profileOver(buildFigure2Like());
    FsOptResult opt = optimize(built, FsOptLevel::None);
    ASSERT_TRUE(verifyFsOptImage(*built.profile, opt).ok());

    // Turn a site's last copy into a NO-OP pad and move its window and
    // resume point back with it: the slot count and the image size
    // still add up, but a pad may only stand where the target trace
    // ran out.
    const auto site_it =
        std::find_if(opt.image.sites.begin(), opt.image.sites.end(),
                     [](const SlotSite &site) {
                         return site.copied > 0 && site.padded == 0;
                     });
    ASSERT_NE(site_it, opt.image.sites.end());
    SlotSite &site = *site_it;
    ImageSlot &last = opt.image.slots[site.branchImageIndex + site.copied];
    ASSERT_EQ(last.kind, ImageSlot::Kind::Copy);
    site.resume = last.orig;
    last = ImageSlot{};
    --site.copied;
    --site.consumed;
    ++site.padded;
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    EXPECT_NE(verdict.message().find(
                  "although the target trace was not exhausted"),
              std::string::npos)
        << verdict.message();
}

TEST(FsOptVerify, RejectsSlotsOutsideTheirGroups)
{
    Built built = profileOver(buildFigure2Like());
    FsOptResult opt = optimize(built, FsOptLevel::None, 8);
    ASSERT_TRUE(verifyFsOptImage(*built.profile, opt).ok());

    // A NO-OP pad in place of the image's first home, outside every
    // slot region, and the last site claiming pads past the image end.
    ASSERT_EQ(opt.image.slots.front().kind, ImageSlot::Kind::Home);
    opt.image.slots.front() = ImageSlot{};
    ASSERT_FALSE(opt.image.sites.empty());
    SlotSite &last = *std::max_element(
        opt.image.sites.begin(), opt.image.sites.end(),
        [](const SlotSite &a, const SlotSite &b) {
            return a.branchImageIndex < b.branchImageIndex;
        });
    last.padded += static_cast<unsigned>(opt.image.slots.size());
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    EXPECT_NE(verdict.message().find(
                  "O1: Pad slot at image index 0 outside every slot "
                  "region"),
              std::string::npos)
        << verdict.message();
    EXPECT_NE(verdict.message().find("overruns the image"),
              std::string::npos)
        << verdict.message();
}

TEST(FsOptVerify, CollectsEveryViolationAcrossFamilies)
{
    Built built = profileOver(buildFillable());
    FsOptResult opt = optimize(built, FsOptLevel::Slots, 4);
    ASSERT_FALSE(opt.fills.empty());

    // Two independent corruptions in different invariant families:
    // both must be reported, not just the first.
    opt.fills.front().origin.index = 0;
    opt.image.originalSize += 1;
    const FsVerifyResult verdict = verifyFsOptImage(*built.profile, opt);
    ASSERT_FALSE(verdict.ok());
    EXPECT_GE(verdict.errors.size(), 2u);
    EXPECT_NE(verdict.message().find("O2"), std::string::npos);
    EXPECT_NE(verdict.message().find("O7"), std::string::npos);
}

// ---------------------------------------------------------------------
// The all-workloads sweep: every level builds, verifies, and preserves
// the committed stream (exactly at none, filtered above it)
// ---------------------------------------------------------------------

class FsOptEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FsOptEquivalenceSweep, WorkloadImageIsSafeAndEquivalent)
{
    const auto &[workload_index, level_index] = GetParam();
    const workloads::Workload *workload =
        workloads::allWorkloads()[static_cast<std::size_t>(
            workload_index)];
    const FsOptLevel level =
        allFsOptLevels()[static_cast<std::size_t>(level_index)];

    ir::Program prog = workload->buildProgram();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    ProgramProfile profile(prog, layout);
    profile.noteRun();
    Rng rng(2026);
    const auto inputs = workload->makeInputs(rng, 1);
    vm::Machine machine(prog, layout);
    for (std::size_t chan = 0; chan < inputs[0].channels.size(); ++chan)
        machine.setInput(static_cast<int>(chan), inputs[0].channels[chan]);
    machine.setSink(&profile);
    machine.run();

    FsOptConfig config;
    config.fs.slotCount = 2;
    config.level = level;
    const FsOptResult opt = FsOptimizer(profile, config).build();

    EXPECT_EQ(verifyFsOptImage(profile, opt).message(), "")
        << workload->name() << " at " << fsOptLevelName(level);
    // Exact at level none: nothing is relaxed there.
    if (level == FsOptLevel::None) {
        EXPECT_TRUE(opt.relaxedAddrs.empty()) << workload->name();
    }
    EXPECT_EQ(checkImageEquivalence(profile, opt, inputs[0].channels), "")
        << workload->name() << " at " << fsOptLevelName(level);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllLevels, FsOptEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Range(0, 4)));

// ---------------------------------------------------------------------
// Image pins: every workload's result at every level, hashed from a
// canonical dump, holds the images themselves across a refactor
// ---------------------------------------------------------------------

namespace
{

std::ostream &
operator<<(std::ostream &os, const ir::CodeLocation &loc)
{
    return os << loc.func << ":" << loc.block << ":" << loc.index;
}

template <typename T>
std::vector<T>
sortedOf(const std::unordered_set<T> &set)
{
    std::vector<T> out(set.begin(), set.end());
    std::sort(out.begin(), out.end());
    return out;
}

/** Every field of @p opt, in a fixed order: the image's slots, sites,
 *  traces, home index and reversals (maps and sets sorted), then the
 *  optimizer's records, counters and relaxed addresses. */
std::string
canonicalDump(const FsOptResult &opt)
{
    const FsResult &image = opt.image;
    std::ostringstream os;
    os << "level " << fsOptLevelName(opt.level) << " slots "
       << opt.config.fs.slotCount << " original " << image.originalSize
       << "\n";
    for (const ImageSlot &slot : image.slots) {
        os << "slot " << static_cast<int>(slot.kind) << " " << slot.orig
           << " " << slotProvenanceName(slot.provenance) << "\n";
    }
    for (const SlotSite &site : image.sites) {
        // The constant 0 held a per-site call flag sites no longer
        // carry; the pinned digests still hash it.
        os << "site " << site.branchImageIndex << " " << site.branchOrig
           << " " << site.copied << " " << site.padded << " "
           << site.filled << " " << site.consumed << " "
           << site.origTargetAddr << " 0 ";
        if (site.resume)
            os << *site.resume;
        else
            os << "-";
        os << "\n";
    }
    for (const Trace &trace : image.traces) {
        os << "trace " << trace.func << " " << trace.weight;
        for (const ir::BlockId b : trace.blocks)
            os << " " << b;
        os << "\n";
    }
    std::vector<std::pair<ir::Addr, std::size_t>> homes(
        image.homeIndex.begin(), image.homeIndex.end());
    std::sort(homes.begin(), homes.end());
    for (const auto &[addr, index] : homes)
        os << "home " << addr << " " << index << "\n";
    for (const ir::Addr addr : sortedOf(image.reversed))
        os << "reversed " << addr << "\n";
    for (const FillRecord &fill : opt.fills) {
        os << "fill " << fill.site << " " << fill.origin << " "
           << fill.originAddr << " " << fill.imageIndex << "\n";
    }
    for (const ForwardedHome &fwd : opt.forwards) {
        os << "forward " << fwd.site << " " << fwd.loc << " " << fwd.addr
           << " " << fwd.imageIndex << "\n";
    }
    for (const DupTail &dup : opt.dups) {
        os << "dup " << dup.func << " " << dup.pred << " " << dup.block
           << " " << dup.predTermAddr << " " << dup.blockStartAddr << " "
           << dup.termAddr << " " << dup.arcWeight << " "
           << dup.imageStart << " " << dup.length << "\n";
    }
    for (const HoistElision &e : opt.elisions) {
        os << "elision " << e.loc << " " << e.addr << " " << e.from
           << " " << e.fromAddr << "\n";
    }
    const FsOptCounters &c = opt.counters;
    os << "counters " << c.padsDropped << " " << c.copiesTruncated << " "
       << c.deadCopiesDropped << " " << c.copiesDisplaced << " "
       << c.homesForwarded << " " << c.slotsFilled << " "
       << c.tailsDuplicated << " " << c.dupInstructions << " "
       << c.hoistElisions << " " << c.rejectedFills << " "
       << c.rejectedDups << " " << c.rejectedHoists << "\n";
    for (const ir::Addr addr : sortedOf(opt.relaxedAddrs))
        os << "relaxed " << addr << "\n";
    return os.str();
}

/** 64-bit FNV-1a. */
std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Pinned digests, one per workload (Table 1 order) and level (none,
 *  slots, superblock, hoist), each over k + l = 1, 2 and 8 at one run
 *  per workload. A change meant to move an image regenerates them from
 *  this test's failure output. */
constexpr std::uint64_t kImagePins[10][4] = {
    // cccp
    {0x658b15d78a328802ULL, 0x8c63bfb912312ab4ULL, 0x31e86c4dc9fe9106ULL,
     0x2db467b622f8dbb3ULL},
    // cmp
    {0x5fbf4cef83082e6eULL, 0x29ca0453c5c934e1ULL, 0x5d7535f4b673940aULL,
     0x7a185cbb359dae6dULL},
    // compress
    {0x8016e88f4df16ac3ULL, 0x1a22b860f70ae0cbULL, 0x6b577a43531a12fcULL,
     0xf7a81bbc0b573cc3ULL},
    // grep
    {0x1c2417e3338f7507ULL, 0xeef2f199a3e939edULL, 0xd6945afdfcbbfdaeULL,
     0x73ee801c61dfd1abULL},
    // lex
    {0x8a8bb013fd1eed6bULL, 0xfff94b2128f8200eULL, 0x316e2459472db78cULL,
     0x52536c7b9abc687bULL},
    // make
    {0x750846089b5edd5bULL, 0xbcdd3ffd81d6ddefULL, 0x80dd8fa9c91ae917ULL,
     0x3c787f038d09e714ULL},
    // tar
    {0xde2c1a6b77e3072cULL, 0x1ec147adbdca52a4ULL, 0x5c129db8f569eeedULL,
     0x6aedb6d4f3165e18ULL},
    // tee
    {0xf216a71d46bd2bfULL, 0x71a4990e6b27d937ULL, 0xeba59db87e1c8815ULL,
     0xac6081e01376f3beULL},
    // wc
    {0x66ce8bf413bec2cfULL, 0x15768406e96bedefULL, 0xe6d9260a4bd0704eULL,
     0xb8ace0dd0739e5d1ULL},
    // yacc
    {0x7ca32fcaf0ecf00fULL, 0xe0a029387b0c90abULL, 0x1a2aee5c07221e0ULL,
     0x219e1d651c12b454ULL},
};

} // namespace

class FsImagePin : public ::testing::TestWithParam<int>
{
};

TEST_P(FsImagePin, EveryLevelMatchesItsPinnedDigest)
{
    const auto w = static_cast<std::size_t>(GetParam());
    const workloads::Workload *workload = workloads::allWorkloads()[w];
    core::ExperimentConfig config;
    config.runsOverride = 1;
    const core::RecordedWorkload recorded =
        core::recordWorkload(*workload, config);

    std::ostringstream actual;
    for (std::size_t l = 0; l < allFsOptLevels().size(); ++l) {
        std::string dumps;
        for (const unsigned slots : {1u, 2u, 8u}) {
            FsOptConfig opt_config;
            opt_config.level = allFsOptLevels()[l];
            opt_config.fs.slotCount = slots;
            dumps += canonicalDump(
                FsOptimizer(*recorded.profile, opt_config).build());
        }
        const std::uint64_t digest = fnv1a(dumps);
        actual << (l == 0 ? "{" : ", ") << "0x" << std::hex << digest
               << "ULL" << std::dec;
        EXPECT_EQ(digest, kImagePins[w][l])
            << workload->name() << " at "
            << fsOptLevelName(allFsOptLevels()[l]);
    }
    if (HasFailure())
        ADD_FAILURE() << workload->name() << " row: " << actual.str()
                      << "}";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FsImagePin,
                         ::testing::Range(0, 10));

} // namespace branchlab::profile
