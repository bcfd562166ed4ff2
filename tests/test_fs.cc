/**
 * @file
 * Tests for the Forward Semantic transformation: the paper's Figure 2
 * scenario, slot filling, NO-OP padding, target patching, condition
 * reversal, code-size accounting, and the full invariant sweep
 * (verifyFsOptImage) over every workload at every k + l of Table 5
 * and every optimizer level.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "helpers.hh"
#include "profile/fs_opt.hh"
#include "profile/image_exec.hh"
#include "support/logging.hh"
#include "workloads/workload.hh"

using branchlab::LogicFailure;

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

/** The seed transform: the optimizer's image at level none. */
FsOptResult
seedImage(const ProgramProfile &profile, const FsConfig &config)
{
    FsOptConfig opt;
    opt.fs = config;
    return FsOptimizer(profile, opt).build();
}

/**
 * The paper's Figure 2 shape: a hot loop whose trace-ending branch is
 * likely taken, with a short unlikely path behind the target.
 *
 * do { if (x % 7 == 0) rare(); } while (--n > 0);
 */
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
                     [&] { b.emitBinaryImmTo(Opcode::Add, acc, acc, 100); });
            b.emitBinaryImmTo(Opcode::Sub, n, n, 1);
        },
        [&] { return IrBuilder::cmpGti(n, 0); });
    b.out(acc, 1);
    b.halt();
    b.endFunction();
    return prog;
}

TEST(ForwardSlots, LikelyTakenLoopBranchGetsSlots)
{
    Built built = profileOver(buildFigure2Like());
    FsConfig config;
    config.slotCount = 2;
    const FsOptResult seed = seedImage(*built.profile, config);
    const FsResult &image = seed.image;
    // The do-while bottom test is taken 49/50: it must be a slot site.
    ASSERT_FALSE(image.sites.empty());
    bool found_conditional_site = false;
    for (const SlotSite &site : image.sites) {
        const ir::Instruction &inst =
            built.program.function(site.branchOrig.func)
                .block(site.branchOrig.block)
                .inst(site.branchOrig.index);
        if (inst.isConditional())
            found_conditional_site = true;
        EXPECT_EQ(site.copied + site.padded, config.slotCount);
    }
    EXPECT_TRUE(found_conditional_site);
    EXPECT_EQ(verifyFsOptImage(*built.profile, seed).message(), "");
}

TEST(ForwardSlots, CopiesReplicateTargetPathVerbatim)
{
    Built built = profileOver(buildFigure2Like());
    FsConfig config;
    config.slotCount = 3;
    const FsOptResult seed = seedImage(*built.profile, config);
    const FsResult &image = seed.image;
    for (const SlotSite &site : image.sites) {
        // Each copy slot's original identity must match the
        // instruction found at the (advancing) target path -- this is
        // Figure 2's "copy the next k+l instructions" semantics,
        // branches included.
        for (unsigned c = 0; c < site.copied; ++c) {
            const ImageSlot &slot =
                image.slots[site.branchImageIndex + 1 + c];
            EXPECT_EQ(slot.kind, ImageSlot::Kind::Copy);
        }
        // The resume point advances by exactly the copied count
        // (target_addr += k+l in the paper's algorithm).
        if (site.resume.has_value()) {
            EXPECT_EQ(site.padded, 0u);
        }
    }
    EXPECT_EQ(verifyFsOptImage(*built.profile, seed).message(), "");
}

TEST(ForwardSlots, PadsAppearOnlyWhenTargetTraceExhausted)
{
    // A tiny target trace: jump to a block that immediately halts.
    // With a large slot count the copies run out and NO-OPs pad.
    ir::Program prog("pad");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg n = b.newReg();
    b.ldiTo(n, 10);
    b.doWhile([&] { b.emitBinaryImmTo(Opcode::Sub, n, n, 1); },
              [&] { return IrBuilder::cmpGti(n, 0); });
    b.out(n, 1);
    b.halt();
    b.endFunction();

    Built built = profileOver(std::move(prog));
    FsConfig config;
    config.slotCount = 8;
    const FsOptResult seed = seedImage(*built.profile, config);
    EXPECT_EQ(verifyFsOptImage(*built.profile, seed).message(), "");
    bool saw_pad = false;
    for (const ImageSlot &slot : seed.image.slots)
        saw_pad |= slot.kind == ImageSlot::Kind::Pad;
    // The loop branch targets the loop head; the trace from the head
    // to the terminator is short, so pads must appear.
    EXPECT_TRUE(saw_pad);
}

TEST(ForwardSlots, CodeSizeGrowsLinearlyInSlotCount)
{
    Built built = profileOver(buildFigure2Like());
    double previous = 0.0;
    for (unsigned slots : {1u, 2u, 4u, 8u}) {
        FsConfig config;
        config.slotCount = slots;
        const FsResult image = seedImage(*built.profile, config).image;
        EXPECT_EQ(image.expandedSize(),
                  image.originalSize + image.sites.size() * slots);
        const double increase = image.codeSizeIncrease();
        EXPECT_GT(increase, previous);
        // Linearity: increase per slot is constant (site set fixed).
        EXPECT_NEAR(increase / slots,
                    seedImage(*built.profile, FsConfig{1, {}})
                        .codeSizeIncrease(),
                    1e-9);
        previous = increase;
    }
}

TEST(ForwardSlots, ReversalMakesLikelyPathFallThrough)
{
    // A branch that is taken 90% of the time inside a loop: after
    // alignment its trace successor must be the fallthrough side.
    ir::Program prog("rev");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg acc = b.newReg();
    b.ldiTo(acc, 0);
    b.forRangeImm(i, 0, 100, [&] {
        const Reg r = b.remi(i, 10);
        // cmpNei is true 90% of the time -> branch taken 90%.
        b.ifThen([&] { return IrBuilder::cmpNei(r, 0); },
                 [&] { b.emitBinaryImmTo(Opcode::Add, acc, acc, 1); });
    });
    b.out(acc, 1);
    b.halt();
    b.endFunction();

    Built built = profileOver(std::move(prog));
    const FsOptResult seed = seedImage(*built.profile, FsConfig{});
    // The 90%-taken if-test must be reversed somewhere (its then
    // block joins the trace as fallthrough).
    EXPECT_FALSE(seed.image.reversed.empty());
    EXPECT_EQ(verifyFsOptImage(*built.profile, seed).message(), "");
}

TEST(ForwardSlots, HomeIndexCoversEveryInstruction)
{
    Built built = profileOver(buildFigure2Like());
    const FsResult image = seedImage(*built.profile, FsConfig{}).image;
    EXPECT_EQ(image.homeIndex.size(), built.program.staticSize());
    for (const auto &[addr, index] : image.homeIndex) {
        ASSERT_LT(index, image.slots.size());
        EXPECT_EQ(image.slots[index].kind, ImageSlot::Kind::Home);
        const ir::CodeLocation loc = built.layout->locate(addr);
        EXPECT_TRUE(image.slots[index].orig == loc);
    }
}

TEST(ForwardSlots, PrinterRendersTheImage)
{
    Built built = profileOver(buildFigure2Like());
    const FsResult image = seedImage(*built.profile, FsConfig{}).image;
    std::ostringstream os;
    printFsImage(os, *built.profile, image);
    EXPECT_NE(os.str().find("Forward Semantic image"),
              std::string::npos);
    if (!image.sites.empty()) {
        EXPECT_NE(os.str().find("forward-slot copy"),
                  std::string::npos);
    }
}

TEST(ForwardSlots, VerifierCollectsEveryViolation)
{
    // Damage one site's shape (O1) AND the global size accounting
    // (O7): the report must list both families, not stop at the
    // first failure.
    Built built = profileOver(buildFigure2Like());
    FsConfig config;
    config.slotCount = 2;
    FsOptResult seed = seedImage(*built.profile, config);
    ASSERT_FALSE(seed.image.sites.empty());
    ASSERT_TRUE(verifyFsOptImage(*built.profile, seed).ok());

    seed.image.sites.front().copied += 1;
    seed.image.originalSize += 1;
    const FsVerifyResult result = verifyFsOptImage(*built.profile, seed);
    ASSERT_FALSE(result.ok());
    EXPECT_GE(result.errors.size(), 3u);
    EXPECT_NE(result.message().find("O1"), std::string::npos);
    EXPECT_NE(result.message().find("slots, expected 2"),
              std::string::npos);
    EXPECT_NE(result.message().find("O7"), std::string::npos);
}

// ---------------------------------------------------------------------
// The full-suite invariant sweep (Table 5 configurations, every level).
// ---------------------------------------------------------------------

class FsInvariantSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{
};

TEST_P(FsInvariantSweep, WorkloadImageIsWellFormed)
{
    const auto &[workload_index, slot_count] = GetParam();
    const workloads::Workload *workload =
        workloads::allWorkloads()[static_cast<std::size_t>(
            workload_index)];

    ir::Program prog = workload->buildProgram();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    ProgramProfile profile(prog, layout);
    profile.noteRun();
    Rng rng(99);
    const auto inputs = workload->makeInputs(rng, 1);
    vm::Machine machine(prog, layout);
    for (std::size_t chan = 0; chan < inputs[0].channels.size(); ++chan)
        machine.setInput(static_cast<int>(chan), inputs[0].channels[chan]);
    machine.setSink(&profile);
    machine.run();

    for (const FsOptLevel level : allFsOptLevels()) {
        FsOptConfig config;
        config.fs.slotCount = slot_count;
        config.level = level;
        EXPECT_EQ(verifyFsOptImage(profile,
                                   FsOptimizer(profile, config).build())
                      .message(),
                  "")
            << workload->name() << " at k+l=" << slot_count << " "
            << fsOptLevelName(level);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllSlotCounts, FsInvariantSweep,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(1u, 2u, 4u, 8u)));

// ---------------------------------------------------------------------
// Semantic preservation: execute the transformed image and require the
// committed stream and outputs to match the original program.
// ---------------------------------------------------------------------

TEST(ImageExecution, Figure2LikeProgramIsEquivalent)
{
    Built built = profileOver(buildFigure2Like());
    for (unsigned slots : {1u, 2u, 4u, 8u}) {
        FsConfig config;
        config.slotCount = slots;
        EXPECT_EQ(checkImageEquivalence(*built.profile,
                                        seedImage(*built.profile, config),
                                        {}),
                  "")
            << "slots " << slots;
    }
}

TEST(ImageExecution, SlotsActuallyExecuteOnTheLikelyPath)
{
    // The image run must commit through Copy slots, not just homes:
    // verify at least one committed index maps into a slot region.
    Built built = profileOver(buildFigure2Like());
    FsConfig config;
    config.slotCount = 2;
    const FsOptResult seed = seedImage(*built.profile, config);
    ASSERT_FALSE(seed.image.sites.empty());
    const ImageExecutor executor(*built.profile, seed);
    const ImageRunResult run = executor.run({});
    EXPECT_EQ(run.reason, vm::StopReason::Halted);
    EXPECT_GT(run.instructions, 0u);
}

TEST(ImageExecution, CorruptedCopiesAreDetected)
{
    // Validate the validator: damage one forward-slot copy and the
    // equivalence check must report a divergence (or the executor
    // must fault) -- silence would mean the check is vacuous.
    Built built = profileOver(buildFigure2Like());
    FsConfig config;
    config.slotCount = 2;
    FsOptResult seed = seedImage(*built.profile, config);
    FsResult &image = seed.image;
    ASSERT_FALSE(image.sites.empty());
    const SlotSite &site = image.sites.front();
    ASSERT_GT(site.copied, 0u);

    // Point the first copy at a different original instruction.
    ImageSlot &victim = image.slots[site.branchImageIndex + 1];
    ASSERT_EQ(victim.kind, ImageSlot::Kind::Copy);
    const ir::CodeLocation wrong{victim.orig.func, victim.orig.block,
                                 victim.orig.index == 0
                                     ? 1u
                                     : victim.orig.index - 1};
    victim.orig = wrong;

    bool detected = false;
    try {
        detected = !checkImageEquivalence(*built.profile, seed, {})
                        .empty();
    } catch (const vm::ExecutionFault &) {
        detected = true;
    } catch (const LogicFailure &) {
        detected = true;
    }
    EXPECT_TRUE(detected);
}

TEST(ImageExecution, BranchToAMissingHomeIsReportedAsSuch)
{
    // An image without the home of a branch target is corrupt, and the
    // executor must say so rather than run off the end of the image.
    // With no sites, every branch leaves through a home.
    Built built = profileOver(buildFigure2Like());
    FsOptResult seed = seedImage(*built.profile, FsConfig{});
    seed.image.sites.clear();
    seed.dups.clear();
    const ir::Addr entry =
        built.layout->funcEntry(built.program.mainFunction());
    std::erase_if(seed.image.homeIndex, [entry](const auto &home) {
        return home.first != entry;
    });
    try {
        ImageExecutor(*built.profile, seed).run({});
        FAIL() << "the image ran without its branch targets' homes";
    } catch (const LogicFailure &failure) {
        EXPECT_NE(std::string(failure.what())
                      .find("image is missing a home slot"),
                  std::string::npos)
            << failure.what();
    }
}

class ImageEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{
};

TEST_P(ImageEquivalenceSweep, WorkloadImageRunsIdentically)
{
    const auto &[workload_index, slot_count] = GetParam();
    const workloads::Workload *workload =
        workloads::allWorkloads()[static_cast<std::size_t>(
            workload_index)];

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

    FsConfig config;
    config.slotCount = slot_count;
    EXPECT_EQ(checkImageEquivalence(profile, seedImage(profile, config),
                                    inputs[0].channels),
              "")
        << workload->name() << " at k+l=" << slot_count;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ImageEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(2u, 8u)));

TEST(ImageExecution, BranchSinkSkipsTheCommittedStream)
{
    Built built = profileOver(buildFigure2Like());
    FsConfig config;
    config.slotCount = 2;
    const FsOptResult seed = seedImage(*built.profile, config);
    const ImageExecutor executor(*built.profile, seed);

    // No sink: the committed stream is materialised (equivalence
    // checks depend on it).
    const ImageRunResult plain = executor.run({});
    EXPECT_EQ(plain.committed.size(), plain.instructions);

    // A branches-only sink: the committed vector stays empty -- the
    // pure recording path never builds it -- while the instruction
    // count and the branch stream are unchanged.
    trace::BranchRecorder recorder;
    const ImageRunResult recording = executor.run({}, &recorder);
    EXPECT_EQ(recording.instructions, plain.instructions);
    EXPECT_TRUE(recording.committed.empty());
    EXPECT_GT(recorder.size(), 0u);
    EXPECT_EQ(recording.outputs, plain.outputs);

    // A sink that wants instructions still gets the committed stream.
    trace::InstRecorder insts;
    const ImageRunResult full = executor.run({}, &insts);
    EXPECT_EQ(full.committed.size(), plain.committed.size());
    EXPECT_EQ(insts.addrs().size(), plain.instructions);
}

} // namespace
} // namespace branchlab::profile
