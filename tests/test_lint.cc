/**
 * @file
 * Diagnostics-engine tests: every built-in rule firing on a crafted
 * bad program (or a corrupted Forward Semantic image), plus the
 * engine's severity post-processing and renderers.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/diagnostics.hh"
#include "helpers.hh"
#include "support/logging.hh"
#include "ir/builder.hh"
#include "ir/layout.hh"
#include "ir/verifier.hh"
#include "profile/forward_slots.hh"
#include "profile/fs_opt.hh"
#include "profile/profile.hh"
#include "vm/machine.hh"

using namespace branchlab;
using namespace branchlab::analysis;
using ir::BlockId;
using ir::FuncId;
using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;

namespace
{

DiagnosticEngine
builtinEngine(LintOptions options = LintOptions{})
{
    DiagnosticEngine engine(options);
    registerBuiltinRules(engine);
    return engine;
}

std::vector<Diagnostic>
lintWith(const std::string &rule, const ir::Program &prog)
{
    DiagnosticEngine engine = builtinEngine();
    engine.enableOnly({rule});
    return engine.lintProgram(prog);
}

/** Count diagnostics from @p rule. */
std::size_t
countOf(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    return static_cast<std::size_t>(
        std::count_if(diags.begin(), diags.end(), [&](const auto &d) {
            return d.rule == rule;
        }));
}

/**
 * A hot loop whose likely-taken back-branch copies the loop head's
 * accumulator update into its slots; the accumulator is still read
 * after the loop exits, so the copies clobber the untaken path
 * (benign only under squashing).
 */
ir::Program
buildClobberProne()
{
    ir::Program prog("clobber");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg t = b.newReg();
    b.ldiTo(t, 0);
    b.ldiTo(i, 20);
    b.doWhile(
        [&] {
            b.emitBinaryTo(Opcode::Add, t, t, i);
            b.emitBinaryImmTo(Opcode::Sub, i, i, 1);
        },
        [&] { return IrBuilder::cmpGti(i, 0); });
    b.out(t, 1);
    b.halt();
    b.endFunction();
    return prog;
}

/**
 * A two-block loop whose slot group gains a liveness-proven fill at
 * level slots: the dead s = i * 3 right before the back branch moves
 * into the pad space freed by the short target block.
 */
ir::Program
buildFillProne()
{
    ir::Program prog("fillprone");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg t = b.newReg();
    const Reg s = b.newReg();
    b.ldiTo(i, 30);
    b.ldiTo(t, 0);
    const BlockId body = b.newBlock("body");
    const BlockId check = b.newBlock("check");
    const BlockId done = b.newBlock("done");
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
    b.out(t, 1);
    b.halt();
    b.endFunction();
    return prog;
}

/** Profile @p prog and build its FS image at @p level (none: the
 *  seed transform). */
struct Optimized
{
    ir::Program program;
    std::unique_ptr<ir::Layout> layout;
    std::unique_ptr<profile::ProgramProfile> profile;
    profile::FsOptResult opt;
};

Optimized
optimizedOf(ir::Program prog, profile::FsOptLevel level,
            unsigned slot_count = 4)
{
    ir::verifyProgramOrDie(prog);
    Optimized built{std::move(prog), nullptr, nullptr, {}};
    built.layout = std::make_unique<ir::Layout>(built.program);
    built.profile = std::make_unique<profile::ProgramProfile>(
        built.program, *built.layout);
    built.profile->noteRun();
    vm::Machine machine(built.program, *built.layout);
    machine.setSink(built.profile.get());
    machine.run();
    profile::FsOptConfig config;
    config.fs.slotCount = slot_count;
    config.level = level;
    config.dupMaxGrowth = 1.0; // Tiny programs: don't cap duplicates.
    config.dupRequireGain = false; // No path correlation to find.
    built.opt =
        profile::FsOptimizer(*built.profile, config).build();
    EXPECT_TRUE(
        profile::verifyFsOptImage(*built.profile, built.opt).ok());
    return built;
}

} // namespace

// ---------------------------------------------------------------------
// Program rules on crafted bad programs
// ---------------------------------------------------------------------

TEST(LintRules, UnreachableBlockFires)
{
    ir::Program prog = test::buildCountdown(2);
    ir::Function &fn = prog.function(0);
    const BlockId island = fn.newBlock("island");
    fn.block(island).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);

    const auto diags = lintWith("unreachable-block", prog);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Warning);
    EXPECT_NE(diags[0].message.find("island"), std::string::npos);
    EXPECT_NE(diags[0].where.find("main.island"), std::string::npos);
}

TEST(LintRules, UseBeforeDefFires)
{
    // Branch on a register no path has written: the VM reads 0, the
    // lint objects.
    ir::Program prog("uninit");
    const FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const Reg x = fn.newReg();
    const BlockId entry = fn.newBlock("entry");
    const BlockId a = fn.newBlock("a");
    const BlockId c = fn.newBlock("c");
    fn.block(entry).append(
        ir::makeCondBranchImm(Opcode::Beq, x, 0, a, c));
    fn.block(a).append(ir::makeHalt());
    fn.block(c).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);

    const auto diags = lintWith("use-before-def", prog);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Warning);
    EXPECT_NE(diags[0].message.find("r0"), std::string::npos);
}

TEST(LintRules, UseBeforeDefSilentWhenOneArmAssignsFirst)
{
    // Definite assignment is a must-analysis: a register written on
    // only one arm still trips the rule at the join...
    ir::Program prog("half");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.ldi(1);
    const Reg y = b.newReg();
    b.ifThen([&] { return IrBuilder::cmpGti(x, 0); },
             [&] { b.ldiTo(y, 5); });
    b.out(y, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    EXPECT_EQ(countOf(lintWith("use-before-def", prog),
                      "use-before-def"),
              1u);

    // ...but straight-line def-then-use stays silent.
    EXPECT_TRUE(
        lintWith("use-before-def", test::buildCountdown(2)).empty());
}

TEST(LintRules, DeadStoreFires)
{
    ir::Program prog("dead");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.ldi(1); // dead: overwritten before any read
    b.ldiTo(x, 2);
    b.out(x, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);

    const auto diags = lintWith("dead-store", prog);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Warning);
    EXPECT_NE(diags[0].where.find("main.entry[0]"), std::string::npos);
}

TEST(LintRules, DeadStoreIgnoresEffectfulWrites)
{
    // An In consumes input even when its destination dies; the rule
    // must not flag it.
    ir::Program prog("effect");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.in(0);
    b.ldiTo(x, 2);
    b.out(x, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    EXPECT_TRUE(lintWith("dead-store", prog).empty());
}

TEST(LintRules, ConstantConditionFires)
{
    ir::Program prog("cc");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.ldi(3);
    b.ifThen([&] { return IrBuilder::cmpGti(x, 0); },
             [&] { b.out(x, 1); });
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);

    const auto diags = lintWith("constant-condition", prog);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Warning);
    EXPECT_NE(diags[0].message.find("always true"), std::string::npos);
}

TEST(LintRules, JumpTableDegenerateDuplicateAndConstantIndex)
{
    ir::Program prog("jt");
    const FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const Reg idx = fn.newReg();
    const BlockId entry = fn.newBlock("entry");
    const BlockId a = fn.newBlock("a");
    const BlockId c = fn.newBlock("c");
    const BlockId d = fn.newBlock("d");
    fn.block(entry).append(ir::makeLdi(idx, 0));
    fn.block(entry).append(ir::makeJTab(idx, {a, a}));
    fn.block(a).append(ir::makeJTab(idx, {c, d, c}));
    fn.block(c).append(ir::makeHalt());
    fn.block(d).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);

    const auto diags = lintWith("jump-table", prog);
    // entry: single distinct target (warning) + constant index 0
    // (warning). a: duplicate arm (note) + constant index (warning).
    EXPECT_EQ(countOf(diags, "jump-table"), 4u);
    const auto degenerate =
        std::count_if(diags.begin(), diags.end(), [](const auto &d) {
            return d.message.find("single distinct") !=
                   std::string::npos;
        });
    EXPECT_EQ(degenerate, 1);
    const auto dup =
        std::count_if(diags.begin(), diags.end(), [](const auto &d) {
            return d.severity == Severity::Note;
        });
    EXPECT_EQ(dup, 1);
}

TEST(LintRules, JumpTableConstantOutOfRangeIndexIsAnError)
{
    ir::Program prog("jtoob");
    const FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const Reg idx = fn.newReg();
    const BlockId entry = fn.newBlock("entry");
    const BlockId a = fn.newBlock("a");
    const BlockId c = fn.newBlock("c");
    fn.block(entry).append(ir::makeLdi(idx, 5));
    fn.block(entry).append(ir::makeJTab(idx, {a, c}));
    fn.block(a).append(ir::makeHalt());
    fn.block(c).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);

    const auto diags = lintWith("jump-table", prog);
    ASSERT_FALSE(diags.empty());
    EXPECT_TRUE(DiagnosticEngine::hasErrors(diags));
    EXPECT_NE(diags[0].message.find("outside the table"),
              std::string::npos);
}

TEST(LintRules, CleanProgramsLintClean)
{
    for (const auto &prog :
         {test::buildCountdown(5), test::buildFactorial(4)}) {
        const DiagnosticEngine engine = builtinEngine();
        EXPECT_TRUE(engine.lintProgram(prog).empty()) << prog.name();
    }
}

// ---------------------------------------------------------------------
// FS-image rules
// ---------------------------------------------------------------------

TEST(LintRules, FsSlotRegionTargetFiresOnACorruptedImage)
{
    Optimized built =
        optimizedOf(buildClobberProne(), profile::FsOptLevel::None, 2);
    ASSERT_FALSE(built.opt.image.sites.empty());

    DiagnosticEngine engine = builtinEngine();
    engine.enableOnly({"fs-slot-region-target"});
    // The intact image passes.
    EXPECT_TRUE(engine.lintFsImage(*built.profile, built.opt).empty());

    // Redirect one home into the middle of a slot group.
    const profile::SlotSite &site = built.opt.image.sites.front();
    ASSERT_FALSE(built.opt.image.homeIndex.empty());
    built.opt.image.homeIndex.begin()->second = site.branchImageIndex + 1;
    const auto diags = engine.lintFsImage(*built.profile, built.opt);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].severity, Severity::Error);
    EXPECT_EQ(diags[0].rule, "fs-slot-region-target");
}

TEST(LintRules, FsClobberedLiveRegisterFires)
{
    Optimized built =
        optimizedOf(buildClobberProne(), profile::FsOptLevel::None, 2);
    DiagnosticEngine engine = builtinEngine();
    engine.enableOnly({"fs-clobbered-live-register"});
    const auto diags = engine.lintFsImage(*built.profile, built.opt);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].severity, Severity::Note);
    EXPECT_NE(diags[0].message.find("clobber"), std::string::npos);
    // A loop whose copied head instructions define nothing that is
    // read after the exit stays silent.
    ir::Program quiet("quiet");
    IrBuilder qb(quiet);
    qb.beginFunction("main");
    const Reg i = qb.newReg();
    qb.ldiTo(i, 20);
    qb.doWhile(
        [&] {
            qb.out(i, 1);
            qb.emitBinaryImmTo(Opcode::Sub, i, i, 1);
        },
        [&] { return IrBuilder::cmpGti(i, 0); });
    qb.halt();
    qb.endFunction();
    Optimized clean =
        optimizedOf(std::move(quiet), profile::FsOptLevel::None, 2);
    EXPECT_TRUE(engine.lintFsImage(*clean.profile, clean.opt).empty());
}

TEST(LintRules, FsSpeculativeSlotClobberFiresOnCorruptedFills)
{
    Optimized built =
        optimizedOf(buildFillProne(), profile::FsOptLevel::Slots);
    ASSERT_FALSE(built.opt.fills.empty());
    DiagnosticEngine engine = builtinEngine();
    engine.enableOnly({"fs-speculative-slot-clobber"});

    // The legitimately built image is clean: the builder proved every
    // move with the same predicates the rule re-checks.
    EXPECT_TRUE(
        engine.lintFsImage(*built.profile, built.opt).empty());

    // Re-point the Fill slot at a non-speculable instruction (the
    // program's out): the rule must flag the possible fault.
    profile::ImageSlot &slot =
        built.opt.image.slots[built.opt.fills.front().imageIndex];
    ASSERT_EQ(slot.kind, profile::ImageSlot::Kind::Fill);
    bool found_out = false;
    const ir::Function &fn = built.program.function(0);
    for (BlockId bId = 0; bId < fn.numBlocks() && !found_out; ++bId) {
        for (std::uint32_t i = 0; i < fn.block(bId).size(); ++i) {
            if (fn.block(bId).inst(i).op == Opcode::Out) {
                slot.orig = ir::CodeLocation{0, bId, i};
                found_out = true;
                break;
            }
        }
    }
    ASSERT_TRUE(found_out);
    const auto faulty = engine.lintFsImage(*built.profile, built.opt);
    ASSERT_FALSE(faulty.empty());
    EXPECT_EQ(faulty[0].severity, Severity::Error);
    EXPECT_NE(faulty[0].message.find("speculatively"),
              std::string::npos);
    EXPECT_TRUE(faulty[0].hasSpan);
    EXPECT_STREQ(faulty[0].spanUnit, "image-slot");
}

TEST(LintRules, FsUnreachableDupTailFiresOnForgedDuplicates)
{
    Optimized built =
        optimizedOf(buildFillProne(), profile::FsOptLevel::Slots);
    DiagnosticEngine engine = builtinEngine();
    engine.enableOnly({"fs-unreachable-dup-tail"});
    EXPECT_TRUE(
        engine.lintFsImage(*built.profile, built.opt).empty());

    // Forge a duplicate for a predecessor with no CFG edge into the
    // duplicated block (done never branches back to body).
    const ir::Function &fn = built.program.function(0);
    BlockId body = ir::kNoBlock;
    BlockId done = ir::kNoBlock;
    for (BlockId bId = 0; bId < fn.numBlocks(); ++bId) {
        if (fn.block(bId).label() == "body")
            body = bId;
        if (fn.block(bId).label() == "done")
            done = bId;
    }
    ASSERT_NE(body, ir::kNoBlock);
    ASSERT_NE(done, ir::kNoBlock);
    profile::DupTail forged;
    forged.func = 0;
    forged.pred = done;
    forged.block = body;
    forged.imageStart = 0;
    forged.length = 1;
    built.opt.dups.push_back(forged);
    const auto diags = engine.lintFsImage(*built.profile, built.opt);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Error);
    EXPECT_NE(diags[0].message.find("no such CFG edge"),
              std::string::npos);

    // A real edge the profile never took is pure code growth: the
    // check -> done exit arc is taken, but done -> done's self loop
    // does not exist; use the never-taken direction instead. The
    // fallthrough check -> done arc executed once, so forge the
    // opposite: entry -> body exists and ran, while body has a second
    // predecessor arc from check that ran too -- so craft a
    // zero-weight case from a never-executed edge is impossible here;
    // instead verify the Warning on a dup whose arc exists but whose
    // weight the profile recorded as zero by using a fresh profile
    // with no runs.
    profile::ProgramProfile cold(built.program, *built.layout);
    profile::DupTail unused;
    unused.func = 0;
    unused.pred = body; // body -> check edge exists (jmp)...
    for (BlockId bId = 0; bId < fn.numBlocks(); ++bId) {
        if (fn.block(bId).label() == "check")
            unused.block = bId;
    }
    unused.imageStart = 0;
    unused.length = 1;
    profile::FsOptResult forged_opt;
    forged_opt.level = built.opt.level;
    forged_opt.config = built.opt.config;
    forged_opt.image = built.opt.image;
    forged_opt.dups.push_back(unused);
    const auto warns = engine.lintFsImage(cold, forged_opt);
    ASSERT_EQ(warns.size(), 1u);
    EXPECT_EQ(warns[0].severity, Severity::Warning);
    EXPECT_NE(warns[0].message.find("pure code growth"),
              std::string::npos);
}

TEST(LintRules, FsProfileCfgMismatchFiresOnForeignCounts)
{
    // An unreachable halt-island carries the run count as weight --
    // a profile that "executed" a block the CFG cannot reach.
    ir::Program prog = buildFillProne();
    ir::Function &fn = prog.function(0);
    const BlockId island = fn.newBlock("island");
    fn.block(island).append(ir::makeHalt());
    Optimized built =
        optimizedOf(std::move(prog), profile::FsOptLevel::None, 2);
    DiagnosticEngine engine = builtinEngine();
    engine.enableOnly({"fs-profile-cfg-mismatch"});
    const auto diags = engine.lintFsImage(*built.profile, built.opt);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].severity, Severity::Error);
    EXPECT_NE(diags[0].message.find("CFG-unreachable"),
              std::string::npos);
}

TEST(LintRules, FsProfileCfgMismatchFlagsImpossibleDirections)
{
    // A constant-true condition whose profile claims a not-taken
    // execution: inject the impossible event into the sink.
    ir::Program prog("consttrue");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.newReg();
    const Reg t = b.newReg();
    b.ldiTo(x, 5);
    b.ldiTo(t, 0);
    b.ifThen([&] { return IrBuilder::cmpGti(x, 0); },
             [&] { b.emitBinaryImmTo(Opcode::Add, t, t, 1); });
    b.out(t, 1);
    b.halt();
    b.endFunction();
    Optimized built =
        optimizedOf(std::move(prog), profile::FsOptLevel::None, 2);

    DiagnosticEngine engine = builtinEngine();
    engine.enableOnly({"fs-profile-cfg-mismatch"});
    EXPECT_TRUE(engine.lintFsImage(*built.profile, built.opt).empty());

    // Find the conditional and forge one not-taken execution.
    const ir::Function &fn = built.program.function(0);
    trace::BranchEvent forged;
    for (BlockId bId = 0; bId < fn.numBlocks(); ++bId) {
        const ir::BasicBlock &bb = fn.block(bId);
        const ir::Instruction &term = bb.terminator();
        if (!term.isConditional())
            continue;
        const auto index = static_cast<std::uint32_t>(bb.size() - 1);
        forged.pc = built.layout->instAddr(0, bId, index);
        forged.conditional = true;
        forged.taken = false;
        forged.op = term.op;
        forged.nextPc = forged.pc + 1;
        forged.fallthroughAddr = forged.pc + 1;
        forged.targetAddr = built.layout->blockAddr(0, term.target);
        break;
    }
    ASSERT_NE(forged.pc, ir::kNoAddr);
    built.profile->onBranch(forged);

    const auto diags = engine.lintFsImage(*built.profile, built.opt);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].severity, Severity::Warning);
    EXPECT_NE(diags[0].message.find("impossible"), std::string::npos);
}

TEST(LintRules, OptimizedImagesLintCleanAtEveryLevel)
{
    // The builder and the FS rules share their safety predicates: a
    // legitimately optimized image must produce zero diagnostics from
    // the optimizer-aware rules at every level.
    for (const profile::FsOptLevel level : profile::allFsOptLevels()) {
        Optimized built = optimizedOf(buildFillProne(), level);
        DiagnosticEngine engine = builtinEngine();
        engine.enableOnly({"fs-speculative-slot-clobber",
                           "fs-unreachable-dup-tail",
                           "fs-profile-cfg-mismatch",
                           "fs-slot-region-target"});
        EXPECT_TRUE(
            engine.lintFsImage(*built.profile, built.opt).empty())
            << profile::fsOptLevelName(level);
    }
}

// ---------------------------------------------------------------------
// Engine post-processing and rendering
// ---------------------------------------------------------------------

TEST(LintEngine, WerrorPromotesWarningsToErrors)
{
    ir::Program prog = test::buildCountdown(2);
    ir::Function &fn = prog.function(0);
    const BlockId island = fn.newBlock("island");
    fn.block(island).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);

    LintOptions options;
    options.warningsAsErrors = true;
    DiagnosticEngine engine = builtinEngine(options);
    const auto diags = engine.lintProgram(prog);
    ASSERT_FALSE(diags.empty());
    EXPECT_TRUE(DiagnosticEngine::hasErrors(diags));
    for (const Diagnostic &d : diags)
        EXPECT_NE(d.severity, Severity::Warning);
}

TEST(LintEngine, MinSeverityDropsNotes)
{
    Optimized built =
        optimizedOf(buildClobberProne(), profile::FsOptLevel::None, 2);
    LintOptions options;
    options.minSeverity = Severity::Warning;
    DiagnosticEngine engine = builtinEngine(options);
    for (const Diagnostic &d :
         engine.lintFsImage(*built.profile, built.opt))
        EXPECT_NE(d.severity, Severity::Note);
}

TEST(LintEngine, EnableOnlyRestrictsAndRejectsUnknownNames)
{
    DiagnosticEngine engine = builtinEngine();
    EXPECT_EQ(engine.rules().size(), 10u);
    engine.enableOnly({"dead-store"});
    ir::Program prog = test::buildCountdown(2);
    ir::Function &fn = prog.function(0);
    const BlockId island = fn.newBlock("island");
    fn.block(island).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);
    // Only dead-store runs, so the island goes unreported.
    EXPECT_TRUE(engine.lintProgram(prog).empty());

    DiagnosticEngine other = builtinEngine();
    EXPECT_THROW(other.enableOnly({"no-such-rule"}), ConfigFailure);
}

TEST(LintEngine, RenderersFormatDiagnostics)
{
    const std::vector<Diagnostic> diags{
        {Severity::Error, "demo-rule", "something \"quoted\"\nbroke",
         "main.entry[0]"},
        {Severity::Note, "demo-rule", "fine", ""},
    };
    const std::string text = renderDiagnosticsText(diags);
    EXPECT_NE(text.find("error: [demo-rule]"), std::string::npos);
    EXPECT_NE(text.find("(at main.entry[0])"), std::string::npos);

    const std::string json = renderDiagnosticsJson(diags);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"note\""), std::string::npos);
    EXPECT_EQ(renderDiagnosticsJson({}), "[]");
}

TEST(LintEngine, FixPreviewJsonNamesTheOffendingSpan)
{
    const std::vector<Diagnostic> diags{
        {Severity::Error, "demo-rule", "broke", "main.check[2]", true,
         "inst", 2, 3},
        {Severity::Note, "demo-rule", "fine", ""},
    };
    const std::string json = renderFixPreviewJson(diags);
    EXPECT_NE(json.find("\"span\": {\"unit\": \"inst\", "
                        "\"begin\": 2, \"end\": 3}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"span\": null"), std::string::npos) << json;
    EXPECT_EQ(renderFixPreviewJson({}), "[]");
}

TEST(LintEngine, ProducedDiagnosticsCarrySpans)
{
    // Every built-in rule now reports the offending instruction or
    // image-slot range; spot-check a program rule end to end.
    ir::Program prog = test::buildCountdown(2);
    ir::Function &fn = prog.function(0);
    const BlockId island = fn.newBlock("island");
    fn.block(island).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);
    const auto diags = lintWith("unreachable-block", prog);
    ASSERT_FALSE(diags.empty());
    EXPECT_TRUE(diags[0].hasSpan);
    EXPECT_STREQ(diags[0].spanUnit, "inst");
    EXPECT_LT(diags[0].spanBegin, diags[0].spanEnd);
}
