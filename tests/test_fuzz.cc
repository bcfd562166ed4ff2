/**
 * @file
 * Property tests over randomly generated programs: the verifier
 * accepts what the generator builds, the VM executes it without
 * undefined behaviour, execution is deterministic, the layout
 * round-trips, trace events are internally consistent, and the whole
 * profile -> trace-selection -> Forward Semantic pipeline holds its
 * invariants on arbitrary (not hand-written) control flow.
 *
 * Generated control flow is forward-only except for counter-bounded
 * back-edges (each taken at most a few times over a run), and calls
 * only reach lower-numbered helper functions -- so every generated
 * program terminates by construction while still containing loops,
 * joins, jump tables, and call webs.
 */

#include <gtest/gtest.h>

#include "block_path.hh"
#include "closed_form.hh"
#include "helpers.hh"
#include "profile/fs_opt.hh"
#include "profile/image_exec.hh"
#include "profile/trace_select.hh"
#include "support/random.hh"

namespace branchlab
{
namespace
{

using ir::BlockId;
using ir::FuncId;
using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;
using ir::Word;

/** Random straight-line instructions into the current block. */
void
emitRandomBody(IrBuilder &b, Rng &rng, std::vector<Reg> &regs,
               Word scratch_base)
{
    const std::size_t count = 1 + rng.nextBelow(5);
    for (std::size_t i = 0; i < count; ++i) {
        const Reg a = regs[rng.nextBelow(regs.size())];
        const Reg c = regs[rng.nextBelow(regs.size())];
        switch (rng.nextBelow(10)) {
          case 0:
            regs.push_back(b.add(a, c));
            break;
          case 1:
            regs.push_back(b.sub(a, c));
            break;
          case 2:
            regs.push_back(b.muli(a, static_cast<Word>(
                                         rng.nextBelow(9)) - 4));
            break;
          case 3:
            // Divisors are non-zero immediates: no faults possible.
            regs.push_back(b.divi(a, 1 + static_cast<Word>(
                                            rng.nextBelow(7))));
            break;
          case 4:
            regs.push_back(b.bitXor(a, c));
            break;
          case 5:
            regs.push_back(b.shli(a, static_cast<Word>(
                                         rng.nextBelow(8))));
            break;
          case 6: {
            // In-bounds scratch memory traffic.
            const Reg base = b.ldi(scratch_base +
                                   static_cast<Word>(rng.nextBelow(64)));
            b.st(base, a, 0);
            regs.push_back(b.ld(base, 0));
            break;
          }
          case 7:
            regs.push_back(b.ldi(static_cast<Word>(
                                     rng.nextBelow(1000)) -
                                 500));
            break;
          case 8:
            b.out(a, 1);
            break;
          default:
            regs.push_back(b.bitAndi(a, 0xff));
            break;
        }
    }
}

/** Build one random function; may call lower-numbered helpers.
 *  @p loop_cells / @p next_cell hand out counter words for bounded
 *  back-edges (each taken at most a few times over the whole run, so
 *  the generated loops always terminate). */
void
buildRandomFunction(IrBuilder &b, Rng &rng, FuncId self,
                    const std::vector<FuncId> &callees,
                    Word scratch_base, bool is_main, Word loop_cells,
                    int &next_cell)
{
    ir::Function &fn = b.program().function(self);
    const unsigned num_blocks = 2 + static_cast<unsigned>(
                                        rng.nextBelow(6));
    std::vector<BlockId> blocks{fn.entry()};
    for (unsigned block = 1; block < num_blocks; ++block)
        blocks.push_back(b.newBlock("b" + std::to_string(block)));

    for (unsigned i = 0; i < num_blocks; ++i) {
        b.setBlock(blocks[i]);
        std::vector<Reg> regs;
        for (unsigned arg = 0; arg < fn.numArgs(); ++arg)
            regs.push_back(b.arg(arg));
        regs.push_back(b.ldi(static_cast<Word>(rng.nextBelow(100))));
        emitRandomBody(b, rng, regs, scratch_base);

        // Occasionally call a helper mid-block.
        if (!callees.empty() && rng.nextBool(0.4)) {
            const FuncId callee = callees[rng.nextBelow(callees.size())];
            std::vector<Reg> args;
            for (unsigned arg = 0;
                 arg < b.program().function(callee).numArgs(); ++arg) {
                args.push_back(regs[rng.nextBelow(regs.size())]);
            }
            regs.push_back(b.call(callee, args));
            emitRandomBody(b, rng, regs, scratch_base);
        }

        // Terminator: strictly-forward control flow.
        const bool is_last = i + 1 == num_blocks;
        const Reg lhs = regs[rng.nextBelow(regs.size())];
        const Reg rhs = regs[rng.nextBelow(regs.size())];
        if (is_last) {
            if (is_main)
                b.halt();
            else
                b.ret(lhs);
        } else {
            const unsigned lo = i + 1;
            const auto pick_forward = [&] {
                return blocks[lo + rng.nextBelow(num_blocks - lo)];
            };
            // Bounded back-edge: a memory counter limits the number
            // of times the backward branch is taken, so the loop
            // terminates while still giving trace selection and the
            // FS transform real cycles to chew on.
            if (next_cell < 16 && rng.nextBool(0.3)) {
                const BlockId back = blocks[rng.nextBelow(i + 1)];
                const Reg cell = b.ldi(loop_cells + next_cell);
                ++next_cell;
                const Reg count = b.ld(cell, 0);
                const Reg bumped = b.addi(count, 1);
                b.st(cell, bumped, 0);
                b.branch(ir::Cond{Opcode::Blt, bumped, ir::kNoReg, 3,
                                  true},
                         back, pick_forward());
                continue;
            }
            switch (rng.nextBelow(5)) {
              case 0:
                b.jmp(pick_forward());
                break;
              case 1: {
                // Bounded jump table over forward blocks.
                const std::size_t entries = 1 + rng.nextBelow(4);
                std::vector<BlockId> table;
                for (std::size_t e = 0; e < entries; ++e)
                    table.push_back(pick_forward());
                const Reg index = b.bitAndi(
                    lhs, static_cast<Word>(entries) - 1);
                // Mask may exceed entries-1 only for powers of two;
                // clamp with a remainder against the exact size.
                const Reg safe = b.remi(
                    b.bitAndi(index, 0x7fffffff),
                    static_cast<Word>(entries));
                b.jumpTable(safe, std::move(table));
                break;
              }
              default: {
                const BlockId taken = pick_forward();
                BlockId fall = pick_forward();
                const auto ccs = {Opcode::Beq, Opcode::Bne, Opcode::Blt,
                                  Opcode::Bge};
                const Opcode cc =
                    *(ccs.begin() +
                      static_cast<std::ptrdiff_t>(rng.nextBelow(4)));
                b.branch(ir::Cond{cc, lhs, rhs, 0, false}, taken, fall);
                // branch() moved insertion to 'fall'; restore intent.
                break;
              }
            }
        }
    }
}

/** A whole random program. */
ir::Program
buildRandomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    ir::Program prog("fuzz" + std::to_string(seed));
    const Word scratch = prog.addZeroData(64);
    const Word loop_cells = prog.addZeroData(16);
    IrBuilder b(prog);

    int next_cell = 0;
    const unsigned helpers = static_cast<unsigned>(rng.nextBelow(3));
    std::vector<FuncId> callees;
    for (unsigned h = 0; h < helpers; ++h) {
        const FuncId f = b.beginFunction(
            "helper" + std::to_string(h),
            static_cast<unsigned>(rng.nextBelow(3)));
        buildRandomFunction(b, rng, f, callees, scratch, false,
                            loop_cells, next_cell);
        b.endFunction();
        callees.push_back(f);
    }
    const FuncId main_id = b.beginFunction("main", 0);
    buildRandomFunction(b, rng, main_id, callees, scratch, true,
                        loop_cells, next_cell);
    b.endFunction();
    return prog;
}

class FuzzPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzPrograms, VerifyRunProfileAndTransform)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    ir::Program prog = buildRandomProgram(seed);

    // 1. The generator only builds verifiable programs.
    const ir::VerifyResult verdict = ir::verifyProgram(prog);
    ASSERT_TRUE(verdict.ok()) << verdict.message();

    // 2. Execution terminates (acyclic control flow) without faults.
    const ir::Layout layout(prog);
    trace::BranchRecorder recorder;
    vm::Machine machine(prog, layout);
    machine.setSink(&recorder);
    vm::RunLimits limits;
    limits.maxInstructions = 1'000'000;
    const vm::RunResult result = machine.run(limits);
    EXPECT_EQ(result.reason, vm::StopReason::Halted);
    EXPECT_EQ(result.branches, recorder.size());

    // 3. Every event is internally consistent.
    for (const trace::BranchEvent &event : recorder.events()) {
        EXPECT_TRUE(layout.isCodeAddr(event.pc));
        EXPECT_TRUE(layout.isCodeAddr(event.nextPc));
        if (event.taken)
            EXPECT_EQ(event.nextPc, event.targetAddr);
        else
            EXPECT_EQ(event.nextPc, event.fallthroughAddr);
        if (!event.conditional) {
            EXPECT_TRUE(event.taken);
        }
        const ir::CodeLocation loc = layout.locate(event.pc);
        const ir::Instruction &inst =
            prog.function(loc.func).block(loc.block).inst(loc.index);
        EXPECT_TRUE(inst.isBranch());
        EXPECT_EQ(inst.op, event.op);
    }

    // 4. Determinism.
    trace::BranchRecorder again;
    vm::Machine second(prog, layout);
    second.setSink(&again);
    second.run(limits);
    ASSERT_EQ(again.size(), recorder.size());

    // 5. The profile -> traces -> Forward Semantic pipeline keeps its
    //    invariants on arbitrary control flow.
    profile::ProgramProfile profile(prog, layout);
    profile.noteRun();
    vm::Machine third(prog, layout);
    third.setSink(&profile);
    third.run(limits);

    const profile::TraceSelector selector(profile);
    EXPECT_EQ(profile::checkTraces(prog, selector.selectProgram()), "");

    for (unsigned slots : {1u, 3u}) {
        profile::FsOptConfig config;
        config.fs.slotCount = slots;
        const profile::FsOptResult seed_image =
            profile::FsOptimizer(profile, config).build();
        EXPECT_EQ(profile::verifyFsOptImage(profile, seed_image).message(),
                  "")
            << "seed " << seed << " slots " << slots;
        // Table 5's plan-priced growth is the materialised image's.
        EXPECT_EQ(profile::codeIncreaseFor(
                      profile, slots,
                      config.fs.trace.minArcProbability),
                  seed_image.codeSizeIncrease())
            << "seed " << seed << " slots " << slots;

        // 6. The transformed image executes identically: same
        //    committed stream, same outputs.
        EXPECT_EQ(profile::checkImageEquivalence(profile, seed_image, {}),
                  "")
            << "seed " << seed << " slots " << slots;
    }
}

TEST_P(FuzzPrograms, ClosedFormMatchesTheReferences)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const ir::Program prog = buildRandomProgram(seed);
    const ir::Layout layout(prog);
    profile::ProgramProfile profile(prog, layout);
    profile.noteRun();
    trace::SoaRecorder recorder;
    trace::FanoutSink fanout;
    fanout.addSink(&recorder);
    fanout.addSink(&profile);
    vm::Machine machine(prog, layout);
    machine.setSink(&fanout);
    machine.run();
    const trace::SoaTrace stream = recorder.take();
    const trace::TraceView view = trace::TraceView::of(stream);

    // The stateless schemes from per-pc tallies...
    test::expectClosedFormMatches(view, profile, profile.buildLikelyMap());

    // ...and every optimized image's FS accuracy from the profile's
    // rows, at the default gates and with duplication forced. Every
    // image also passes the verifier.
    for (const profile::FsOptLevel level : profile::allFsOptLevels()) {
        for (const bool forced : {false, true}) {
            profile::FsOptConfig config;
            config.level = level;
            if (forced) {
                config.dupMaxGrowth = 1.0;
                config.dupRequireGain = false;
            }
            const profile::FsOptResult opt =
                profile::FsOptimizer(profile, config).build();
            EXPECT_EQ(profile::verifyFsOptImage(profile, opt).message(), "")
                << "seed " << seed << " level "
                << profile::fsOptLevelName(level) << " forced " << forced;
            const std::optional<double> rows =
                profile::fsOptAccuracyFromProfile(profile, opt);
            ASSERT_TRUE(rows.has_value());
            EXPECT_EQ(*rows, profile::fsOptAccuracy(profile, opt, view))
                << "seed " << seed << " level "
                << profile::fsOptLevelName(level) << " forced " << forced;
        }
    }
}

TEST_P(FuzzPrograms, PerPcMatchesTheReferences)
{
    // Arbitrary control flow through the per-pc BTB scorer: the
    // paper's buffers and a few counters, and a buffer exactly as
    // large as the executed pcs.
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const ir::Program prog = buildRandomProgram(seed);
    const ir::Layout layout(prog);
    profile::ProgramProfile profile(prog, layout);
    profile.noteRun();
    trace::SoaRecorder recorder;
    trace::FanoutSink fanout;
    fanout.addSink(&recorder);
    fanout.addSink(&profile);
    vm::Machine machine(prog, layout);
    machine.setSink(&fanout);
    machine.run();
    const trace::SoaTrace stream = recorder.take();
    const trace::TraceView view = trace::TraceView::of(stream);
    const std::optional<std::vector<profile::BranchSite>> sites =
        profile.branchSites();
    ASSERT_TRUE(sites.has_value());

    predict::BufferConfig snug;
    snug.entries = std::max<std::size_t>(sites->size(), 1);
    for (const predict::BufferConfig &btb : {predict::BufferConfig{}, snug}) {
        core::KernelSpec spec;
        spec.btb = btb;
        spec.kind = core::SchemeKind::Sbtb;
        SCOPED_TRACE("seed " + std::to_string(seed) + " entries " +
                     std::to_string(btb.entries));
        test::expectPerPcMatches(view, profile, spec);
        spec.kind = core::SchemeKind::Cbtb;
        for (const predict::CounterConfig counter :
             {predict::CounterConfig{2, 2}, predict::CounterConfig{1, 1},
              predict::CounterConfig{3, 4}}) {
            spec.counter = counter;
            test::expectPerPcMatches(view, profile, spec);
        }
    }
}

TEST_P(FuzzPrograms, BlockPathMatchesPerEvent)
{
    // Arbitrary control flow through the record pass's block path,
    // over two runs so the second starts mid-block.
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const ir::Program prog = buildRandomProgram(seed);
    const ir::Layout layout(prog);
    const test::SuiteRun run = [&](trace::TraceSink &sink) {
        std::uint64_t instructions = 0;
        for (int r = 0; r < 2; ++r) {
            vm::Machine machine(prog, layout);
            machine.setSink(&sink);
            const vm::RunResult result = machine.run();
            EXPECT_EQ(result.reason, vm::StopReason::Halted);
            instructions += result.instructions;
        }
        return instructions;
    };
    test::expectBlockPathMatchesPerEvent(prog, layout, 2, run);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPrograms, ::testing::Range(0, 40));

} // namespace
} // namespace branchlab
