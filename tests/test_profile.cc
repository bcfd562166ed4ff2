/**
 * @file
 * Unit tests for profile collection and trace selection.
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "profile/profile.hh"
#include "profile/trace_select.hh"
#include "trace/record.hh"
#include "trace/soa.hh"
#include "workloads/workload.hh"

namespace branchlab::profile
{
namespace
{

using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;

/** Profile a program over one run and hand everything back. */
struct Profiled
{
    ir::Program program;
    std::unique_ptr<ir::Layout> layout;
    std::unique_ptr<ProgramProfile> profile;
};

Profiled
profileProgram(ir::Program prog, std::vector<ir::Word> input = {})
{
    ir::verifyProgramOrDie(prog);
    Profiled result{std::move(prog), nullptr, nullptr};
    result.layout = std::make_unique<ir::Layout>(result.program);
    result.profile = std::make_unique<ProgramProfile>(result.program,
                                                      *result.layout);
    result.profile->noteRun();
    vm::Machine machine(result.program, *result.layout);
    machine.setSink(result.profile.get());
    if (!input.empty())
        machine.setInput(0, std::move(input));
    machine.run();
    return result;
}

TEST(BranchCounts, MajorityAndDominantTarget)
{
    BranchCounts counts;
    counts.taken = 3;
    counts.notTaken = 1;
    counts.nextCounts[100] = 3;
    counts.nextCounts[101] = 1;
    EXPECT_TRUE(counts.majorityTaken());
    EXPECT_EQ(counts.dominantTarget(), 100u);
    EXPECT_EQ(counts.executions(), 4u);

    BranchCounts empty;
    EXPECT_FALSE(empty.majorityTaken());
    EXPECT_EQ(empty.dominantTarget(), ir::kNoAddr);
}

TEST(ProgramProfile, CountsCountdownBranchesExactly)
{
    const Profiled p = profileProgram(test::buildCountdown(5));
    // The bottom-test conditional: 4 taken, 1 not-taken.
    const ir::Function &fn = p.program.function(0);
    bool found = false;
    for (const ir::BasicBlock &block : fn.blocks()) {
        if (!block.terminator().isConditional())
            continue;
        const ir::Addr addr =
            p.layout->blockAddr(0, block.id()) + block.size() - 1;
        const BranchCounts &counts = p.profile->branchCounts(addr);
        if (counts.executions() == 0)
            continue;
        found = true;
        EXPECT_EQ(counts.taken, 4u);
        EXPECT_EQ(counts.notTaken, 1u);
        EXPECT_TRUE(counts.majorityTaken());
    }
    EXPECT_TRUE(found);
}

TEST(ProgramProfile, BlockWeightsMatchExecutionCounts)
{
    const Profiled p = profileProgram(test::buildCountdown(5));
    const ir::Function &fn = p.program.function(0);
    // Sum of weights of conditional-terminated blocks must equal the
    // loop trip count; the halt block weight equals the run count.
    for (const ir::BasicBlock &block : fn.blocks()) {
        const std::uint64_t weight =
            p.profile->blockWeight(0, block.id());
        if (block.terminator().op == Opcode::Halt) {
            EXPECT_EQ(weight, 1u);
        }
        if (block.terminator().isConditional()) {
            EXPECT_EQ(weight, 5u);
        }
    }
}

TEST(ProgramProfile, OutArcsSplitConditionalWeights)
{
    const Profiled p = profileProgram(test::buildCountdown(5));
    const ir::Function &fn = p.program.function(0);
    for (const ir::BasicBlock &block : fn.blocks()) {
        if (!block.terminator().isConditional())
            continue;
        if (p.profile->blockWeight(0, block.id()) == 0)
            continue;
        const std::vector<Arc> arcs = p.profile->outArcs(0, block.id());
        ASSERT_EQ(arcs.size(), 2u);
        std::uint64_t total = 0;
        for (const Arc &arc : arcs)
            total += arc.weight;
        EXPECT_EQ(total, 5u);
    }
}

TEST(ProgramProfile, CallArcGoesToContinuation)
{
    const Profiled p = profileProgram(test::buildFactorial(4));
    const ir::FuncId main_id = p.program.findFunction("main");
    const ir::Function &fn = p.program.function(main_id);
    bool found = false;
    for (const ir::BasicBlock &block : fn.blocks()) {
        if (block.terminator().op != Opcode::Call)
            continue;
        const auto arcs = p.profile->outArcs(main_id, block.id());
        ASSERT_EQ(arcs.size(), 1u);
        EXPECT_EQ(arcs[0].to, block.terminator().next);
        EXPECT_EQ(arcs[0].weight, 1u);
        found = true;
    }
    EXPECT_TRUE(found);
}

TEST(ProgramProfile, LikelyMapReflectsMajorityAndTargets)
{
    const Profiled p = profileProgram(test::buildCountdown(5));
    const predict::LikelyMap map = p.profile->buildLikelyMap();
    EXPECT_FALSE(map.empty());
    // Every recorded entry has a dominant target.
    for (const auto &[pc, info] : map)
        EXPECT_NE(info.dominantTarget, ir::kNoAddr);
}

TEST(ProgramProfile, UnexecutedBranchesHaveZeroCounts)
{
    const Profiled p = profileProgram(test::buildCountdown(1));
    const BranchCounts &counts = p.profile->branchCounts(0xdeadbeef);
    EXPECT_EQ(counts.executions(), 0u);
}

/** Fold @p runs executions of @p prog the way every profile consumer
 *  does -- all runs noted first, then the events in order -- keeping
 *  each run's events. */
std::vector<std::vector<trace::BranchEvent>>
foldRuns(const ir::Program &prog, const ir::Layout &layout,
         ProgramProfile &profile, unsigned runs)
{
    for (unsigned r = 0; r < runs; ++r)
        profile.noteRun();
    std::vector<std::vector<trace::BranchEvent>> events;
    for (unsigned r = 0; r < runs; ++r) {
        trace::BranchRecorder recorder;
        trace::FanoutSink fanout;
        fanout.addSink(&recorder);
        fanout.addSink(&profile);
        vm::Machine machine(prog, layout);
        machine.setSink(&fanout);
        machine.run();
        events.push_back(recorder.takeEvents());
    }
    return events;
}

TEST(ProgramProfile, PathContextsSpanRunBoundaries)
{
    // Recorded streams carry no run boundaries and every caller notes
    // all runs up front, so the first event of run r+1 is tallied
    // under the last event of run r. The shipped digests depend on
    // this; pin it on a pair that never occurs inside one run (main's
    // call into fact, entered from fact's final return).
    const ir::Program prog = test::buildFactorial(4);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);

    ProgramProfile single(prog, layout);
    const auto one = foldRuns(prog, layout, single, 1);
    const trace::BranchEvent &first = one.front().front();
    const trace::BranchEvent &last = one.front().back();
    ASSERT_NE(first.pc, last.pc);
    EXPECT_EQ(single.pathCounts(first.pc, last.pc).executions(), 0u);

    ProgramProfile profile(prog, layout);
    const auto runs = foldRuns(prog, layout, profile, 3);
    ASSERT_EQ(runs.size(), 3u);
    const BranchCounts &cross = profile.pathCounts(first.pc, last.pc);
    EXPECT_EQ(cross.executions(), 2u);
    EXPECT_EQ(cross.taken, first.taken ? 2u : 0u);
    EXPECT_EQ(cross.nextCounts.at(first.nextPc), 2u);

    // Only the stream's very first event has no context.
    std::uint64_t events = 0;
    for (const auto &run : runs)
        events += run.size();
    std::uint64_t contexts = 0;
    for (const auto &[key, counts] : profile.allPathCounts())
        contexts += counts.executions();
    EXPECT_EQ(contexts, events - 1);
}

TEST(ProgramProfile, ExportedRowsRestoreTheProfileExactly)
{
    const ir::Program prog = test::buildFactorial(5);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    ProgramProfile online(prog, layout);
    const auto runs = foldRuns(prog, layout, online, 2);

    const trace::CachedProfile rows = online.exportRows();
    ASSERT_FALSE(rows.branches.empty());
    ASSERT_FALSE(rows.paths.empty());
    EXPECT_EQ(rows.lastPc, runs.back().back().pc);
    for (std::size_t i = 1; i < rows.branches.size(); ++i)
        EXPECT_LT(rows.branches[i - 1].pc, rows.branches[i].pc);

    ProgramProfile restored(prog, layout, online.runs(), rows);
    EXPECT_EQ(restored.runs(), online.runs());
    EXPECT_EQ(restored.exportRows(), rows);
    EXPECT_EQ(restored.allPathCounts(), online.allPathCounts());
    for (ir::Addr pc = 0; pc < layout.totalSize(); ++pc)
        EXPECT_EQ(restored.branchCounts(pc), online.branchCounts(pc))
            << "pc " << pc;
    const predict::LikelyMap likely = online.buildLikelyMap();
    const predict::LikelyMap restored_likely = restored.buildLikelyMap();
    ASSERT_EQ(restored_likely.size(), likely.size());
    for (const auto &[pc, info] : likely) {
        EXPECT_EQ(restored_likely.at(pc).likelyTaken, info.likelyTaken);
        EXPECT_EQ(restored_likely.at(pc).dominantTarget,
                  info.dominantTarget);
    }

    // Lossless: the restored profile continues the fold exactly as
    // the online one would (the last pc is the next event's context).
    const trace::BranchEvent extra = runs.front().front();
    online.onBranch(extra);
    restored.onBranch(extra);
    EXPECT_EQ(restored.exportRows(), online.exportRows());
}

TEST(ProgramProfile, FoldProfileEqualsTheOnlineProfile)
{
    const ir::Program prog = test::buildFactorial(6);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    ProgramProfile online(prog, layout);
    const auto runs = foldRuns(prog, layout, online, 3);
    std::vector<trace::BranchEvent> events;
    for (const auto &run : runs)
        events.insert(events.end(), run.begin(), run.end());
    const trace::SoaTrace stream = trace::SoaTrace::fromEvents(events);

    const ProgramProfile folded =
        foldProfile(prog, layout, 3, trace::TraceView::of(stream));
    EXPECT_EQ(folded.runs(), 3u);
    EXPECT_EQ(folded.exportRows(), online.exportRows());
}

// ---------------------------------------------------------------------
// Trace selection.
// ---------------------------------------------------------------------

TEST(TraceSelect, PartitionsEveryHelperProgram)
{
    for (ir::Word n : {1, 5, 20}) {
        const Profiled p = profileProgram(test::buildCountdown(n));
        const TraceSelector selector(*p.profile);
        const std::vector<Trace> traces = selector.selectProgram();
        EXPECT_EQ(checkTraces(p.program, traces), "");
    }
    const Profiled p = profileProgram(test::buildFactorial(6));
    const TraceSelector selector(*p.profile);
    EXPECT_EQ(checkTraces(p.program, selector.selectProgram()), "");
}

TEST(TraceSelect, PartitionsEveryWorkloadProgram)
{
    // The heavyweight well-formedness sweep: select traces for all
    // ten paper benchmarks after a real profiling run.
    Rng rng(7);
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        ir::Program prog = workload->buildProgram();
        ir::verifyProgramOrDie(prog);
        const ir::Layout layout(prog);
        ProgramProfile profile(prog, layout);
        profile.noteRun();
        const auto inputs = workload->makeInputs(rng, 1);
        vm::Machine machine(prog, layout);
        for (std::size_t chan = 0; chan < inputs[0].channels.size();
             ++chan) {
            machine.setInput(static_cast<int>(chan),
                             inputs[0].channels[chan]);
        }
        machine.setSink(&profile);
        machine.run();

        const TraceSelector selector(profile);
        EXPECT_EQ(checkTraces(prog, selector.selectProgram()), "")
            << workload->name();
    }
}

TEST(TraceSelect, HotLoopFormsOneTrace)
{
    const Profiled p = profileProgram(test::buildCountdown(100));
    const TraceSelector selector(*p.profile);
    const std::vector<Trace> traces = selector.selectFunction(0);
    // The hottest trace is the loop body and it leads the layout.
    ASSERT_FALSE(traces.empty());
    EXPECT_GE(traces.front().weight, 100u);
    for (std::size_t i = 1; i < traces.size(); ++i)
        EXPECT_LE(traces[i].weight, traces[i - 1].weight);
}

TEST(TraceSelect, ThresholdOneBreaksMixedArcs)
{
    // A 50/50 branch cannot be grown over at threshold 1.0.
    ir::Program prog("mix");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg acc = b.newReg();
    b.ldiTo(acc, 0);
    b.forRangeImm(i, 0, 10, [&] {
        const Reg r = b.remi(i, 2);
        b.ifThenElse([&] { return IrBuilder::cmpEqi(r, 0); },
                     [&] { b.emitBinaryImmTo(Opcode::Add, acc, acc, 1); },
                     [&] { b.emitBinaryImmTo(Opcode::Add, acc, acc, 2); });
    });
    b.out(acc, 1);
    b.halt();
    b.endFunction();

    Profiled p = profileProgram(std::move(prog));
    TraceSelectConfig strict;
    strict.minArcProbability = 1.0;
    const TraceSelector strict_selector(*p.profile, strict);
    TraceSelectConfig loose;
    loose.minArcProbability = 0.4;
    const TraceSelector loose_selector(*p.profile, loose);
    // Stricter thresholds can only produce more (shorter) traces.
    EXPECT_GE(strict_selector.selectFunction(0).size(),
              loose_selector.selectFunction(0).size());
    EXPECT_EQ(checkTraces(p.program, strict_selector.selectProgram()),
              "");
}

TEST(TraceSelect, ColdBlocksBecomeTraces)
{
    const Profiled p = profileProgram(test::buildFactorial(1));
    // fact(1) never recurses: the recursive path is cold but must
    // still appear in exactly one trace.
    const TraceSelector selector(*p.profile);
    EXPECT_EQ(checkTraces(p.program, selector.selectProgram()), "");
}

TEST(TraceSelect, BackwardGrowthCanBeDisabled)
{
    const Profiled p = profileProgram(test::buildCountdown(50));
    TraceSelectConfig no_back;
    no_back.growBackward = false;
    const TraceSelector selector(*p.profile, no_back);
    EXPECT_EQ(checkTraces(p.program, selector.selectProgram()), "");
}

} // namespace
} // namespace branchlab::profile
