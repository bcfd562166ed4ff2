/**
 * @file
 * Unit tests for profile collection and trace selection.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "core/runner.hh"
#include "helpers.hh"
#include "obs/metrics.hh"
#include "profile/profile.hh"
#include "profile/trace_select.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "trace/cache.hh"
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
    const BranchCounts counts(3, 1, {{100, 3}, {101, 1}});
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
    EXPECT_EQ(cross.nextCount(first.nextPc), 2u);

    // Only the stream's very first event has no context.
    std::uint64_t events = 0;
    for (const auto &run : runs)
        events += run.size();
    std::uint64_t contexts = 0;
    for (const trace::CachedProfileRow &row : profile.exportRows().paths)
        contexts += row.taken + row.notTaken;
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
// The profile differential: the flat pc-indexed tables against a
// reference tally of the same fold kept in ordered std::maps.
// ---------------------------------------------------------------------

/** The reference tally: ordered maps keyed by pc and (pc, prevPc). */
struct ReferenceProfile
{
    struct Counts
    {
        std::uint64_t taken = 0;
        std::uint64_t notTaken = 0;
        std::map<ir::Addr, std::uint64_t> next;
        /** Every execution in order: the first one's direction kind,
         *  then each outcome and next pc. */
        bool conditional = false;
        std::vector<bool> outcomes;
        std::vector<ir::Addr> nexts;

        void
        add(const trace::BranchEvent &event)
        {
            if (outcomes.empty())
                conditional = event.conditional;
            ++(event.taken ? taken : notTaken);
            ++next[event.nextPc];
            outcomes.push_back(event.taken);
            nexts.push_back(event.nextPc);
        }

        /** The history a branch row carries. */
        void
        historyInto(trace::CachedProfileRow &row) const
        {
            row.conditional = conditional;
            if (conditional) {
                for (std::size_t i = 0; i < outcomes.size(); ++i) {
                    if (i % 64 == 0)
                        row.outcomes.push_back(0);
                    if (outcomes[i])
                        row.outcomes.back() |= std::uint64_t{1} << (i % 64);
                }
                return;
            }
            for (std::size_t i = 1; i < nexts.size(); ++i)
                row.repeats += nexts[i] == nexts[i - 1] ? 1 : 0;
            row.lastNext = nexts.back();
        }

        BranchCounts
        toCounts() const
        {
            return BranchCounts(taken, notTaken, {next.begin(), next.end()});
        }
    };

    std::map<ir::Addr, Counts> branches;
    std::map<std::pair<ir::Addr, ir::Addr>, Counts> paths;
    ir::Addr lastPc = ir::kNoAddr;

    void
    onBranch(const trace::BranchEvent &event)
    {
        branches[event.pc].add(event);
        if (lastPc != ir::kNoAddr)
            paths[{event.pc, lastPc}].add(event);
        lastPc = event.pc;
    }

    static trace::CachedProfileRow
    rowOf(ir::Addr pc, ir::Addr prev_pc, const Counts &counts)
    {
        trace::CachedProfileRow row;
        row.pc = pc;
        row.prevPc = prev_pc;
        row.taken = counts.taken;
        row.notTaken = counts.notTaken;
        row.next.assign(counts.next.begin(), counts.next.end());
        return row;
    }

    trace::CachedProfile
    rows() const
    {
        trace::CachedProfile out;
        out.lastPc = lastPc;
        for (const auto &[pc, counts] : branches) {
            out.branches.push_back(rowOf(pc, ir::kNoAddr, counts));
            counts.historyInto(out.branches.back());
        }
        for (const auto &[key, counts] : paths)
            out.paths.push_back(rowOf(key.first, key.second, counts));
        return out;
    }

    /** Likely records as a trace-cache map derives them. */
    std::vector<trace::CachedLikely>
    likely() const
    {
        std::vector<trace::CachedLikely> out;
        for (const auto &[pc, counts] : branches)
            out.push_back({pc, counts.toCounts().dominantTarget(),
                           counts.taken > counts.notTaken});
        return out;
    }
};

/** Fold @p events into both profiles and hold every query equal. */
void
expectFlatMatchesReference(const ir::Program &prog,
                           const ir::Layout &layout,
                           const std::vector<trace::BranchEvent> &events)
{
    ProgramProfile flat(prog, layout);
    flat.noteRun();
    ReferenceProfile ref;
    for (const trace::BranchEvent &event : events) {
        flat.onBranch(event);
        ref.onBranch(event);
    }

    for (ir::Addr pc = 0; pc < layout.codeEnd() + 64; ++pc) {
        const auto it = ref.branches.find(pc);
        const BranchCounts expected =
            it == ref.branches.end() ? BranchCounts{} : it->second.toCounts();
        ASSERT_EQ(flat.branchCounts(pc), expected) << "pc " << pc;
    }
    EXPECT_EQ(flat.branchCounts(ir::kNoAddr), BranchCounts{});
    for (const auto &[key, counts] : ref.paths) {
        ASSERT_EQ(flat.pathCounts(key.first, key.second), counts.toCounts())
            << "path " << key.first << " <- " << key.second;
    }
    // Pairs that never executed read as zeros.
    EXPECT_EQ(flat.pathCounts(ir::kCodeBase, ir::kNoAddr), BranchCounts{});
    EXPECT_EQ(flat.pathCounts(ir::kNoAddr, ir::kCodeBase), BranchCounts{});

    const trace::CachedProfile rows = ref.rows();
    EXPECT_EQ(flat.exportRows(), rows);
    EXPECT_EQ(flat.exportRows().lastPc, ref.lastPc);

    const predict::LikelyMap likely = flat.buildLikelyMap();
    ASSERT_EQ(likely.size(), ref.branches.size());
    for (const trace::CachedLikely &entry : ref.likely()) {
        const auto it = likely.find(entry.pc);
        ASSERT_NE(it, likely.end()) << "pc " << entry.pc;
        EXPECT_EQ(it->second.likelyTaken, entry.likelyTaken);
        EXPECT_EQ(it->second.dominantTarget, entry.dominantTarget);
    }

    // Restoring the exported rows answers the same way.
    const ProgramProfile restored(prog, layout, flat.runs(), rows);
    EXPECT_EQ(restored.exportRows(), rows);
}

TEST(ProfileDifferential, FlatTablesMatchTheMapTallyOnEveryWorkload)
{
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        SCOPED_TRACE(workload->name());
        const ir::Program prog = workload->buildProgram();
        ir::verifyProgramOrDie(prog);
        const ir::Layout layout(prog);
        Rng rng(7 ^ hashString(workload->name()));
        trace::BranchRecorder recorder;
        for (const workloads::WorkloadInput &input :
             workload->makeInputs(rng, 2)) {
            vm::Machine machine(prog, layout);
            for (std::size_t chan = 0; chan < input.channels.size(); ++chan)
                machine.setInput(static_cast<int>(chan),
                                 input.channels[chan]);
            machine.setSink(&recorder);
            machine.run();
        }
        expectFlatMatchesReference(prog, layout, recorder.events());
    }
}

TEST(ProfileDifferential, ManyNextPcsAndContextsPerPc)
{
    // A seeded stream over a real program's code range: a handful of
    // hot pcs, each with dozens of next pcs and contexts, in random
    // order (so sorted inserts land everywhere in the lists).
    const ir::Program prog = test::buildFactorial(6);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Rng rng(20240601);
    std::vector<trace::BranchEvent> events;
    for (std::size_t i = 0; i < 20000; ++i) {
        trace::BranchEvent e;
        e.pc = ir::kCodeBase + rng.nextBelow(layout.totalSize());
        if (rng.nextBool(0.5))
            e.pc = layout.codeEnd() - 1 - rng.nextBelow(3);
        e.op = ir::Opcode::JTab;
        e.taken = rng.nextBool(0.7);
        e.targetAddr = rng.nextBelow(64) * 0x1000;
        e.fallthroughAddr = e.pc + 1;
        e.nextPc = rng.nextBool(0.1) ? ir::kNoAddr
                                     : rng.nextBelow(48) * 0x1000;
        events.push_back(e);
    }
    expectFlatMatchesReference(prog, layout, events);
}

TEST(ProfileDifferential, PcsPastTheCodeEndNeverIndexATable)
{
    const ir::Program prog = test::buildCountdown(3);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);

    ProgramProfile profile(prog, layout);
    trace::BranchEvent tall;
    tall.pc = layout.codeEnd();
    tall.nextPc = tall.pc + 1;
    EXPECT_THROW(profile.onBranch(tall), ConfigFailure);
    tall.pc = ir::kNoAddr;
    EXPECT_THROW(profile.onBranch(tall), ConfigFailure);
    EXPECT_EQ(profile.exportRows(), trace::CachedProfile{});
    // A block is refused whole: its in-range events are not tallied.
    trace::BranchEvent inside;
    inside.pc = layout.codeEnd() - 1;
    inside.nextPc = inside.pc + 1;
    trace::BlockBuffer<2> mixed;
    mixed.push(inside);
    mixed.push(tall);
    EXPECT_THROW(profile.onBlock(mixed.block()), ConfigFailure);
    EXPECT_EQ(profile.exportRows(), trace::CachedProfile{});

    trace::CachedProfile rows;
    trace::CachedProfileRow row;
    row.pc = layout.codeEnd() + 8;
    row.taken = 1;
    row.next = {{row.pc + 1, 1}};
    rows.branches.push_back(row);
    rows.lastPc = row.pc;
    EXPECT_THROW(ProgramProfile(prog, layout, 1, rows), ConfigFailure);
}

/** A cache entry for @p cold's workload with @p events as its stream
 *  and a profile consistent with them: valid in every way the entry
 *  validator checks. */
trace::CachedWorkload
plantedEntry(const core::RecordedWorkload &cold,
             const std::vector<trace::BranchEvent> &events)
{
    ReferenceProfile ref;
    for (const trace::BranchEvent &event : events)
        ref.onBranch(event);
    trace::CachedWorkload entry;
    entry.contentHash = cold.contentHash;
    entry.runs = cold.runs;
    entry.stats = cold.stats.counters();
    entry.profile = ref.rows();
    entry.stream = trace::SoaTrace::fromEvents(events);
    return entry;
}

TEST(ProfileDifferential, PlantedEntriesPastTheCodeEndAreReRecorded)
{
    const std::string dir =
        ::testing::TempDir() + "blab_profile_planted";
    std::filesystem::remove_all(dir);
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.traceCacheDir = dir;
    const workloads::Workload &workload = workloads::findWorkload("tee");
    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    ASSERT_FALSE(cold.cacheHit);
    const ir::Addr code_end = cold.layout->codeEnd();
    const std::vector<trace::BranchEvent> events = cold.stream.toEvents();
    const trace::TraceCache cache(dir);
    obs::Registry &reg = obs::Registry::global();
    const obs::Counter &stores = reg.counter("trace_cache.stores");
    const obs::Counter &hits = reg.counter("trace_cache.hits");
    const obs::Counter &misses = reg.counter("trace_cache.misses");

    const auto expectReRecorded = [&](const char *what) {
        SCOPED_TRACE(what);
        const std::uint64_t stores_before = stores.value();
        const std::uint64_t hits_before = hits.value();
        const std::uint64_t misses_before = misses.value();
        const trace::TraceCacheCounters counters_before =
            trace::traceCacheCounters();
        const core::RecordedWorkload again =
            core::recordWorkload(workload, config);
        EXPECT_FALSE(again.cacheHit);
        EXPECT_EQ(stores.value(), stores_before + 1);
        // One miss, never a hit, in both counter families.
        EXPECT_EQ(hits.value(), hits_before);
        EXPECT_EQ(misses.value(), misses_before + 1);
        EXPECT_EQ(trace::traceCacheCounters().hits, counters_before.hits);
        EXPECT_EQ(trace::traceCacheCounters().misses,
                  counters_before.misses + 1);
        EXPECT_EQ(again.profile->exportRows(), cold.profile->exportRows());
        EXPECT_EQ(again.stream.deltas(), cold.stream.deltas());
        // The re-record stored a clean entry over the planted one.
        const core::RecordedWorkload warm =
            core::recordWorkload(workload, config);
        EXPECT_TRUE(warm.cacheHit);
        EXPECT_EQ(warm.profile->exportRows(), cold.profile->exportRows());
    };

    // A stream (and so a declared max pc and a profile row) past the
    // code end. The entry is otherwise valid: TraceCache::load, which
    // does not know the program, accepts it; recordWorkload refuses.
    {
        std::vector<trace::BranchEvent> tall = events;
        trace::BranchEvent extra = tall.back();
        extra.pc = code_end + 16;
        extra.targetAddr = extra.pc + 4;
        extra.fallthroughAddr = extra.pc + 1;
        extra.nextPc = extra.taken ? extra.targetAddr : extra.fallthroughAddr;
        tall.push_back(extra);
        cache.store(cold.name, plantedEntry(cold, tall));
        trace::CachedWorkload unbounded;
        ASSERT_TRUE(cache.load(cold.name, cold.contentHash, unbounded));
        EXPECT_GE(unbounded.traceView().maxPc(), code_end);
        expectReRecorded("max pc past the code end");
    }

    // A profile row past the code end over the real stream.
    {
        trace::CachedWorkload entry = plantedEntry(cold, events);
        entry.profile->branches.back().pc = code_end + 8;
        cache.store(cold.name, entry);
        expectReRecorded("profile row past the code end");
    }
    std::filesystem::remove_all(dir);
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
