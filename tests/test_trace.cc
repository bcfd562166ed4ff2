/**
 * @file
 * Unit tests for trace sinks and statistics (the Table 1/2
 * machinery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "helpers.hh"
#include "support/logging.hh"
#include "trace/cache.hh"
#include "trace/format.hh"
#include "trace/soa.hh"
#include "trace/stats.hh"

namespace branchlab::trace
{
namespace
{

BranchEvent
makeEvent(ir::Addr pc, bool conditional, bool taken, bool known = true)
{
    BranchEvent event;
    event.pc = pc;
    event.conditional = conditional;
    event.taken = taken;
    event.targetKnown = known;
    event.op = conditional ? ir::Opcode::Beq
                           : (known ? ir::Opcode::Jmp : ir::Opcode::JTab);
    event.targetAddr = pc + 10;
    event.fallthroughAddr = pc + 1;
    event.nextPc = taken ? event.targetAddr : event.fallthroughAddr;
    return event;
}

TEST(TraceStats, CountsSplitByKind)
{
    TraceStats stats;
    stats.onBranch(makeEvent(1, true, true));
    stats.onBranch(makeEvent(2, true, false));
    stats.onBranch(makeEvent(3, true, false));
    stats.onBranch(makeEvent(4, false, true, true));
    stats.onBranch(makeEvent(5, false, true, false));
    stats.addInstructions(20);

    EXPECT_EQ(stats.branches(), 5u);
    EXPECT_EQ(stats.conditionalBranches(), 3u);
    EXPECT_EQ(stats.unconditionalBranches(), 2u);
    EXPECT_EQ(stats.conditionalTaken(), 1u);
    EXPECT_EQ(stats.conditionalNotTaken(), 2u);
    EXPECT_EQ(stats.unconditionalKnown(), 1u);
    EXPECT_EQ(stats.unconditionalUnknown(), 1u);
    EXPECT_NEAR(stats.controlFraction(), 0.25, 1e-12);
    EXPECT_NEAR(stats.conditionalTakenFraction(), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(stats.unconditionalKnownFraction(), 0.5, 1e-12);
    EXPECT_NEAR(stats.conditionalFraction(), 0.6, 1e-12);
    EXPECT_NEAR(stats.instructionsPerBranch(), 4.0, 1e-12);
}

TEST(TraceStats, EmptyStatsAreZeroNotNan)
{
    TraceStats stats;
    EXPECT_EQ(stats.controlFraction(), 0.0);
    EXPECT_EQ(stats.conditionalTakenFraction(), 0.0);
    EXPECT_EQ(stats.unconditionalKnownFraction(), 0.0);
    EXPECT_EQ(stats.instructionsPerBranch(), 0.0);
}

TEST(TraceStats, MergeAccumulates)
{
    TraceStats a, b;
    a.onBranch(makeEvent(1, true, true));
    a.addInstructions(4);
    b.onBranch(makeEvent(2, false, true));
    b.addInstructions(6);
    a.merge(b);
    EXPECT_EQ(a.branches(), 2u);
    EXPECT_EQ(a.instructions(), 10u);
}

TEST(BranchRecorder, RecordsAndReplays)
{
    BranchRecorder recorder;
    recorder.onBranch(makeEvent(1, true, true));
    recorder.onBranch(makeEvent(2, false, true));
    ASSERT_EQ(recorder.size(), 2u);

    TraceStats stats;
    recorder.replayInto(stats);
    EXPECT_EQ(stats.branches(), 2u);

    recorder.clear();
    EXPECT_EQ(recorder.size(), 0u);
}

TEST(FanoutSink, ForwardsToAllSinks)
{
    TraceStats a, b;
    FanoutSink fanout;
    fanout.addSink(&a);
    fanout.addSink(&b);
    fanout.onBranch(makeEvent(1, true, false));
    EXPECT_EQ(a.branches(), 1u);
    EXPECT_EQ(b.branches(), 1u);
}

TEST(FanoutSink, WantsInstructionsOrsMembers)
{
    FanoutSink fanout;
    TraceStats stats; // does not want instructions
    fanout.addSink(&stats);
    EXPECT_FALSE(fanout.wantsInstructions());
    InstRecorder recorder;
    fanout.addSink(&recorder);
    EXPECT_TRUE(fanout.wantsInstructions());
    fanout.onInstruction(InstEvent{0x1000, ir::Opcode::Nop});
    EXPECT_EQ(recorder.addrs().size(), 1u);
}

TEST(BranchRecorder, TakeEventsLeavesRecorderReusable)
{
    BranchRecorder recorder;
    recorder.onBranch(makeEvent(1, true, true));
    recorder.onBranch(makeEvent(2, false, true));

    const std::vector<BranchEvent> taken = recorder.takeEvents();
    EXPECT_EQ(taken.size(), 2u);
    // The recorder must be in a defined empty state, not merely
    // "valid but unspecified": size is 0 and recording restarts
    // cleanly.
    EXPECT_EQ(recorder.size(), 0u);
    EXPECT_TRUE(recorder.events().empty());

    recorder.onBranch(makeEvent(3, true, false));
    ASSERT_EQ(recorder.size(), 1u);
    EXPECT_EQ(recorder.events()[0].pc, 3u);
}

TEST(TraceStats, CountersRoundTripLosslessly)
{
    TraceStats stats;
    stats.onBranch(makeEvent(1, true, true));
    stats.onBranch(makeEvent(2, false, true, false));
    stats.addInstructions(11);

    const TraceCounters counters = stats.counters();
    const TraceStats rebuilt = TraceStats::fromCounters(counters);
    EXPECT_EQ(rebuilt.counters(), counters);
    EXPECT_EQ(rebuilt.instructions(), stats.instructions());
    EXPECT_EQ(rebuilt.branches(), stats.branches());
    EXPECT_EQ(rebuilt.conditionalBranches(),
              stats.conditionalBranches());
    EXPECT_EQ(rebuilt.conditionalTaken(), stats.conditionalTaken());
    EXPECT_EQ(rebuilt.unconditionalKnown(),
              stats.unconditionalKnown());
}

// ---------------------------------------------------------------------
// The SoA trace buffer.
// ---------------------------------------------------------------------

void
expectSameEvents(const std::vector<BranchEvent> &a,
                 const std::vector<BranchEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << "event " << i;
        EXPECT_EQ(a[i].nextPc, b[i].nextPc) << "event " << i;
        EXPECT_EQ(a[i].targetAddr, b[i].targetAddr) << "event " << i;
        EXPECT_EQ(a[i].fallthroughAddr, b[i].fallthroughAddr)
            << "event " << i;
        EXPECT_EQ(a[i].op, b[i].op) << "event " << i;
        EXPECT_EQ(a[i].conditional, b[i].conditional) << "event " << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << "event " << i;
        EXPECT_EQ(a[i].targetKnown, b[i].targetKnown) << "event " << i;
    }
}

std::vector<BranchEvent>
recordFactorialTrace()
{
    const ir::Program prog = test::buildFactorial(6);
    BranchRecorder recorder;
    test::runProgram(prog, &recorder);
    return recorder.takeEvents();
}

TEST(SoaTrace, FromEventsToEventsRoundTripsBitExactly)
{
    std::vector<BranchEvent> events = recordFactorialTrace();
    // Include anomalies the v2 side channel must carry.
    BranchEvent odd = makeEvent(0x1004, true, false);
    odd.nextPc = 0x9999;
    events.push_back(odd);

    const SoaTrace stream = SoaTrace::fromEvents(events);
    ASSERT_EQ(stream.size(), events.size());
    expectSameEvents(stream.toEvents(), events);

    ir::Addr max_pc = 0;
    for (const BranchEvent &event : events)
        max_pc = std::max(max_pc, event.pc);
    EXPECT_EQ(stream.maxPc(), max_pc);
}

TEST(SoaTrace, ColumnsAreTheEntrySections)
{
    // The owned columns are a BLTC entry's stream sections, in file
    // order: the entry writer copies them verbatim.
    std::vector<BranchEvent> events = recordFactorialTrace();
    BranchEvent odd = makeEvent(0x1004, true, false);
    odd.nextPc = 0x9999;
    events.push_back(odd);
    CachedWorkload entry;
    entry.stream = SoaTrace::fromEvents(events);
    const SoaTrace &stream = entry.stream;
    EXPECT_FALSE(stream.anomalyDeltas().empty());

    const std::string path = ::testing::TempDir() + "blab_columns.bltc";
    std::uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(writeEntryFile(path, entry, bytes, error)) << error;
    std::ifstream file(path, std::ios::binary);
    const std::string written(std::istreambuf_iterator<char>(file), {});
    EXPECT_EQ(written.size(), bytes);
    EntryHeader header;
    ASSERT_EQ(decodeEntryHeader(
                  reinterpret_cast<const std::uint8_t *>(written.data()),
                  written.size(), header),
              "");
    const std::pair<EntrySection, const std::vector<std::uint8_t> *>
        columns[] = {
            {EntrySection::Ops, &stream.ops()},
            {EntrySection::CondPlane, &stream.conditionalPlane()},
            {EntrySection::TakenPlane, &stream.takenPlane()},
            {EntrySection::TargetKnownPlane, &stream.targetKnownPlane()},
            {EntrySection::AnomalyPlane, &stream.anomalyPlane()},
            {EntrySection::Deltas, &stream.deltas()},
            {EntrySection::AnomalyDeltas, &stream.anomalyDeltas()}};
    for (const auto &[section, column] : columns) {
        const SectionRecord &record = header.section(section);
        EXPECT_EQ(written.substr(record.offset, record.length),
                  std::string(column->begin(), column->end()))
            << "section " << static_cast<int>(section);
    }
    std::remove(path.c_str());
}

TEST(TraceStats, AgreesWithMachineCountsOnRealProgram)
{
    const ir::Program prog = test::buildCountdown(7);
    TraceStats stats;
    const vm::RunResult result = test::runProgram(prog, &stats);
    stats.addInstructions(result.instructions);
    EXPECT_EQ(stats.branches(), result.branches);
    EXPECT_EQ(stats.instructions(), result.instructions);
    // Countdown: one jmp + seven conditionals, six of them taken.
    EXPECT_EQ(stats.conditionalBranches(), 7u);
    EXPECT_EQ(stats.conditionalTaken(), 6u);
    EXPECT_EQ(stats.unconditionalKnown(), 1u);
}

} // namespace
} // namespace branchlab::trace
