/**
 * @file
 * Unit tests for trace sinks and statistics (the Table 1/2
 * machinery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "helpers.hh"
#include "support/logging.hh"
#include "trace/io.hh"
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
// Trace formats: the v2 columnar codec and v1 compatibility.
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

TEST(TraceIoV2, V1AndV2ReadBackBitEquivalently)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    ASSERT_FALSE(events.empty());

    std::stringstream v1, v2;
    const std::size_t v1_bytes = writeTraceV1(v1, events);
    const std::size_t v2_bytes = writeTrace(v2, events, 0xfeedu);
    EXPECT_EQ(v1_bytes, v1.str().size());
    EXPECT_EQ(v2_bytes, v2.str().size());
    // The columnar layout is the point: several times smaller than
    // the 34-byte fixed records.
    EXPECT_LT(v2_bytes, v1_bytes / 4);

    const std::vector<BranchEvent> from_v1 = readTrace(v1);
    const std::vector<BranchEvent> from_v2 = readTrace(v2);
    expectSameEvents(from_v1, events);
    expectSameEvents(from_v2, events);
}

TEST(TraceIoV2, AnomalousNextPcRoundTrips)
{
    // Synthetic events may violate the VM invariant
    // nextPc == (taken ? target : fallthrough); the anomaly side
    // channel must preserve them bit-exactly.
    std::vector<BranchEvent> events;
    events.push_back(makeEvent(0x1000, true, true));
    BranchEvent odd = makeEvent(0x1004, true, false);
    odd.nextPc = 0x9999; // neither target nor fallthrough
    events.push_back(odd);
    BranchEvent far = makeEvent(0x2000, false, true);
    far.nextPc = ir::kNoAddr; // extreme delta
    events.push_back(far);

    std::stringstream buffer;
    writeTrace(buffer, events);
    expectSameEvents(readTrace(buffer), events);
}

TEST(TraceIoV2, EncodeDecodePayloadRoundTrips)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    const std::string payload = encodeEventsV2(events);
    std::vector<BranchEvent> decoded;
    std::string error;
    ASSERT_TRUE(decodeEventsV2(payload, events.size(), decoded, error))
        << error;
    expectSameEvents(decoded, events);
}

TEST(TraceIoV2, DecodeRejectsCorruptPayloadSoftly)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    const std::string payload = encodeEventsV2(events);

    std::vector<BranchEvent> decoded;
    std::string error;
    // Truncation at any depth is a clean failure, never a crash.
    EXPECT_FALSE(decodeEventsV2(payload.substr(0, payload.size() - 2),
                                events.size(), decoded, error));
    EXPECT_FALSE(error.empty());
    // Wrong count: either short columns or trailing bytes.
    EXPECT_FALSE(
        decodeEventsV2(payload, events.size() + 1, decoded, error));
    // A corrupt opcode byte is diagnosed.
    std::string bad_op = payload;
    bad_op[0] = '\x7f';
    EXPECT_FALSE(
        decodeEventsV2(bad_op, events.size(), decoded, error));
}

TEST(TraceIoV2, RejectsUnsupportedVersion)
{
    // A v2 header whose version field says 99.
    std::string raw = "BLTR";
    raw += '\x63'; // 99, little-endian u32
    raw += std::string(3, '\0');
    raw += std::string(24, '\0');
    std::stringstream buffer(raw);
    EXPECT_THROW(readTrace(buffer), ConfigFailure);
}

TEST(TraceIoV2, RejectsTruncatedV2Stream)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    std::stringstream buffer;
    writeTrace(buffer, events);
    const std::string whole = buffer.str();
    std::stringstream truncated(whole.substr(0, whole.size() - 5));
    EXPECT_THROW(readTrace(truncated), ConfigFailure);
}

// ---------------------------------------------------------------------
// Header counts and sizes are untrusted: a lying header must end in a
// clean diagnostic, never in arithmetic wrap or a giant allocation.
// ---------------------------------------------------------------------

/** Little-endian @p bytes-wide @p value, as the trace headers store
 *  it. */
std::string
le(std::uint64_t value, int bytes)
{
    std::string out;
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    return out;
}

TEST(TraceIoV2, DecodeRejectsACountThatWrapsTheColumnLengths)
{
    // n + 4 * ceil(n / 8) wraps to 8 for this count, which once let a
    // 16-byte payload pass the fixed-column length check.
    const std::uint64_t count = 0xAAAAAAAAAAAAAAB0ull;
    const std::string payload(16, '\0');
    SoaTrace decoded;
    std::string error;
    EXPECT_FALSE(decodeEventsV2Soa(payload, count, decoded, error));
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(decoded.empty());
}

TEST(TraceIoV2, RejectsAPayloadSizeBeyondTheStream)
{
    // A v2 header claiming a 2^62-byte payload over a few real bytes.
    std::string raw = "BLTR" + le(kTraceFormatVersion, 4) + le(0, 8) +
                      le(1, 8) + le(std::uint64_t{1} << 62, 8);
    raw += std::string(8, '\0');
    std::stringstream buffer(raw);
    EXPECT_THROW(readTrace(buffer), ConfigFailure);
}

TEST(TraceIoV1, RejectsAnEventCountBeyondTheStream)
{
    // A v1 header claiming 2^61 records over one real record.
    std::stringstream one;
    writeTraceV1(one, {makeEvent(0x1000, true, true)});
    std::string raw = one.str();
    raw.replace(8, 8, le(std::uint64_t{1} << 61, 8));
    std::stringstream buffer(raw);
    EXPECT_THROW(readTrace(buffer), ConfigFailure);
}

TEST(TraceIoV2, ReplayHandlesBothVersions)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    std::stringstream v1, v2;
    writeTraceV1(v1, events);
    writeTrace(v2, events);

    TraceStats from_v1, from_v2;
    EXPECT_EQ(replayTrace(v1, from_v1), events.size());
    EXPECT_EQ(replayTrace(v2, from_v2), events.size());
    EXPECT_EQ(from_v1.branches(), from_v2.branches());
    EXPECT_EQ(from_v1.conditionalTaken(), from_v2.conditionalTaken());
}

// ---------------------------------------------------------------------
// The SoA trace buffer and the streaming column-wise v2 decoder.
// ---------------------------------------------------------------------

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

TEST(SoaTrace, StreamingDecodeMatchesEventDecode)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    const std::string payload = encodeEventsV2(events);

    // Decoding straight into columns must agree with the event-vector
    // decoder, and re-encoding the SoA form must be byte-identical.
    SoaTrace decoded;
    std::string error;
    ASSERT_TRUE(
        decodeEventsV2Soa(payload, events.size(), decoded, error))
        << error;
    expectSameEvents(decoded.toEvents(), events);
    EXPECT_EQ(encodeEventsV2(decoded), payload);

    // Corruption fails softly on the SoA path as well.
    SoaTrace scratch;
    EXPECT_FALSE(decodeEventsV2Soa(payload.substr(0, payload.size() - 2),
                                   events.size(), scratch, error));
    EXPECT_FALSE(error.empty());
}

TEST(SoaTrace, ColumnsAreTheV2Payload)
{
    // The owned columns are the payload's sections, in payload order:
    // encoding an SoA stream is a straight concatenation.
    std::vector<BranchEvent> events = recordFactorialTrace();
    BranchEvent odd = makeEvent(0x1004, true, false);
    odd.nextPc = 0x9999;
    events.push_back(odd);
    const SoaTrace stream = SoaTrace::fromEvents(events);

    std::string columns;
    for (const std::vector<std::uint8_t> *column :
         {&stream.ops(), &stream.conditionalPlane(), &stream.takenPlane(),
          &stream.targetKnownPlane(), &stream.anomalyPlane(),
          &stream.deltas(), &stream.anomalyDeltas()})
        columns.append(column->begin(), column->end());
    EXPECT_EQ(encodeEventsV2(stream), columns);
    EXPECT_EQ(encodeEventsV2(events), columns);
    EXPECT_FALSE(stream.anomalyDeltas().empty());
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
