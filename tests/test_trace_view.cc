/**
 * @file
 * Tests for the non-owning trace views (trace/view.hh): cursor walks
 * and materialisation round-trips over owned streams, and the
 * differential that anchors the zero-copy warm path -- for every
 * workload in the suite, the cold record's owned columns must equal
 * the mapped cache entry's sections, and replaying either through
 * every kernel must be bit-identical.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/replay_kernel.hh"
#include "core/runner.hh"
#include "predict/replay_kernels.hh"
#include "support/random.hh"
#include "trace/cache.hh"
#include "trace/record.hh"
#include "trace/soa.hh"
#include "trace/varint.hh"
#include "trace/view.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace branchlab::trace
{
namespace
{

/** A synthetic stream long enough for several cursor blocks plus a
 *  ragged tail (not a multiple of the block size). */
std::vector<BranchEvent>
syntheticEvents(std::size_t count)
{
    std::vector<BranchEvent> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        BranchEvent e;
        e.pc = 0x100 + (i % 97) * 4;
        e.conditional = (i % 3) == 0;
        e.op = e.conditional ? ir::Opcode::Beq : ir::Opcode::Call;
        e.taken = !e.conditional || (i % 5) != 0;
        e.targetKnown = (i % 7) != 0;
        e.targetAddr = e.pc + 0x40 + (i % 11);
        e.fallthroughAddr = e.pc + 1;
        e.nextPc = e.taken ? e.targetAddr : e.fallthroughAddr;
        events.push_back(e);
    }
    return events;
}

void
expectSameEvent(const BranchEvent &a, const BranchEvent &b,
                std::size_t i)
{
    EXPECT_EQ(a.pc, b.pc) << "event " << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << "event " << i;
    EXPECT_EQ(a.targetAddr, b.targetAddr) << "event " << i;
    EXPECT_EQ(a.fallthroughAddr, b.fallthroughAddr) << "event " << i;
    EXPECT_EQ(a.op, b.op) << "event " << i;
    EXPECT_EQ(a.conditional, b.conditional) << "event " << i;
    EXPECT_EQ(a.taken, b.taken) << "event " << i;
    EXPECT_EQ(a.targetKnown, b.targetKnown) << "event " << i;
}

TEST(TraceView, OwnedCursorWalksEveryEventInOrder)
{
    const std::vector<BranchEvent> events = syntheticEvents(1219);
    const SoaTrace stream = SoaTrace::fromEvents(events);
    const TraceView view = TraceView::of(stream);
    EXPECT_EQ(view.size(), events.size());
    EXPECT_EQ(view.maxPc(), stream.maxPc());

    TraceView::Cursor cursor = view.cursor();
    TraceBlock block;
    std::size_t seen = 0;
    while (cursor.next(block)) {
        EXPECT_EQ(block.base, seen);
        for (std::size_t i = 0; i < block.count; ++i)
            expectSameEvent(block.event(i), events[seen + i],
                            seen + i);
        seen += block.count;
    }
    EXPECT_EQ(seen, events.size());
}

TEST(TraceView, MaterializeRoundTripsTheOwnedView)
{
    const std::vector<BranchEvent> events = syntheticEvents(700);
    const SoaTrace stream = SoaTrace::fromEvents(events);
    const SoaTrace copy = materializeView(TraceView::of(stream));
    ASSERT_EQ(copy.size(), stream.size());
    EXPECT_EQ(copy.maxPc(), stream.maxPc());
    EXPECT_EQ(copy.deltas(), stream.deltas());
    const std::vector<BranchEvent> decoded = copy.toEvents();
    for (std::size_t i = 0; i < decoded.size(); ++i)
        expectSameEvent(decoded[i], events[i], i);
}

TEST(TraceView, MaterializeRoundTripsAMappedView)
{
    // Decoding a mapped entry back into columns gives the columns the
    // entry was written from, byte for byte, anomalies included.
    std::vector<BranchEvent> events = syntheticEvents(700);
    events[350].nextPc = 0x9999; // neither target nor fall-through
    CachedWorkload entry;
    entry.stream = SoaTrace::fromEvents(events);
    const SoaTrace &stream = entry.stream;
    ASSERT_FALSE(stream.anomalyDeltas().empty());

    const std::string path =
        ::testing::TempDir() + "blab_view_materialize.bltc";
    std::uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(writeEntryFile(path, entry, bytes, error)) << error;
    CachedWorkload mapped;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapEntryFile(path, std::nullopt, mapped, error, failure))
        << error;
    std::remove(path.c_str()); // the mapping pins the pages

    const SoaTrace copy = materializeView(mapped.traceView());
    EXPECT_EQ(copy.size(), stream.size());
    EXPECT_EQ(copy.maxPc(), stream.maxPc());
    EXPECT_EQ(copy.ops(), stream.ops());
    EXPECT_EQ(copy.conditionalPlane(), stream.conditionalPlane());
    EXPECT_EQ(copy.takenPlane(), stream.takenPlane());
    EXPECT_EQ(copy.targetKnownPlane(), stream.targetKnownPlane());
    EXPECT_EQ(copy.anomalyPlane(), stream.anomalyPlane());
    EXPECT_EQ(copy.deltas(), stream.deltas());
    EXPECT_EQ(copy.anomalyDeltas(), stream.anomalyDeltas());
}

TEST(TraceView, EmptyViewYieldsNoBlocks)
{
    const SoaTrace stream;
    const TraceView view = TraceView::of(stream);
    EXPECT_TRUE(view.empty());
    TraceView::Cursor cursor = view.cursor();
    TraceBlock block;
    EXPECT_FALSE(cursor.next(block));
}

// ---------------------------------------------------------------------
// The encoder differential: SoaTrace::append against an independent
// reference encoder that sizes whole planes up front and derives the
// anomaly plane and both varint columns in one pass over events.
// ---------------------------------------------------------------------

/** The v2 columns of a stream, as the reference encoder builds them. */
struct ReferenceColumns
{
    std::vector<std::uint8_t> ops;
    std::vector<std::uint8_t> cond;
    std::vector<std::uint8_t> taken;
    std::vector<std::uint8_t> targetKnown;
    std::vector<std::uint8_t> anomaly;
    std::vector<std::uint8_t> deltas;
    std::vector<std::uint8_t> anomalyDeltas;
};

/** The reference: whole planes sized up front, bits set per event, the
 *  anomaly plane and both varint columns derived in one pass. */
ReferenceColumns
referenceEncode(const std::vector<BranchEvent> &events)
{
    const std::size_t n = events.size();
    const std::size_t plane_bytes = (n + 7) / 8;
    ReferenceColumns out;
    out.cond.assign(plane_bytes, 0);
    out.taken.assign(plane_bytes, 0);
    out.targetKnown.assign(plane_bytes, 0);
    out.anomaly.assign(plane_bytes, 0);
    const auto set = [](std::vector<std::uint8_t> &plane, std::size_t i) {
        plane[i >> 3] = static_cast<std::uint8_t>(plane[i >> 3] |
                                                  (1u << (i & 7)));
    };
    ir::Addr prev_pc = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const BranchEvent &e = events[i];
        out.ops.push_back(static_cast<std::uint8_t>(e.op));
        if (e.conditional)
            set(out.cond, i);
        if (e.taken)
            set(out.taken, i);
        if (e.targetKnown)
            set(out.targetKnown, i);
        const ir::Addr implied = e.taken ? e.targetAddr : e.fallthroughAddr;
        if (e.nextPc != implied) {
            set(out.anomaly, i);
            putVarint(out.anomalyDeltas, zigzag(e.nextPc - e.pc));
        }
        putVarint(out.deltas, zigzag(e.pc - prev_pc));
        putVarint(out.deltas, zigzag(e.targetAddr - e.pc));
        putVarint(out.deltas, zigzag(e.fallthroughAddr - e.pc));
        prev_pc = e.pc;
    }
    return out;
}

void
expectColumnsMatchReference(const SoaTrace &stream,
                            const std::vector<BranchEvent> &events)
{
    const ReferenceColumns ref = referenceEncode(events);
    ASSERT_EQ(stream.size(), events.size());
    EXPECT_EQ(stream.ops(), ref.ops);
    EXPECT_EQ(stream.conditionalPlane(), ref.cond);
    EXPECT_EQ(stream.takenPlane(), ref.taken);
    EXPECT_EQ(stream.targetKnownPlane(), ref.targetKnown);
    EXPECT_EQ(stream.anomalyPlane(), ref.anomaly);
    EXPECT_EQ(stream.deltas(), ref.deltas);
    EXPECT_EQ(stream.anomalyDeltas(), ref.anomalyDeltas);
    ir::Addr max_pc = 0;
    for (const BranchEvent &e : events)
        max_pc = std::max(max_pc, e.pc);
    EXPECT_EQ(stream.maxPc(), max_pc);
}

TEST(SoaEncoderDifferential, EveryWorkloadStreamMatchesTheReference)
{
    // The VM feeds an event vector and the encoder side by side, so
    // the reference never depends on the decoder under test.
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        SCOPED_TRACE(workload->name());
        const ir::Program program = workload->buildProgram();
        const ir::Layout layout(program);
        Rng rng(20240601 ^ hashString(workload->name()));
        BranchRecorder events;
        SoaRecorder encoded;
        FanoutSink fanout;
        fanout.addSink(&events);
        fanout.addSink(&encoded);
        for (const workloads::WorkloadInput &input :
             workload->makeInputs(rng, 1)) {
            vm::Machine machine(program, layout);
            for (std::size_t chan = 0; chan < input.channels.size(); ++chan)
                machine.setInput(static_cast<int>(chan),
                                 input.channels[chan]);
            machine.setSink(&fanout);
            machine.run();
        }
        ASSERT_FALSE(events.events().empty());
        expectColumnsMatchReference(encoded.trace(), events.events());
    }
}

TEST(SoaEncoderDifferential, ExtremeSeededStreamMatchesTheReference)
{
    // Extreme deltas both ways, kNoAddr and anomalous next pcs, tall
    // pcs (kNoAddr itself included), and a ragged final plane byte.
    Rng rng(19890528);
    const ir::Addr tall[] = {0,
                             1,
                             ir::kCodeBase,
                             predict::kMaxKernelPc,
                             ir::Addr{1} << 63,
                             ir::kNoAddr - 1,
                             ir::kNoAddr};
    std::vector<BranchEvent> events;
    for (std::size_t i = 0; i < 4099; ++i) {
        BranchEvent e;
        e.pc = rng.nextBool(0.3) ? tall[rng.nextBelow(std::size(tall))]
                                 : rng.next();
        e.op = static_cast<ir::Opcode>(rng.nextBelow(ir::kNumOpcodes));
        e.conditional = rng.nextBool();
        e.taken = rng.nextBool();
        e.targetKnown = rng.nextBool();
        e.targetAddr = rng.nextBool(0.2) ? ir::kNoAddr : rng.next();
        e.fallthroughAddr = rng.nextBool(0.5) ? e.pc + 1 : rng.next();
        switch (rng.nextBelow(4)) {
          case 0:
            e.nextPc = ir::kNoAddr;
            break;
          case 1:
            e.nextPc = rng.next();
            break;
          default:
            e.nextPc = e.taken ? e.targetAddr : e.fallthroughAddr;
            break;
        }
        events.push_back(e);
    }
    const SoaTrace stream = SoaTrace::fromEvents(events);
    expectColumnsMatchReference(stream, events);
    EXPECT_FALSE(stream.anomalyDeltas().empty());
    // The decoding view gives every event back exactly.
    const std::vector<BranchEvent> decoded = stream.toEvents();
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        expectSameEvent(decoded[i], events[i], i);
}

// ---------------------------------------------------------------------
// The warm-path differential: mapped views vs owning decode, across
// the whole suite and every kernel.
// ---------------------------------------------------------------------

bool
sameStats(const predict::PredictorStats &a,
          const predict::PredictorStats &b)
{
    const auto same = [](const Ratio &x, const Ratio &y) {
        return x.hits() == y.hits() && x.total() == y.total();
    };
    return same(a.accuracy, b.accuracy) &&
           same(a.conditionalAccuracy, b.conditionalAccuracy) &&
           same(a.unconditionalAccuracy, b.unconditionalAccuracy) &&
           same(a.predictedTaken, b.predictedTaken);
}

void
expectSameResult(const predict::KernelReplayResult &mapped,
                 const predict::KernelReplayResult &owned,
                 const std::string &what)
{
    EXPECT_TRUE(sameStats(mapped.stats, owned.stats)) << what;
    EXPECT_EQ(mapped.missRatio, owned.missRatio) << what;
    EXPECT_EQ(mapped.hasMissRatio, owned.hasMissRatio) << what;
}

TEST(TraceViewDifferential, MappedReplayIsBitIdenticalAcrossSuite)
{
    const std::string dir =
        ::testing::TempDir() + "blab_view_differential";
    std::filesystem::remove_all(dir);
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.traceCacheDir = dir;

    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        SCOPED_TRACE(workload->name());
        // Cold record populates the cache; the second record must be
        // a zero-copy mapped hit.
        core::RecordedWorkload cold =
            core::recordWorkload(*workload, config);
        ASSERT_FALSE(cold.cacheHit);
        core::RecordedWorkload warm =
            core::recordWorkload(*workload, config);
        ASSERT_TRUE(warm.cacheHit);
        ASSERT_NE(warm.mapped, nullptr);
        EXPECT_EQ(warm.stream.size(), 0u);

        const TraceView mapped = warm.traceView();
        const TraceView owned = cold.traceView();
        ASSERT_EQ(mapped.size(), owned.size());
        EXPECT_EQ(mapped.maxPc(), owned.maxPc());

        // One encoded form: the cold record's columns are, section by
        // section, the bytes the warm hit maps.
        const MappedEntry &entry = *warm.mapped;
        const std::size_t n = cold.stream.size();
        const std::size_t plane_bytes = (n + 7) / 8;
        const auto section = [](const std::uint8_t *data,
                                std::size_t len) {
            return std::vector<std::uint8_t>(data, data + len);
        };
        EXPECT_EQ(section(entry.ops, n), cold.stream.ops());
        EXPECT_EQ(section(entry.condPlane, plane_bytes),
                  cold.stream.conditionalPlane());
        EXPECT_EQ(section(entry.takenPlane, plane_bytes),
                  cold.stream.takenPlane());
        EXPECT_EQ(section(entry.targetKnownPlane, plane_bytes),
                  cold.stream.targetKnownPlane());
        EXPECT_EQ(section(entry.anomalyPlane, plane_bytes),
                  cold.stream.anomalyPlane());
        EXPECT_EQ(section(entry.deltas, entry.deltasLen),
                  cold.stream.deltas());
        EXPECT_EQ(section(entry.anomalyDeltas, entry.anomalyDeltasLen),
                  cold.stream.anomalyDeltas());

        // The decoded events themselves are bit-identical.
        const std::vector<BranchEvent> decoded =
            materializeView(mapped).toEvents();
        const std::vector<BranchEvent> recorded =
            cold.stream.toEvents();
        ASSERT_EQ(decoded.size(), recorded.size());
        for (std::size_t i = 0; i < decoded.size(); ++i)
            expectSameEvent(decoded[i], recorded[i], i);

        // Every kernel sees the same stream: identical results (and
        // therefore identical internal tables) in both modes.
        const predict::BufferConfig btb =
            predict::kernelIndexedConfig(config.btb);
        {
            predict::SbtbKernel a(btb);
            predict::SbtbKernel b(btb);
            expectSameResult(a.run(mapped), b.run(owned), "sbtb");
        }
        {
            predict::CbtbKernel a(btb, config.counter);
            predict::CbtbKernel b(btb, config.counter);
            expectSameResult(a.run(mapped), b.run(owned), "cbtb");
        }
        for (const predict::StaticKind kind :
             {predict::StaticKind::AlwaysTaken,
              predict::StaticKind::AlwaysNotTaken,
              predict::StaticKind::BackwardTaken,
              predict::StaticKind::OpcodeBias}) {
            predict::StaticKernel a(kind);
            predict::StaticKernel b(kind);
            expectSameResult(a.run(mapped), b.run(owned), "static");
        }
        {
            predict::FsKernel a(cold.likelyMap, owned.maxPc());
            predict::FsKernel b(cold.likelyMap, owned.maxPc());
            expectSameResult(a.run(mapped), b.run(owned), "fs");
        }
        {
            predict::GshareKernel a(predict::GshareConfig{});
            predict::GshareKernel b(predict::GshareConfig{});
            expectSameResult(a.run(mapped), b.run(owned), "gshare");
        }

        // The engine's fused replay agrees over both views too.
        std::vector<core::KernelSpec> specs;
        for (const core::SchemeKind kind :
             {core::SchemeKind::Sbtb, core::SchemeKind::Cbtb,
              core::SchemeKind::AlwaysTaken,
              core::SchemeKind::AlwaysNotTaken,
              core::SchemeKind::BackwardTaken,
              core::SchemeKind::OpcodeBias,
              core::SchemeKind::ForwardSemantic,
              core::SchemeKind::Gshare}) {
            core::KernelSpec spec;
            spec.kind = kind;
            spec.btb = config.btb;
            spec.counter = config.counter;
            spec.likely = &cold.likelyMap;
            specs.push_back(spec);
        }
        const std::vector<core::ReplayResult> warm_results =
            core::replayManyKernel(mapped, specs);
        const std::vector<core::ReplayResult> cold_results =
            core::replayManyKernel(owned, specs);
        ASSERT_EQ(warm_results.size(), cold_results.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE("fused spec " + std::to_string(i));
            EXPECT_TRUE(
                sameStats(warm_results[i].stats, cold_results[i].stats));
            EXPECT_EQ(warm_results[i].accuracy, cold_results[i].accuracy);
            EXPECT_EQ(warm_results[i].missRatio,
                      cold_results[i].missRatio);
            EXPECT_EQ(warm_results[i].hasMissRatio,
                      cold_results[i].hasMissRatio);
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceViewDifferential, MappedViewSurvivesEntryEviction)
{
    // The mapping pins the pages: replay keeps working even after
    // the cache file disappears from under the view.
    const std::string dir = ::testing::TempDir() + "blab_view_unlink";
    std::filesystem::remove_all(dir);
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.traceCacheDir = dir;
    const workloads::Workload &workload =
        *workloads::allWorkloads().front();

    core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    ASSERT_NE(warm.mapped, nullptr);

    std::filesystem::remove_all(dir); // evict everything

    const std::vector<BranchEvent> decoded =
        materializeView(warm.traceView()).toEvents();
    const std::vector<BranchEvent> recorded = cold.stream.toEvents();
    ASSERT_EQ(decoded.size(), recorded.size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        expectSameEvent(decoded[i], recorded[i], i);
}

} // namespace
} // namespace branchlab::trace
