/**
 * @file
 * Differential tests binding the specialized replay kernels to the
 * virtual-dispatch reference: every kernel the registry can select
 * must produce results bit-identical to replaying the same stream
 * through the predictor makePredictor() builds, across all ten paper
 * workloads, a sweep-style config grid, and the batch entry point.
 * Internal predictor state (BTB targets, counters, gshare history) is
 * held identical too, not just the summary ratios.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/replay_kernel.hh"
#include "obs/metrics.hh"
#include "predict/cbtb.hh"
#include "predict/gshare.hh"
#include "predict/sbtb.hh"

namespace branchlab::core
{
namespace
{

/** A fast configuration: two runs, nothing extra. */
ExperimentConfig
quickConfig()
{
    ExperimentConfig config;
    config.runsOverride = 2;
    config.runStaticSchemes = false;
    config.runCodeSize = false;
    return config;
}

/** Record one workload once per test binary. */
const RecordedWorkload &
recordedFor(const std::string &name)
{
    static std::map<std::string, RecordedWorkload> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        it = cache
                 .emplace(name,
                          recordWorkload(workloads::findWorkload(name),
                                         quickConfig()))
                 .first;
    }
    return it->second;
}

void
expectSameRatio(const Ratio &a, const Ratio &b)
{
    EXPECT_EQ(a.hits(), b.hits());
    EXPECT_EQ(a.total(), b.total());
}

void
expectSameStats(const predict::PredictorStats &a,
                const predict::PredictorStats &b)
{
    expectSameRatio(a.accuracy, b.accuracy);
    expectSameRatio(a.conditionalAccuracy, b.conditionalAccuracy);
    expectSameRatio(a.unconditionalAccuracy, b.unconditionalAccuracy);
    expectSameRatio(a.predictedTaken, b.predictedTaken);
}

void
expectSameResult(const ReplayResult &kernel,
                 const ReplayResult &reference)
{
    EXPECT_EQ(kernel.accuracy, reference.accuracy);
    EXPECT_EQ(kernel.missRatio, reference.missRatio);
    EXPECT_EQ(kernel.hasMissRatio, reference.hasMissRatio);
    expectSameStats(kernel.stats, reference.stats);
}

/** Replay through the virtual-dispatch predictor the spec describes
 *  (the reference half of every differential check). */
ReplayResult
referenceReplay(const trace::TraceView &view, const KernelSpec &spec)
{
    const std::unique_ptr<predict::BranchPredictor> predictor =
        makePredictor(spec);
    return replay(view, *predictor);
}

/** The full scheme roster the engine replays (paper + gshare). */
std::vector<std::pair<const char *, KernelSpec>>
paperSpecs(const RecordedWorkload &recorded,
           const ExperimentConfig &config)
{
    std::vector<std::pair<const char *, KernelSpec>> specs;
    KernelSpec spec;
    spec.kind = SchemeKind::Sbtb;
    spec.btb = config.btb;
    specs.emplace_back("SBTB", spec);
    spec.kind = SchemeKind::Cbtb;
    spec.counter = config.counter;
    specs.emplace_back("CBTB", spec);
    const std::pair<const char *, SchemeKind> statics[] = {
        {"always-taken", SchemeKind::AlwaysTaken},
        {"always-not-taken", SchemeKind::AlwaysNotTaken},
        {"btfnt", SchemeKind::BackwardTaken},
        {"opcode", SchemeKind::OpcodeBias},
    };
    for (const auto &[name, kind] : statics) {
        KernelSpec st;
        st.kind = kind;
        specs.emplace_back(name, st);
    }
    KernelSpec fs;
    fs.kind = SchemeKind::ForwardSemantic;
    fs.likely = &recorded.likelyMap;
    specs.emplace_back("FS", fs);
    KernelSpec gshare;
    gshare.kind = SchemeKind::Gshare;
    specs.emplace_back("gshare", gshare);
    return specs;
}

/** Every distinct branch pc in the stream (table-identity probes). */
std::set<ir::Addr>
distinctPcs(const trace::TraceView &view)
{
    std::set<ir::Addr> pcs;
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    while (cursor.next(block))
        pcs.insert(block.pc, block.pc + block.count);
    return pcs;
}

TEST(ReplayKernel, MatchesVirtualDispatchOnEveryWorkload)
{
    const ExperimentConfig config = quickConfig();
    const obs::Counter &fallback = obs::Registry::global().counter(
        "engine.replay.kernel.fallback");
    const std::uint64_t fallback_before = fallback.value();

    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        SCOPED_TRACE(workload->name());
        const RecordedWorkload &recorded = recordedFor(workload->name());
        // The paper's workloads must be kernel-eligible; CI gates the
        // same property via the fallback counter.
        ASSERT_LT(recorded.traceView().maxPc(), predict::kMaxKernelPc);
        for (const auto &[name, spec] : paperSpecs(recorded, config)) {
            SCOPED_TRACE(name);
            expectSameResult(replayKernel(recorded.traceView(), spec),
                             referenceReplay(recorded.traceView(), spec));
        }
    }
    // Every one of those replays took a specialized kernel.
    EXPECT_EQ(fallback.value(), fallback_before);
}

TEST(ReplayKernel, ReplayManyMatchesIndividualReplays)
{
    const ExperimentConfig config = quickConfig();
    const RecordedWorkload &recorded = recordedFor("tee");
    const auto named = paperSpecs(recorded, config);
    std::vector<KernelSpec> specs;
    for (const auto &[name, spec] : named)
        specs.push_back(spec);

    const std::vector<ReplayResult> many =
        replayManyKernel(recorded.traceView(), specs);
    ASSERT_EQ(many.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(named[i].first);
        expectSameResult(many[i],
                         replayKernel(recorded.traceView(), specs[i]));
    }
}

TEST(ReplayKernel, ConfigGridMatchesVirtualDispatch)
{
    const RecordedWorkload &recorded = recordedFor("tee");

    std::vector<predict::BufferConfig> buffers;
    {
        predict::BufferConfig paper; // 256-entry fully-assoc LRU
        buffers.push_back(paper);

        predict::BufferConfig set_assoc;
        set_assoc.entries = 64;
        set_assoc.associativity = 4;
        set_assoc.policy = predict::ReplacementPolicy::Fifo;
        buffers.push_back(set_assoc);

        predict::BufferConfig random;
        random.entries = 32;
        random.associativity = 8;
        random.policy = predict::ReplacementPolicy::Random;
        random.seed = 7;
        buffers.push_back(random);

        predict::BufferConfig linear;
        linear.entries = 16;
        linear.associativity = 2;
        linear.lookup = predict::LookupStrategy::Linear;
        buffers.push_back(linear);
    }

    for (std::size_t b = 0; b < buffers.size(); ++b) {
        SCOPED_TRACE("buffer " + std::to_string(b));
        KernelSpec spec;
        spec.kind = SchemeKind::Sbtb;
        spec.btb = buffers[b];
        expectSameResult(replayKernel(recorded.traceView(), spec),
                         referenceReplay(recorded.traceView(), spec));

        // Every counter width the CBTB kernel monomorphizes, plus a
        // non-default threshold per width.
        spec.kind = SchemeKind::Cbtb;
        for (unsigned bits = 1; bits <= 4; ++bits) {
            for (const unsigned threshold :
                 {1u, 1u << (bits - 1)}) {
                SCOPED_TRACE("bits " + std::to_string(bits) +
                             " threshold " + std::to_string(threshold));
                spec.counter = {bits, threshold};
                expectSameResult(replayKernel(recorded.traceView(), spec),
                                 referenceReplay(recorded.traceView(),
                                                 spec));
            }
        }
    }

    // A counter wider than the monomorphized widths exercises the
    // dynamic-width kernel instantiation.
    {
        KernelSpec wide;
        wide.kind = SchemeKind::Cbtb;
        wide.counter = {6, 17};
        expectSameResult(replayKernel(recorded.traceView(), wide),
                         referenceReplay(recorded.traceView(), wide));
    }

    // Gshare across history widths and target-buffer geometries.
    for (const unsigned history_bits : {4u, 10u, 14u}) {
        for (const std::size_t entries : {64u, 256u}) {
            SCOPED_TRACE("gshare h" + std::to_string(history_bits) +
                         " e" + std::to_string(entries));
            KernelSpec spec;
            spec.kind = SchemeKind::Gshare;
            spec.gshare.historyBits = history_bits;
            spec.gshare.targets.entries = entries;
            expectSameResult(replayKernel(recorded.traceView(), spec),
                             referenceReplay(recorded.traceView(), spec));
        }
    }
}

TEST(ReplayKernel, SbtbKernelTableMatchesSimpleBtb)
{
    const RecordedWorkload &recorded = recordedFor("wc");
    const predict::BufferConfig geometry; // paper config

    predict::SbtbKernel kernel(geometry);
    kernel.run(recorded.traceView());
    predict::SimpleBtb reference(geometry);
    replay(recorded.traceView(), reference);

    EXPECT_EQ(kernel.occupancy(), reference.occupancy());
    for (const ir::Addr pc : distinctPcs(recorded.traceView()))
        EXPECT_EQ(kernel.targetOf(pc), reference.targetOf(pc))
            << "pc " << pc;
}

TEST(ReplayKernel, CbtbKernelTableMatchesCounterBtb)
{
    const RecordedWorkload &recorded = recordedFor("wc");
    const predict::BufferConfig geometry;
    const predict::CounterConfig counter{2, 2};

    predict::CbtbKernel kernel(geometry, counter);
    kernel.run(recorded.traceView());
    predict::CounterBtb reference(geometry, counter);
    replay(recorded.traceView(), reference);

    EXPECT_EQ(kernel.occupancy(), reference.occupancy());
    for (const ir::Addr pc : distinctPcs(recorded.traceView())) {
        EXPECT_EQ(kernel.targetOf(pc), reference.targetOf(pc))
            << "pc " << pc;
        EXPECT_EQ(kernel.counterOf(pc), reference.counterOf(pc))
            << "pc " << pc;
    }
}

TEST(ReplayKernel, GshareKernelStateMatchesGsharePredictor)
{
    const RecordedWorkload &recorded = recordedFor("wc");
    const predict::GshareConfig config;

    predict::GshareKernel kernel(config);
    kernel.run(recorded.traceView());
    predict::GsharePredictor reference(config);
    replay(recorded.traceView(), reference);

    EXPECT_EQ(kernel.history(), reference.history());
    for (const ir::Addr pc : distinctPcs(recorded.traceView()))
        EXPECT_EQ(kernel.counterAt(pc), reference.counterAt(pc))
            << "pc " << pc;
}

TEST(ReplayKernel, BatchReplayMatchesStandaloneReplays)
{
    const RecordedWorkload &recorded = recordedFor("tee");
    const obs::Counter &batch_counter = obs::Registry::global().counter(
        "engine.replay.kernel.batch");
    const std::uint64_t batch_before = batch_counter.value();

    std::vector<predict::BtbBatchPoint> points;
    {
        predict::BtbBatchPoint paper;
        points.push_back(paper);

        predict::BtbBatchPoint small;
        small.btb.entries = 32;
        small.btb.associativity = 4;
        small.counter = {1, 1};
        points.push_back(small);

        predict::BtbBatchPoint fifo;
        fifo.btb.entries = 128;
        fifo.btb.policy = predict::ReplacementPolicy::Fifo;
        fifo.counter = {3, 4};
        points.push_back(fifo);

        predict::BtbBatchPoint wide;
        wide.btb.entries = 64;
        wide.btb.associativity = 2;
        wide.counter = {4, 8};
        points.push_back(wide);
    }

    const std::vector<predict::BtbBatchCell> cells =
        replayBatch(recorded.traceView(), points);
    ASSERT_EQ(cells.size(), points.size());
    EXPECT_EQ(batch_counter.value(), batch_before + 1);

    for (std::size_t p = 0; p < points.size(); ++p) {
        SCOPED_TRACE("point " + std::to_string(p));
        KernelSpec spec;
        spec.kind = SchemeKind::Sbtb;
        spec.btb = points[p].btb;
        const ReplayResult sbtb =
            referenceReplay(recorded.traceView(), spec);
        EXPECT_TRUE(cells[p].sbtb.hasMissRatio);
        EXPECT_EQ(cells[p].sbtb.missRatio, sbtb.missRatio);
        expectSameStats(cells[p].sbtb.stats, sbtb.stats);

        spec.kind = SchemeKind::Cbtb;
        spec.counter = points[p].counter;
        const ReplayResult cbtb =
            referenceReplay(recorded.traceView(), spec);
        EXPECT_TRUE(cells[p].cbtb.hasMissRatio);
        EXPECT_EQ(cells[p].cbtb.missRatio, cbtb.missRatio);
        expectSameStats(cells[p].cbtb.stats, cbtb.stats);
    }
}

TEST(ReplayKernel, BatchSharesSbtbKernelsAcrossCounterVariants)
{
    const RecordedWorkload &recorded = recordedFor("wc");

    predict::BufferConfig set_assoc;
    set_assoc.entries = 64;
    set_assoc.associativity = 4;
    // Small enough that the Random victim choice, and so the seed,
    // moves the results.
    predict::BufferConfig random;
    random.entries = 4;
    random.associativity = 4;
    random.policy = predict::ReplacementPolicy::Random;
    random.seed = 7;
    predict::BufferConfig reseeded = random;
    reseeded.seed = 8;
    // Same state as set_assoc: kernels always use the indexed lookup.
    predict::BufferConfig linear = set_assoc;
    linear.lookup = predict::LookupStrategy::Linear;

    // Counter variants over shared geometries, a duplicated point, and
    // two Random-policy points that differ only in their seed.
    const std::vector<predict::BtbBatchPoint> points = {
        {set_assoc, {2, 2}}, {set_assoc, {1, 1}}, {set_assoc, {3, 4}},
        {set_assoc, {2, 1}}, {set_assoc, {2, 2}}, {random, {2, 2}},
        {reseeded, {2, 2}},  {random, {4, 8}},    {linear, {2, 3}},
    };
    const std::size_t distinct_geometries = 3;

    obs::Counter &sbtb_lookups =
        obs::Registry::global().counter("predict.sbtb.lookups");
    const std::uint64_t lookups_before = sbtb_lookups.value();
    const std::vector<predict::BtbBatchCell> cells =
        predict::runBtbBatch(recorded.traceView(), points);
    ASSERT_EQ(cells.size(), points.size());
    // predict.sbtb.* counts the shared kernels' lookups.
    EXPECT_EQ(sbtb_lookups.value() - lookups_before,
              distinct_geometries * recorded.eventCount());

    const auto expect_same = [](const predict::KernelReplayResult &cell,
                                const ReplayResult &reference) {
        EXPECT_TRUE(cell.hasMissRatio);
        EXPECT_EQ(cell.missRatio, reference.missRatio);
        expectSameStats(cell.stats, reference.stats);
    };
    const trace::TraceView view = recorded.traceView();
    for (std::size_t p = 0; p < points.size(); ++p) {
        SCOPED_TRACE("point " + std::to_string(p));
        KernelSpec spec;
        spec.kind = SchemeKind::Sbtb;
        spec.btb = points[p].btb;
        expect_same(cells[p].sbtb, replayKernel(view, spec));
        expect_same(cells[p].sbtb, referenceReplay(view, spec));

        spec.kind = SchemeKind::Cbtb;
        spec.counter = points[p].counter;
        expect_same(cells[p].cbtb, replayKernel(view, spec));
        expect_same(cells[p].cbtb, referenceReplay(view, spec));
    }
    // The two seeds must not have shared a kernel.
    EXPECT_NE(cells[5].sbtb.missRatio, cells[6].sbtb.missRatio);

    // A permuted batch yields the same cell for every point.
    const std::vector<std::size_t> order = {7, 0, 5, 8, 2, 6, 4, 1, 3};
    std::vector<predict::BtbBatchPoint> permuted;
    for (const std::size_t p : order)
        permuted.push_back(points[p]);
    const std::vector<predict::BtbBatchCell> permuted_cells =
        predict::runBtbBatch(recorded.traceView(), permuted);
    ASSERT_EQ(permuted_cells.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        SCOPED_TRACE("permuted " + std::to_string(i));
        const predict::BtbBatchCell &a = permuted_cells[i];
        const predict::BtbBatchCell &b = cells[order[i]];
        EXPECT_EQ(a.sbtb.missRatio, b.sbtb.missRatio);
        expectSameStats(a.sbtb.stats, b.sbtb.stats);
        EXPECT_EQ(a.cbtb.missRatio, b.cbtb.missRatio);
        expectSameStats(a.cbtb.stats, b.cbtb.stats);
    }
}

/** A synthetic stream whose pcs exceed the flat-table bound, forcing
 *  table-backed kernels onto the virtual fallback path. */
trace::SoaTrace
tallPcStream()
{
    trace::SoaTrace stream;
    const ir::Addr base = predict::kMaxKernelPc;
    for (std::size_t i = 0; i < 200; ++i) {
        trace::BranchEvent event;
        event.pc = base + 16 * (i % 8);
        event.op = ir::Opcode::Beq;
        event.conditional = true;
        event.taken = (i * 7) % 3 != 0;
        event.targetKnown = true;
        event.targetAddr = base + 16 * ((i + 3) % 8);
        event.fallthroughAddr = event.pc + 4;
        event.nextPc =
            event.taken ? event.targetAddr : event.fallthroughAddr;
        stream.append(event);
    }
    return stream;
}

TEST(ReplayKernel, TallPcStreamFallsBackAndStillMatches)
{
    const trace::SoaTrace stream = tallPcStream();
    const trace::TraceView view = trace::TraceView::of(stream);
    ASSERT_GE(view.maxPc(), predict::kMaxKernelPc);

    const obs::Counter &fallback = obs::Registry::global().counter(
        "engine.replay.kernel.fallback");
    const obs::Counter &specialized =
        obs::Registry::global().counter(
            "engine.replay.kernel.specialized");
    const std::uint64_t fallback_before = fallback.value();
    const std::uint64_t specialized_before = specialized.value();

    KernelSpec spec; // SBTB at the paper config
    const ReplayResult via_dispatch = replayKernel(view, spec);
    EXPECT_EQ(fallback.value(), fallback_before + 1);
    EXPECT_EQ(specialized.value(), specialized_before);

    // The fallback path is the reference path; results are identical.
    expectSameResult(via_dispatch, referenceReplay(view, spec));

    // Static kernels need no pc-indexed table, so they still
    // specialize on the same stream.
    KernelSpec taken;
    taken.kind = SchemeKind::AlwaysTaken;
    expectSameResult(replayKernel(view, taken),
                     referenceReplay(view, taken));
    EXPECT_EQ(specialized.value(), specialized_before + 1);
    EXPECT_EQ(fallback.value(), fallback_before + 1);
}

TEST(ReplayKernel, MixedEligibilityBatchSplitsFusedAndFallback)
{
    // On a tall-pc stream the fused walk takes the statics while the
    // pc-indexed schemes drop to the virtual fallback -- all within
    // one replayManyKernel call, with results in spec order.
    const trace::SoaTrace stream = tallPcStream();
    const trace::TraceView view = trace::TraceView::of(stream);
    ASSERT_GE(view.maxPc(), predict::kMaxKernelPc);

    const obs::Counter &fallback = obs::Registry::global().counter(
        "engine.replay.kernel.fallback");
    const obs::Counter &specialized =
        obs::Registry::global().counter(
            "engine.replay.kernel.specialized");
    const std::uint64_t fallback_before = fallback.value();
    const std::uint64_t specialized_before = specialized.value();

    KernelSpec sbtb; // pc-indexed: ineligible here
    KernelSpec taken;
    taken.kind = SchemeKind::AlwaysTaken;
    KernelSpec btfnt;
    btfnt.kind = SchemeKind::BackwardTaken;
    const std::vector<KernelSpec> specs{sbtb, taken, btfnt};

    const std::vector<ReplayResult> results =
        replayManyKernel(view, specs);
    ASSERT_EQ(results.size(), specs.size());
    EXPECT_EQ(specialized.value(), specialized_before + 2);
    EXPECT_EQ(fallback.value(), fallback_before + 1);
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameResult(results[i],
                         referenceReplay(view, specs[i]));
}

TEST(ReplayKernel, SpecializedCounterCountsEligibleReplays)
{
    const ExperimentConfig config = quickConfig();
    const RecordedWorkload &recorded = recordedFor("tee");
    const obs::Counter &specialized =
        obs::Registry::global().counter(
            "engine.replay.kernel.specialized");
    const std::uint64_t before = specialized.value();

    KernelSpec spec;
    spec.kind = SchemeKind::Sbtb;
    spec.btb = config.btb;
    replayKernel(recorded.traceView(), spec);
    EXPECT_EQ(specialized.value(), before + 1);
}

} // namespace
} // namespace branchlab::core
