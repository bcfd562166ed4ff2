/**
 * @file
 * Differential tests binding the specialized replay kernels to the
 * virtual-dispatch reference: every kernel the engine can select
 * must produce results bit-identical to replaying the same stream
 * through the predictor makePredictor() builds, across all ten paper
 * workloads, a sweep-style config grid, and the batch entry point.
 * Internal predictor state (BTB targets and counters) is held
 * identical too, not just the summary ratios. The closed-form scorer
 * of the stateless schemes is bound to both the kernels and the
 * reference the same way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "closed_form.hh"
#include "core/replay_kernel.hh"
#include "helpers.hh"
#include "obs/metrics.hh"
#include "predict/cbtb.hh"
#include "predict/sbtb.hh"
#include "profile/fs_opt.hh"
#include "support/random.hh"

namespace branchlab::core
{
namespace
{

/** A fast configuration: two runs. */
ExperimentConfig
quickConfig()
{
    ExperimentConfig config;
    config.runsOverride = 2;
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

/** The full scheme roster the engine replays. */
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

        predict::BufferConfig two_way;
        two_way.entries = 16;
        two_way.associativity = 2;
        buffers.push_back(two_way);
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
}

TEST(ReplayKernel, SbtbKernelTableMatchesSimpleBtb)
{
    const RecordedWorkload &recorded = recordedFor("wc");
    const predict::BufferConfig geometry; // paper config

    predict::SbtbKernel kernel(geometry);
    predict::walkKernels(recorded.traceView(), {&kernel});
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
    predict::walkKernels(recorded.traceView(), {&kernel});
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

    // Counter variants over shared geometries, a duplicated point, and
    // two Random-policy points that differ only in their seed.
    const std::vector<predict::BtbBatchPoint> points = {
        {set_assoc, {2, 2}}, {set_assoc, {1, 1}}, {set_assoc, {3, 4}},
        {set_assoc, {2, 1}}, {set_assoc, {2, 2}}, {random, {2, 2}},
        {reseeded, {2, 2}},  {random, {4, 8}},    {set_assoc, {2, 3}},
    };
    const std::size_t distinct_geometries = 3;

    obs::Counter &sbtb_lookups =
        obs::Registry::global().counter("predict.sbtb.lookups");
    const std::uint64_t lookups_before = sbtb_lookups.value();
    const std::vector<predict::BtbBatchCell> cells =
        replayBatch(recorded.traceView(), points);
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
        replayBatch(recorded.traceView(), permuted);
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

TEST(ReplayKernel, BatchOnATallPcStreamMatchesTheReference)
{
    // Past the flat-table bound no BTB kernel takes the stream, so
    // every point's pair of predictors takes the virtual path.
    const trace::SoaTrace stream = tallPcStream();
    const trace::TraceView view = trace::TraceView::of(stream);
    ASSERT_GE(view.maxPc(), predict::kMaxKernelPc);

    predict::BufferConfig set_assoc;
    set_assoc.entries = 4;
    set_assoc.associativity = 2;
    predict::BufferConfig random;
    random.entries = 4;
    random.associativity = 4;
    random.policy = predict::ReplacementPolicy::Random;
    random.seed = 7;
    const std::vector<predict::BtbBatchPoint> points = {
        {predict::BufferConfig{}, predict::CounterConfig{}},
        {set_assoc, {2, 2}},
        {set_assoc, {1, 1}},
        {random, {3, 4}},
    };

    auto &registry = obs::Registry::global();
    const obs::Counter &fallback =
        registry.counter("engine.replay.kernel.fallback");
    const obs::Counter &specialized =
        registry.counter("engine.replay.kernel.specialized");
    const obs::Counter &batch =
        registry.counter("engine.replay.kernel.batch");
    const std::uint64_t fallback_before = fallback.value();
    const std::uint64_t specialized_before = specialized.value();
    const std::uint64_t batch_before = batch.value();
    const std::vector<predict::BtbBatchCell> cells =
        replayBatch(view, points);
    EXPECT_EQ(fallback.value(), fallback_before + 2 * points.size());
    EXPECT_EQ(specialized.value(), specialized_before);
    EXPECT_EQ(batch.value(), batch_before);

    ASSERT_EQ(cells.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        SCOPED_TRACE("point " + std::to_string(p));
        KernelSpec spec;
        spec.kind = SchemeKind::Sbtb;
        spec.btb = points[p].btb;
        const ReplayResult sbtb = referenceReplay(view, spec);
        EXPECT_TRUE(cells[p].sbtb.hasMissRatio);
        EXPECT_EQ(cells[p].sbtb.missRatio, sbtb.missRatio);
        expectSameStats(cells[p].sbtb.stats, sbtb.stats);

        spec.kind = SchemeKind::Cbtb;
        spec.counter = points[p].counter;
        const ReplayResult cbtb = referenceReplay(view, spec);
        EXPECT_TRUE(cells[p].cbtb.hasMissRatio);
        EXPECT_EQ(cells[p].cbtb.missRatio, cbtb.missRatio);
        expectSameStats(cells[p].cbtb.stats, cbtb.stats);
    }
}

TEST(ReplayKernel, SpecializedCounterCountsEligibleReplays)
{
    const ExperimentConfig config = quickConfig();
    const RecordedWorkload &recorded = recordedFor("tee");
    const obs::Counter &specialized =
        obs::Registry::global().counter(
            "engine.replay.kernel.specialized");
    const obs::Counter &schemes =
        obs::Registry::global().counter("engine.replay.schemes");
    const std::uint64_t before = specialized.value();
    const std::uint64_t schemes_before = schemes.value();

    KernelSpec spec;
    spec.kind = SchemeKind::Sbtb;
    spec.btb = config.btb;
    replayKernel(recorded.traceView(), spec);
    EXPECT_EQ(specialized.value(), before + 1);
    // One spec, one scheme, as replayManyKernel counts them.
    EXPECT_EQ(schemes.value(), schemes_before + 1);
}

// ---------------------------------------------------------------------
// The closed form: stateless schemes scored from per-pc tallies
// ---------------------------------------------------------------------

/** A program's stream and the profile folded from it, recorded over
 *  @p inputs (one VM run each; none runs once with no input). */
struct Folded
{
    trace::SoaTrace stream;
    std::unique_ptr<profile::ProgramProfile> profile;
};

Folded
foldRuns(const ir::Program &program, const ir::Layout &layout,
         const std::vector<workloads::WorkloadInput> &inputs)
{
    Folded folded;
    folded.profile =
        std::make_unique<profile::ProgramProfile>(program, layout);
    trace::SoaRecorder recorder;
    trace::FanoutSink fanout;
    fanout.addSink(&recorder);
    fanout.addSink(folded.profile.get());
    // Every run is noted before the first event, as recordWorkload does.
    const std::size_t runs = std::max<std::size_t>(inputs.size(), 1);
    for (std::size_t r = 0; r < runs; ++r)
        folded.profile->noteRun();
    for (std::size_t r = 0; r < runs; ++r) {
        vm::Machine machine(program, layout);
        if (r < inputs.size()) {
            for (std::size_t chan = 0;
                 chan < inputs[r].channels.size(); ++chan)
                machine.setInput(static_cast<int>(chan),
                                 inputs[r].channels[chan]);
        }
        machine.setSink(&fanout);
        machine.run();
    }
    folded.stream = recorder.take();
    return folded;
}

TEST(ClosedForm, MatchesKernelAndReferenceOnEveryWorkload)
{
    ExperimentConfig paper;
    ExperimentConfig one_run;
    one_run.runsOverride = 1;
    for (const ExperimentConfig &config : {paper, one_run}) {
        SCOPED_TRACE("runsOverride " +
                     std::to_string(config.runsOverride));
        for (const workloads::Workload *workload :
             workloads::allWorkloads()) {
            SCOPED_TRACE(workload->name());
            const RecordedWorkload recorded =
                recordWorkload(*workload, config);
            test::expectClosedFormMatches(recorded.traceView(),
                                          *recorded.profile,
                                          recorded.likelyMap);
        }
    }
}

TEST(ClosedForm, ScoresATestHalfWithItsTrainHalfsLikelyMap)
{
    // bench/ablation_fs_generalization's split: the likely map comes
    // from other inputs, so it misses pcs the test half executes and
    // holds pcs the test half never reaches.
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        SCOPED_TRACE(workload->name());
        const ir::Program program = workload->buildProgram();
        const ir::Layout layout(program);
        Rng rng(777 ^ hashString(workload->name()));
        const std::vector<workloads::WorkloadInput> inputs =
            workload->makeInputs(rng, workload->defaultRuns());
        const auto split =
            inputs.begin() + static_cast<std::ptrdiff_t>(inputs.size() / 2);
        const Folded train =
            foldRuns(program, layout, {inputs.begin(), split});
        const Folded test = foldRuns(program, layout, {split, inputs.end()});
        test::expectClosedFormMatches(trace::TraceView::of(test.stream),
                                      *test.profile,
                                      train.profile->buildLikelyMap());
    }
}

/** A conditional whose target is its own fall-through, a JTab, a
 *  direct Call, a CallInd and a Ret, each run many times with varying
 *  outcomes and targets. */
ir::Program
buildEdgeCases()
{
    using ir::IrBuilder;
    using ir::Reg;
    ir::Program program("edges");
    IrBuilder b(program);
    const ir::FuncId helper = b.beginFunction("helper", 1);
    b.ret(b.addi(b.arg(0), 1));
    b.endFunction();
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg acc = b.newReg();
    b.ldiTo(i, 12);
    b.ldiTo(acc, 0);
    b.doWhile(
        [&] {
            const ir::BlockId same = b.newBlock("same");
            b.branch(IrBuilder::cmpEqi(b.remi(i, 2), 0), same, same);
            std::vector<ir::BlockId> cases;
            for (int k = 0; k < 3; ++k)
                cases.push_back(b.newBlock("case" + std::to_string(k)));
            const ir::BlockId join = b.newBlock("join");
            b.jumpTable(b.remi(i, 3), cases);
            for (int k = 0; k < 3; ++k) {
                b.setBlock(cases[static_cast<std::size_t>(k)]);
                b.emitBinaryImmTo(ir::Opcode::Add, acc, acc, k);
                b.jmp(join);
            }
            b.setBlock(join);
            b.movTo(acc, b.callInd(b.ldf(helper), {acc}));
            b.movTo(acc, b.call(helper, {acc}));
            b.emitBinaryImmTo(ir::Opcode::Sub, i, i, 1);
        },
        [&] { return IrBuilder::cmpGti(i, 0); });
    b.out(acc, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(program);
    return program;
}

TEST(ClosedForm, ScoresEdgeCaseBranches)
{
    const ir::Program program = buildEdgeCases();
    const ir::Layout layout(program);
    const Folded folded = foldRuns(program, layout, {});

    // The conditional that continues at one pc either way is the case
    // a nextCounts sum gets wrong: make sure it ran both ways.
    const std::optional<std::vector<profile::BranchSite>> sites =
        folded.profile->branchSites();
    ASSERT_TRUE(sites.has_value());
    bool merged_both_ways = false;
    for (const profile::BranchSite &site : *sites) {
        const profile::BranchCounts &counts = *site.counts;
        if (site.query.conditional && counts.taken > 0 &&
            counts.notTaken > 0 &&
            counts.nextCount(site.query.staticTarget) ==
                counts.executions())
            merged_both_ways = true;
    }
    ASSERT_TRUE(merged_both_ways);
    test::expectClosedFormMatches(trace::TraceView::of(folded.stream),
                                  *folded.profile,
                                  folded.profile->buildLikelyMap());
}

TEST(ClosedForm, RefusesAProfileTallyingANonBranchPc)
{
    const ir::Program program = test::buildCountdown(6);
    const ir::Layout layout(program);
    Folded folded = foldRuns(program, layout, {});
    // One event at main's first instruction, an Ldi.
    trace::BranchEvent stray;
    stray.pc = layout.funcEntry(0);
    stray.nextPc = stray.targetAddr = stray.pc + 1;
    stray.fallthroughAddr = stray.pc + 1;
    folded.stream.append(stray);
    folded.profile->onBranch(stray);
    ASSERT_FALSE(folded.profile->branchSites().has_value());
    EXPECT_FALSE(profile::fsOptAccuracyFromProfile(*folded.profile,
                                                   profile::FsOptResult{})
                     .has_value());

    const trace::TraceView view = trace::TraceView::of(folded.stream);
    const predict::LikelyMap likely = folded.profile->buildLikelyMap();
    std::vector<KernelSpec> specs;
    for (const auto &[name, spec] : test::statelessSpecs(likely)) {
        EXPECT_FALSE(scoreClosedForm(*folded.profile, spec).has_value())
            << name;
        specs.push_back(spec);
    }
    // Refused specs walk their kernels, and count as kernel replays.
    auto &registry = obs::Registry::global();
    const obs::Counter &closed =
        registry.counter("engine.replay.closed_form");
    const obs::Counter &specialized =
        registry.counter("engine.replay.kernel.specialized");
    const std::uint64_t closed_before = closed.value();
    const std::uint64_t specialized_before = specialized.value();
    const std::vector<ReplayResult> results =
        replayProfiled(view, *folded.profile, specs);
    EXPECT_EQ(closed.value(), closed_before);
    EXPECT_EQ(specialized.value(), specialized_before + specs.size());
    const std::vector<ReplayResult> kernels = replayManyKernel(view, specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameResult(results[i], kernels[i]);
}

TEST(ClosedForm, ReplayProfiledWalksOnlyTheStatefulSchemes)
{
    const ExperimentConfig config = quickConfig();
    const RecordedWorkload &recorded = recordedFor("tee");
    const auto named = paperSpecs(recorded, config);
    std::vector<KernelSpec> specs;
    for (const auto &[name, spec] : named)
        specs.push_back(spec);

    auto &registry = obs::Registry::global();
    const obs::Counter &closed =
        registry.counter("engine.replay.closed_form");
    const obs::Counter &per_pc = registry.counter("engine.replay.per_pc");
    const obs::Counter &schemes = registry.counter("engine.replay.schemes");
    const std::uint64_t closed_before = closed.value();
    const std::uint64_t per_pc_before = per_pc.value();
    const std::uint64_t schemes_before = schemes.value();
    const std::vector<ReplayResult> results =
        replayProfiled(recorded.traceView(), *recorded.profile, specs);
    // Five stateless specs scored in closed form; SBTB and CBTB, whose
    // 256-entry buffers never fill, per pc: nothing walks.
    EXPECT_EQ(closed.value(), closed_before + 5);
    EXPECT_EQ(per_pc.value(), per_pc_before + 2);
    EXPECT_EQ(schemes.value(), schemes_before);

    const std::vector<ReplayResult> kernels =
        replayManyKernel(recorded.traceView(), specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(named[i].first);
        expectSameResult(results[i], kernels[i]);
    }
}

// ---------------------------------------------------------------------
// The per-pc scorer: non-evicting SBTB and CBTB from per-pc histories
// ---------------------------------------------------------------------

KernelSpec
btbSpec(SchemeKind kind, const predict::BufferConfig &btb,
        const predict::CounterConfig &counter = {})
{
    KernelSpec spec;
    spec.kind = kind;
    spec.btb = btb;
    spec.counter = counter;
    return spec;
}

/** The pcs a @p kind buffer competes for: every pc ever taken for an
 *  SBTB, every executed pc for a CBTB. */
std::vector<ir::Addr>
candidatePcs(const profile::ProgramProfile &profile, SchemeKind kind)
{
    const std::optional<std::vector<profile::BranchSite>> sites =
        profile.branchSites();
    std::vector<ir::Addr> pcs;
    for (const profile::BranchSite &site : *sites) {
        if (kind == SchemeKind::Cbtb || site.counts->taken != 0)
            pcs.push_back(site.query.pc);
    }
    return pcs;
}

/** The most of @p pcs any one set of @p btb holds. */
std::size_t
fullestSet(const predict::BufferConfig &btb, const std::vector<ir::Addr> &pcs)
{
    const predict::BufferGeometry geometry(btb);
    std::vector<std::size_t> load(geometry.sets(), 0);
    for (const ir::Addr pc : pcs)
        ++load[geometry.setOf(pc)];
    return *std::max_element(load.begin(), load.end());
}

/** The first @p ways-way geometry with a power-of-two set count whose
 *  fullest set holds exactly @p load of @p pcs (entries 0: none). */
predict::BufferConfig
geometryWithLoad(std::size_t ways, std::size_t load,
                 const std::vector<ir::Addr> &pcs)
{
    for (std::size_t sets = 1; sets <= (std::size_t{1} << 16); sets *= 2) {
        predict::BufferConfig btb;
        btb.entries = sets * ways;
        btb.associativity = ways;
        if (fullestSet(btb, pcs) == load)
            return btb;
    }
    return predict::BufferConfig{0};
}

/** @p spec is refused by the per-pc scorer, and replayProfiled walks
 *  it to its kernel's result. */
void
expectWalked(const trace::TraceView &view,
             const profile::ProgramProfile &profile, const KernelSpec &spec)
{
    EXPECT_FALSE(scorePerPc(view, profile, spec).has_value());
    const obs::Counter &schemes =
        obs::Registry::global().counter("engine.replay.schemes");
    const std::uint64_t schemes_before = schemes.value();
    const ReplayResult walked = replayProfiled(view, profile, {spec}).front();
    EXPECT_EQ(schemes.value(), schemes_before + 1);
    expectSameResult(walked, replayKernel(view, spec));
}

TEST(PerPc, MatchesKernelAndReferenceOnEveryWorkload)
{
    ExperimentConfig paper;
    ExperimentConfig one_run;
    one_run.runsOverride = 1;
    for (const ExperimentConfig &config : {paper, one_run}) {
        SCOPED_TRACE("runsOverride " +
                     std::to_string(config.runsOverride));
        for (const workloads::Workload *workload :
             workloads::allWorkloads()) {
            SCOPED_TRACE(workload->name());
            const RecordedWorkload recorded =
                recordWorkload(*workload, config);
            const profile::ProgramProfile &online = *recorded.profile;
            // A restored profile scores exactly as the online one.
            const profile::ProgramProfile restored(
                online.program(), online.layout(), online.runs(),
                online.exportRows());
            for (const SchemeKind kind :
                 {SchemeKind::Sbtb, SchemeKind::Cbtb}) {
                const KernelSpec spec =
                    btbSpec(kind, config.btb, config.counter);
                test::expectPerPcMatches(recorded.traceView(), online,
                                         spec);
                const auto from_online =
                    scorePerPc(recorded.traceView(), online, spec);
                const auto from_restored =
                    scorePerPc(recorded.traceView(), restored, spec);
                ASSERT_TRUE(from_online && from_restored);
                expectSameResult(*from_restored, *from_online);
            }
        }
    }
}

TEST(PerPc, EveryCounterWidthAndThreshold)
{
    const predict::BufferConfig paper;
    std::vector<predict::CounterConfig> counters;
    for (unsigned bits = 1; bits <= 5; ++bits) {
        for (unsigned threshold = 1; threshold < (1u << bits); ++threshold)
            counters.push_back({bits, threshold});
    }
    for (const unsigned threshold : {1u, 2u, 1u << 15, (1u << 16) - 1})
        counters.push_back({16, threshold});
    for (const workloads::Workload *workload : workloads::allWorkloads()) {
        SCOPED_TRACE(workload->name());
        const RecordedWorkload &recorded = recordedFor(workload->name());
        for (const predict::CounterConfig &counter : counters) {
            SCOPED_TRACE("bits " + std::to_string(counter.bits) +
                         " threshold " + std::to_string(counter.threshold));
            test::expectPerPcMatches(
                recorded.traceView(), *recorded.profile,
                btbSpec(SchemeKind::Cbtb, paper, counter));
        }
    }
}

/** A conditional branch's history of @p outcomes. */
profile::BranchHistory
historyOf(const std::vector<bool> &outcomes)
{
    profile::BranchHistory history;
    history.conditional = true;
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        history.add(i, outcomes[i], ir::kNoAddr);
    return history;
}

/** @p n outcomes, outcome i being @p taken(i). */
template <typename Taken>
std::vector<bool>
outcomesOf(std::uint64_t n, Taken &&taken)
{
    std::vector<bool> outcomes(n);
    for (std::uint64_t i = 0; i < n; ++i)
        outcomes[i] = taken(i);
    return outcomes;
}

TEST(PerPc, RunLengthStepMatchesTheBitSerialModel)
{
    // Every counter width's edge thresholds: 1, 2 where legal, the
    // ceiling, and 2^15 at 16 bits.
    std::vector<predict::CounterConfig> counters;
    for (const unsigned bits : {1u, 2u, 5u, 16u}) {
        const unsigned ceiling = (1u << bits) - 1;
        std::set<unsigned> thresholds = {1, ceiling};
        if (bits >= 2)
            thresholds.insert(2);
        if (bits == 16)
            thresholds.insert(1u << 15);
        for (const unsigned threshold : thresholds)
            counters.push_back({bits, threshold});
    }

    std::vector<std::pair<std::string, std::vector<bool>>> histories;
    for (const std::uint64_t n : {1, 2, 63, 64, 65, 127, 128, 129}) {
        const std::string at = " n " + std::to_string(n);
        const auto add = [&](const std::string &name, auto taken) {
            histories.emplace_back(name + at, outcomesOf(n, taken));
        };
        add("all taken", [](std::uint64_t) { return true; });
        add("all not taken", [](std::uint64_t) { return false; });
        add("alternating", [](std::uint64_t i) { return i % 2 == 0; });
        add("alternating from not taken",
            [](std::uint64_t i) { return i % 2 == 1; });
        // Runs that end exactly on a word boundary, and one before it.
        add("word runs", [](std::uint64_t i) { return i / 64 % 2 == 0; });
        add("word runs from not taken",
            [](std::uint64_t i) { return i / 64 % 2 == 1; });
        add("runs ending at bit 62",
            [](std::uint64_t i) { return (i + 1) / 64 % 2 == 0; });
        // Runs of 7: past a 1- or 2-bit counter's ceiling, inside a
        // 5-bit counter's range.
        add("runs of 7", [](std::uint64_t i) { return i / 7 % 2 == 0; });
        Rng rng(n);
        std::vector<bool> random(n);
        for (std::uint64_t i = 0; i < n; ++i)
            random[i] = rng.nextBool(0.7);
        histories.emplace_back("random" + at, random);
    }
    // Runs longer than a 16-bit counter's ceiling, in both directions
    // and across many words.
    const std::uint64_t past_ceiling = (1u << 16) + 2;
    histories.emplace_back(
        "runs past the 16-bit ceiling",
        outcomesOf(3 * past_ceiling + 5, [&](std::uint64_t i) {
            return i / past_ceiling % 2 == 0;
        }));
    histories.emplace_back(
        "runs past the 16-bit ceiling from not taken",
        outcomesOf(3 * past_ceiling + 5, [&](std::uint64_t i) {
            return i / past_ceiling % 2 == 1;
        }));

    for (const auto &[name, outcomes] : histories) {
        SCOPED_TRACE(name);
        const profile::BranchHistory history = historyOf(outcomes);
        const std::uint64_t n = outcomes.size();
        for (const predict::CounterConfig &counter : counters) {
            SCOPED_TRACE("bits " + std::to_string(counter.bits) +
                         " threshold " + std::to_string(counter.threshold));
            const CounterScore model =
                test::bitSerialCounterScore(history, n, counter);
            const CounterScore scored =
                scoreCounterHistory(history, n, counter);
            EXPECT_EQ(scored.correct, model.correct);
            EXPECT_EQ(scored.predictedTaken, model.predictedTaken);
        }
    }
}

TEST(PerPc, ScoresEveryGeometryAtCapacityAndWalksOnePast)
{
    // Fully associative, direct-mapped, 2- and 4-way buffers whose
    // fullest set holds exactly as many candidate pcs as it has ways
    // never evict, under every policy, and are scored; one candidate
    // more and they are walked.
    const RecordedWorkload &recorded = recordedFor("wc");
    const trace::TraceView view = recorded.traceView();
    const profile::ProgramProfile &profile = *recorded.profile;
    for (const SchemeKind kind : {SchemeKind::Sbtb, SchemeKind::Cbtb}) {
        SCOPED_TRACE(kind == SchemeKind::Sbtb ? "SBTB" : "CBTB");
        const std::vector<ir::Addr> pcs = candidatePcs(profile, kind);
        std::vector<std::pair<predict::BufferConfig, predict::BufferConfig>>
            geometries;
        predict::BufferConfig full_at;
        full_at.entries = pcs.size();
        predict::BufferConfig full_past = full_at;
        full_past.entries = pcs.size() - 1;
        geometries.emplace_back(full_at, full_past);
        for (const std::size_t ways : {1, 2, 4}) {
            geometries.emplace_back(geometryWithLoad(ways, ways, pcs),
                                    geometryWithLoad(ways, ways + 1, pcs));
        }
        for (const auto &[at, past] : geometries) {
            SCOPED_TRACE("ways " + std::to_string(at.associativity));
            ASSERT_NE(at.entries, 0u) << "no geometry at capacity";
            ASSERT_NE(past.entries, 0u) << "no geometry one past it";
            for (const predict::ReplacementPolicy policy :
                 {predict::ReplacementPolicy::Lru,
                  predict::ReplacementPolicy::Fifo,
                  predict::ReplacementPolicy::Random}) {
                SCOPED_TRACE(predict::policyName(policy));
                predict::BufferConfig scored = at;
                scored.policy = policy;
                test::expectPerPcMatches(view, profile,
                                         btbSpec(kind, scored));
                predict::BufferConfig walked = past;
                walked.policy = policy;
                expectWalked(view, profile, btbSpec(kind, walked));
            }
        }
    }
}

/** A loop over @p k conditionals in a row, each continuing at the next
 *  either way and taken on a different stride: k + 1 conditional pcs
 *  with the loop's own, all executed both ways. */
ir::Program
buildChain(int k)
{
    using ir::IrBuilder;
    ir::Program program("chain");
    IrBuilder b(program);
    b.beginFunction("main");
    const ir::Reg i = b.newReg();
    b.ldiTo(i, 12);
    b.doWhile(
        [&] {
            for (int c = 0; c < k; ++c) {
                const ir::BlockId next =
                    b.newBlock("after" + std::to_string(c));
                b.branch(IrBuilder::cmpEqi(b.remi(i, c + 2), 0), next,
                         next);
            }
            b.emitBinaryImmTo(ir::Opcode::Sub, i, i, 1);
        },
        [&] { return IrBuilder::cmpGti(i, 0); });
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(program);
    return program;
}

TEST(PerPc, ThreeSetsTakeTheModuloPath)
{
    // 12 entries, 4 ways: three sets, so the set index is a modulo,
    // not a mask. Chains of growing length fill the fullest set to
    // exactly 4 pcs (scored) and then to 5 (walked).
    predict::BufferConfig btb;
    btb.entries = 12;
    btb.associativity = 4;
    bool scored = false;
    bool walked = false;
    for (int k = 1; k <= 16 && !(scored && walked); ++k) {
        const ir::Program program = buildChain(k);
        const ir::Layout layout(program);
        const Folded folded = foldRuns(program, layout, {});
        const trace::TraceView view = trace::TraceView::of(folded.stream);
        const profile::ProgramProfile &profile = *folded.profile;
        for (const SchemeKind kind : {SchemeKind::Sbtb, SchemeKind::Cbtb}) {
            SCOPED_TRACE("chain " + std::to_string(k));
            const std::size_t load =
                fullestSet(btb, candidatePcs(profile, kind));
            if (load == 4) {
                test::expectPerPcMatches(view, profile, btbSpec(kind, btb));
                scored = true;
            } else if (load == 5) {
                expectWalked(view, profile, btbSpec(kind, btb));
                walked = true;
            }
        }
    }
    EXPECT_TRUE(scored) << "no chain fills a set to its 4 ways";
    EXPECT_TRUE(walked) << "no chain puts a fifth pc in a set";
}

TEST(PerPc, ScoresTheSbtbWhenOnlyTheCbtbEvicts)
{
    // Only taken pcs compete for an SBTB, so a buffer as large as the
    // pcs ever taken fits it but not the CBTB, for which every
    // executed pc competes.
    const RecordedWorkload &recorded = recordedFor("grep");
    const trace::TraceView view = recorded.traceView();
    const profile::ProgramProfile &profile = *recorded.profile;
    predict::BufferConfig btb;
    btb.entries = candidatePcs(profile, SchemeKind::Sbtb).size();
    ASSERT_LT(btb.entries, candidatePcs(profile, SchemeKind::Cbtb).size());
    test::expectPerPcMatches(view, profile, btbSpec(SchemeKind::Sbtb, btb));
    expectWalked(view, profile, btbSpec(SchemeKind::Cbtb, btb));
}

TEST(PerPc, RefusesAStreamWithAnAnomalousEvent)
{
    const ir::Program program = buildEdgeCases();
    const ir::Layout layout(program);
    Folded folded = foldRuns(program, layout, {});
    const predict::BufferConfig paper;
    ASSERT_TRUE(scorePerPc(trace::TraceView::of(folded.stream),
                           *folded.profile, btbSpec(SchemeKind::Sbtb, paper))
                    .has_value());
    // One more execution of the first conditional, taken but
    // continuing at its fall-through: an anomalous next.
    trace::BranchEvent odd;
    const std::optional<std::vector<profile::BranchSite>> sites =
        folded.profile->branchSites();
    for (const profile::BranchSite &site : *sites) {
        if (site.query.conditional) {
            odd.pc = site.query.pc;
            odd.op = site.query.op;
            odd.targetAddr = site.query.staticTarget;
            break;
        }
    }
    odd.conditional = true;
    odd.taken = true;
    odd.fallthroughAddr = odd.pc + 1;
    odd.nextPc = odd.pc + 1;
    ASSERT_NE(odd.nextPc, odd.targetAddr);
    folded.stream.append(odd);
    folded.profile->onBranch(odd);
    const trace::TraceView view = trace::TraceView::of(folded.stream);
    ASSERT_TRUE(view.hasAnomalies());
    for (const SchemeKind kind : {SchemeKind::Sbtb, SchemeKind::Cbtb}) {
        const KernelSpec spec = btbSpec(kind, paper);
        expectWalked(view, *folded.profile, spec);
        expectSameResult(replayKernel(view, spec),
                         referenceReplay(view, spec));
    }
}

TEST(PerPc, BatchScoresFittingCellsAndWalksTheRest)
{
    // A batch with fitting and evicting geometries: given the profile
    // it scores the first, walks the second in one batch walk, and
    // every cell and every telemetry count equals the profile-less
    // batch, which walks them all.
    const RecordedWorkload &recorded = recordedFor("cccp");
    const trace::TraceView view = recorded.traceView();
    std::vector<predict::BtbBatchPoint> points(4);
    points[1].counter = {1, 1};
    points[2].btb.entries = 16;
    points[2].btb.associativity = 2;
    points[3].btb.entries = 32;
    points[3].counter = {3, 4};
    for (const predict::BtbBatchPoint &point : points) {
        const bool fits = fullestSet(point.btb, candidatePcs(
                                                    *recorded.profile,
                                                    SchemeKind::Cbtb)) <=
                          predict::BufferGeometry(point.btb).ways();
        ASSERT_EQ(fits, point.btb.entries == 256);
    }

    auto &registry = obs::Registry::global();
    const obs::Counter &batch = registry.counter("engine.replay.kernel.batch");
    const obs::Counter &per_pc = registry.counter("engine.replay.per_pc");
    const obs::Counter &schemes = registry.counter("engine.replay.schemes");
    const std::uint64_t batch_before = batch.value();
    const std::uint64_t per_pc_before = per_pc.value();
    const std::uint64_t schemes_before = schemes.value();
    std::vector<predict::BtbBatchCell> profiled;
    const auto profiled_adds = test::btbLookupsAddedBy([&] {
        profiled = replayBatch(view, *recorded.profile, points);
    });
    EXPECT_EQ(batch.value(), batch_before + 1);
    EXPECT_EQ(per_pc.value(), per_pc_before + 4);
    EXPECT_EQ(schemes.value(), schemes_before + 4);
    std::vector<predict::BtbBatchCell> walked;
    const auto walked_adds = test::btbLookupsAddedBy(
        [&] { walked = replayBatch(view, points); });
    EXPECT_EQ(profiled_adds, walked_adds);
    ASSERT_EQ(profiled.size(), walked.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        SCOPED_TRACE("point " + std::to_string(p));
        for (const auto &[a, b] :
             {std::pair(profiled[p].sbtb, walked[p].sbtb),
              std::pair(profiled[p].cbtb, walked[p].cbtb)}) {
            expectSameStats(a.stats, b.stats);
            EXPECT_EQ(a.missRatio, b.missRatio);
            EXPECT_EQ(a.hasMissRatio, b.hasMissRatio);
        }
    }

    // A batch that only fits walks nothing, so it is no batch walk.
    const std::uint64_t batch_after = batch.value();
    replayBatch(view, *recorded.profile, {points[0], points[1]});
    EXPECT_EQ(batch.value(), batch_after);
}

} // namespace
} // namespace branchlab::core
