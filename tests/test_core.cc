/**
 * @file
 * Tests for the experiment runner, the table formatters, and the
 * figure generators.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/figures.hh"
#include "core/runner.hh"
#include "core/tables.hh"
#include "predict/cbtb.hh"
#include "predict/profile_predictor.hh"
#include "predict/sbtb.hh"
#include "predict/static_predictors.hh"
#include "profile/fs_opt.hh"
#include "profile/profile.hh"
#include "support/logging.hh"
#include "trace/record.hh"
#include "vm/machine.hh"
#include "vm/predecode.hh"

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

/** Run one small benchmark once per test binary. */
const BenchmarkResult &
wcResult()
{
    static const BenchmarkResult result =
        ExperimentRunner(quickConfig())
            .runBenchmark(workloads::findWorkload("wc"));
    return result;
}

TEST(ExperimentRunner, PopulatesEveryField)
{
    const BenchmarkResult &result = wcResult();
    EXPECT_EQ(result.name, "wc");
    EXPECT_EQ(result.runs, 2u);
    EXPECT_GT(result.staticSize, 0u);
    EXPECT_GT(result.stats.instructions(), 0u);
    EXPECT_GT(result.stats.branches(), 0u);

    for (const SchemeResult *scheme :
         {&result.sbtb, &result.cbtb, &result.fs}) {
        EXPECT_GE(scheme->accuracy, 0.0);
        EXPECT_LE(scheme->accuracy, 1.0);
    }
    EXPECT_TRUE(result.sbtb.hasMissRatio);
    EXPECT_TRUE(result.cbtb.hasMissRatio);
    EXPECT_FALSE(result.fs.hasMissRatio);
    EXPECT_EQ(result.staticSchemes.size(), 4u);
    EXPECT_EQ(result.codeIncrease.size(), 4u);
}

TEST(ExperimentRunner, SchemeLookupByName)
{
    const BenchmarkResult &result = wcResult();
    EXPECT_EQ(result.scheme("SBTB").accuracy, result.sbtb.accuracy);
    EXPECT_EQ(result.scheme("FS").accuracy, result.fs.accuracy);
    EXPECT_EQ(result.scheme("btfnt").scheme, "btfnt");
    EXPECT_THROW(result.scheme("nonesuch"), ConfigFailure);
}

TEST(ExperimentRunner, CodeIncreaseIsLinearInSlots)
{
    const BenchmarkResult &result = wcResult();
    const double per_slot = result.codeIncrease.at(1);
    for (const auto &[slots, increase] : result.codeIncrease)
        EXPECT_NEAR(increase, per_slot * slots, 1e-9);
}

TEST(ExperimentRunner, SameSeedReproducesBitForBit)
{
    ExperimentConfig config = quickConfig();
    const BenchmarkResult a = ExperimentRunner(config).runBenchmark(
        workloads::findWorkload("cmp"));
    const BenchmarkResult b = ExperimentRunner(config).runBenchmark(
        workloads::findWorkload("cmp"));
    EXPECT_EQ(a.sbtb.accuracy, b.sbtb.accuracy);
    EXPECT_EQ(a.cbtb.accuracy, b.cbtb.accuracy);
    EXPECT_EQ(a.fs.accuracy, b.fs.accuracy);
    EXPECT_EQ(a.stats.instructions(), b.stats.instructions());
}

TEST(ExperimentRunner, DifferentSeedsChangeTheInputs)
{
    ExperimentConfig config = quickConfig();
    const BenchmarkResult a = ExperimentRunner(config).runBenchmark(
        workloads::findWorkload("cmp"));
    config.seed ^= 0x1234;
    const BenchmarkResult b = ExperimentRunner(config).runBenchmark(
        workloads::findWorkload("cmp"));
    EXPECT_NE(a.stats.instructions(), b.stats.instructions());
}

TEST(ExperimentRunner, RecordAndReplayMatchesTheOnlineRun)
{
    ExperimentConfig config = quickConfig();
    const RecordedWorkload recorded =
        recordWorkload(workloads::findWorkload("tee"), config);
    EXPECT_FALSE(recorded.stream.empty());
    EXPECT_EQ(recorded.stats.branches(), recorded.stream.size());

    // Replaying the recorded stream through a fresh SBTB must land on
    // exactly the accuracy the online pass measured.
    predict::SimpleBtb sbtb(config.btb);
    const double replayed = replayAccuracy(recorded, sbtb);
    const BenchmarkResult online = ExperimentRunner(config).runBenchmark(
        workloads::findWorkload("tee"));
    EXPECT_EQ(replayed, online.sbtb.accuracy);
}

TEST(ExperimentRunner, ReplayReturnsThePerSchemeMissRatio)
{
    ExperimentConfig config = quickConfig();
    const RecordedWorkload recorded =
        recordWorkload(workloads::findWorkload("tee"), config);
    const BenchmarkResult online = ExperimentRunner(config).runBenchmark(
        workloads::findWorkload("tee"));

    predict::SimpleBtb sbtb(config.btb);
    const ReplayResult sbtb_replay = replay(recorded, sbtb);
    EXPECT_TRUE(sbtb_replay.hasMissRatio);
    EXPECT_EQ(sbtb_replay.missRatio, online.sbtb.missRatio);
    EXPECT_EQ(sbtb_replay.accuracy, online.sbtb.accuracy);
    EXPECT_EQ(sbtb_replay.stats.accuracy.total(),
              recorded.stream.size());

    // Schemes without a buffer report no miss ratio.
    predict::ProfilePredictor fs(recorded.likelyMap);
    const ReplayResult fs_replay = replay(recorded, fs);
    EXPECT_FALSE(fs_replay.hasMissRatio);
    EXPECT_EQ(fs_replay.missRatio, 0.0);
}

/** Compare everything two engine configurations measure. */
void
expectIdenticalResults(const std::vector<BenchmarkResult> &a,
                       const std::vector<BenchmarkResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const BenchmarkResult &x = a[i];
        const BenchmarkResult &y = b[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.runs, y.runs);
        EXPECT_EQ(x.staticSize, y.staticSize);
        EXPECT_EQ(x.sbtb.accuracy, y.sbtb.accuracy) << x.name;
        EXPECT_EQ(x.sbtb.missRatio, y.sbtb.missRatio) << x.name;
        EXPECT_EQ(x.cbtb.accuracy, y.cbtb.accuracy) << x.name;
        EXPECT_EQ(x.cbtb.missRatio, y.cbtb.missRatio) << x.name;
        EXPECT_EQ(x.fs.accuracy, y.fs.accuracy) << x.name;
        ASSERT_EQ(x.staticSchemes.size(), y.staticSchemes.size());
        for (std::size_t s = 0; s < x.staticSchemes.size(); ++s) {
            EXPECT_EQ(x.staticSchemes[s].scheme,
                      y.staticSchemes[s].scheme);
            EXPECT_EQ(x.staticSchemes[s].accuracy,
                      y.staticSchemes[s].accuracy)
                << x.name;
        }
        EXPECT_EQ(x.stats.instructions(), y.stats.instructions())
            << x.name;
        EXPECT_EQ(x.stats.branches(), y.stats.branches()) << x.name;
        EXPECT_EQ(x.stats.conditionalTaken(), y.stats.conditionalTaken())
            << x.name;
        EXPECT_EQ(x.stats.unconditionalKnown(),
                  y.stats.unconditionalKnown())
            << x.name;
        EXPECT_EQ(x.codeIncrease, y.codeIncrease) << x.name;
    }
}

/**
 * The reference the engine is held to: the paper's method run
 * straight from the VM's own events through the virtual-dispatch
 * predictors -- no SoA encoder, no view, no kernel. One pass over the
 * input suite drives SBTB, CBTB and the four statics, folds the
 * profile and tallies TraceStats; a second pass over the same inputs
 * drives the profiled-static predictor over the profile's likely map
 * (the FS is measured over the very runs it was profiled on). Table 5
 * reads the size of each materialised seed image (optimizer level
 * none), not the plan's site count the engine prices it from.
 */
BenchmarkResult
referenceBenchmark(const workloads::Workload &workload,
                   const ExperimentConfig &config)
{
    BenchmarkResult result;
    result.name = workload.name();
    const ir::Program program = workload.buildProgram();
    const ir::Layout layout(program);
    result.staticSize = program.staticSize();
    const std::vector<workloads::WorkloadInput> inputs =
        makeInputSuite(workload, config);
    result.runs = static_cast<unsigned>(inputs.size());

    const vm::PredecodedProgram code(program, layout);
    const auto run_suite = [&](trace::TraceSink &sink,
                               trace::TraceStats *stats) {
        for (const workloads::WorkloadInput &input : inputs) {
            vm::Machine machine(code);
            for (std::size_t c = 0; c < input.channels.size(); ++c)
                machine.setInput(static_cast<int>(c), input.channels[c]);
            machine.setSink(&sink);
            vm::RunLimits limits;
            limits.maxInstructions = config.maxInstructionsPerRun;
            const vm::RunResult run = machine.run(limits);
            if (stats != nullptr)
                stats->addInstructions(run.instructions);
        }
    };

    predict::SimpleBtb sbtb(config.btb);
    predict::CounterBtb cbtb(config.btb, config.counter);
    predict::AlwaysTaken always_taken;
    predict::AlwaysNotTaken always_not_taken;
    predict::BackwardTaken btfnt;
    predict::OpcodeBias opcode_bias;
    const std::vector<std::pair<const char *, predict::BranchPredictor *>>
        schemes = {{"SBTB", &sbtb},
                   {"CBTB", &cbtb},
                   {"always-taken", &always_taken},
                   {"always-not-taken", &always_not_taken},
                   {"btfnt", &btfnt},
                   {"opcode-bias", &opcode_bias}};
    std::vector<predict::PredictionDriver> drivers;
    drivers.reserve(schemes.size());
    profile::ProgramProfile profile(program, layout);
    for (std::size_t r = 0; r < inputs.size(); ++r)
        profile.noteRun();
    trace::FanoutSink fanout;
    for (const auto &[name, predictor] : schemes)
        fanout.addSink(&drivers.emplace_back(*predictor));
    fanout.addSink(&profile);
    fanout.addSink(&result.stats);
    run_suite(fanout, &result.stats);

    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const predict::BranchPredictor &predictor = *schemes[i].second;
        const SchemeResult scheme{
            schemes[i].first, drivers[i].stats().accuracy.ratio(),
            predictor.hasMissRatio() ? predictor.missRatio() : 0.0,
            predictor.hasMissRatio()};
        if (i == 0)
            result.sbtb = scheme;
        else if (i == 1)
            result.cbtb = scheme;
        else
            result.staticSchemes.push_back(scheme);
    }

    predict::ProfilePredictor fs(profile.buildLikelyMap());
    predict::PredictionDriver fs_driver(fs);
    run_suite(fs_driver, nullptr);
    result.fs = SchemeResult{"FS", fs_driver.stats().accuracy.ratio(),
                             0.0, false};

    for (unsigned slots : config.codeSizeSlots) {
        profile::FsOptConfig fs;
        fs.fs.slotCount = slots;
        fs.fs.trace.minArcProbability = config.traceThreshold;
        result.codeIncrease[slots] =
            profile::FsOptimizer(profile, fs).build().codeSizeIncrease();
    }
    return result;
}

TEST(ExperimentRunner, EngineMatchesTheVmDrivenReference)
{
    const ExperimentConfig config = quickConfig();
    const workloads::Workload &wc = workloads::findWorkload("wc");
    expectIdenticalResults({ExperimentRunner(config).runBenchmark(wc)},
                           {referenceBenchmark(wc, config)});
}

TEST(ExperimentRunner, EngineMatchesTheReferenceUnderNonDefaultConfigs)
{
    // The equivalence claim is config-independent; exercise it away
    // from the paper point: set-associative geometry, a 3-bit
    // counter, and the FIFO/Random replacement policies.
    struct Variant
    {
        predict::BufferConfig btb;
        predict::CounterConfig counter;
    };
    std::vector<Variant> variants;
    {
        Variant set_assoc;
        set_assoc.btb.entries = 64;
        set_assoc.btb.associativity = 4;
        set_assoc.counter = {3, 4};
        variants.push_back(set_assoc);

        Variant fifo;
        fifo.btb.entries = 32;
        fifo.btb.policy = predict::ReplacementPolicy::Fifo;
        variants.push_back(fifo);

        Variant random;
        random.btb.entries = 32;
        random.btb.associativity = 8;
        random.btb.policy = predict::ReplacementPolicy::Random;
        random.counter = {1, 1};
        variants.push_back(random);
    }

    const workloads::Workload &tee = workloads::findWorkload("tee");
    for (const Variant &variant : variants) {
        ExperimentConfig config = quickConfig();
        config.btb = variant.btb;
        config.counter = variant.counter;
        expectIdenticalResults(
            {ExperimentRunner(config).runBenchmark(tee)},
            {referenceBenchmark(tee, config)});
    }
}

TEST(ExperimentRunner, CodeIncreaseIsTheSeedImageGrowth)
{
    // Table 5 prices every k + l from one plan's site count; the seed
    // image materialised at each design point must grow by exactly
    // that much.
    ExperimentConfig config;
    config.runsOverride = 1;
    for (const workloads::Workload *workload : workloads::allWorkloads()) {
        const RecordedWorkload recorded =
            recordWorkload(*workload, config);
        for (const double threshold : {0.5, 0.7, 0.9}) {
            for (const unsigned slots : {1u, 2u, 4u, 8u}) {
                profile::FsOptConfig fs;
                fs.fs.slotCount = slots;
                fs.fs.trace.minArcProbability = threshold;
                EXPECT_EQ(profile::codeIncreaseFor(*recorded.profile,
                                                   slots, threshold),
                          profile::FsOptimizer(*recorded.profile, fs)
                              .build()
                              .codeSizeIncrease())
                    << workload->name() << " at k+l=" << slots
                    << ", threshold " << threshold;
            }
        }
    }
}

TEST(ExperimentRunner, ParallelRunAllIsBitIdenticalToSerial)
{
    const ExperimentConfig config = quickConfig();

    ExperimentConfig serial = config;
    serial.jobs = 1;
    ExperimentConfig parallel = config;
    parallel.jobs = 4;

    const std::vector<BenchmarkResult> a =
        ExperimentRunner(serial).runAll();
    const std::vector<BenchmarkResult> b =
        ExperimentRunner(parallel).runAll();
    ASSERT_EQ(a.size(), workloads::allWorkloads().size());
    // Deterministic Table 1 ordering regardless of scheduling.
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].name, workloads::allWorkloads()[i]->name());
    expectIdenticalResults(a, b);
}

TEST(Summaries, MeanAndSampleStddev)
{
    const Summary summary = summarize({1.0, 3.0});
    EXPECT_NEAR(summary.mean, 2.0, 1e-12);
    EXPECT_NEAR(summary.stddev, std::sqrt(2.0), 1e-12);
}

// ---------------------------------------------------------------------
// Tables and figures (rendering shape checks over two benchmarks).
// ---------------------------------------------------------------------

const std::vector<BenchmarkResult> &
twoResults()
{
    static const std::vector<BenchmarkResult> results = [] {
        ExperimentRunner runner(quickConfig());
        std::vector<BenchmarkResult> out;
        out.push_back(
            runner.runBenchmark(workloads::findWorkload("wc")));
        out.push_back(
            runner.runBenchmark(workloads::findWorkload("cmp")));
        return out;
    }();
    return results;
}

TEST(Tables, EveryTableRendersWithTheRightShape)
{
    const auto &results = twoResults();
    EXPECT_EQ(makeTable1(results).numRows(), 2u);
    EXPECT_EQ(makeTable2(results).numRows(), 3u);  // + average
    EXPECT_EQ(makeTable3(results).numRows(), 4u);  // + avg + stddev
    EXPECT_EQ(makeTable4(results).numRows(), 4u);
    EXPECT_EQ(makeTable5(results).numRows(), 4u);
    EXPECT_EQ(makeStaticSchemeTable(results).numRows(), 3u);

    // Sanity: the rendered Table 3 mentions both benchmarks.
    const std::string text = makeTable3(results).toString();
    EXPECT_NE(text.find("wc"), std::string::npos);
    EXPECT_NE(text.find("cmp"), std::string::npos);
}

TEST(Tables, AverageAccuracyIsTheArithmeticMean)
{
    const auto &results = twoResults();
    const double expected =
        (results[0].fs.accuracy + results[1].fs.accuracy) / 2.0;
    EXPECT_NEAR(averageAccuracy(results, "FS"), expected, 1e-12);
}

TEST(Tables, Table4GrowthHasThreeSchemes)
{
    const auto growth = table4GrowthPercents(twoResults());
    ASSERT_EQ(growth.size(), 3u);
    for (double g : growth)
        EXPECT_GT(g, 0.0);
}

TEST(Figures, PanelHasThreeMonotoneSeries)
{
    const FigurePanel panel = makeFigurePanel(twoResults(), 2);
    ASSERT_EQ(panel.series.size(), 3u);
    for (const FigureSeries &series : panel.series) {
        ASSERT_EQ(series.values.size(), 11u);
        for (std::size_t x = 1; x < series.values.size(); ++x)
            EXPECT_GT(series.values[x], series.values[x - 1]);
    }
    EXPECT_EQ(panel.series[0].label, "SBTB");
    EXPECT_EQ(panel.series[2].label, "FS");
}

TEST(Figures, DeeperFetchPipesCostMore)
{
    const FigurePanel k1 = makeFigurePanel(twoResults(), 1);
    const FigurePanel k8 = makeFigurePanel(twoResults(), 8);
    for (std::size_t s = 0; s < 3; ++s) {
        for (unsigned x = 0; x <= 10; ++x)
            EXPECT_GT(k8.series[s].values[x], k1.series[s].values[x]);
    }
}

TEST(Figures, PanelTableAndChartRender)
{
    const FigurePanel panel = makeFigurePanel(twoResults(), 4);
    EXPECT_EQ(panelTable(panel).numRows(), 11u);
    const std::string chart = renderAsciiChart(panel);
    EXPECT_NE(chart.find("k=4"), std::string::npos);
    EXPECT_NE(chart.find('#'), std::string::npos);
    EXPECT_NE(chart.find('.'), std::string::npos);
}

} // namespace
} // namespace branchlab::core
