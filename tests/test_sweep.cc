/**
 * @file
 * Tests for the design-space sweep engine: grid expansion, the
 * resume journal, the record-once invariant, paper-point equivalence
 * with the experiment runner, and the report emitters.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/runner.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "scratch_dir.hh"
#include "support/logging.hh"

namespace branchlab::core
{
namespace
{

/** Fresh throwaway journal directory per test. */
test::ScratchDir
makeJournalDir(const std::string &tag)
{
    return test::ScratchDir("blab_sweep_" + tag);
}

/** A fast sweep journalled to @p journal_dir: one small workload, two
 *  runs, a 2x2 grid around the paper point. */
SweepConfig
quickSweep(const test::ScratchDir &journal_dir)
{
    SweepConfig config;
    config.axes.btbEntries = {64, 256};
    config.axes.counterThresholds = {1, 2};
    config.workloads = {"tee"};
    config.base.runsOverride = 2;
    config.journalDir = journal_dir.path();
    return config;
}

TEST(SweepGrid, CrossesEveryAxis)
{
    SweepAxes axes;
    axes.btbEntries = {64, 256};
    axes.btbPolicies = {predict::ReplacementPolicy::Lru,
                        predict::ReplacementPolicy::Fifo};
    axes.counterBits = {1, 2};
    axes.counterThresholds = {1};
    axes.fsSlots = {1, 2};
    const std::vector<SweepPoint> grid = expandGrid(axes);
    EXPECT_EQ(grid.size(), 2u * 2u * 2u * 2u);
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(grid[i].index, i);
}

TEST(SweepGrid, DropsPointsOutsideTheHardwareDomain)
{
    SweepAxes axes;
    // 48 is not divisible by 32; assoc 512 exceeds 256 entries.
    axes.btbEntries = {48, 256};
    axes.btbAssociativity = {0, 32, 512};
    // A 1-bit counter cannot reach threshold 2 or 3.
    axes.counterBits = {1, 2};
    axes.counterThresholds = {1, 2, 3};
    const std::vector<SweepPoint> grid = expandGrid(axes);
    // Valid geometry: (48,0), (256,0), (256,32) = 3 of 6.
    // Valid counters: b1t1, b2t1, b2t2, b2t3 = 4 of 6.
    EXPECT_EQ(grid.size(), 3u * 4u);
    for (const SweepPoint &point : grid) {
        if (point.btb.associativity != 0) {
            EXPECT_EQ(point.btb.entries % point.btb.associativity,
                      0u);
        }
        EXPECT_GE(point.counter.threshold, 1u);
        EXPECT_LE(point.counter.threshold,
                  (1u << point.counter.bits) - 1);
    }
}

TEST(SweepGrid, RejectsEmptyAxesAndBadPipelines)
{
    SweepAxes empty;
    empty.btbEntries.clear();
    EXPECT_THROW(expandGrid(empty), LogicFailure);

    SweepAxes bad_pipe;
    bad_pipe.pipelines[0].fCond = 1.5;
    EXPECT_THROW(expandGrid(bad_pipe), LogicFailure);
}

TEST(SweepGrid, LabelsAndPaperDesignDetection)
{
    const std::vector<SweepPoint> grid = expandGrid(SweepAxes{});
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid[0].label(), "k1l1m1-e256w0-lru-b2t2-s2-p0.70");
    EXPECT_TRUE(grid[0].isPaperDesign());

    SweepAxes other;
    other.btbEntries = {64};
    EXPECT_FALSE(expandGrid(other)[0].isPaperDesign());
}

TEST(SweepJournal, RoundTripsCellsAcrossInstances)
{
    const test::ScratchDir dir_scratch = makeJournalDir("roundtrip");
    const std::string &dir = dir_scratch.path();
    const std::vector<SweepCell> cells = {
        {0.5, 0.25, 0.75, 0.125, 0.875, 0.1},
        {0.25, 0.5, 0.625, 0.0625, 0.9375, 0.2},
    };
    {
        SweepJournal journal(dir);
        journal.store(42, cells);

        // Served from the in-memory copy before any seal...
        std::vector<SweepCell> loaded;
        ASSERT_TRUE(journal.load(42, loaded));
        EXPECT_EQ(loaded, cells);
        EXPECT_FALSE(journal.load(43, loaded));
    } // ...and the destructor seals the segment.

    SweepJournal reopened(dir);
    std::vector<SweepCell> loaded;
    ASSERT_TRUE(reopened.load(42, loaded));
    EXPECT_EQ(loaded, cells);
    EXPECT_EQ(reopened.mappedSegments(), 1u);
    EXPECT_FALSE(reopened.load(43, loaded));
}

TEST(SweepJournal, DisabledJournalIsANoOp)
{
    SweepJournal journal;
    EXPECT_FALSE(journal.enabled());
    journal.store(1, {{}});
    journal.flush();
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
}

TEST(SweepJournal, KeyCoversConfigAndStreams)
{
    const std::vector<std::string> workloads = {"tee"};
    const std::vector<std::uint64_t> streams = {0xabcdULL};
    const SweepPoint base = expandGrid(SweepAxes{})[0];
    const std::uint64_t key = sweepPointKey(base, workloads, streams);

    SweepPoint other = base;
    other.btb.entries = 128;
    EXPECT_NE(sweepPointKey(other, workloads, streams), key);

    other = base;
    other.counter.threshold = 1;
    EXPECT_NE(sweepPointKey(other, workloads, streams), key);

    EXPECT_NE(sweepPointKey(base, workloads, {0x1234ULL}), key);
    EXPECT_NE(sweepPointKey(base, {"wc"}, streams), key);

    // The index is presentation only; it must not change the key.
    other = base;
    other.index = 99;
    EXPECT_EQ(sweepPointKey(other, workloads, streams), key);
}

TEST(Sweep, ResumeSkipsCompletedPointsBitIdentically)
{
    const test::ScratchDir journal_dir = makeJournalDir("resume");
    const SweepConfig config = quickSweep(journal_dir);

    const SweepResult cold = runSweep(config);
    EXPECT_EQ(cold.points.size(), 4u);
    EXPECT_EQ(cold.stats.evaluated, 4u);
    EXPECT_EQ(cold.stats.resumed, 0u);
    EXPECT_EQ(cold.stats.recordPasses, 1u);

    const SweepResult warm = runSweep(config);
    EXPECT_EQ(warm.stats.evaluated, 0u);
    EXPECT_EQ(warm.stats.resumed, 4u);
    ASSERT_EQ(warm.points.size(), cold.points.size());
    for (std::size_t i = 0; i < cold.points.size(); ++i) {
        EXPECT_TRUE(warm.points[i].resumed);
        EXPECT_EQ(warm.points[i].cells, cold.points[i].cells);
    }
    // The resumed run must produce byte-identical machine output
    // (minus the resumed flag, which JSON reports but CSV omits).
    EXPECT_EQ(sweepToCsv(warm), sweepToCsv(cold));
}

TEST(Sweep, MaxPointsInterruptsAndTheRerunFinishes)
{
    const test::ScratchDir journal_dir = makeJournalDir("cap");
    SweepConfig config = quickSweep(journal_dir);
    config.maxPoints = 3;

    const SweepResult capped = runSweep(config);
    EXPECT_EQ(capped.stats.evaluated, 3u);
    EXPECT_EQ(capped.points.size(), 3u);

    config.maxPoints = 0;
    const SweepResult finished = runSweep(config);
    EXPECT_EQ(finished.stats.resumed, 3u);
    EXPECT_EQ(finished.stats.evaluated, 1u);
    EXPECT_EQ(finished.points.size(), 4u);

    // And against a never-interrupted reference sweep: identical.
    const test::ScratchDir reference_journal = makeJournalDir("cap_ref");
    SweepConfig reference = quickSweep(reference_journal);
    const SweepResult uninterrupted = runSweep(reference);
    EXPECT_EQ(sweepToCsv(finished), sweepToCsv(uninterrupted));
}

TEST(Sweep, HundredPointGridRecordsEachWorkloadExactlyOnce)
{
    SweepConfig config;
    config.axes.btbEntries = {16, 32, 64, 128, 256};
    config.axes.btbAssociativity = {0, 2};
    config.axes.btbPolicies = {predict::ReplacementPolicy::Lru,
                               predict::ReplacementPolicy::Fifo,
                               predict::ReplacementPolicy::Random};
    config.axes.counterThresholds = {1, 2};
    config.axes.fsSlots = {1, 2};
    config.workloads = {"tee", "cmp"};
    config.base.runsOverride = 1;

    obs::Counter &vm_runs =
        obs::Registry::global().counter("vm.runs");
    const std::uint64_t runs_before = vm_runs.value();
    const SweepResult result = runSweep(config);
    const std::uint64_t vm_record_runs =
        vm_runs.value() - runs_before;

    EXPECT_GE(result.points.size(), 100u);
    EXPECT_EQ(result.stats.evaluated, result.points.size());
    // One record pass per workload, regardless of the grid size...
    EXPECT_EQ(result.stats.recordPasses, 2u);
    // ...and the VM itself confirms: exactly runsOverride runs per
    // workload were ever executed.
    EXPECT_EQ(vm_record_runs, 2u);

    // Every point carries one cell per workload.
    for (const SweepPointResult &point : result.points)
        EXPECT_EQ(point.cells.size(), 2u);
}

TEST(Sweep, PaperPointMatchesTheExperimentRunnerBitForBit)
{
    // A grid that contains the paper's design point among others.
    SweepConfig config;
    config.axes.btbEntries = {64, 256};
    config.axes.counterThresholds = {1, 2};
    config.workloads = {"tee", "cmp"};
    config.base.runsOverride = 2;
    const SweepResult result = runSweep(config);

    const SweepPointResult *paper = nullptr;
    for (const SweepPointResult &point : result.points) {
        if (point.point.isPaperDesign())
            paper = &point;
    }
    ASSERT_NE(paper, nullptr);

    // The experiment runner at its defaults evaluates exactly the
    // paper point; the sweep's row must reproduce it bit for bit.
    ExperimentConfig runner_config;
    runner_config.runsOverride = 2;
    const ExperimentRunner runner(runner_config);
    for (std::size_t w = 0; w < config.workloads.size(); ++w) {
        const BenchmarkResult reference = runner.runBenchmark(
            workloads::findWorkload(config.workloads[w]));
        const SweepCell &cell = paper->cells[w];
        EXPECT_EQ(cell.sbtbAccuracy, reference.sbtb.accuracy);
        EXPECT_EQ(cell.sbtbMissRatio, reference.sbtb.missRatio);
        EXPECT_EQ(cell.cbtbAccuracy, reference.cbtb.accuracy);
        EXPECT_EQ(cell.cbtbMissRatio, reference.cbtb.missRatio);
        EXPECT_EQ(cell.fsAccuracy, reference.fs.accuracy);
        EXPECT_EQ(cell.codeIncrease, reference.codeIncrease.at(2));
    }
}

/** A multi-group sweep: three workloads and 18 distinct (BTB,
 *  counter) pairs, so the batch phase has two point groups (the
 *  engine batches 16 pairs per walk) and six (group, workload)
 *  tasks. */
SweepConfig
multiGroupSweep(const test::ScratchDir &journal_dir)
{
    SweepConfig config;
    config.axes.btbEntries = {16, 32, 64};
    config.axes.btbAssociativity = {0, 2};
    config.axes.counterThresholds = {1, 2, 3};
    config.workloads = {"tee", "cmp", "wc"};
    config.base.runsOverride = 1;
    config.journalDir = journal_dir.path();
    return config;
}

constexpr std::size_t kMultiGroupWorkloads = 3;
constexpr std::size_t kMultiGroupGroups = 2;

/** The journal keys of @p config's grid, computed the way runSweep
 *  computes them. */
std::vector<std::uint64_t>
gridKeys(const SweepConfig &config)
{
    std::vector<std::uint64_t> streams;
    for (const std::string &name : config.workloads) {
        streams.push_back(workloadContentHash(
            workloads::findWorkload(name), config.base));
    }
    std::vector<std::uint64_t> keys;
    for (const SweepPoint &point : expandGrid(config.axes))
        keys.push_back(sweepPointKey(point, config.workloads, streams));
    return keys;
}

TEST(Sweep, ParallelSweepIsBitIdenticalToSerial)
{
    std::string serial_csv;
    for (const unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const test::ScratchDir journal_dir =
            makeJournalDir("parallel_j" + std::to_string(jobs));
        SweepConfig config = multiGroupSweep(journal_dir);
        config.base.jobs = jobs;
        const SweepResult result = runSweep(config);
        ASSERT_EQ(result.points.size(), 18u);
        EXPECT_EQ(result.stats.evaluated, 18u);

        const std::string csv = sweepToCsv(result);
        if (jobs == 1)
            serial_csv = csv;
        EXPECT_EQ(csv, serial_csv);

        // Every point was journalled under its key with exactly the
        // cells the sweep returned.
        const std::vector<std::uint64_t> keys = gridKeys(config);
        SweepJournal journal(config.journalDir);
        for (const SweepPointResult &point : result.points) {
            std::vector<SweepCell> cells;
            ASSERT_TRUE(journal.load(keys[point.point.index], cells));
            EXPECT_EQ(cells, point.cells);
        }
    }
}

TEST(Sweep, BatchPhaseFansOutOneTaskPerGroupAndWorkload)
{
    obs::Counter &pool_jobs =
        obs::Registry::global().counter("threadpool.sweep.jobs");
    obs::Counter &stores =
        obs::Registry::global().counter("sweep.journal.stores");

    const test::ScratchDir journal_dir = makeJournalDir("fanout");
    SweepConfig config = multiGroupSweep(journal_dir);
    config.base.jobs = 2;
    const std::uint64_t jobs_before = pool_jobs.value();
    const std::uint64_t stores_before = stores.value();
    const SweepResult result = runSweep(config);

    // One prepare task per workload, then one batch task per (group,
    // workload): a batch phase that went serial again would run
    // inline and leave the second term out.
    EXPECT_EQ(pool_jobs.value() - jobs_before,
              kMultiGroupWorkloads +
                  kMultiGroupWorkloads * kMultiGroupGroups);
    EXPECT_EQ(stores.value() - stores_before, result.stats.evaluated);

    const std::vector<std::uint64_t> keys = gridKeys(config);
    SweepJournal journal(config.journalDir);
    journal.open();
    EXPECT_EQ(journal.indexedRecords(), keys.size());
    for (const std::uint64_t key : keys) {
        std::vector<SweepCell> cells;
        ASSERT_TRUE(journal.load(key, cells));
        EXPECT_EQ(cells.size(), kMultiGroupWorkloads);
    }

    // A capped parallel sweep still evaluates only up to the cap and
    // omits every point past it.
    const test::ScratchDir capped_journal = makeJournalDir("fanout_cap");
    SweepConfig capped = multiGroupSweep(capped_journal);
    capped.base.jobs = 2;
    capped.maxPoints = 5;
    const SweepResult partial = runSweep(capped);
    EXPECT_EQ(partial.stats.evaluated, 5u);
    ASSERT_EQ(partial.points.size(), 5u);
    for (std::size_t i = 0; i < partial.points.size(); ++i) {
        EXPECT_EQ(partial.points[i].point.index, i);
        EXPECT_EQ(partial.points[i].cells, result.points[i].cells);
    }
}

TEST(SweepReport, TablesAndEmittersCoverTheGrid)
{
    const test::ScratchDir journal_dir = makeJournalDir("report");
    SweepConfig config = quickSweep(journal_dir);
    config.journalDir.clear();
    const SweepResult result = runSweep(config);

    const TextTable grid = makeSweepGridTable(result);
    EXPECT_EQ(grid.numRows(), result.points.size());

    const TextTable extremes = makeSweepExtremesTable(result);
    EXPECT_EQ(extremes.numRows(), 3u); // SBTB, CBTB, FS

    // Two axes vary (entries, counter threshold); both must appear.
    const TextTable sensitivity = makeSweepSensitivityTable(result);
    EXPECT_EQ(sensitivity.numRows(), 2u);

    // CSV: header + one row per point per workload.
    const std::string csv = sweepToCsv(result);
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines,
              1 + result.points.size() * result.workloads.size());

    // JSON: mentions every point label and the stats block.
    const std::string json = sweepToJson(result);
    EXPECT_NE(json.find("\"points_evaluated\""), std::string::npos);
    for (const SweepPointResult &point : result.points)
        EXPECT_NE(json.find(point.point.label()), std::string::npos);
}

TEST(SweepReport, MeanHelpersRejectUnknownSchemes)
{
    SweepPointResult point;
    point.cells.push_back(SweepCell{});
    EXPECT_THROW(point.meanAccuracy("nonesuch"), ConfigFailure);
}

} // namespace
} // namespace branchlab::core
