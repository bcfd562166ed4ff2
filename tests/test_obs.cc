/**
 * @file
 * Tests for the telemetry layer: counter/gauge/histogram/span
 * primitives, the process-wide registry and its JSON/table snapshots,
 * the BRANCHLAB_TELEMETRY environment contract, multithreaded counter
 * exactness, and the differential guarantee that telemetry is purely
 * observational -- every paper table is bit-identical with collection
 * enabled and disabled.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "core/tables.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace branchlab::obs
{
namespace
{

/** Restores the process-wide switch even when an assertion fails. */
struct EnabledGuard
{
    bool saved = enabled();
    ~EnabledGuard() { setEnabled(saved); }
};

TEST(Counter, AddsAndResets)
{
    const EnabledGuard guard;
    setEnabled(true);
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, DisabledSwitchDropsUpdates)
{
    const EnabledGuard guard;
    Counter counter;
    setEnabled(false);
    counter.add(7);
    EXPECT_EQ(counter.value(), 0u);
    setEnabled(true);
    counter.add(7);
    EXPECT_EQ(counter.value(), 7u);
}

TEST(Counter, ConcurrentAddsAreExact)
{
    const EnabledGuard guard;
    setEnabled(true);
    Counter counter;
    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kAddsPerThread; ++i)
                counter.add();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(Gauge, SetAddAndReset)
{
    const EnabledGuard guard;
    setEnabled(true);
    Gauge gauge;
    gauge.set(10);
    gauge.add(-3);
    EXPECT_EQ(gauge.value(), 7);
    gauge.reset();
    EXPECT_EQ(gauge.value(), 0);
}

TEST(Histogram, BucketsAreInclusiveUpperBoundsPlusOverflow)
{
    const EnabledGuard guard;
    setEnabled(true);
    Histogram histogram({10, 100, 1000});
    histogram.observe(0);    // <= 10
    histogram.observe(10);   // <= 10 (inclusive)
    histogram.observe(11);   // <= 100
    histogram.observe(1000); // <= 1000
    histogram.observe(1001); // overflow
    EXPECT_EQ(histogram.bucketCount(0), 2u);
    EXPECT_EQ(histogram.bucketCount(1), 1u);
    EXPECT_EQ(histogram.bucketCount(2), 1u);
    EXPECT_EQ(histogram.bucketCount(3), 1u);
    EXPECT_EQ(histogram.count(), 5u);
    EXPECT_EQ(histogram.sum(), 0u + 10 + 11 + 1000 + 1001);
    histogram.reset();
    EXPECT_EQ(histogram.count(), 0u);
    EXPECT_EQ(histogram.bucketCount(0), 0u);
}

TEST(SpanStatTest, RecordsCountTotalAndMax)
{
    const EnabledGuard guard;
    setEnabled(true);
    SpanStat stat;
    stat.record(5);
    stat.record(20);
    stat.record(10);
    EXPECT_EQ(stat.count(), 3u);
    EXPECT_EQ(stat.totalNs(), 35u);
    EXPECT_EQ(stat.maxNs(), 20u);
    stat.reset();
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.maxNs(), 0u);
}

TEST(ScopedSpanTest, RecordsIntoTheGlobalRegistry)
{
    const EnabledGuard guard;
    setEnabled(true);
    SpanStat &stat = Registry::global().span("test.obs.scoped_span");
    const std::uint64_t before = stat.count();
    {
        const ScopedSpan span("test.obs.scoped_span");
    }
    EXPECT_EQ(stat.count(), before + 1);
}

TEST(ScopedSpanTest, DisabledSpanRecordsNothing)
{
    const EnabledGuard guard;
    setEnabled(true);
    SpanStat &stat = Registry::global().span("test.obs.disabled_span");
    const std::uint64_t before = stat.count();
    setEnabled(false);
    {
        const ScopedSpan span("test.obs.disabled_span");
    }
    setEnabled(true);
    EXPECT_EQ(stat.count(), before);
}

TEST(RegistryTest, SameNameReturnsTheSameMetric)
{
    Counter &a = Registry::global().counter("test.obs.same");
    Counter &b = Registry::global().counter("test.obs.same");
    EXPECT_EQ(&a, &b);
    Gauge &g1 = Registry::global().gauge("test.obs.same");
    Gauge &g2 = Registry::global().gauge("test.obs.same");
    EXPECT_EQ(&g1, &g2);
    // Histogram bounds are fixed by the first registration.
    Histogram &h1 =
        Registry::global().histogram("test.obs.same_h", {1, 2});
    Histogram &h2 =
        Registry::global().histogram("test.obs.same_h", {7, 8, 9});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h1.bounds().size(), 2u);
}

TEST(RegistryTest, SnapshotIsNameSortedAndCopiesValues)
{
    const EnabledGuard guard;
    setEnabled(true);
    Registry::global().counter("test.obs.snap_b").add(2);
    Registry::global().counter("test.obs.snap_a").add(1);
    const Snapshot snapshot = Registry::global().snapshot();
    ASSERT_GE(snapshot.counters.size(), 2u);
    for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
        EXPECT_LT(snapshot.counters[i - 1].first,
                  snapshot.counters[i].first);
    }
    std::uint64_t a_value = 0;
    std::uint64_t b_value = 0;
    for (const auto &[name, value] : snapshot.counters) {
        if (name == "test.obs.snap_a")
            a_value = value;
        if (name == "test.obs.snap_b")
            b_value = value;
    }
    EXPECT_GE(a_value, 1u);
    EXPECT_GE(b_value, 2u);
}

TEST(RegistryTest, JsonSnapshotHasAllFourSections)
{
    const EnabledGuard guard;
    setEnabled(true);
    Registry::global().counter("test.obs.json_c").add(3);
    Registry::global().gauge("test.obs.json_g").set(-4);
    Registry::global()
        .histogram("test.obs.json_h", {10, 20})
        .observe(15);
    Registry::global().span("test.obs.json_s").record(99);
    const std::string json = Registry::global().snapshot().toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.json_c\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.json_g\": -4"), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.json_h\""), std::string::npos);
    EXPECT_NE(json.find("\"le\""), std::string::npos);
    EXPECT_NE(json.find("\"inf\""), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.json_s\""), std::string::npos);
    EXPECT_NE(json.find("\"total_ns\""), std::string::npos);
}

TEST(RegistryTest, TableSnapshotRendersEveryMetricKind)
{
    const EnabledGuard guard;
    setEnabled(true);
    Registry::global().counter("test.obs.table_c").add(1);
    Registry::global().gauge("test.obs.table_g").set(5);
    const std::string table =
        Registry::global().snapshot().toTable().toString();
    EXPECT_NE(table.find("test.obs.table_c"), std::string::npos);
    EXPECT_NE(table.find("test.obs.table_g"), std::string::npos);
    EXPECT_NE(table.find("counter"), std::string::npos);
    EXPECT_NE(table.find("gauge"), std::string::npos);
}

TEST(Env, InitFromEnvParsesDisableAndExportPath)
{
    const EnabledGuard guard;
    const std::string saved_path = exportPath();

    ASSERT_EQ(setenv("BRANCHLAB_TELEMETRY", "0", 1), 0);
    initFromEnv();
    EXPECT_FALSE(enabled());
    ASSERT_EQ(setenv("BRANCHLAB_TELEMETRY", "off", 1), 0);
    setEnabled(true);
    initFromEnv();
    EXPECT_FALSE(enabled());

    ASSERT_EQ(setenv("BRANCHLAB_TELEMETRY", "/tmp/tel.json", 1), 0);
    initFromEnv();
    EXPECT_TRUE(enabled());
    EXPECT_EQ(exportPath(), "/tmp/tel.json");

    ASSERT_EQ(unsetenv("BRANCHLAB_TELEMETRY"), 0);
    setExportPath("");
    initFromEnv();
    EXPECT_TRUE(enabled());
    EXPECT_EQ(exportPath(), "");

    setExportPath(saved_path);
}

TEST(Env, ExportIfConfiguredWritesTheSnapshotFile)
{
    const EnabledGuard guard;
    setEnabled(true);
    const std::string saved_path = exportPath();
    const std::string path =
        ::testing::TempDir() + "blab_obs_export.json";
    std::filesystem::remove(path);

    setExportPath("");
    EXPECT_FALSE(exportIfConfigured());

    Registry::global().counter("test.obs.exported").add(1);
    setExportPath(path);
    EXPECT_TRUE(exportIfConfigured());
    std::ifstream file(path);
    ASSERT_TRUE(file.good());
    std::stringstream contents;
    contents << file.rdbuf();
    EXPECT_NE(contents.str().find("\"test.obs.exported\""),
              std::string::npos);

    setExportPath(saved_path);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// The differential guarantee: telemetry never feeds back into results.
// ---------------------------------------------------------------------

std::vector<std::string>
renderAllTables(const std::vector<core::BenchmarkResult> &results)
{
    return {core::makeTable1(results).toString(),
            core::makeTable2(results).toString(),
            core::makeTable3(results).toString(),
            core::makeTable4(results).toString(),
            core::makeTable5(results).toString(),
            core::makeStaticSchemeTable(results).toString()};
}

TEST(Differential, TablesAreBitIdenticalWithTelemetryOnAndOff)
{
    const EnabledGuard guard;
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.jobs = 2;

    setEnabled(true);
    const std::vector<std::string> with_telemetry =
        renderAllTables(core::ExperimentRunner(config).runAll());
    setEnabled(false);
    const std::vector<std::string> without_telemetry =
        renderAllTables(core::ExperimentRunner(config).runAll());
    setEnabled(true);

    ASSERT_EQ(with_telemetry.size(), without_telemetry.size());
    for (std::size_t i = 0; i < with_telemetry.size(); ++i)
        EXPECT_EQ(with_telemetry[i], without_telemetry[i])
            << "table " << (i + 1);
}

} // namespace
} // namespace branchlab::obs
