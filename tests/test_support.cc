/**
 * @file
 * Unit tests for the support substrate: logging, deterministic
 * random numbers, statistics, strings, and table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "support/timer.hh"

namespace branchlab
{
namespace
{

// ---------------------------------------------------------------------
// Logging.
// ---------------------------------------------------------------------

TEST(Logging, PanicThrowsLogicFailure)
{
    EXPECT_THROW(blab_panic("boom ", 42), LogicFailure);
}

TEST(Logging, FatalThrowsConfigFailure)
{
    EXPECT_THROW(blab_fatal("bad config"), ConfigFailure);
}

TEST(Logging, PanicMessageCarriesTextAndLocation)
{
    try {
        blab_panic("unique-marker-", 7);
        FAIL() << "expected a throw";
    } catch (const LogicFailure &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("unique-marker-7"), std::string::npos);
        EXPECT_NE(what.find("test_support.cc"), std::string::npos);
    }
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(blab_assert(1 + 1 == 2, "fine"));
}

TEST(Logging, AssertThrowsOnFalseWithConditionText)
{
    try {
        blab_assert(2 + 2 == 5, "math broke");
        FAIL() << "expected a throw";
    } catch (const LogicFailure &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
        EXPECT_NE(what.find("math broke"), std::string::npos);
    }
}

TEST(Logging, WarnIncrementsCounter)
{
    resetWarningCount();
    blab_warn("something odd");
    blab_warn("odder still");
    EXPECT_EQ(warningCount(), 2u);
    resetWarningCount();
}

// ---------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------

TEST(Rng, EqualSeedsGiveEqualSequences)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowOneIsAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeCoversInclusiveEnds)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextInRange(-2, 2));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(*seen.begin(), -2);
    EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NextBoolRespectsExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, NextBoolApproximatesProbability)
{
    Rng rng(19);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, PickWeightedIgnoresZeroWeights)
{
    Rng rng(23);
    const std::vector<double> weights = {0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.pickWeighted(weights), 1u);
}

TEST(Rng, PickWeightedFollowsWeights)
{
    Rng rng(29);
    const std::vector<double> weights = {1.0, 3.0};
    int ones = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        ones += rng.pickWeighted(weights) == 1 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(ones) / trials, 0.75, 0.02);
}

TEST(Rng, ForkIsIndependentOfParentContinuation)
{
    Rng parent(31);
    Rng fork = parent.fork();
    // The fork must not replay the parent's stream.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += fork.next() == parent.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(37);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = items;
    rng.shuffle(shuffled);
    std::multiset<int> a(items.begin(), items.end());
    std::multiset<int> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, PickReturnsOnlyListedElements)
{
    Rng rng(41);
    const std::vector<int> items = {10, 20, 30};
    std::set<int> seen;
    for (int i = 0; i < 300; ++i)
        seen.insert(rng.pick(items));
    EXPECT_EQ(seen, (std::set<int>{10, 20, 30}));
}

TEST(Rng, HashStringIsStableAndDiscriminates)
{
    EXPECT_EQ(hashString("wc"), hashString("wc"));
    EXPECT_NE(hashString("wc"), hashString("cw"));
    EXPECT_NE(hashString(""), hashString("a"));
}

// ---------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------

TEST(Ratio, EmptyRatioIsZero)
{
    Ratio ratio;
    EXPECT_EQ(ratio.ratio(), 0.0);
    EXPECT_EQ(ratio.total(), 0u);
}

TEST(Ratio, CountsHitsAndTotal)
{
    Ratio ratio;
    ratio.record(true);
    ratio.record(false);
    ratio.record(true);
    EXPECT_EQ(ratio.hits(), 2u);
    EXPECT_EQ(ratio.total(), 3u);
    EXPECT_NEAR(ratio.ratio(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(ratio.complement(), 1.0 / 3.0, 1e-12);
}

TEST(Ratio, MergeAddsBothSides)
{
    Ratio a, b;
    a.record(true);
    b.record(false);
    b.record(true);
    a.merge(b);
    EXPECT_EQ(a.hits(), 2u);
    EXPECT_EQ(a.total(), 3u);
}

TEST(RunningStat, MatchesClosedFormOnKnownData)
{
    RunningStat stat;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.addSample(v);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_NEAR(stat.mean(), 5.0, 1e-12);
    EXPECT_NEAR(stat.variance(), 4.0, 1e-12);
    EXPECT_NEAR(stat.stddev(), 2.0, 1e-12);
    EXPECT_EQ(stat.min(), 2.0);
    EXPECT_EQ(stat.max(), 9.0);
    EXPECT_NEAR(stat.sum(), 40.0, 1e-12);
}

TEST(RunningStat, SampleStddevUsesBesselCorrection)
{
    RunningStat stat;
    stat.addSample(1.0);
    stat.addSample(3.0);
    EXPECT_NEAR(stat.sampleStddev(), std::sqrt(2.0), 1e-12);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat stat;
    stat.addSample(42.0);
    EXPECT_EQ(stat.variance(), 0.0);
    EXPECT_EQ(stat.sampleStddev(), 0.0);
    EXPECT_EQ(stat.mean(), 42.0);
}

TEST(RunningStat, ResetClearsEverything)
{
    RunningStat stat;
    stat.addSample(5.0);
    stat.reset();
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
}

TEST(Histogram, BucketsAndBoundsBehave)
{
    Histogram hist(0, 99, 10);
    hist.addSample(0);
    hist.addSample(5);
    hist.addSample(10);
    hist.addSample(99);
    hist.addSample(-1);
    hist.addSample(100);
    EXPECT_EQ(hist.numBuckets(), 10u);
    EXPECT_EQ(hist.bucketCount(0), 2u);
    EXPECT_EQ(hist.bucketCount(1), 1u);
    EXPECT_EQ(hist.bucketCount(9), 1u);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 1u);
    EXPECT_EQ(hist.totalSamples(), 6u);
}

TEST(Histogram, WeightedSamplesAndMean)
{
    Histogram hist(0, 9, 2);
    hist.addSample(2, 3);
    hist.addSample(8, 1);
    EXPECT_EQ(hist.totalSamples(), 4u);
    EXPECT_NEAR(hist.meanSample(), (2.0 * 3 + 8.0) / 4.0, 1e-12);
}

TEST(Histogram, BucketLowIsInclusiveLowerBound)
{
    Histogram hist(10, 29, 2);
    EXPECT_EQ(hist.bucketLow(0), 10);
    EXPECT_EQ(hist.bucketLow(1), 20);
}

TEST(StatRegistry, SetAndGetScalar)
{
    StatRegistry registry;
    registry.setScalar("vm.instructions", 100.0);
    EXPECT_TRUE(registry.has("vm.instructions"));
    EXPECT_EQ(registry.scalar("vm.instructions"), 100.0);
    EXPECT_FALSE(registry.has("missing"));
    EXPECT_THROW(registry.scalar("missing"), ConfigFailure);
}

TEST(StatRegistry, DumpIsSorted)
{
    StatRegistry registry;
    registry.setScalar("b", 2);
    registry.setScalar("a", 1);
    std::ostringstream os;
    registry.dump(os);
    EXPECT_EQ(os.str(), "a 1\nb 2\n");
}

TEST(Formatting, PercentAndFixed)
{
    EXPECT_EQ(formatPercent(0.915), "91.5%");
    EXPECT_EQ(formatPercent(0.915, 0), "92%");
    EXPECT_EQ(formatFixed(1.234, 2), "1.23");
    EXPECT_EQ(formatFixed(1.0, 3), "1.000");
}

// ---------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields)
{
    const auto fields = splitString("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitLinesDropsTrailingNewlineArtifact)
{
    const auto lines = splitLines("x\ny\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "x");
    EXPECT_EQ(lines[1], "y");
    EXPECT_EQ(splitLines("").size(), 1u);
    EXPECT_EQ(splitLines("a\n\nb").size(), 3u);
}

TEST(Strings, JoinRoundTripsSplit)
{
    const std::string text = "one,two,three";
    EXPECT_EQ(joinStrings(splitString(text, ','), ","), text);
}

TEST(Strings, TrimRemovesAllWhitespaceKinds)
{
    EXPECT_EQ(trimString(" \t\r\n abc \n"), "abc");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_EQ(trimString("x"), "x");
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("branchlab", "branch"));
    EXPECT_FALSE(startsWith("lab", "branch"));
    EXPECT_TRUE(endsWith("branchlab", "lab"));
    EXPECT_FALSE(endsWith("la", "lab"));
    EXPECT_TRUE(startsWith("x", ""));
    EXPECT_TRUE(endsWith("x", ""));
}

TEST(Strings, Padding)
{
    EXPECT_EQ(padLeft("7", 3), "  7");
    EXPECT_EQ(padRight("7", 3), "7  ");
    EXPECT_EQ(padLeft("long", 2), "long");
}

TEST(Strings, ReplaceAllHandlesAdjacentAndGrowth)
{
    EXPECT_EQ(replaceAll("aaa", "a", "bb"), "bbbbbb");
    EXPECT_EQ(replaceAll("none", "x", "y"), "none");
    EXPECT_EQ(replaceAll("ab", "ab", ""), "");
}

TEST(Strings, ParseDecimalTakesDigitsUpToTheBound)
{
    EXPECT_EQ(parseDecimal("0", 9), 0u);
    EXPECT_EQ(parseDecimal("007", 9), 7u);
    EXPECT_EQ(parseDecimal("4294967295", 4294967295u), 4294967295u);
    EXPECT_EQ(parseDecimal("18446744073709551615", ~std::uint64_t{0}),
              ~std::uint64_t{0});
    // Past the bound, including values that wrap a 64-bit product.
    EXPECT_EQ(parseDecimal("4294967296", 4294967295u), std::nullopt);
    EXPECT_EQ(parseDecimal("18446744073709551616", ~std::uint64_t{0}),
              std::nullopt);
    EXPECT_EQ(parseDecimal("99999999999999999999999", ~std::uint64_t{0}),
              std::nullopt);
    EXPECT_EQ(parseDecimal("10", 9), std::nullopt);
    EXPECT_EQ(parseDecimal("5", 0), std::nullopt);
    // Anything but digits: signs, spaces, prefixes, trailing text.
    for (const char *text : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3",
                             "abc", "12abc"})
        EXPECT_EQ(parseDecimal(text, ~std::uint64_t{0}), std::nullopt)
            << "'" << text << "'";
}

TEST(Strings, ParseOptionNumberIsBoundedByTheDestinationType)
{
    EXPECT_EQ(parseOptionNumber<unsigned>("--runs", "4294967295"),
              4294967295u);
    EXPECT_EQ(parseOptionNumber<std::uint8_t>("--k", "255"), 255u);
    EXPECT_THROW(parseOptionNumber<unsigned>("--runs", "4294967297"),
                 ConfigFailure);
    EXPECT_THROW(parseOptionNumber<std::uint8_t>("--k", "256"),
                 ConfigFailure);
    EXPECT_THROW(parseOptionNumber<unsigned>("--slots", "-1"),
                 ConfigFailure);
}

// ---------------------------------------------------------------------
// TextTable.
// ---------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table({"Name", "Value"});
    table.addRow({"a", "1"});
    table.addRow({"long-name", "22"});
    const std::string out = table.toString();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // First column left-aligned, second right-aligned.
    EXPECT_NE(out.find("a         "), std::string::npos);
    EXPECT_NE(out.find("    1"), std::string::npos);
}

TEST(TextTable, SetAlignFlipsColumnSides)
{
    TextTable table({"Left", "Flip"});
    table.setAlign(1, TextTable::Align::Left);
    table.addRow({"a", "b"});
    const std::string out = table.toString();
    // With column 1 forced Left, the cell pads on the right.
    EXPECT_NE(out.find("b   "), std::string::npos);
    EXPECT_THROW(table.setAlign(9, TextTable::Align::Left),
                 LogicFailure);
}

TEST(TextTable, RowArityIsEnforced)
{
    TextTable table({"A", "B"});
    EXPECT_THROW(table.addRow({"only-one"}), LogicFailure);
}

TEST(TextTable, CsvEscapesSpecials)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    TextTable table({"x"});
    table.addRow({"v,w"});
    std::ostringstream os;
    table.renderCsv(os);
    EXPECT_EQ(os.str(), "x\n\"v,w\"\n");
}

TEST(TextTable, SeparatorRendersRule)
{
    TextTable table({"H"});
    table.addRow({"1"});
    table.addSeparator();
    table.addRow({"2"});
    const std::string out = table.toString();
    // Header rule plus the explicit separator.
    std::size_t rules = 0;
    for (const std::string &line : splitLines(out)) {
        if (!line.empty() &&
            line.find_first_not_of('-') == std::string::npos) {
            ++rules;
        }
    }
    EXPECT_EQ(rules, 2u);
}

// ---------------------------------------------------------------------
// Thread pool and parallel-for.
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob)
{
    std::atomic<int> count{0};
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleRethrowsTheFirstJobError)
{
    ThreadPool pool(2);
    pool.submit([] { throw ConfigFailure("job failed"); });
    EXPECT_THROW(pool.waitIdle(), ConfigFailure);
    // The pool survives the error and stays usable.
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ErrorDiscardsQueuedJobsAndFailsFast)
{
    // One worker drains the queue in FIFO order, so the throwing job
    // is guaranteed to record its error before any of the jobs queued
    // behind it are popped -- every one of them must be discarded, not
    // run.
    ThreadPool pool(1);
    std::atomic<int> count{0};
    pool.submit([] { throw ConfigFailure("fail fast"); });
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    EXPECT_THROW(pool.waitIdle(), ConfigFailure);
    EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, SecondWaitIdleAfterAnErrorSucceeds)
{
    ThreadPool pool(2);
    pool.submit([] { throw ConfigFailure("once"); });
    EXPECT_THROW(pool.waitIdle(), ConfigFailure);
    // The error is consumed by the first rethrow: a second waitIdle
    // on the (now idle) pool returns cleanly.
    EXPECT_NO_THROW(pool.waitIdle());
    // And jobs submitted after the error run normally again.
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    EXPECT_NO_THROW(pool.waitIdle());
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ConcurrentConstructionWithBadEnvJobsIsSafe)
{
    // Regression: the warn-once latch inside envJobs() was a plain
    // static bool, racing when two pools were built from two threads.
    // Now an atomic exchange; TSan (which runs this suite in CI)
    // verifies the fix. The warning itself may already have been
    // consumed by an earlier test -- only the safety is asserted.
    ASSERT_EQ(setenv("BRANCHLAB_JOBS", "not-a-number", 1), 0);
    std::atomic<int> total{0};
    const auto build_pool = [&total] {
        ThreadPool pool(resolveJobs(0));
        for (int i = 0; i < 8; ++i)
            pool.submit([&total] { total.fetch_add(1); });
        pool.waitIdle();
    };
    std::thread a(build_pool);
    std::thread b(build_pool);
    a.join();
    b.join();
    ASSERT_EQ(unsetenv("BRANCHLAB_JOBS"), 0);
    EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, TelemetryIsNamespacedByPoolName)
{
    // Regression: pool telemetry used to be one set of per-process
    // globals, so a long-lived daemon pool and per-request pools all
    // folded into the same counters. Each named family must only see
    // its own pool's jobs.
    obs::Counter &alpha =
        obs::Registry::global().counter("threadpool.tp_alpha.jobs");
    obs::Counter &beta =
        obs::Registry::global().counter("threadpool.tp_beta.jobs");
    const std::uint64_t alphaBefore = alpha.value();
    const std::uint64_t betaBefore = beta.value();
    {
        ThreadPool pool(2, "tp_alpha");
        for (int i = 0; i < 7; ++i)
            pool.submit([] {});
        pool.waitIdle();
    }
    {
        ThreadPool pool(2, "tp_beta");
        for (int i = 0; i < 3; ++i)
            pool.submit([] {});
        pool.waitIdle();
    }
    EXPECT_EQ(alpha.value() - alphaBefore, 7u);
    EXPECT_EQ(beta.value() - betaBefore, 3u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 9u}) {
        std::vector<int> hits(257, 0);
        parallelFor(hits.size(), jobs,
                    [&hits](std::size_t i) { hits[i] += 1; });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257)
            << jobs << " jobs";
        for (int h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(ParallelFor, PropagatesExceptionsFromWorkers)
{
    EXPECT_THROW(parallelFor(8, 4,
                             [](std::size_t i) {
                                 if (i == 5)
                                     blab_fatal("worker ", i);
                             }),
                 ConfigFailure);
    // Inline (serial) path throws too.
    EXPECT_THROW(parallelFor(8, 1,
                             [](std::size_t i) {
                                 if (i == 5)
                                     blab_fatal("worker ", i);
                             }),
                 ConfigFailure);
}

TEST(ParallelFor, HandlesEmptyAndSingleRanges)
{
    int calls = 0;
    parallelFor(0, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(Jobs, ResolutionPrefersExplicitThenEnvThenHardware)
{
    ASSERT_EQ(unsetenv("BRANCHLAB_JOBS"), 0);
    EXPECT_EQ(resolveJobs(3), 3u);
    EXPECT_EQ(resolveJobs(0), hardwareJobs());
    EXPECT_EQ(envJobs(), 0u);

    ASSERT_EQ(setenv("BRANCHLAB_JOBS", "5", 1), 0);
    EXPECT_EQ(envJobs(), 5u);
    EXPECT_EQ(resolveJobs(0), 5u);
    EXPECT_EQ(resolveJobs(2), 2u); // explicit still wins

    // Anything but a plain decimal from 1 to UINT_MAX is ignored: at
    // one time 99999999999 wrapped to 1215752191 worker threads.
    for (const char *bad : {"zero", "0", "-1", "+4", " 4", "4 ",
                            "99999999999", "4294967296"}) {
        SCOPED_TRACE(bad);
        ASSERT_EQ(setenv("BRANCHLAB_JOBS", bad, 1), 0);
        EXPECT_EQ(envJobs(), 0u);
        EXPECT_EQ(resolveJobs(0), hardwareJobs());
    }
    ASSERT_EQ(setenv("BRANCHLAB_JOBS", "4294967295", 1), 0);
    EXPECT_EQ(envJobs(), 4294967295u);
    ASSERT_EQ(unsetenv("BRANCHLAB_JOBS"), 0);
    EXPECT_GE(hardwareJobs(), 1u);
}

// ---------------------------------------------------------------------
// Timing.
// ---------------------------------------------------------------------

TEST(Timer, StopwatchIsMonotoneAndResets)
{
    Stopwatch watch;
    const double first = watch.seconds();
    EXPECT_GE(first, 0.0);
    const double second = watch.seconds();
    EXPECT_GE(second, first);
    watch.reset();
    EXPECT_GE(watch.seconds(), 0.0);
    EXPECT_NEAR(watch.millis(), watch.seconds() * 1e3, 1.0);
}

TEST(Timer, ScopeTimerAccumulatesIntoTarget)
{
    double total = 0.0;
    {
        ScopeTimer timer(&total);
    }
    const double once = total;
    EXPECT_GE(once, 0.0);
    {
        ScopeTimer timer(&total);
    }
    EXPECT_GE(total, once); // accumulates, not overwrites
}

} // namespace
} // namespace branchlab
