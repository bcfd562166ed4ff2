/**
 * @file
 * Unit tests of the benchmark's own statistics: the Poisson and Zipf
 * samplers behind serve-zipf's load, the supported-tail percentile
 * rule, and the histogram percentile used for pool queue waits.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "loadgen.hh"

namespace
{

using namespace blbench;

TEST(PoissonArrivals, SameSeedSameSchedule)
{
    branchlab::Rng a(42), b(42), c(43);
    const std::vector<double> first = poissonArrivals(1000.0, 2.0, a);
    EXPECT_EQ(first, poissonArrivals(1000.0, 2.0, b));
    EXPECT_NE(first, poissonArrivals(1000.0, 2.0, c));
}

TEST(PoissonArrivals, RateAndExponentialGaps)
{
    branchlab::Rng rng(7);
    const double rate = 5000.0, seconds = 20.0;
    const std::vector<double> arrivals = poissonArrivals(rate, seconds, rng);
    // Count ~ Poisson(100000): within 1% (> 3 standard deviations).
    EXPECT_NEAR(static_cast<double>(arrivals.size()), rate * seconds,
                0.01 * rate * seconds);
    ASSERT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
    EXPECT_GE(arrivals.front(), 0.0);
    EXPECT_LT(arrivals.back(), seconds);
    // Memorylessness: P(gap > mean) = e^-1 for exponential gaps.
    std::size_t longGaps = 0;
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        longGaps += (arrivals[i] - arrivals[i - 1]) > 1.0 / rate;
    EXPECT_NEAR(static_cast<double>(longGaps) /
                    static_cast<double>(arrivals.size() - 1),
                std::exp(-1.0), 0.01);
}

TEST(PoissonArrivals, ZeroRateIsEmpty)
{
    branchlab::Rng rng(1);
    EXPECT_TRUE(poissonArrivals(0.0, 5.0, rng).empty());
}

TEST(ZipfSampler, FrequenciesFollowOneOverRank)
{
    const ZipfSampler zipf(80, 1.0);
    EXPECT_EQ(zipf.size(), 80u);
    branchlab::Rng rng(11);
    std::vector<double> counts(80, 0.0);
    const int draws = 400000;
    for (int i = 0; i < draws; ++i) {
        const std::size_t rank = zipf.sample(rng);
        ASSERT_LT(rank, 80u);
        counts[rank] += 1.0;
    }
    double harmonic = 0.0;
    for (int k = 1; k <= 80; ++k)
        harmonic += 1.0 / k;
    for (const std::size_t rank : {0u, 1u, 4u, 19u}) {
        const double expected = draws / (harmonic * (rank + 1.0));
        EXPECT_NEAR(counts[rank], expected, 5.0 * std::sqrt(expected))
            << "rank " << rank;
    }
    EXPECT_NEAR(counts[0] / counts[1], 2.0, 0.05);
}

TEST(ZipfSampler, SingleKey)
{
    const ZipfSampler zipf(1, 1.0);
    branchlab::Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = 1; i <= n; ++i)
        values.push_back(static_cast<double>(i));
    return values;
}

TEST(SupportedTail, ThousandSamplesSupportP99)
{
    const Tail tail = supportedTail(ramp(1000));
    ASSERT_TRUE(tail.valid);
    EXPECT_EQ(tail.percentile, 99.0);
    EXPECT_EQ(tail.value, 990.0);
    EXPECT_EQ(tail.beyond, 10u);
    EXPECT_EQ(tail.samples, 1000u);
}

TEST(SupportedTail, OneShortFallsBackToP95)
{
    // 999 samples leave only 9 beyond the p99 rank.
    const Tail tail = supportedTail(ramp(999));
    ASSERT_TRUE(tail.valid);
    EXPECT_EQ(tail.percentile, 95.0);
    EXPECT_EQ(tail.value, 950.0);
    EXPECT_EQ(tail.beyond, 49u);
}

TEST(SupportedTail, LargeSamplesReachP999)
{
    const Tail tail = supportedTail(ramp(10000));
    ASSERT_TRUE(tail.valid);
    EXPECT_EQ(tail.percentile, 99.9);
    EXPECT_EQ(tail.beyond, 10u);
}

TEST(SupportedTail, TooFewSamples)
{
    EXPECT_FALSE(supportedTail(ramp(10)).valid);
    EXPECT_FALSE(supportedTail({}).valid);
    const Tail twenty = supportedTail(ramp(20));
    ASSERT_TRUE(twenty.valid);
    EXPECT_EQ(twenty.percentile, 50.0);
    EXPECT_EQ(twenty.beyond, 10u);
}

TEST(SupportedTail, OrderDoesNotMatter)
{
    std::vector<double> values = ramp(2000);
    std::reverse(values.begin(), values.end());
    EXPECT_EQ(supportedTail(values).value, supportedTail(ramp(2000)).value);
}

TEST(Quantiles, MedianAndInterpolation)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(quantile(ramp(5), 0.25), 2.0);
    EXPECT_EQ(median({}), 0.0);
}

TEST(HistogramPercentile, InterpolatesInsideTheBucket)
{
    const std::vector<std::uint64_t> bounds = {1000, 10000, 100000};
    // All 100 observations in (1000, 10000]: the median sits halfway
    // through the bucket on a log scale.
    const std::vector<std::uint64_t> buckets = {0, 100, 0, 0};
    EXPECT_NEAR(histogramPercentile(bounds, buckets, 50.0),
                std::sqrt(1000.0 * 10000.0), 1.0);
    EXPECT_NEAR(histogramPercentile(bounds, buckets, 100.0), 10000.0, 1e-6);
    EXPECT_EQ(histogramPercentile(bounds, {0, 0, 0, 0}, 50.0), 0.0);
}

} // namespace
