/**
 * @file
 * A small statistics package: ratios, running mean / standard
 * deviation, and number formatting. Live counters and histograms are
 * obs/metrics.hh's.
 *
 * The paper reports averages and standard deviations across benchmarks
 * (Tables 3-5); RunningStat computes both with Welford's online
 * algorithm.
 */

#ifndef BRANCHLAB_SUPPORT_STATS_HH
#define BRANCHLAB_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace branchlab
{

/**
 * A hit/total ratio, e.g. prediction accuracy or BTB miss ratio.
 * ratio() of an empty Ratio is defined as 0.
 */
class Ratio
{
  public:
    void record(bool hit);
    void reset();

    /** Merge raw hit/total counts accumulated elsewhere (e.g. a
     *  replay kernel's plain-integer tallies). */
    void
    add(std::uint64_t hits, std::uint64_t total)
    {
        hits_ += hits;
        total_ += total;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t total() const { return total_; }
    /** hits / total, or 0 when no events were recorded. */
    double ratio() const;
    /** 1 - ratio(). */
    double complement() const;

    /** Merge another ratio's events into this one. */
    void merge(const Ratio &other);

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * Online mean / variance / min / max over a stream of samples
 * (Welford's algorithm, numerically stable).
 */
class RunningStat
{
  public:
    void addSample(double value);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const;
    /** Population variance (divide by n), 0 when count < 2. */
    double variance() const;
    /** Population standard deviation. */
    double stddev() const;
    /** Sample standard deviation (divide by n-1), 0 when count < 2. */
    double sampleStddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/** Format a fraction as a percentage string, e.g. 0.915 -> "91.5%". */
std::string formatPercent(double fraction, int decimals = 1);

/** Format a double with fixed decimals, e.g. 1.2345 -> "1.23". */
std::string formatFixed(double value, int decimals = 2);

} // namespace branchlab

#endif // BRANCHLAB_SUPPORT_STATS_HH
