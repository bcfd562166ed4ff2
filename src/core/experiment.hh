/**
 * @file
 * Experiment configuration and per-benchmark results: everything the
 * paper's Tables 1-5 and Figures 3-4 need, measured for one workload.
 */

#ifndef BRANCHLAB_CORE_EXPERIMENT_HH
#define BRANCHLAB_CORE_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "predict/cbtb.hh"
#include "predict/sbtb.hh"
#include "profile/forward_slots.hh"
#include "trace/stats.hh"

namespace branchlab::core
{

/** Knobs of one full experiment, defaulting to the paper's setup. */
struct ExperimentConfig
{
    /** Master seed; every benchmark forks a sub-stream from it. */
    std::uint64_t seed = 19890528; // ISCA '89

    /** Worker threads for runAll(); 0 defers to the BRANCHLAB_JOBS
     *  environment variable, then the hardware concurrency. */
    unsigned jobs = 0;

    /** Override the per-workload run count (0 = workload default). */
    unsigned runsOverride = 0;

    /** BTB geometry: the paper's 256-entry fully-associative LRU. */
    predict::BufferConfig btb{};

    /** CBTB counter: the paper's 2-bit, threshold 2. */
    predict::CounterConfig counter{};

    /** Forward-slot counts (k + l) for Table 5's code-size column. */
    std::vector<unsigned> codeSizeSlots = {1, 2, 4, 8};

    /** Trace-selection arc threshold. */
    double traceThreshold = 0.7;

    /** Also evaluate the static schemes of the paper's section 1. */
    bool runStaticSchemes = true;

    /** Also run the Table 5 code-size transformation. */
    bool runCodeSize = true;

    /** Per-run safety valve. */
    std::uint64_t maxInstructionsPerRun = 400'000'000ULL;

    /** Persistent trace-cache directory. Empty defers to the
     *  BRANCHLAB_TRACE_CACHE environment variable; when both are
     *  empty the cache is disabled and every workload records. */
    std::string traceCacheDir;

    /** Trace-cache byte cap: after each store, least-recently-used
     *  entries are evicted until the cache fits. 0 defers to the
     *  BRANCHLAB_TRACE_CACHE_MAX_BYTES environment variable; when
     *  both are zero the cache is unbounded. */
    std::uint64_t traceCacheMaxBytes = 0;
};

/** Accuracy of one scheme over one benchmark. */
struct SchemeResult
{
    std::string scheme;
    /** The paper's A: probability a prediction was correct. */
    double accuracy = 0.0;
    /** BTB miss ratio rho (meaningful when hasMissRatio). */
    double missRatio = 0.0;
    bool hasMissRatio = false;
};

/** Everything measured for one benchmark. */
struct BenchmarkResult
{
    std::string name;
    unsigned runs = 0;
    /** Static program size in IR instructions. */
    std::size_t staticSize = 0;
    /** Dynamic statistics accumulated over all runs (Tables 1-2). */
    trace::TraceStats stats;

    SchemeResult sbtb;
    SchemeResult cbtb;
    SchemeResult fs;
    /** Section 1 baselines (empty unless runStaticSchemes). */
    std::vector<SchemeResult> staticSchemes;

    /** Table 5: code-size increase keyed by k + l. */
    std::map<unsigned, double> codeIncrease;

    /** Find a named scheme result ("SBTB", "CBTB", "FS", or a static
     *  baseline name); fatal when absent. */
    const SchemeResult &scheme(const std::string &scheme_name) const;
};

/** Average and standard deviation over benchmarks of one metric. */
struct Summary
{
    double mean = 0.0;
    double stddev = 0.0;
};

/** Compute mean/stddev of a per-benchmark metric. */
Summary summarize(const std::vector<double> &values);

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_EXPERIMENT_HH
