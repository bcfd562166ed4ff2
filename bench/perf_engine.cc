/**
 * @file
 * Performance harness for the experiment engine itself.
 *
 * Times the full ten-benchmark suite serially and fanned across
 * BRANCHLAB_JOBS worker threads, then splits the engine into its two
 * component phases (the VM record pass, and the replay pass down both
 * the specialized kernels and the virtual-dispatch reference, timed
 * separately) and times a warm-cache suite run against a throwaway
 * persistent trace cache, where the record pass is skipped entirely.
 *
 * Verifies that the parallel and warm-cache runs reproduce the serial
 * run's scheme accuracies, miss ratios, trace statistics and code
 * growth bit for bit, and that the kernel replay pass reproduces the
 * virtual-dispatch reference's per-scheme results on every workload;
 * micro-benchmarks the linear-scan vs hash-indexed AssociativeBuffer
 * lookup on the paper's 256-way fully-assoc geometry, measures the
 * telemetry layer's replay overhead (collection enabled vs compiled in
 * but disabled), and emits everything machine-readable -- including
 * the engine phase spans the run accumulated -- to BENCH_engine.json
 * so the perf trajectory is tracked PR over PR.
 *
 *   perf_engine [--runs N] [--jobs N] [--repeat N] [--out FILE]
 *
 * --runs caps each benchmark's input-run count (0 = the full paper
 * suite); --repeat times each phase best-of-N (default 3).
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_common.hh"

#include "core/replay_kernel.hh"
#include "obs/metrics.hh"
#include "predict/assoc_buffer.hh"
#include "predict/profile_predictor.hh"
#include "predict/static_predictors.hh"
#include "support/random.hh"
#include "support/strings.hh"
#include "trace/cache.hh"

namespace
{

using namespace branchlab;

struct TimedRun
{
    std::string label;
    double seconds = 0.0;
    std::vector<core::BenchmarkResult> results;
};

/** Peak-RSS high-water marks sampled after each phase (bytes; see
 *  bench::peakRssBytes for the monotonicity caveat). */
using RssSamples = std::vector<std::pair<std::string, std::uint64_t>>;

TimedRun
timeSuite(const std::string &label, const core::ExperimentConfig &config,
          unsigned repeat)
{
    std::cerr << "  " << label << "...\n";
    TimedRun run;
    run.label = label;
    // Best-of-N: the suite is deterministic, so repeated executions
    // differ only by scheduler noise and the minimum is the honest
    // wall-clock cost on a shared host.
    for (unsigned r = 0; r < repeat; ++r) {
        double seconds = 0.0;
        {
            ScopeTimer timer(&seconds);
            run.results = core::ExperimentRunner(config).runAll();
        }
        if (r == 0 || seconds < run.seconds)
            run.seconds = seconds;
        std::cerr << "    " << formatFixed(seconds, 3) << " s\n";
    }
    return run;
}

/** Exact-equality comparison of everything a suite run measures. */
std::size_t
countMismatches(const std::vector<core::BenchmarkResult> &a,
                const std::vector<core::BenchmarkResult> &b)
{
    std::size_t mismatches = 0;
    const auto check = [&mismatches](bool same, const std::string &what) {
        if (!same) {
            ++mismatches;
            std::cerr << "  MISMATCH: " << what << "\n";
        }
    };
    check(a.size() == b.size(), "suite size");
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        const core::BenchmarkResult &x = a[i];
        const core::BenchmarkResult &y = b[i];
        check(x.name == y.name, "benchmark order");
        const auto scheme = [&](const core::SchemeResult &s,
                                const core::SchemeResult &t) {
            check(s.accuracy == t.accuracy, x.name + " " + s.scheme +
                                                " accuracy");
            check(s.missRatio == t.missRatio, x.name + " " + s.scheme +
                                                  " miss ratio");
        };
        scheme(x.sbtb, y.sbtb);
        scheme(x.cbtb, y.cbtb);
        scheme(x.fs, y.fs);
        check(x.staticSchemes.size() == y.staticSchemes.size(),
              x.name + " static scheme count");
        for (std::size_t s = 0; s < std::min(x.staticSchemes.size(),
                                             y.staticSchemes.size());
             ++s) {
            scheme(x.staticSchemes[s], y.staticSchemes[s]);
        }
        check(x.stats.instructions() == y.stats.instructions(),
              x.name + " instruction count");
        check(x.stats.branches() == y.stats.branches(),
              x.name + " branch count");
        check(x.codeIncrease == y.codeIncrease,
              x.name + " code increase");
    }
    return mismatches;
}

/** Serial acquisition pass over the whole suite: the VM record
 *  phase cold, or -- against a primed cache -- the pure warm path
 *  (hash + mmap + validate, no VM, no decode). */
double
timeRecordPass(const core::ExperimentConfig &config, unsigned repeat,
               std::vector<core::RecordedWorkload> &out,
               const char *label = "record pass (VM only)")
{
    std::cerr << "  " << label << "...\n";
    double best = 0.0;
    for (unsigned r = 0; r < repeat; ++r) {
        // Release the previous round's streams before recording anew:
        // rounds are bit-identical (the suite is deterministic), so
        // holding the old set while building the new one would keep
        // two full stream sets alive and double the peak RSS without
        // changing any result. Timing stays best-of-N; the kept
        // vector is simply the last round's.
        out.clear();
        std::vector<core::RecordedWorkload> recorded;
        double seconds = 0.0;
        {
            ScopeTimer timer(&seconds);
            for (const workloads::Workload *workload :
                 workloads::allWorkloads())
                recorded.push_back(
                    core::recordWorkload(*workload, config));
        }
        if (r == 0 || seconds < best)
            best = seconds;
        out = std::move(recorded);
        std::cerr << "    " << formatFixed(seconds, 3) << " s\n";
    }
    return best;
}

/** Whether a replay pass goes through the specialized kernels (the
 *  engine's real path) or the virtual-dispatch reference path. */
enum class ReplayPath
{
    Kernel,
    Fallback,
};

/** Per workload, the seven schemes' results of one replay pass. */
using ReplayResults = std::vector<std::vector<core::ReplayResult>>;

/** One serial replay pass over pre-recorded streams (no VM
 *  execution): the same seven schemes the replay engine fuses per
 *  workload. @return wall-clock seconds; prints it with @p tag. Fills
 *  @p results when given. */
double
replayPassOnce(const std::vector<core::RecordedWorkload> &recorded,
               const core::ExperimentConfig &config, const char *tag,
               ReplayPath path, ReplayResults *results = nullptr)
{
    double seconds = 0.0;
    double checksum = 0.0;
    ReplayResults pass;
    pass.reserve(recorded.size());
    {
        ScopeTimer timer(&seconds);
        for (const core::RecordedWorkload &workload : recorded) {
            if (path == ReplayPath::Kernel) {
                std::vector<core::KernelSpec> specs;
                core::KernelSpec spec;
                spec.kind = core::SchemeKind::Sbtb;
                spec.btb = config.btb;
                specs.push_back(spec);
                spec.kind = core::SchemeKind::Cbtb;
                spec.counter = config.counter;
                specs.push_back(spec);
                for (const core::SchemeKind kind :
                     {core::SchemeKind::AlwaysTaken,
                      core::SchemeKind::AlwaysNotTaken,
                      core::SchemeKind::BackwardTaken,
                      core::SchemeKind::OpcodeBias}) {
                    core::KernelSpec s;
                    s.kind = kind;
                    specs.push_back(s);
                }
                core::KernelSpec fs_spec;
                fs_spec.kind = core::SchemeKind::ForwardSemantic;
                fs_spec.likely = &workload.likelyMap;
                specs.push_back(fs_spec);
                pass.push_back(
                    core::replayManyKernel(workload.traceView(), specs));
            } else {
                predict::SimpleBtb sbtb(config.btb);
                predict::CounterBtb cbtb(config.btb, config.counter);
                predict::AlwaysTaken always_taken;
                predict::AlwaysNotTaken always_not_taken;
                predict::BackwardTaken btfnt;
                predict::OpcodeBias opcode_bias;
                predict::ProfilePredictor fs(workload.likelyMap);
                pass.push_back(core::replayMany(
                    workload.traceView(),
                    {&sbtb, &cbtb, &always_taken, &always_not_taken,
                     &btfnt, &opcode_bias, &fs}));
            }
        }
    }
    for (const std::vector<core::ReplayResult> &replays : pass)
        for (const core::ReplayResult &replay : replays)
            checksum += replay.accuracy;
    std::cerr << "    " << formatFixed(seconds, 3) << " s" << tag
              << " (acc sum " << formatFixed(checksum, 3) << ")\n";
    if (results != nullptr)
        *results = std::move(pass);
    return seconds;
}

double
timeReplayPass(const std::vector<core::RecordedWorkload> &recorded,
               const core::ExperimentConfig &config, unsigned repeat,
               ReplayPath path, ReplayResults &results)
{
    std::cerr << (path == ReplayPath::Kernel
                      ? "  replay pass (specialized kernels)...\n"
                      : "  replay pass (virtual fallback)...\n");
    double best = 0.0;
    for (unsigned r = 0; r < repeat; ++r) {
        const double seconds =
            replayPassOnce(recorded, config, "", path, &results);
        if (r == 0 || seconds < best)
            best = seconds;
    }
    return best;
}

/** Exact-equality comparison of the kernel pass with the virtual
 *  reference, workload by workload and scheme by scheme. */
std::size_t
countReplayMismatches(const std::vector<core::RecordedWorkload> &recorded,
                      const ReplayResults &kernel,
                      const ReplayResults &reference)
{
    const auto same_ratio = [](const Ratio &a, const Ratio &b) {
        return a.hits() == b.hits() && a.total() == b.total();
    };
    std::size_t mismatches = 0;
    for (std::size_t w = 0; w < recorded.size(); ++w) {
        for (std::size_t s = 0; s < reference[w].size(); ++s) {
            const core::ReplayResult &a = kernel[w][s];
            const core::ReplayResult &b = reference[w][s];
            if (same_ratio(a.stats.accuracy, b.stats.accuracy) &&
                same_ratio(a.stats.conditionalAccuracy,
                           b.stats.conditionalAccuracy) &&
                same_ratio(a.stats.unconditionalAccuracy,
                           b.stats.unconditionalAccuracy) &&
                same_ratio(a.stats.predictedTaken,
                           b.stats.predictedTaken) &&
                a.hasMissRatio == b.hasMissRatio &&
                a.missRatio == b.missRatio)
                continue;
            ++mismatches;
            std::cerr << "  MISMATCH: " << recorded[w].name
                      << " scheme " << s
                      << " kernel replay vs virtual reference\n";
        }
    }
    return mismatches;
}

/**
 * The telemetry overhead probe: the replay pass with collection
 * enabled vs compiled in but disabled.
 *
 * Two measurement hazards are neutralised here. First, whichever
 * variant runs first in the whole probe pays the page-fault and
 * cache-fill cost of the streams' first traversal -- a discarded
 * warm-up pass absorbs that. Second, within a repeat the variant
 * that runs second inherits the first one's warmth, so a fixed
 * (on, off) order systematically flatters "off" and once reported a
 * -17% overhead; the order alternates every repeat so the bias
 * cancels. The reported overhead is the median of the per-pair
 * relative deltas (robust against a preempted pass), taken over at
 * least seven pairs regardless of --repeat -- a pair costs two
 * replay passes, cheap next to the rest of the bench, and a median
 * of three is still one bad pair away from nonsense. enabled_s /
 * disabled_s stay best-of-N like every other phase.
 */
void
timeTelemetryOverhead(
    const std::vector<core::RecordedWorkload> &recorded,
    const core::ExperimentConfig &config, unsigned repeat,
    double &enabled_s, double &disabled_s, double &overhead_pct)
{
    std::cerr << "  replay pass, telemetry on vs off (alternating "
                 "order)...\n";
    const auto pass = [&](bool enabled) {
        obs::setEnabled(enabled);
        const double seconds = replayPassOnce(
            recorded, config, enabled ? " [on]" : " [off]",
            ReplayPath::Kernel);
        obs::setEnabled(true);
        return seconds;
    };
    pass(true); // warm-up, discarded
    const unsigned pairs = std::max(repeat, 7u);
    std::vector<double> pcts;
    for (unsigned r = 0; r < pairs; ++r) {
        double on = 0.0;
        double off = 0.0;
        if (r % 2 == 0) {
            on = pass(true);
            off = pass(false);
        } else {
            off = pass(false);
            on = pass(true);
        }
        pcts.push_back((on - off) / off * 100.0);
        if (r == 0 || on < enabled_s)
            enabled_s = on;
        if (r == 0 || off < disabled_s)
            disabled_s = off;
    }
    std::sort(pcts.begin(), pcts.end());
    const std::size_t mid = pcts.size() / 2;
    overhead_pct = pcts.size() % 2 == 1
                       ? pcts[mid]
                       : (pcts[mid - 1] + pcts[mid]) / 2.0;
}

/** Resident bytes of one recorded stream set: the owned encoded
 *  columns, counted at capacity (what the allocator actually holds). */
std::uint64_t
streamSetBytes(const std::vector<core::RecordedWorkload> &recorded)
{
    std::uint64_t total = 0;
    for (const core::RecordedWorkload &workload : recorded) {
        const trace::SoaTrace &s = workload.stream;
        for (const std::vector<std::uint8_t> *column :
             {&s.ops(), &s.conditionalPlane(), &s.takenPlane(),
              &s.targetKnownPlane(), &s.anomalyPlane(), &s.deltas(),
              &s.anomalyDeltas()})
            total += column->capacity();
    }
    return total;
}

struct LookupBench
{
    std::uint64_t ops = 0;
    double linearMops = 0.0;
    double indexedMops = 0.0;
    double speedup = 0.0;
};

/** Drive one buffer strategy with a BTB-shaped find/insert stream. */
double
lookupMops(predict::LookupStrategy strategy, std::uint64_t ops)
{
    struct Payload
    {
        std::uint64_t target = 0;
    };
    predict::BufferConfig config;
    config.entries = 256;
    config.associativity = 0; // the paper's fully-associative geometry
    config.lookup = strategy;
    predict::AssociativeBuffer<Payload> buffer(config);

    // A working set of 4x capacity keeps hits, misses, and evictions
    // all on the measured path.
    Rng rng(20260806);
    std::vector<ir::Addr> tags(1024);
    for (ir::Addr &tag : tags)
        tag = rng.next() & 0xffffff;

    std::uint64_t found = 0;
    Stopwatch watch;
    for (std::uint64_t op = 0; op < ops; ++op) {
        const ir::Addr tag = tags[rng.nextBelow(tags.size())];
        if (Payload *hit = buffer.find(tag)) {
            found += hit->target != 0;
        } else {
            buffer.insert(tag).target = tag | 1;
        }
    }
    const double seconds = watch.seconds();
    // Keep the loop observable so it cannot be optimised away.
    std::cerr << "    "
              << (strategy == predict::LookupStrategy::Linear
                      ? "linear "
                      : "indexed")
              << ": " << formatFixed(seconds * 1e3, 1) << " ms ("
              << found << " hits)\n";
    return static_cast<double>(ops) / 1e6 / seconds;
}

LookupBench
benchBufferLookup()
{
    LookupBench bench;
    bench.ops = 4'000'000;
    bench.linearMops =
        lookupMops(predict::LookupStrategy::Linear, bench.ops);
    bench.indexedMops =
        lookupMops(predict::LookupStrategy::Indexed, bench.ops);
    bench.speedup = bench.indexedMops / bench.linearMops;
    return bench;
}

void
writeJson(const std::string &path, unsigned jobs, unsigned runs_override,
          unsigned repeat, const TimedRun &replay_serial,
          const TimedRun &replay_parallel,
          double record_s, double replay_only_s,
          double replay_fallback_s, double warm_cache_s,
          double warm_decode_s, double replay_enabled_s,
          double replay_disabled_s, double telemetry_overhead_pct,
          const trace::TraceCacheCounters &cache_counters,
          const RssSamples &rss, const LookupBench &lookup,
          std::size_t mismatches)
{
    const obs::Snapshot snapshot = obs::Registry::global().snapshot();
    std::ostringstream os;
    os.precision(17);
    os << "{\n"
       << "  \"bench\": \"perf_engine\",\n"
       << "  \"benchmarks\": " << replay_serial.results.size() << ",\n"
       << "  \"runs_override\": " << runs_override << ",\n"
       << "  \"repeat\": " << repeat << ",\n"
       << "  \"jobs_parallel\": " << jobs << ",\n"
       << "  \"replay_parallel_threads\": " << jobs << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"phases\": {\n"
       << "    \"replay_serial_s\": " << replay_serial.seconds << ",\n"
       << "    \"replay_parallel_s\": " << replay_parallel.seconds
       << ",\n"
       << "    \"record_s\": " << record_s << ",\n"
       << "    \"replay_only_s\": " << replay_only_s << ",\n"
       << "    \"replay_kernel_s\": " << replay_only_s << ",\n"
       << "    \"replay_fallback_s\": " << replay_fallback_s << ",\n"
       << "    \"warm_cache_s\": " << warm_cache_s << ",\n"
       << "    \"warm_decode_s\": " << warm_decode_s << "\n  },\n"
       << "  \"speedup\": {\n"
       << "    \"kernel_vs_fallback\": "
       << replay_fallback_s / replay_only_s << ",\n"
       // warm_cache_vs_record compares like with like: record_s
       // times acquisition alone (the VM record pass), so its warm
       // counterpart is warm_decode_s (cache load alone), not the
       // whole warm suite (which also replays every scheme).
       << "    \"warm_cache_vs_record\": "
       << record_s / warm_decode_s << ",\n"
       << "    \"warm_suite_vs_record\": "
       << record_s / warm_cache_s << "\n  },\n"
       << "  \"trace_cache\": {\n"
       << "    \"hits\": " << cache_counters.hits << ",\n"
       << "    \"misses\": " << cache_counters.misses << ",\n"
       << "    \"stores\": " << cache_counters.stores << "\n  },\n"
       << "  \"peak_rss_bytes\": {\n";
    for (std::size_t i = 0; i < rss.size(); ++i) {
        os << "    \"" << rss[i].first << "\": " << rss[i].second
           << (i + 1 < rss.size() ? "," : "") << "\n";
    }
    os << "  },\n"
       << "  \"telemetry\": {\n"
       << "    \"replay_enabled_s\": " << replay_enabled_s << ",\n"
       << "    \"replay_disabled_s\": " << replay_disabled_s << ",\n"
       << "    \"overhead_pct\": " << telemetry_overhead_pct
       << "\n  },\n"
       << "  \"spans\": {\n";
    for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
        const obs::Snapshot::SpanRow &row = snapshot.spans[i];
        os << "    \"" << row.name << "\": {\"count\": " << row.count
           << ", \"total_ns\": " << row.totalNs
           << ", \"max_ns\": " << row.maxNs << "}"
           << (i + 1 < snapshot.spans.size() ? "," : "") << "\n";
    }
    os << "  },\n"
       << "  \"btb_lookup\": {\n"
       << "    \"ops\": " << lookup.ops << ",\n"
       << "    \"linear_mops\": " << lookup.linearMops << ",\n"
       << "    \"indexed_mops\": " << lookup.indexedMops << ",\n"
       << "    \"indexed_speedup\": " << lookup.speedup << "\n  },\n"
       << "  \"mismatches\": " << mismatches << ",\n"
       << "  \"accuracy\": {\n";
    for (std::size_t i = 0; i < replay_serial.results.size(); ++i) {
        const core::BenchmarkResult &r = replay_serial.results[i];
        os << "    \"" << r.name << "\": {\"sbtb\": " << r.sbtb.accuracy
           << ", \"cbtb\": " << r.cbtb.accuracy
           << ", \"fs\": " << r.fs.accuracy << "}"
           << (i + 1 < replay_serial.results.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";

    std::ofstream out(path);
    if (!out)
        blab_fatal("cannot write ", path);
    out << os.str();
    std::cerr << "  wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    setLoggingThrows(false); // bad arguments exit with a message
    unsigned runs_override = 0;
    unsigned jobs = 0;
    unsigned repeat = 3;
    std::string out_path = "BENCH_engine.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&]() -> std::string {
            if (i + 1 >= argc)
                blab_fatal("missing value for ", arg);
            return argv[++i];
        };
        const auto need_number = [&]() {
            return parseOptionNumber<unsigned>(arg, need_value());
        };
        if (arg == "--runs")
            runs_override = need_number();
        else if (arg == "--jobs")
            jobs = need_number();
        else if (arg == "--repeat")
            repeat = need_number();
        else if (arg == "--out")
            out_path = need_value();
        else
            blab_fatal("unknown option '", arg, "'");
    }
    if (repeat == 0)
        repeat = 1;

    // An ambient trace cache would let the "cold" phases skip their
    // VM passes; the only cache this bench may use is its own
    // throwaway directory below.
    if (std::getenv("BRANCHLAB_TRACE_CACHE") != nullptr) {
        std::cerr << "ignoring BRANCHLAB_TRACE_CACHE for the cold "
                     "phases\n";
        unsetenv("BRANCHLAB_TRACE_CACHE");
    }

    core::ExperimentConfig config = bench::paperConfig();
    config.runsOverride = runs_override;

    core::ExperimentConfig replay_serial_config = config;
    replay_serial_config.jobs = 1;

    core::ExperimentConfig replay_parallel_config = config;
    replay_parallel_config.jobs = jobs; // 0 = BRANCHLAB_JOBS / hardware
    const unsigned parallel_jobs = resolveJobs(jobs);

    bench::printCaption("Engine perf: record-once/replay-many");
    RssSamples rss;
    const auto sample_rss = [&rss](const char *phase) {
        rss.emplace_back(phase, bench::peakRssBytes());
    };
    std::cerr << "full suite, serial and parallel:\n";
    const TimedRun replay_serial =
        timeSuite("replay serial", replay_serial_config, repeat);
    sample_rss("replay_serial");
    const TimedRun replay_parallel = timeSuite(
        "replay parallel (" + std::to_string(parallel_jobs) + " jobs)",
        replay_parallel_config, repeat);
    sample_rss("replay_parallel");
    const std::uint64_t rss_engines = rss.back().second;

    std::cerr << "verifying parallel == serial...\n";
    std::size_t mismatches =
        countMismatches(replay_serial.results, replay_parallel.results);

    std::cerr << "replay engine phase split:\n";
    std::vector<core::RecordedWorkload> recorded;
    const double record_s =
        timeRecordPass(replay_serial_config, repeat, recorded);
    // replay_only_s is the engine's actual replay path (kernels);
    // the fallback pass times the virtual-dispatch reference the
    // kernels replaced, so kernel_vs_fallback is the PR-over-PR
    // specialization win.
    ReplayResults kernel_results;
    ReplayResults fallback_results;
    const double replay_only_s =
        timeReplayPass(recorded, replay_serial_config, repeat,
                       ReplayPath::Kernel, kernel_results);
    const double replay_fallback_s =
        timeReplayPass(recorded, replay_serial_config, repeat,
                       ReplayPath::Fallback, fallback_results);
    sample_rss("replay_phase_split");
    mismatches += countReplayMismatches(recorded, kernel_results,
                                        fallback_results);
    const std::uint64_t stream_set_bytes = streamSetBytes(recorded);

    // Telemetry overhead: the same replay pass, collection enabled vs
    // compiled in but switched off. The delta is what the always-on
    // counters cost on the hottest path; CI fails the build if its
    // absolute value exceeds 2% (either sign means the probe measured
    // noise, not the counters).
    double replay_enabled_s = 0.0;
    double replay_disabled_s = 0.0;
    double telemetry_overhead_pct = 0.0;
    timeTelemetryOverhead(recorded, replay_serial_config, repeat,
                          replay_enabled_s, replay_disabled_s,
                          telemetry_overhead_pct);
    recorded.clear();

    // Warm-cache phase: prime a throwaway cache with one suite run,
    // then time runs whose record pass is a pure cache hit.
    const std::string cache_dir =
        ".perf-engine-cache-" + std::to_string(getpid());
    core::ExperimentConfig warm_config = replay_serial_config;
    warm_config.traceCacheDir = cache_dir;
    std::cerr << "warm trace cache (dir " << cache_dir << "):\n";
    std::cerr << "  priming...\n";
    core::ExperimentRunner(warm_config).runAll();
    trace::resetTraceCacheCounters();
    // The warm acquisition phase alone: hash the workload, mmap the
    // entry, validate it -- no VM, no decode, no replay. This is
    // record_s's like-for-like warm counterpart.
    std::vector<core::RecordedWorkload> warm_loaded;
    const double warm_decode_s =
        timeRecordPass(warm_config, repeat, warm_loaded,
                       "warm load (mmap + validate only)");
    const bool warm_loads_mapped =
        !warm_loaded.empty() &&
        std::all_of(warm_loaded.begin(), warm_loaded.end(),
                    [](const core::RecordedWorkload &w) {
                        return w.cacheHit && w.mapped != nullptr;
                    });
    warm_loaded.clear();
    const TimedRun warm_cache =
        timeSuite("warm-cache serial", warm_config, repeat);
    sample_rss("warm_cache");
    const trace::TraceCacheCounters cache_counters =
        trace::traceCacheCounters();
    if (!warm_loads_mapped) {
        std::cerr << "  MISMATCH: warm loads were not zero-copy "
                     "mapped entries\n";
        ++mismatches;
    }
    if (cache_counters.misses != 0 || cache_counters.stores != 0) {
        std::cerr << "  MISMATCH: warm runs recorded ("
                  << cache_counters.misses << " misses, "
                  << cache_counters.stores << " stores)\n";
        ++mismatches;
    }
    mismatches +=
        countMismatches(replay_serial.results, warm_cache.results);
    std::error_code cleanup_ec;
    std::filesystem::remove_all(cache_dir, cleanup_ec);

    // The phases after the engine runs may raise the RSS high-water
    // mark by at most about one stream set: the phase split holds a
    // single recorded set (released before the warm phase), and the
    // warm suite works over mmap'd entries of comparable size that
    // never coexist with an owned set. Retaining two owned sets at
    // once -- the regression this guards against -- once pushed the
    // mark from ~164 MB to ~1.07 GB.
    const std::uint64_t rss_budget = rss_engines + stream_set_bytes +
                                     stream_set_bytes / 2 +
                                     (128ull << 20);
    if (bench::peakRssBytes() > rss_budget) {
        std::cerr << "  MISMATCH: peak RSS "
                  << bench::peakRssBytes() << " exceeds budget "
                  << rss_budget << " (engines " << rss_engines
                  << " + 1.5x stream set " << stream_set_bytes
                  << " + slack): per-phase state is being retained\n";
        ++mismatches;
    }

    std::cerr << "BTB lookup micro-bench (256-entry fully-assoc):\n";
    const LookupBench lookup = benchBufferLookup();

    TextTable table({"Phase", "seconds"});
    table.addRow({"suite serial", formatFixed(replay_serial.seconds, 3)});
    table.addRow(
        {"suite parallel (" + std::to_string(parallel_jobs) + " jobs)",
         formatFixed(replay_parallel.seconds, 3)});
    table.addRow({"record phase (VM)", formatFixed(record_s, 3)});
    table.addRow({"replay phase (kernels)", formatFixed(replay_only_s, 3)});
    table.addRow({"replay phase (virtual fallback)",
                  formatFixed(replay_fallback_s, 3)});
    table.addRow(
        {"warm-cache suite serial", formatFixed(warm_cache.seconds, 3)});
    table.render(std::cout);
    std::cout << "\nWarm cache vs record pass: "
              << formatFixed(record_s / warm_decode_s, 2)
              << "x (record " << formatFixed(record_s, 3)
              << " s vs warm load " << formatFixed(warm_decode_s, 3)
              << " s; hits " << cache_counters.hits << ", misses "
              << cache_counters.misses << ", stores "
              << cache_counters.stores << ")\n";
    std::cout << "\nBTB lookup: linear "
              << formatFixed(lookup.linearMops, 1) << " Mops/s, indexed "
              << formatFixed(lookup.indexedMops, 1) << " Mops/s ("
              << formatFixed(lookup.speedup, 2) << "x)\n"
              << "Telemetry replay overhead: "
              << formatFixed(telemetry_overhead_pct, 2) << "% (on "
              << formatFixed(replay_enabled_s, 3) << " s, off "
              << formatFixed(replay_disabled_s, 3) << " s)\n"
              << "Equivalence: "
              << (mismatches == 0 ? "bit-identical across runs and "
                                    "replay paths"
                                  : std::to_string(mismatches) +
                                        " MISMATCHES")
              << "\n";

    std::cout << "Kernel vs fallback replay: "
              << formatFixed(replay_fallback_s / replay_only_s, 2)
              << "x\n";

    writeJson(out_path, parallel_jobs, runs_override, repeat,
              replay_serial, replay_parallel, record_s, replay_only_s,
              replay_fallback_s, warm_cache.seconds, warm_decode_s,
              replay_enabled_s, replay_disabled_s,
              telemetry_overhead_pct, cache_counters, rss, lookup,
              mismatches);
    return mismatches == 0 ? 0 : 1;
}
