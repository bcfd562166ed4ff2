/**
 * @file
 * The experiment runner: builds a workload's program, executes its
 * input suite on the VM, drives every prediction scheme over the
 * branch stream, and applies the Forward Semantic transformation.
 *
 * Methodology follows the paper's section 3: the exact same inputs
 * drive all schemes; the hardware schemes observe the stream online
 * while the Forward Semantic profiles the full suite first and is
 * then measured over the same runs (the paper's profile-equals-
 * measurement setup).
 *
 * The engine records the branch stream in a single VM pass (or maps
 * it from the trace cache) and replays that one stream against every
 * scheme (record-once/replay-many). A cache hit restores the profile
 * from the entry's profile section, the one record the entry derives
 * from the stream, and reads the likely map and Table 1/2's counters
 * off what the entry holds; an entry without a profile is recorded
 * again, never folded. Because the inputs are
 * deterministic, this is observationally equivalent to driving each
 * scheme straight from the VM: tests/test_core.cc holds every
 * BenchmarkResult field bit-identical to a reference that does
 * exactly that with the virtual-dispatch predictors. runAll()
 * additionally fans workload-level jobs across a thread pool; every
 * benchmark derives its own RNG sub-stream, so results are
 * bit-identical for any job count.
 */

#ifndef BRANCHLAB_CORE_RUNNER_HH
#define BRANCHLAB_CORE_RUNNER_HH

#include <memory>

#include "core/experiment.hh"
#include "ir/layout.hh"
#include "predict/profile_predictor.hh"
#include "profile/profile.hh"
#include "trace/cache.hh"
#include "trace/event.hh"
#include "trace/soa.hh"
#include "trace/view.hh"
#include "workloads/workload.hh"

namespace branchlab::core
{

/**
 * One workload's recorded branch stream plus everything needed to
 * replay it against arbitrary predictors (ablation benches, tests).
 * The program and layout are owned here because events reference
 * their addresses.
 *
 * The stream has one encoded form, the BLTC stream sections
 * (trace/format.hh), held in one of two places: an owning SoaTrace in
 * `stream` (cold records), or a zero-copy mmap'd cache entry in
 * `mapped` with `stream` empty (warm hits). A cold record's columns
 * are the bytes its cache store writes, so both places hold the same
 * bytes and traceView() decodes them the same way; whole-stream
 * consumers can force an owning copy with materializedStream().
 */
struct RecordedWorkload
{
    std::string name;
    std::unique_ptr<ir::Program> program;
    std::unique_ptr<ir::Layout> layout;
    /** The owning stream's encoded columns (trace/soa.hh). Empty
     *  when `mapped` is set. */
    trace::SoaTrace stream;
    /** The zero-copy mapped cache entry (warm hits), else null. */
    std::shared_ptr<const trace::MappedEntry> mapped;
    /** Table 1/2's counters: derived from the record pass's profile
     *  (ProgramProfile::traceCounters), or on a cache hit from the
     *  entry's instruction count and bit-planes. */
    trace::TraceStats stats;
    /** The Forward Semantic's compiled-in predictions, profiled over
     *  exactly these events: built from the profile, or on a cache hit
     *  from the rows trace::mapEntryFile derives from its profile
     *  section. */
    predict::LikelyMap likelyMap;
    /** The full block/arc profile, always set by recordWorkload: the
     *  record pass's online profile, or restored from the cache
     *  entry's profile section on a hit. */
    std::unique_ptr<profile::ProgramProfile> profile;
    /** Profiling runs the stream covers. */
    unsigned runs = 0;
    /** Content hash of everything that determines the stream. */
    std::uint64_t contentHash = 0;
    /** True when the stream came from the persistent trace cache
     *  instead of a VM record pass. */
    bool cacheHit = false;

    /** A non-owning view of the stream, whichever form it is in. */
    trace::TraceView
    traceView() const
    {
        return mapped ? mapped->view() : trace::TraceView::of(stream);
    }

    std::uint64_t
    eventCount() const
    {
        return mapped ? mapped->eventCount : stream.size();
    }

    /**
     * The stream as an owning SoaTrace, decoding a mapped entry into
     * `stream` on first use (one full-stream copy -- replay paths
     * should stay on traceView() instead). Idempotent.
     */
    const trace::SoaTrace &
    materializedStream()
    {
        if (mapped != nullptr && stream.size() == 0 &&
            mapped->eventCount != 0) {
            stream = trace::materializeView(mapped->view());
            mapped.reset();
        }
        return stream;
    }

    /** The whole stream as materialised events (tests, small
     *  fixtures; costs a full copy). */
    std::vector<trace::BranchEvent>
    events() const
    {
        std::vector<trace::BranchEvent> out;
        out.reserve(static_cast<std::size_t>(eventCount()));
        trace::TraceView view = traceView();
        trace::TraceView::Cursor cursor = view.cursor();
        trace::TraceBlock block;
        while (cursor.next(block))
            for (std::size_t i = 0; i < block.count; ++i)
                out.push_back(block.event(i));
        return out;
    }
};

/**
 * Content hash of everything that determines a workload's recorded
 * stream: the program IR (printed with layout addresses), the data
 * segment, the layout footprint, the generated input suite, and the
 * VM configuration (seed, run count, instruction limit), plus a
 * schema version covering the event semantics themselves.
 */
std::uint64_t
workloadContentHash(const workloads::Workload &workload,
                    const ExperimentConfig &config = ExperimentConfig{});

/**
 * The deterministic input suite a workload runs under @p config:
 * config.runsOverride inputs (else the workload's default run count),
 * drawn from an RNG seeded by config.seed and the workload's name.
 */
std::vector<workloads::WorkloadInput>
makeInputSuite(const workloads::Workload &workload,
               const ExperimentConfig &config);

/**
 * Execute a workload's input suite once, recording the stream.
 *
 * When a trace cache is configured (config.traceCacheDir or the
 * BRANCHLAB_TRACE_CACHE environment variable) the cache is consulted
 * first: a hit reconstructs the RecordedWorkload bit-identically
 * without running the VM; a miss records and then persists the entry,
 * handing the store the recorded columns without copying them.
 * Entries whose pcs lie past the program's code end, and entries
 * without a profile section (stream-only files a synthetic writer
 * stores), are refused and re-recorded: a hit never folds the stream.
 * Each hit restores its profile and bumps `engine.profile.restored`.
 */
RecordedWorkload
recordWorkload(const workloads::Workload &workload,
               const ExperimentConfig &config = ExperimentConfig{});

/** A mapped entry's likely rows (derived from its profile section)
 *  as the profiled-static scheme's LikelyMap. */
predict::LikelyMap
cachedToLikely(const std::vector<trace::CachedLikely> &entries);

/**
 * The trace-cache entry that persists @p recorded: its run count,
 * trace stats (the entry keeps their instruction count), profile and
 * stream. The stream's columns move into the entry rather than being
 * copied (a mapped hit is materialised first); move them back into
 * `recorded.stream` to keep replaying. The one place a
 * RecordedWorkload becomes a CachedWorkload, so a cache store and
 * `branchlab record -o` write the same bytes.
 */
trace::CachedWorkload takeCacheEntry(RecordedWorkload &recorded);

/** Everything one replay of a stream measures for one scheme. */
struct ReplayResult
{
    /** Full accuracy breakdown (the driver's counters). */
    predict::PredictorStats stats;
    /** The paper's A: probability a prediction was correct. */
    double accuracy = 0.0;
    /** The paper's rho over this replay (BTB schemes only). */
    double missRatio = 0.0;
    bool hasMissRatio = false;
};

/** Bump the shared replay telemetry counters (engine.replays,
 *  engine.replay.events, and -- when @p scheme_count is nonzero --
 *  engine.replay.schemes). Every replay entry point funnels through
 *  this one helper so the counter set cannot drift between paths. */
void noteReplayTelemetry(std::size_t event_count,
                         std::size_t scheme_count);

/** Virtual-dispatch replay straight off a stream view (events are
 *  materialised one block at a time; no event vector is built, and a
 *  mapped view is consumed zero-copy). This is the reference path;
 *  the kernel dispatch layer (core/replay_kernel.hh) is bound to it
 *  by differential tests. */
ReplayResult replay(const trace::TraceView &view,
                    predict::BranchPredictor &predictor);

/** replayMany() without its span and telemetry: the one loop that
 *  drives virtual predictors over a view, under replay(),
 *  replayMany() and the kernel engine's fallback. */
std::vector<ReplayResult>
replayVirtual(const trace::TraceView &view,
              const std::vector<predict::BranchPredictor *> &predictors);

/** Replay a stream view against several independent predictors in
 *  one pass (the schemes never interact, so the results are identical
 *  to sequential replay() calls; the fused loop just reads the stream
 *  once instead of once per scheme). Results are in predictor order. */
std::vector<ReplayResult>
replayMany(const trace::TraceView &view,
           const std::vector<predict::BranchPredictor *> &predictors);

inline ReplayResult
replay(const RecordedWorkload &recorded,
       predict::BranchPredictor &predictor)
{
    return replay(recorded.traceView(), predictor);
}

/** Replay recorded events against a predictor; returns its accuracy.
 *  Prefer replay() when the miss ratio is also needed. */
double replayAccuracy(const RecordedWorkload &recorded,
                      predict::BranchPredictor &predictor);

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentConfig config = ExperimentConfig{})
        : config_(config)
    {}

    /** Run one benchmark end to end. */
    BenchmarkResult runBenchmark(const workloads::Workload &workload) const;

    /** Run the full ten-benchmark suite (Table 1 order), fanning the
     *  benchmarks across config().jobs worker threads. */
    std::vector<BenchmarkResult> runAll() const;

    const ExperimentConfig &config() const { return config_; }

  private:
    ExperimentConfig config_;
};

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_RUNNER_HH
