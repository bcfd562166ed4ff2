/**
 * @file
 * Design-space sweep engine: evaluate the paper's schemes over a grid
 * of design points instead of the single point Tables 2-5 report.
 *
 * Axes (SweepAxes) cover pipeline geometry (k, l, m), BTB geometry
 * (entries, associativity, replacement policy), CBTB counter shape
 * (bits, threshold), Forward Semantic slot counts, and the
 * trace-selection threshold. expandGrid() crosses them into concrete
 * SweepPoints, dropping combinations outside the hardware's domain
 * (entries not divisible by the associativity, thresholds outside the
 * counter range) with a warning rather than silently.
 *
 * Evaluation is record-once/replay-many taken to its limit: each
 * workload's branch stream is recorded exactly once (or served from
 * the persistent trace cache), every per-workload quantity that does
 * not depend on the point (FS accuracy, code growth per distinct
 * (level, slots, threshold) triple) is computed once up front, and
 * the grid is reduced to its distinct (BTB, counter) pairs -- the
 * only coordinates the hardware replay depends on. The pairs are cut
 * into groups of up to 16, and one thread-pool task walks one
 * workload's stream once for every pair in one group (events outer,
 * predictor state inner). Within a group the largest streams are
 * queued first; the task that finishes a group's last workload
 * journals that group's points. Inside a walk, pairs that differ only
 * in their counter share one SBTB kernel, since SBTB state depends on
 * the buffer geometry alone. The VM never re-executes; a 500-point
 * sweep that varies 16 (BTB, counter) pairs costs one stream walk per
 * workload, not 500 suite runs.
 *
 * Resume: when SweepConfig::journalDir is set, every completed point
 * is persisted through the SweepJournal (core/sweep_journal.hh):
 * checksummed, feature-bit-versioned segments sealed through
 * store::publish and mmap'd back on resume, keyed by
 * a content hash of the point configuration AND the recorded streams
 * it was measured over. An interrupted sweep rerun with the same
 * journal reloads completed points bit-identically and evaluates only
 * the remainder; a changed seed, run count, workload set, or point
 * config changes the key, so a stale entry is never served.
 *
 * Telemetry: spans sweep.suite / sweep.record / sweep.prepare /
 * sweep.point, counters sweep.points.evaluated /
 * sweep.points.resumed / sweep.replays, and the sweep.journal.*
 * family (see sweep_journal.hh).
 */

#ifndef BRANCHLAB_CORE_SWEEP_HH
#define BRANCHLAB_CORE_SWEEP_HH

#include <string>
#include <vector>

#include "core/runner.hh"
#include "core/sweep_journal.hh"
#include "pipeline/cost_model.hh"
#include "profile/fs_opt.hh"
#include "support/table.hh"

namespace branchlab::core
{

/** The swept parameter lists; the defaults are the paper's point. */
struct SweepAxes
{
    /** Pipeline geometries (k, l, m); cost evaluation only. */
    std::vector<pipeline::PipelineConfig> pipelines = {{}};
    /** BTB capacities (total entries). */
    std::vector<std::size_t> btbEntries = {256};
    /** BTB ways per set; 0 = fully associative. */
    std::vector<std::size_t> btbAssociativity = {0};
    std::vector<predict::ReplacementPolicy> btbPolicies = {
        predict::ReplacementPolicy::Lru};
    /** CBTB counter widths (bits). */
    std::vector<unsigned> counterBits = {2};
    /** CBTB taken thresholds. */
    std::vector<unsigned> counterThresholds = {2};
    /** Forward-slot counts (k + l) for the code-size column. */
    std::vector<unsigned> fsSlots = {2};
    /** Trace-selection arc thresholds. */
    std::vector<double> traceThresholds = {0.7};
    /** FS optimizer levels (none = the paper's seed transform). */
    std::vector<profile::FsOptLevel> fsOptLevels = {
        profile::FsOptLevel::None};
};

/** One fully resolved grid point. */
struct SweepPoint
{
    /** Position in the expanded grid (deterministic output order). */
    std::size_t index = 0;
    pipeline::PipelineConfig pipe{};
    predict::BufferConfig btb{};
    predict::CounterConfig counter{};
    unsigned fsSlots = 2;
    double traceThreshold = 0.7;
    profile::FsOptLevel fsOpt = profile::FsOptLevel::None;

    /** Compact label, e.g. "k1l1m1-e256w0-lru-b2t2-s2-p0.70-onone". */
    std::string label() const;

    /** True when this is the configuration Tables 2-5 report (the
     *  pipeline axis is cost-only, so any geometry qualifies). */
    bool isPaperDesign() const;
};

/** One grid point's results over every swept workload. (SweepCell
 *  itself lives in core/sweep_journal.hh with its persistence.) */
struct SweepPointResult
{
    SweepPoint point;
    /** One cell per workload, in workload order. */
    std::vector<SweepCell> cells;
    /** True when the cells were restored from the journal. */
    bool resumed = false;

    /** Mean accuracy over workloads ("SBTB", "CBTB", or "FS"). */
    double meanAccuracy(const std::string &scheme) const;
    /** Mean branch cost over workloads under the point's pipeline. */
    double meanCost(const std::string &scheme) const;
    /** Mean code-size increase over workloads. */
    double meanCodeIncrease() const;
};

/** Knobs of one full sweep. */
struct SweepConfig
{
    SweepAxes axes;
    /** Seed, run counts, jobs, and trace-cache directory. The BTB /
     *  counter / slot / threshold fields of the base config are
     *  ignored; the axes replace them. */
    ExperimentConfig base{};
    /** Workload names to sweep; empty = the full Table 1 suite. */
    std::vector<std::string> workloads;
    /** Journal directory; empty disables resume persistence. */
    std::string journalDir;
    /** Journal byte cap; 0 defers to
     *  BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES, then uncapped. */
    std::uint64_t journalMaxBytes = 0;
    /** Stop after evaluating this many points (0 = no cap). Loaded
     *  journal entries do not count toward the cap, so a capped run
     *  makes forward progress when resumed. Used by the CI resume
     *  smoke test to interrupt a sweep deterministically. */
    std::size_t maxPoints = 0;
};

/** Aggregate statistics of one runSweep() call. */
struct SweepStats
{
    /** Points evaluated by replay in this run. */
    std::size_t evaluated = 0;
    /** Points restored from the journal without replaying. */
    std::size_t resumed = 0;
    /** VM record passes (cold workloads; cache hits excluded). */
    std::size_t recordPasses = 0;
    /** Workload streams served by the persistent trace cache. */
    std::size_t traceCacheHits = 0;
    /** Wall-clock seconds of the whole sweep. */
    double elapsedSeconds = 0.0;
};

/** A completed sweep: the grid with results, in grid order. */
struct SweepResult
{
    /** Swept workload names, in suite order. */
    std::vector<std::string> workloads;
    std::vector<SweepPointResult> points;
    SweepStats stats;
};

/**
 * Cross the axes into concrete grid points. Combinations outside the
 * hardware's domain -- entries not a multiple of the associativity,
 * associativity exceeding entries, counter thresholds outside
 * [1, 2^bits - 1] -- are dropped with one warning naming the count.
 * Every pipeline axis entry is validated (PipelineConfig::validate),
 * so a malformed axis fails loudly before anything runs.
 */
std::vector<SweepPoint> expandGrid(const SweepAxes &axes);

/**
 * Run the sweep: record every workload once (or hit the trace cache),
 * precompute the point-independent per-workload results, then run
 * one batch-replay task per (point group, workload) across
 * resolveJobs(config.base.jobs) worker threads. Results arrive in
 * grid order regardless of the job count and are bit-identical for
 * any job count and across resumes.
 */
SweepResult runSweep(const SweepConfig &config);

/**
 * Evaluate one grid point's cell for one recorded workload: replay
 * the stream against the point's SBTB/CBTB pair and measure the
 * Forward Semantic at the point's (level, slots, threshold)
 * coordinates. Bit-identical to the corresponding cell a full
 * runSweep() would produce over the same stream -- the serving daemon
 * (src/serve) and the sweep engine share this path. @p recorded must
 * carry its profile, as recordWorkload's results always do.
 */
SweepCell evaluatePointCell(const RecordedWorkload &recorded,
                            const SweepPoint &point);

/** The stable key one journal entry is stored under: a content hash
 *  of the point configuration, the workload set, and the recorded
 *  streams' content hashes. Exposed for tests. */
std::uint64_t sweepPointKey(const SweepPoint &point,
                            const std::vector<std::string> &workloads,
                            const std::vector<std::uint64_t> &streamHashes);

// ---- Reporting ----

/** Per-point grid rows: config, mean accuracies, mean costs. */
TextTable makeSweepGridTable(const SweepResult &result);

/** Best and worst point per scheme by mean branch cost. */
TextTable makeSweepExtremesTable(const SweepResult &result);

/**
 * Table-4-style sensitivity report: for every axis with at least two
 * swept values, the percentage growth of each scheme's mean branch
 * cost (and of the mean code increase for the software axes) from the
 * first to the last axis value, averaged over all grid points sharing
 * the remaining coordinates.
 */
TextTable makeSweepSensitivityTable(const SweepResult &result);

/** Machine-readable exports (stable field order). */
std::string sweepToJson(const SweepResult &result);
std::string sweepToCsv(const SweepResult &result);

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_SWEEP_HH
