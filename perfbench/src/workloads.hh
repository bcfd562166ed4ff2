/**
 * @file
 * The benchmark's four workloads and what they share: the engine
 * configuration a seed resolves to, trace priming, canonical result
 * text for digests, telemetry deltas, and the fixed per-layer metric
 * list every traced run prints.
 *
 *   paper-cold  ExperimentRunner::runAll at jobs 1, empty trace cache
 *   paper-warm  the same suite against a cache primed in setup
 *   sweep-grid  runSweep over a 48-point grid, fresh journal per pass
 *   serve-zipf  branchlabd driven open-loop with Zipf keys
 */

#ifndef BLBENCH_WORKLOADS_HH
#define BLBENCH_WORKLOADS_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "core/experiment.hh"
#include "core/replay_kernel.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "trace/cache.hh"
#include "workloads/workload.hh"

namespace blbench
{

/** Build one set-up's stores in @p dir (the child process behind
 *  spawnSetup). */
void setUpPaper(const Options &options, const std::string &dir, bool cold);
void setUpSweepGrid(const Options &options, const std::string &dir);
void setUpServeZipf(const Options &options, const std::string &dir);

void runPaper(const Options &options, Report &report, bool cold);
void runSweepGrid(const Options &options, Report &report);
void runServeZipf(const Options &options, Report &report);

/** Reference digests of every workload for options.seed, computed
 *  through the virtual-dispatch predictor path, into @p book. */
void makePaperDigests(const Options &options, DigestBook &book);
void makeSweepDigests(const Options &options, DigestBook &book);
void makeServeDigests(const Options &options, DigestBook &book);

// ---- Shared engine setup ----

/** The paper's engine configuration for a seed: jobs 1, the given
 *  trace-cache directory, workload-default run counts. */
branchlab::core::ExperimentConfig paperConfig(std::uint64_t seed,
                                              const std::string &cacheDir);

/** Record every workload into @p cacheDir (kSweepJobs threads). */
void primeTraces(std::uint64_t seed, const std::string &cacheDir);

/** The seven paper schemes as kernel specs, in the runner's order:
 *  SBTB, CBTB, four statics, FS (which reads @p likely). */
std::vector<std::pair<const char *, branchlab::core::KernelSpec>>
paperSpecs(const branchlab::core::ExperimentConfig &config,
           const branchlab::predict::LikelyMap *likely);

/** Copy the kernel replay results into a BenchmarkResult's scheme
 *  slots, as the runner does. */
void fillSchemes(
    const std::vector<std::pair<const char *, branchlab::core::KernelSpec>>
        &specs,
    const std::vector<branchlab::core::ReplayResult> &replays,
    branchlab::core::BenchmarkResult &result);

/** Canonical text of one benchmark's simulated results (every double
 *  exact): the input of its digest. */
std::string canonicalResult(const branchlab::core::BenchmarkResult &result);

/** Canonical text of one sweep cell. */
std::string canonicalCell(const branchlab::core::SweepCell &cell);

/** Fold a stream back into its program's full profile: the pure fold
 *  the runner does on a cache hit (noteRun per run, then onBranch). */
branchlab::profile::ProgramProfile
foldProfile(const branchlab::ir::Program &program,
            const branchlab::ir::Layout &layout, unsigned runs,
            const branchlab::trace::TraceView &view);

branchlab::profile::ProgramProfile
foldProfile(const branchlab::core::RecordedWorkload &recorded);

// ---- Traced calls shared by the traced passes ----

/** One workload acquired as recordWorkload does, one public call per
 *  span: workloads.build, core.content_hash, trace.map and, on a hit,
 *  trace.likely. */
struct TracedAcquire
{
    std::unique_ptr<branchlab::ir::Program> program;
    std::unique_ptr<branchlab::ir::Layout> layout;
    std::vector<branchlab::workloads::WorkloadInput> inputs;
    std::uint64_t hash = 0;
    bool hit = false;
    branchlab::trace::CachedWorkload cached;
    /** The cached likely map (hits only). */
    branchlab::predict::LikelyMap likely;
};

TracedAcquire acquireTraced(Tracer &tracer,
                            const branchlab::workloads::Workload &workload,
                            const branchlab::core::ExperimentConfig &config,
                            const branchlab::trace::TraceCache &cache);

/** The trace.decode probe: a bare cursor walk over every block. */
void decodeProbe(Tracer &tracer, const branchlab::trace::TraceView &view);

// ---- Telemetry deltas ----

/** Counter values captured at one moment. */
class CounterMark
{
  public:
    CounterMark();
    /** Growth of @p name since the mark. */
    std::uint64_t since(const char *name) const;

  private:
    std::map<std::string, std::uint64_t> values_;
};

/** A histogram's bucket counts captured at one moment. */
struct HistogramMark
{
    explicit HistogramMark(const std::string &name);
    /** Nearest-rank percentile, in ms, of what was observed since. */
    double percentileMsSince(double p) const;

    std::string name;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> buckets;
};

// ---- Per-layer metrics ----

struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *better;
};

/** Every per-layer metric, in BENCHMARK.json order. */
const std::vector<LayerMetric> &layerMetrics();

/** Emit every per-layer metric from @p values (absent names read 0:
 *  the layer did no work on this workload). */
void emitLayerMetrics(Report &report,
                      const std::map<std::string, double> &values);

/** A traced run's untraced passes: telemetry on, off, off, on, ...,
 *  at least two and until 40% of the window has gone, so
 *  obs.overhead_pct can compare the two. */
void alternateTelemetry(const Options &options, Clock::time_point windowStart,
                        const std::function<double(bool telemetry)> &pass,
                        std::vector<double> &on, std::vector<double> &off);

/**
 * Close a pass-based traced run: median per-layer self times over the
 * traced passes against the median telemetry-on untraced pass give
 * unattributed_s/_pct, the traced passes' walls give
 * trace_overhead_pct, on vs off gives obs.overhead_pct; the spans go
 * to <work-dir>/out/<workload>-seed<seed>.trace.json and the layer
 * table into the report. Returns the attributed seconds.
 */
double closeTracedRun(const Options &options, const Tracer &tracer,
                      const std::vector<std::map<std::string, double>> &layers,
                      const std::vector<double> &on,
                      const std::vector<double> &off,
                      const std::vector<double> &tracedWalls,
                      const std::string &tableNote,
                      std::map<std::string, double> &values, Report &report);

/** Median of each key over several passes' value maps. */
std::map<std::string, double>
medianByKey(const std::vector<std::map<std::string, double>> &passes);

} // namespace blbench

#endif // BLBENCH_WORKLOADS_HH
