/**
 * @file
 * Shared machinery of the BranchLab benchmark (perfbench): run
 * options, the run report and its JSON line, order statistics and the
 * tail-percentile rule, the host fingerprint, peak-RSS probes, scratch
 * store directories, result digests, and the span tracer behind the
 * traced run's per-layer numbers and Chrome trace export.
 *
 * Every time here is host time (std::chrono::steady_clock). Simulated
 * statistics never get timed; they are digested and compared exactly.
 */

#ifndef BLBENCH_HARNESS_HH
#define BLBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace blbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The paper's seed (ISCA '89), the default workload seed. */
inline constexpr std::uint64_t kPaperSeed = 19890528;

/** Set-up repeats until at least kSetupRepeats runs and
 *  kSetupMinSeconds in all; setup_s is their median. */
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr double kSetupMinSeconds = 1.0;

inline bool
wantAnotherSetup(const std::vector<double> &times)
{
    double total = 0.0;
    for (const double t : times)
        total += t;
    return times.size() < kSetupRepeats || total < kSetupMinSeconds;
}

/** Fixed worker/connection counts of the multi-threaded workloads. A
 *  run whose threads would exceed nproc is unmeasurable. */
inline constexpr unsigned kSweepJobs = 2;
inline constexpr unsigned kServeWorkers = 2;
inline constexpr unsigned kServeConnections = 2;

struct Options
{
    std::string workload;
    std::uint64_t seed = kPaperSeed;
    /** Measurement window of one run. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool traced = false;
    /** Build root; stores and outputs live under it. */
    std::string workDir = ".bench_build";
    /** Shipped reference digests (perfbench/digests). */
    std::string digestDir = "perfbench/digests";
};

// ---- Order statistics ----

double median(std::vector<double> values);

/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);

/**
 * The highest percentile the samples can support: the first of
 * 99.99, 99.9, 99, 95, 90, 75, 50 (nearest-rank) that leaves at least
 * ten samples strictly beyond it.
 */
struct Tail
{
    bool valid = false;
    double percentile = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

Tail supportedTail(std::vector<double> values);

/** Nearest-rank percentile (p in (0, 100]) of a histogram snapshot
 *  whose buckets have the given upper bounds (last bucket: overflow),
 *  interpolated geometrically inside the bucket. 0 when empty. */
double histogramPercentile(const std::vector<std::uint64_t> &bounds,
                           const std::vector<std::uint64_t> &buckets,
                           double p);

// ---- Host ----

struct Fingerprint
{
    unsigned nproc = 0;
    std::string cpu;
    std::string compiler;
    std::string buildType;
    std::string flags;
};

Fingerprint hostFingerprint();

/** Return freed heap to the OS and restart the kernel's peak-RSS
 *  watermark (VmHWM) at the current RSS, so the peak read later
 *  covers only what follows. False when the kernel refuses. */
bool resetPeakRss();

/** VmHWM of this process in MB (2^20 bytes). */
double peakRssMb();

/**
 * Run this workload's set-up in a child process (this executable with
 * --setup-into @p dir) and wait for it; returns its wall seconds.
 * Set-up leaves nothing in the measuring process's heap, so that
 * process's peak RSS covers the measured work alone. Throws when the
 * child fails.
 */
double spawnSetup(const Options &options, const std::string &dir);

// ---- Telemetry counters ----

/** Current value of a named obs counter (registering it if new). */
std::uint64_t counterValue(std::string_view name);

// ---- Scratch directories ----

/** A fresh directory under the work dir's store root, removed with
 *  its contents on destruction. */
class ScratchDir
{
  public:
    ScratchDir(const Options &options, const std::string &stem);
    ~ScratchDir();

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ---- Digests ----

/** A double as an exact hex-float token. */
std::string exactDouble(double value);

/** 16-hex-digit content hash of a canonical result string. */
std::string digestOf(std::string_view canonical);

/**
 * Reference digests keyed by (section, name): loaded from
 * `<digestDir>/<seed>.txt` when shipped for the seed, else filled by
 * the workload's runtime reference computation.
 */
class DigestBook
{
  public:
    /** Load the shipped digests for @p seed; false when none ship. */
    bool load(const Options &options, std::uint64_t seed);
    bool save(const Options &options, std::uint64_t seed) const;

    bool has(const std::string &section) const;
    void set(const std::string &section, const std::string &name,
             const std::string &digest);
    /** Empty when absent. */
    std::string get(const std::string &section,
                    const std::string &name) const;

  private:
    std::map<std::pair<std::string, std::string>, std::string> digests_;
};

// ---- Run report ----

/** What one run prints: metrics for the JSON line, human-readable
 *  lines, and the attempted/failed operation counts. */
class Report
{
  public:
    /** A metric of the JSON result line (end-to-end or per-layer). */
    void metric(const std::string &name, const std::string &unit,
                double value);
    /** A printed-only figure (human lines and the results file). */
    void info(const std::string &name, const std::string &unit,
              double value, const std::string &note = "");
    void line(const std::string &text);

    void attempted(std::uint64_t n = 1) { attempted_ += n; }
    /** Count @p n failed operations and say why on stderr. */
    void failure(const std::string &why, std::uint64_t n = 1);
    /** Mark the run unmeasurable (no metrics are printed). */
    void unmeasurable(const std::string &why);

    bool correct() const { return failed_ == 0 && measurable_; }
    bool measurable() const { return measurable_; }

    void printHuman(std::ostream &os) const;
    /** The single-line JSON result. */
    std::string json() const;
    /** The results file: every metric, figure and line as JSON. */
    std::string resultsJson(const Options &options,
                            const Fingerprint &fingerprint) const;

  private:
    struct Entry
    {
        std::string name;
        std::string unit;
        double value = 0.0;
        std::string note;
    };
    std::vector<Entry> metrics_;
    std::vector<Entry> infos_;
    std::vector<std::string> lines_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool measurable_ = true;
};

// ---- Tracing ----

/**
 * Spans written by the benchmark around each public call of the
 * traced run. A span's self time is its duration minus its children's.
 * Attributed spans are work the untraced run also does; their self
 * times add up to the layer table. Probe spans (a bare VM run, a bare
 * decode walk, a per-scheme replay) measure a layer in isolation and
 * are left out of the sum. Single-threaded.
 */
class Tracer
{
  public:
    explicit Tracer(std::string workload);

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *layer, const char *key,
              std::uint64_t requestId = 0, bool attributed = true);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        Clock::time_point start_;
    };

    /** Self seconds per span key (e.g. "trace.map"). */
    const std::map<std::string, double> &keySeconds() const
    {
        return keySeconds_;
    }
    /** Self seconds per layer over attributed spans only. */
    const std::map<std::string, double> &layerSeconds() const
    {
        return layerSeconds_;
    }
    /** Forget the totals (keep the exported events). */
    void resetTotals();

    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Open
    {
        const char *layer;
        const char *key;
        std::uint64_t requestId;
        bool attributed;
        double childSeconds;
    };
    struct Event
    {
        const char *layer;
        const char *key;
        std::uint64_t requestId;
        bool attributed;
        double startUs;
        double durUs;
    };

    void close(Clock::time_point start);

    std::string workload_;
    Clock::time_point origin_;
    std::vector<Open> stack_;
    std::vector<Event> events_;
    std::map<std::string, double> keySeconds_;
    std::map<std::string, double> layerSeconds_;
};

/** Print the per-layer table: self seconds per layer, their share of
 *  @p endToEndSeconds, and the unattributed remainder. */
void printLayerTable(std::ostream &os, const std::string &workload,
                     const std::map<std::string, double> &layers,
                     double endToEndSeconds, const std::string &unitNote);

} // namespace blbench

#endif // BLBENCH_HARNESS_HH
