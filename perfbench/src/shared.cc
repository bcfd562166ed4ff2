#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "ir/layout.hh"
#include "ir/verifier.hh"
#include "support/random.hh"

#include "support/thread_pool.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace blbench
{

namespace core = branchlab::core;

core::ExperimentConfig
paperConfig(std::uint64_t seed, const std::string &cacheDir)
{
    core::ExperimentConfig config;
    config.seed = seed;
    config.jobs = 1;
    config.traceCacheDir = cacheDir;
    return config;
}

void
primeTraces(std::uint64_t seed, const std::string &cacheDir)
{
    const core::ExperimentConfig config = paperConfig(seed, cacheDir);
    const auto &all = branchlab::workloads::allWorkloads();
    branchlab::parallelFor(
        all.size(), kSweepJobs,
        [&](std::size_t i) { (void)core::recordWorkload(*all[i], config); },
        "setup");
}

std::vector<std::pair<const char *, core::KernelSpec>>
paperSpecs(const core::ExperimentConfig &config,
           const branchlab::predict::LikelyMap *likely)
{
    std::vector<std::pair<const char *, core::KernelSpec>> specs;
    core::KernelSpec sbtb;
    sbtb.kind = core::SchemeKind::Sbtb;
    sbtb.btb = config.btb;
    specs.emplace_back("SBTB", sbtb);
    core::KernelSpec cbtb;
    cbtb.kind = core::SchemeKind::Cbtb;
    cbtb.btb = config.btb;
    cbtb.counter = config.counter;
    specs.emplace_back("CBTB", cbtb);
    const std::pair<const char *, core::SchemeKind> statics[] = {
        {"always-taken", core::SchemeKind::AlwaysTaken},
        {"always-not-taken", core::SchemeKind::AlwaysNotTaken},
        {"btfnt", core::SchemeKind::BackwardTaken},
        {"opcode-bias", core::SchemeKind::OpcodeBias}};
    for (const auto &[name, kind] : statics) {
        core::KernelSpec spec;
        spec.kind = kind;
        specs.emplace_back(name, spec);
    }
    core::KernelSpec fs;
    fs.kind = core::SchemeKind::ForwardSemantic;
    fs.likely = likely;
    specs.emplace_back("FS", fs);
    return specs;
}

void
fillSchemes(
    const std::vector<std::pair<const char *, core::KernelSpec>> &specs,
    const std::vector<core::ReplayResult> &replays,
    core::BenchmarkResult &result)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const core::SchemeResult scheme{specs[i].first, replays[i].accuracy,
                                        replays[i].missRatio,
                                        replays[i].hasMissRatio};
        switch (specs[i].second.kind) {
          case core::SchemeKind::Sbtb:
            result.sbtb = scheme;
            break;
          case core::SchemeKind::Cbtb:
            result.cbtb = scheme;
            break;
          case core::SchemeKind::ForwardSemantic:
            result.fs = scheme;
            break;
          default:
            result.staticSchemes.push_back(scheme);
            break;
        }
    }
}

std::string
canonicalResult(const core::BenchmarkResult &result)
{
    std::ostringstream os;
    const branchlab::trace::TraceCounters c = result.stats.counters();
    os << result.name << " runs " << result.runs << " static "
       << result.staticSize << " stats " << c.instructions << ' '
       << c.branches << ' ' << c.conditional << ' ' << c.condTaken << ' '
       << c.uncondKnown;
    const auto scheme = [&](const core::SchemeResult &s) {
        os << ' ' << s.scheme << ' ' << exactDouble(s.accuracy) << ' '
           << exactDouble(s.missRatio) << ' ' << s.hasMissRatio;
    };
    scheme(result.sbtb);
    scheme(result.cbtb);
    scheme(result.fs);
    for (const core::SchemeResult &s : result.staticSchemes)
        scheme(s);
    for (const auto &[slots, increase] : result.codeIncrease)
        os << " code" << slots << ' ' << exactDouble(increase);
    return os.str();
}

std::string
canonicalCell(const core::SweepCell &cell)
{
    return exactDouble(cell.sbtbAccuracy) + ' ' +
           exactDouble(cell.sbtbMissRatio) + ' ' +
           exactDouble(cell.cbtbAccuracy) + ' ' +
           exactDouble(cell.cbtbMissRatio) + ' ' +
           exactDouble(cell.fsAccuracy) + ' ' +
           exactDouble(cell.codeIncrease);
}

branchlab::profile::ProgramProfile
foldProfile(const branchlab::ir::Program &program,
            const branchlab::ir::Layout &layout, unsigned runs,
            const branchlab::trace::TraceView &view)
{
    branchlab::profile::ProgramProfile profile(program, layout);
    for (unsigned r = 0; r < runs; ++r)
        profile.noteRun();
    branchlab::trace::TraceView::Cursor cursor = view.cursor();
    branchlab::trace::TraceBlock block;
    while (cursor.next(block))
        for (std::size_t i = 0; i < block.count; ++i)
            profile.onBranch(block.event(i));
    return profile;
}

branchlab::profile::ProgramProfile
foldProfile(const core::RecordedWorkload &recorded)
{
    return foldProfile(*recorded.program, *recorded.layout, recorded.runs,
                       recorded.traceView());
}

// ---- Traced calls ----

TracedAcquire
acquireTraced(Tracer &tracer, const branchlab::workloads::Workload &workload,
              const core::ExperimentConfig &config,
              const branchlab::trace::TraceCache &cache)
{
    TracedAcquire a;
    {
        const Tracer::Scope span(tracer, "workloads", "workloads.build");
        a.program = std::make_unique<branchlab::ir::Program>(
            workload.buildProgram());
        branchlab::ir::verifyProgramOrDie(*a.program);
        a.layout = std::make_unique<branchlab::ir::Layout>(*a.program);
        branchlab::Rng rng(config.seed ^ branchlab::hashString(workload.name()));
        a.inputs = workload.makeInputs(rng, workload.defaultRuns());
    }
    {
        const Tracer::Scope span(tracer, "core", "core.content_hash");
        a.hash = core::workloadContentHash(workload, config);
    }
    {
        const Tracer::Scope span(tracer, "trace", "trace.map");
        a.hit = cache.load(workload.name(), a.hash, a.cached);
    }
    if (a.hit) {
        const Tracer::Scope span(tracer, "trace", "trace.likely");
        a.likely.reserve(a.cached.likely.size());
        for (const branchlab::trace::CachedLikely &entry : a.cached.likely)
            a.likely.emplace(entry.pc,
                             branchlab::predict::LikelyInfo{
                                 entry.likelyTaken, entry.dominantTarget});
    }
    return a;
}

void
decodeProbe(Tracer &tracer, const branchlab::trace::TraceView &view)
{
    const Tracer::Scope span(tracer, "trace", "trace.decode", 0, false);
    branchlab::trace::TraceView::Cursor cursor = view.cursor();
    branchlab::trace::TraceBlock block;
    std::size_t seen = 0;
    while (cursor.next(block))
        seen += block.count;
    if (seen != view.size())
        throw std::runtime_error("decode walk lost events");
}

// ---- Telemetry deltas ----

CounterMark::CounterMark()
{
    for (const auto &[name, value] :
         branchlab::obs::Registry::global().snapshot().counters)
        values_[name] = value;
}

std::uint64_t
CounterMark::since(const char *name) const
{
    const auto it = values_.find(name);
    return counterValue(name) - (it == values_.end() ? 0 : it->second);
}

namespace
{

const branchlab::obs::Snapshot::HistogramRow *
findHistogram(const branchlab::obs::Snapshot &snapshot,
              const std::string &name)
{
    for (const auto &row : snapshot.histograms)
        if (row.name == name)
            return &row;
    return nullptr;
}

} // namespace

HistogramMark::HistogramMark(const std::string &histogram) : name(histogram)
{
    const branchlab::obs::Snapshot snapshot =
        branchlab::obs::Registry::global().snapshot();
    if (const auto *row = findHistogram(snapshot, name)) {
        bounds = row->bounds;
        buckets = row->buckets;
    }
}

double
HistogramMark::percentileMsSince(double p) const
{
    const branchlab::obs::Snapshot snapshot =
        branchlab::obs::Registry::global().snapshot();
    const auto *row = findHistogram(snapshot, name);
    if (row == nullptr)
        return 0.0;
    std::vector<std::uint64_t> delta = row->buckets;
    for (std::size_t i = 0; i < delta.size() && i < buckets.size(); ++i)
        delta[i] -= buckets[i];
    return histogramPercentile(row->bounds, delta, p) / 1e6;
}

// ---- Per-layer metrics ----

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> metrics = {
        {"workloads.build_s", "s", "lower"},
        {"core.content_hash_s", "s", "lower"},
        {"vm.run_s", "s", "lower"},
        {"vm.instructions", "count", "lower"},
        {"vm.mips", "Minstr/s", "higher"},
        {"trace.record_s", "s", "lower"},
        {"trace.events", "count", "lower"},
        {"trace.store_s", "s", "lower"},
        {"trace.bytes_written", "bytes", "lower"},
        {"trace.map_s", "s", "lower"},
        {"trace.bytes_mapped", "bytes", "lower"},
        {"trace.decode_s", "s", "lower"},
        {"trace.hit_ratio", "ratio", "higher"},
        {"profile.rebuild_s", "s", "lower"},
        {"profile.codesize_s", "s", "lower"},
        {"profile.fs_opt_s", "s", "lower"},
        {"replay.fused_s", "s", "lower"},
        {"replay.sbtb.meps", "Mevents/s", "higher"},
        {"replay.cbtb.meps", "Mevents/s", "higher"},
        {"replay.fs.meps", "Mevents/s", "higher"},
        {"replay.always_taken.meps", "Mevents/s", "higher"},
        {"replay.always_not_taken.meps", "Mevents/s", "higher"},
        {"replay.btfnt.meps", "Mevents/s", "higher"},
        {"replay.opcode_bias.meps", "Mevents/s", "higher"},
        {"replay.batch_s", "s", "lower"},
        {"replay.batch_point_meps", "Mevents/s", "higher"},
        {"replay.fallback", "count", "lower"},
        {"journal.store_s", "s", "lower"},
        {"journal.open_s", "s", "lower"},
        {"journal.bytes_mapped", "bytes", "lower"},
        {"journal.load_us", "us", "lower"},
        {"journal.hit_ratio", "ratio", "higher"},
        {"serve.codec_us", "us", "lower"},
        {"serve.key_us", "us", "lower"},
        {"serve.handle_hit_us", "us", "lower"},
        {"serve.handle_miss_ms", "ms", "lower"},
        {"serve.rtt_us", "us", "lower"},
        {"serve.rejects", "count", "lower"},
        {"serve.hit_ratio", "ratio", "higher"},
        {"pool.queue_wait_p50_ms", "ms", "lower"},
        {"pool.queue_wait_p99_ms", "ms", "lower"},
        {"obs.overhead_pct", "%", "lower"},
        {"unattributed_s", "s", "lower"},
        {"unattributed_pct", "%", "lower"},
        {"trace_overhead_pct", "%", "lower"},
    };
    return metrics;
}

void
emitLayerMetrics(Report &report, const std::map<std::string, double> &values)
{
    for (const LayerMetric &metric : layerMetrics()) {
        const auto it = values.find(metric.name);
        report.metric(metric.name, metric.unit,
                      it == values.end() ? 0.0 : it->second);
    }
}

void
alternateTelemetry(const Options &options, Clock::time_point windowStart,
                   const std::function<double(bool telemetry)> &pass,
                   std::vector<double> &on, std::vector<double> &off)
{
    for (std::size_t i = 0;
         i < 2 || secondsSince(windowStart) < 0.4 * options.seconds; ++i) {
        const bool enabled = (i % 4 == 0) || (i % 4 == 3);
        (enabled ? on : off).push_back(pass(enabled));
    }
}

double
closeTracedRun(const Options &options, const Tracer &tracer,
               const std::vector<std::map<std::string, double>> &layers,
               const std::vector<double> &on, const std::vector<double> &off,
               const std::vector<double> &tracedWalls,
               const std::string &tableNote,
               std::map<std::string, double> &values, Report &report)
{
    const std::map<std::string, double> medianLayers = medianByKey(layers);
    double attributed = 0.0;
    for (const auto &[layer, seconds] : medianLayers)
        attributed += seconds;
    const double untraced = median(on);
    const double offMedian = median(off);
    values["unattributed_s"] = untraced - attributed;
    values["unattributed_pct"] =
        untraced > 0 ? 100.0 * (untraced - attributed) / untraced : 0.0;
    values["trace_overhead_pct"] =
        untraced > 0 ? 100.0 * (median(tracedWalls) / untraced - 1.0) : 0.0;
    values["obs.overhead_pct"] =
        offMedian > 0 ? 100.0 * (untraced / offMedian - 1.0) : 0.0;

    const std::string path =
        (std::filesystem::path(options.workDir) / "out" /
         (options.workload + "-seed" + std::to_string(options.seed) +
          ".trace.json"))
            .string();
    tracer.writeChromeTrace(path);
    std::ostringstream table;
    printLayerTable(table, options.workload, medianLayers, untraced,
                    tableNote);
    std::istringstream rows(table.str());
    for (std::string row; std::getline(rows, row);)
        report.line(row);
    report.line("chrome trace: " + path);
    return attributed;
}

std::map<std::string, double>
medianByKey(const std::vector<std::map<std::string, double>> &passes)
{
    std::map<std::string, std::vector<double>> columns;
    for (const auto &pass : passes)
        for (const auto &[key, value] : pass)
            columns[key].push_back(value);
    std::map<std::string, double> out;
    for (auto &[key, values] : columns) {
        // A key absent from some passes counts as 0 there.
        values.resize(passes.size(), 0.0);
        out[key] = median(values);
    }
    return out;
}

} // namespace blbench
