/**
 * @file
 * sweep-grid: runSweep over all ten workloads with traces primed in
 * setup and a fresh journal per pass. The grid crosses 12 hardware
 * points (BTB entries x associativity x counter width) with a small
 * FS axis (optimizer none/hoist x slots 2/4): 48 points. It is the
 * only workload that batch-replays many points per walk and runs the
 * FS optimizer, sweep sharding and bulk journal sealing.
 *
 * The traced pass redoes one sweep serially through the same public
 * calls runSweep makes (core/sweep.cc), one span per call.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>

#include "core/sweep_journal.hh"
#include "profile/forward_slots.hh"
#include "profile/fs_opt.hh"
#include "support/thread_pool.hh"
#include "trace/cache.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace blbench
{

namespace
{

namespace core = branchlab::core;
namespace trace = branchlab::trace;
namespace wl = branchlab::workloads;
namespace profile = branchlab::profile;

/** runSweep's batch width (core/sweep.cc kBatchPoints). */
constexpr std::size_t kBatchPoints = 16;

core::SweepAxes
gridAxes()
{
    core::SweepAxes axes;
    axes.btbEntries = {32, 128, 512};
    axes.btbAssociativity = {0, 4};
    axes.counterBits = {2, 3};
    axes.counterThresholds = {2};
    axes.fsSlots = {2, 4};
    axes.fsOptLevels = {profile::FsOptLevel::None, profile::FsOptLevel::Hoist};
    return axes;
}

core::SweepConfig
gridConfig(const Options &options, const std::string &traces,
           const std::string &journal)
{
    core::SweepConfig config;
    config.axes = gridAxes();
    config.base = paperConfig(options.seed, traces);
    config.base.jobs = kSweepJobs;
    config.journalDir = journal;
    return config;
}

using FsTriple = std::tuple<profile::FsOptLevel, unsigned, double>;
using PointDigests = std::map<std::string, std::string>;

std::string
pointCanonical(const std::vector<core::SweepCell> &cells)
{
    std::string text;
    for (const core::SweepCell &cell : cells)
        text += canonicalCell(cell) + ';';
    return text;
}

/** FS accuracy and code growth at one triple through the reference
 *  path: the virtual FS predictor for level none, the optimizer's
 *  image walk otherwise. */
std::pair<double, double>
referenceFs(const core::RecordedWorkload &recorded,
            const profile::ProgramProfile &prof, const FsTriple &triple)
{
    const auto &[level, slots, threshold] = triple;
    if (level == profile::FsOptLevel::None) {
        core::KernelSpec spec;
        spec.kind = core::SchemeKind::ForwardSemantic;
        spec.likely = &recorded.likelyMap;
        const auto predictor = core::makePredictor(spec);
        return {core::replay(recorded.traceView(), *predictor).accuracy,
                profile::codeIncreaseFor(prof, slots, threshold)};
    }
    profile::FsOptConfig config;
    config.fs.slotCount = slots;
    config.fs.trace.minArcProbability = threshold;
    config.level = level;
    const profile::FsOptResult optimized =
        profile::FsOptimizer(prof, config).build();
    return {profile::fsOptAccuracy(prof, optimized, recorded.traceView()),
            optimized.codeSizeIncrease()};
}

/** Every grid point's cells through the virtual-dispatch predictors. */
void
referenceDigests(const Options &options, const std::string &traces,
                 DigestBook &book)
{
    const std::vector<core::SweepPoint> grid = core::expandGrid(gridAxes());
    const auto &all = wl::allWorkloads();
    const core::ExperimentConfig config = paperConfig(options.seed, traces);
    std::vector<std::vector<core::SweepCell>> cells(
        grid.size(), std::vector<core::SweepCell>(all.size()));
    branchlab::parallelFor(
        all.size(), kSweepJobs,
        [&](std::size_t w) {
            core::RecordedWorkload recorded =
                core::recordWorkload(*all[w], config);
            const profile::ProgramProfile prof =
                recorded.profile != nullptr ? std::move(*recorded.profile)
                                            : foldProfile(recorded);
            std::map<FsTriple, std::pair<double, double>> fs;
            std::map<std::string, std::pair<core::ReplayResult,
                                            core::ReplayResult>>
                hardware;
            for (std::size_t g = 0; g < grid.size(); ++g) {
                const core::SweepPoint &point = grid[g];
                const FsTriple triple{point.fsOpt, point.fsSlots,
                                      point.traceThreshold};
                if (!fs.count(triple))
                    fs[triple] = referenceFs(recorded, prof, triple);
                std::ostringstream pair;
                pair << point.btb.entries << '/' << point.btb.associativity
                     << '/' << point.counter.bits << '/'
                     << point.counter.threshold;
                if (!hardware.count(pair.str())) {
                    core::KernelSpec sbtb;
                    sbtb.kind = core::SchemeKind::Sbtb;
                    sbtb.btb = point.btb;
                    core::KernelSpec cbtb = sbtb;
                    cbtb.kind = core::SchemeKind::Cbtb;
                    cbtb.counter = point.counter;
                    hardware[pair.str()] = {
                        core::replay(recorded.traceView(),
                                     *core::makePredictor(sbtb)),
                        core::replay(recorded.traceView(),
                                     *core::makePredictor(cbtb))};
                }
                const auto &[sb, cb] = hardware[pair.str()];
                core::SweepCell &cell = cells[g][w];
                cell.sbtbAccuracy = sb.accuracy;
                cell.sbtbMissRatio = sb.missRatio;
                cell.cbtbAccuracy = cb.accuracy;
                cell.cbtbMissRatio = cb.missRatio;
                cell.fsAccuracy = fs[triple].first;
                cell.codeIncrease = fs[triple].second;
            }
        },
        "reference");
    for (std::size_t g = 0; g < grid.size(); ++g)
        book.set("sweep", grid[g].label(), digestOf(pointCanonical(cells[g])));
}

PointDigests
digestsOf(const core::SweepResult &result)
{
    PointDigests digests;
    for (const core::SweepPointResult &point : result.points)
        digests[point.point.label()] = digestOf(pointCanonical(point.cells));
    return digests;
}

/** One workload's warm stream, held for the whole traced pass. */
struct Acquired
{
    TracedAcquire stream;
    std::optional<profile::ProgramProfile> prof;
    std::map<FsTriple, std::pair<double, double>> fs;
};

struct SweepCounts
{
    double lookups = 0, hits = 0, batchEventPoints = 0, journalLoads = 0,
           journalHits = 0;
};

/** One sweep, serially, one public call per span (runSweep's order). */
core::SweepResult
tracedSweep(Tracer &tracer, const Options &options,
            const std::string &traces, const std::string &journalDir,
            SweepCounts &counts)
{
    const core::ExperimentConfig config = paperConfig(options.seed, traces);
    const trace::TraceCache cache(traces);
    std::vector<core::SweepPoint> grid;
    std::vector<FsTriple> triples;
    {
        const Tracer::Scope span(tracer, "sweep", "sweep.plan");
        grid = core::expandGrid(gridAxes());
        for (const core::SweepPoint &point : grid) {
            const FsTriple triple{point.fsOpt, point.fsSlots,
                                  point.traceThreshold};
            if (std::find(triples.begin(), triples.end(), triple) ==
                triples.end())
                triples.push_back(triple);
        }
    }

    core::SweepResult result;
    std::vector<Acquired> acquired;
    std::vector<std::uint64_t> hashes;
    for (const wl::Workload *workload : wl::allWorkloads()) {
        Acquired a;
        a.stream = acquireTraced(tracer, *workload, config, cache);
        counts.lookups += 1;
        counts.hits += a.stream.hit ? 1 : 0;
        if (!a.stream.hit)
            throw std::runtime_error("trace cache miss on " + workload->name());
        const trace::TraceView view = a.stream.cached.traceView();
        decodeProbe(tracer, view);
        {
            const Tracer::Scope span(tracer, "profile", "profile.rebuild");
            a.prof.emplace(foldProfile(*a.stream.program, *a.stream.layout,
                                       a.stream.cached.runs, view));
        }
        std::optional<double> kernelAccuracy;
        for (const FsTriple &triple : triples) {
            const auto &[level, slots, threshold] = triple;
            if (level == profile::FsOptLevel::None) {
                if (!kernelAccuracy) {
                    const Tracer::Scope span(tracer, "replay",
                                             "replay.fs_kernel");
                    core::KernelSpec spec;
                    spec.kind = core::SchemeKind::ForwardSemantic;
                    spec.likely = &a.stream.likely;
                    kernelAccuracy = core::replayKernel(view, spec).accuracy;
                }
                const Tracer::Scope span(tracer, "profile",
                                         "profile.codesize");
                a.fs[triple] = {*kernelAccuracy,
                                profile::codeIncreaseFor(*a.prof, slots,
                                                         threshold)};
            } else {
                const Tracer::Scope span(tracer, "profile", "profile.fs_opt");
                profile::FsOptConfig optConfig;
                optConfig.fs.slotCount = slots;
                optConfig.fs.trace.minArcProbability = threshold;
                optConfig.level = level;
                const profile::FsOptResult optimized =
                    profile::FsOptimizer(*a.prof, optConfig).build();
                a.fs[triple] = {
                    profile::fsOptAccuracy(*a.prof, optimized, view),
                    optimized.codeSizeIncrease()};
            }
        }
        hashes.push_back(a.stream.hash);
        result.workloads.push_back(workload->name());
        acquired.push_back(std::move(a));
    }

    core::SweepJournal journal(journalDir);
    {
        const Tracer::Scope span(tracer, "journal", "journal.open");
        journal.open();
    }
    std::vector<std::uint64_t> keys(grid.size());
    {
        const Tracer::Scope span(tracer, "sweep", "sweep.keys");
        for (std::size_t g = 0; g < grid.size(); ++g)
            keys[g] = core::sweepPointKey(grid[g], result.workloads, hashes);
    }
    for (std::size_t g = 0; g < grid.size(); ++g) {
        const Tracer::Scope span(tracer, "journal", "journal.load");
        std::vector<core::SweepCell> cells;
        counts.journalLoads += 1;
        counts.journalHits += journal.load(keys[g], cells) ? 1 : 0;
    }

    // Distinct (BTB, counter) pairs in grid order, batched 16 a walk.
    std::vector<std::vector<std::size_t>> classes;
    {
        const Tracer::Scope span(tracer, "sweep", "sweep.plan");
        std::map<std::tuple<std::size_t, std::size_t, unsigned, unsigned>,
                 std::size_t>
            byPair;
        for (std::size_t g = 0; g < grid.size(); ++g) {
            const auto key = std::make_tuple(
                grid[g].btb.entries, grid[g].btb.associativity,
                grid[g].counter.bits, grid[g].counter.threshold);
            const auto [slot, fresh] = byPair.try_emplace(key, classes.size());
            if (fresh)
                classes.emplace_back();
            classes[slot->second].push_back(g);
        }
    }
    std::vector<std::vector<core::SweepCell>> cells(grid.size());
    for (std::size_t begin = 0; begin < classes.size();
         begin += kBatchPoints) {
        const std::size_t end = std::min(begin + kBatchPoints, classes.size());
        std::vector<branchlab::predict::BtbBatchPoint> batch;
        for (std::size_t c = begin; c < end; ++c) {
            const core::SweepPoint &point = grid[classes[c].front()];
            batch.push_back({point.btb, point.counter});
        }
        for (const Acquired &a : acquired) {
            const trace::TraceView view = a.stream.cached.traceView();
            std::vector<branchlab::predict::BtbBatchCell> replayed;
            {
                const Tracer::Scope span(tracer, "replay", "replay.batch");
                replayed = core::replayBatch(view, batch);
            }
            counts.batchEventPoints +=
                static_cast<double>(view.size() * batch.size());
            const Tracer::Scope span(tracer, "sweep", "sweep.assemble");
            for (std::size_t c = begin; c < end; ++c) {
                for (const std::size_t g : classes[c]) {
                    const core::SweepPoint &point = grid[g];
                    const auto &batchCell = replayed[c - begin];
                    core::SweepCell cell;
                    cell.sbtbAccuracy = batchCell.sbtb.stats.accuracy.ratio();
                    cell.sbtbMissRatio = batchCell.sbtb.missRatio;
                    cell.cbtbAccuracy = batchCell.cbtb.stats.accuracy.ratio();
                    cell.cbtbMissRatio = batchCell.cbtb.missRatio;
                    const auto &fs = a.fs.at(FsTriple{
                        point.fsOpt, point.fsSlots, point.traceThreshold});
                    cell.fsAccuracy = fs.first;
                    cell.codeIncrease = fs.second;
                    cells[g].push_back(cell);
                }
            }
        }
    }
    {
        const Tracer::Scope span(tracer, "journal", "journal.store");
        for (std::size_t g = 0; g < grid.size(); ++g)
            journal.store(keys[g], cells[g]);
        journal.flush();
    }
    for (std::size_t g = 0; g < grid.size(); ++g) {
        core::SweepPointResult point;
        point.point = grid[g];
        point.cells = std::move(cells[g]);
        result.points.push_back(std::move(point));
    }
    return result;
}

} // namespace

void
makeSweepDigests(const Options &options, DigestBook &book)
{
    const ScratchDir traces(options, "digest-sweep-traces");
    primeTraces(options.seed, traces.path());
    referenceDigests(options, traces.path(), book);
}

void
setUpSweepGrid(const Options &options, const std::string &dir)
{
    primeTraces(options.seed, dir);
}

void
runSweepGrid(const Options &options, Report &report)
{
    std::vector<double> setupTimes;
    std::unique_ptr<ScratchDir> traces;
    while (wantAnotherSetup(setupTimes)) {
        auto dir = std::make_unique<ScratchDir>(options, "sweep-traces");
        setupTimes.push_back(spawnSetup(options, dir->path()));
        traces = std::move(dir);
    }

    const std::size_t gridPoints = core::expandGrid(gridAxes()).size();
    std::vector<PointDigests> passDigests;
    std::vector<std::string> passNames;
    std::uint64_t vmRuns = 0, cacheMisses = 0, fallbacks = 0;
    const auto untracedPass = [&](bool telemetry) {
        const ScratchDir journal(options, "sweep-journal");
        const core::SweepConfig config =
            gridConfig(options, traces->path(), journal.path());
        branchlab::obs::setEnabled(telemetry);
        const CounterMark mark;
        const Clock::time_point start = Clock::now();
        const core::SweepResult result = core::runSweep(config);
        const double seconds = secondsSince(start);
        branchlab::obs::setEnabled(true);
        if (telemetry) {
            vmRuns += mark.since("vm.runs");
            cacheMisses += mark.since("trace_cache.misses");
            fallbacks += mark.since("engine.replay.kernel.fallback");
        }
        report.attempted();
        const std::string what =
            "sweep pass " + std::to_string(passDigests.size() + 1);
        core::SweepJournal sealed(journal.path());
        sealed.open();
        if (result.points.size() != gridPoints ||
            result.stats.evaluated != gridPoints ||
            result.stats.resumed != 0 || result.stats.recordPasses != 0 ||
            sealed.indexedRecords() != gridPoints)
            report.failure(what + ": " + std::to_string(result.points.size()) +
                           " points, " +
                           std::to_string(sealed.indexedRecords()) +
                           " sealed in the journal, expected " +
                           std::to_string(gridPoints));
        passDigests.push_back(digestsOf(result));
        passNames.push_back(what);
        return seconds;
    };

    std::vector<double> onSeconds, offSeconds;
    std::map<std::string, double> tracedValues;
    double peakRss = 0.0;
    const Clock::time_point windowStart = Clock::now();
    if (!options.traced) {
        resetPeakRss();
        while (onSeconds.size() < 3 ||
               secondsSince(windowStart) < options.seconds)
            onSeconds.push_back(untracedPass(true));
        peakRss = peakRssMb();
    } else {
        const HistogramMark queueWait("threadpool.sweep.queue_wait_ns");
        alternateTelemetry(options, windowStart, untracedPass, onSeconds,
                           offSeconds);
        const double waitP50 = queueWait.percentileMsSince(50);
        const double waitP99 = queueWait.percentileMsSince(99);

        Tracer tracer("sweep-grid");
        std::vector<std::map<std::string, double>> passValues, passLayers;
        std::vector<double> walls;
        while (walls.empty() || secondsSince(windowStart) < options.seconds) {
            const ScratchDir journal(options, "sweep-journal-traced");
            const CounterMark mark;
            SweepCounts counts;
            tracer.resetTotals();
            const Clock::time_point start = Clock::now();
            core::SweepResult result;
            try {
                result = tracedSweep(tracer, options, traces->path(),
                                     journal.path(), counts);
            } catch (const std::exception &error) {
                report.failure(std::string("traced sweep: ") + error.what());
                break;
            }
            walls.push_back(secondsSince(start));
            report.attempted();
            passDigests.push_back(digestsOf(result));
            passNames.push_back("traced sweep " + std::to_string(walls.size()));

            const auto key = [&](const char *name) {
                const auto it = tracer.keySeconds().find(name);
                return it == tracer.keySeconds().end() ? 0.0 : it->second;
            };
            std::map<std::string, double> v;
            v["workloads.build_s"] = key("workloads.build");
            v["core.content_hash_s"] = key("core.content_hash");
            v["trace.map_s"] = key("trace.map") + key("trace.likely");
            v["trace.bytes_mapped"] =
                static_cast<double>(mark.since("trace_cache.bytes_mapped"));
            v["trace.decode_s"] = key("trace.decode");
            v["trace.hit_ratio"] =
                counts.lookups > 0 ? counts.hits / counts.lookups : 0.0;
            v["profile.rebuild_s"] = key("profile.rebuild");
            v["profile.codesize_s"] = key("profile.codesize");
            v["profile.fs_opt_s"] = key("profile.fs_opt");
            v["replay.batch_s"] = key("replay.batch");
            v["replay.batch_point_meps"] =
                key("replay.batch") > 0
                    ? counts.batchEventPoints / key("replay.batch") / 1e6
                    : 0.0;
            v["replay.fallback"] = static_cast<double>(
                mark.since("engine.replay.kernel.fallback"));
            v["journal.store_s"] = key("journal.store");
            v["journal.open_s"] = key("journal.open");
            v["journal.bytes_mapped"] =
                static_cast<double>(mark.since("sweep.journal.bytes_mapped"));
            v["journal.load_us"] =
                counts.journalLoads > 0
                    ? 1e6 * key("journal.load") / counts.journalLoads
                    : 0.0;
            v["journal.hit_ratio"] =
                counts.journalLoads > 0
                    ? counts.journalHits / counts.journalLoads
                    : 0.0;
            v["vm.instructions"] =
                static_cast<double>(mark.since("vm.instructions"));
            passValues.push_back(v);
            passLayers.push_back(tracer.layerSeconds());
        }
        tracedValues = medianByKey(passValues);
        tracedValues["pool.queue_wait_p50_ms"] = waitP50;
        tracedValues["pool.queue_wait_p99_ms"] = waitP99;
        closeTracedRun(options, tracer, passLayers, onSeconds, offSeconds,
                       walls,
                       "serial traced sweep vs untraced sweep at jobs " +
                           std::to_string(kSweepJobs) +
                           "; a negative remainder is parallel speed-up",
                       tracedValues, report);
    }

    DigestBook book;
    if (!book.load(options, options.seed) || !book.has("sweep"))
        referenceDigests(options, traces->path(), book);
    for (std::size_t i = 0; i < passDigests.size(); ++i) {
        std::string bad;
        for (const auto &[label, digest] : passDigests[i])
            if (digest != book.get("sweep", label))
                bad += " " + label;
        if (passDigests[i].size() != gridPoints)
            bad += " (point count)";
        if (!bad.empty())
            report.failure(passNames[i] +
                           " differs from the reference at:" + bad);
    }
    if (vmRuns != 0 || cacheMisses != 0 || fallbacks != 0)
        report.failure("sweep invariants: vm.runs " + std::to_string(vmRuns) +
                       ", trace-cache misses " + std::to_string(cacheMisses) +
                       ", kernel fallbacks " + std::to_string(fallbacks));
    if (options.traced) {
        if (tracedValues["replay.fallback"] != 0 ||
            tracedValues["vm.instructions"] != 0)
            report.failure("traced sweep ran the VM or fell back");
        emitLayerMetrics(report, tracedValues);
        return;
    }

    const double pass = median(onSeconds);
    const double pointsPerSecond = static_cast<double>(gridPoints) / pass;
    report.info("points_per_s", "points/s", pointsPerSecond,
                std::to_string(gridPoints) + " points x 10 workloads, " +
                    std::to_string(onSeconds.size()) + " passes at jobs " +
                    std::to_string(kSweepJobs));
    report.info("grid_s", "s", pass, "median grid pass");
    report.metric("throughput_per_s", "1/s", pointsPerSecond);
    report.metric("peak_rss_mb", "MB", peakRss);
    report.metric("setup_s", "s", median(setupTimes));
}

} // namespace blbench
