#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/replay_kernel.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "store/store.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"
#include "trace/cache.hh"

namespace branchlab::core
{

namespace
{

struct SweepTelemetry
{
    obs::Counter &evaluated =
        obs::Registry::global().counter("sweep.points.evaluated");
    obs::Counter &resumed =
        obs::Registry::global().counter("sweep.points.resumed");
    obs::Counter &replays =
        obs::Registry::global().counter("sweep.replays");
};

SweepTelemetry &
sweepTelemetry()
{
    static SweepTelemetry telemetry;
    return telemetry;
}

void
hashPipeline(trace::ContentHasher &hasher,
             const pipeline::PipelineConfig &pipe)
{
    hasher.u64(pipe.k).u64(pipe.ell).u64(pipe.m);
    hasher.u64(std::bit_cast<std::uint64_t>(pipe.ellBar));
    hasher.u64(std::bit_cast<std::uint64_t>(pipe.mBar));
    hasher.u64(std::bit_cast<std::uint64_t>(pipe.fCond));
}

std::string
pipeLabel(const pipeline::PipelineConfig &pipe)
{
    std::ostringstream os;
    os << 'k' << pipe.k << 'l' << pipe.ell << 'm' << pipe.m;
    return os.str();
}

/** JSON numbers with round-trip precision (matches the perf
 *  harness's writer). */
std::string
jsonNumber(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/** CSV doubles at full precision so byte-comparisons of resumed vs
 *  uninterrupted grids are meaningful. */
std::string
csvNumber(double value)
{
    return jsonNumber(value);
}

double
cellAccuracy(const SweepCell &cell, const std::string &scheme)
{
    if (scheme == "SBTB")
        return cell.sbtbAccuracy;
    if (scheme == "CBTB")
        return cell.cbtbAccuracy;
    if (scheme == "FS")
        return cell.fsAccuracy;
    blab_fatal("unknown sweep scheme '", scheme, "'");
}

const char *const kSchemes[] = {"SBTB", "CBTB", "FS"};

} // namespace

std::string
SweepPoint::label() const
{
    std::ostringstream os;
    os << pipeLabel(pipe) << "-e" << btb.entries << 'w'
       << btb.associativity << '-' << predict::policyName(btb.policy)
       << "-b" << counter.bits << 't' << counter.threshold << "-s"
       << fsSlots << "-p" << formatFixed(traceThreshold, 2);
    // Seed-transform points keep the pre-optimizer label so existing
    // sweep journals resume instead of re-evaluating.
    if (fsOpt != profile::FsOptLevel::None)
        os << "-o" << profile::fsOptLevelName(fsOpt);
    return os.str();
}

bool
SweepPoint::isPaperDesign() const
{
    return btb.entries == 256 && btb.associativity == 0 &&
           btb.policy == predict::ReplacementPolicy::Lru &&
           counter.bits == 2 && counter.threshold == 2 &&
           fsSlots == 2 && traceThreshold == 0.7 &&
           fsOpt == profile::FsOptLevel::None;
}

double
SweepPointResult::meanAccuracy(const std::string &scheme) const
{
    blab_assert(!cells.empty(), "sweep point has no cells");
    double sum = 0.0;
    for (const SweepCell &cell : cells)
        sum += cellAccuracy(cell, scheme);
    return sum / static_cast<double>(cells.size());
}

double
SweepPointResult::meanCost(const std::string &scheme) const
{
    blab_assert(!cells.empty(), "sweep point has no cells");
    double sum = 0.0;
    for (const SweepCell &cell : cells)
        sum += pipeline::branchCost(cellAccuracy(cell, scheme), point.pipe);
    return sum / static_cast<double>(cells.size());
}

double
SweepPointResult::meanCodeIncrease() const
{
    blab_assert(!cells.empty(), "sweep point has no cells");
    double sum = 0.0;
    for (const SweepCell &cell : cells)
        sum += cell.codeIncrease;
    return sum / static_cast<double>(cells.size());
}

std::vector<SweepPoint>
expandGrid(const SweepAxes &axes)
{
    blab_assert(!axes.pipelines.empty() && !axes.btbEntries.empty() &&
                    !axes.btbAssociativity.empty() &&
                    !axes.btbPolicies.empty() &&
                    !axes.counterBits.empty() &&
                    !axes.counterThresholds.empty() &&
                    !axes.fsSlots.empty() &&
                    !axes.traceThresholds.empty() &&
                    !axes.fsOptLevels.empty(),
                "every sweep axis needs at least one value");
    for (const pipeline::PipelineConfig &pipe : axes.pipelines)
        pipe.validate();

    std::vector<SweepPoint> grid;
    std::size_t skipped = 0;
    for (const pipeline::PipelineConfig &pipe : axes.pipelines) {
        for (const std::size_t entries : axes.btbEntries) {
            for (const std::size_t assoc : axes.btbAssociativity) {
                if (entries == 0 ||
                    (assoc != 0 &&
                     (assoc > entries || entries % assoc != 0))) {
                    skipped += axes.btbPolicies.size() *
                               axes.counterBits.size() *
                               axes.counterThresholds.size() *
                               axes.fsSlots.size() *
                               axes.traceThresholds.size() *
                               axes.fsOptLevels.size();
                    continue;
                }
                for (const predict::ReplacementPolicy policy :
                     axes.btbPolicies) {
                    for (const unsigned bits : axes.counterBits) {
                        for (const unsigned threshold :
                             axes.counterThresholds) {
                            const bool bits_ok =
                                bits >= 1 && bits <= 16;
                            if (!bits_ok || threshold < 1 ||
                                threshold > ((1u << bits) - 1)) {
                                skipped +=
                                    axes.fsSlots.size() *
                                    axes.traceThresholds.size() *
                                    axes.fsOptLevels.size();
                                continue;
                            }
                            for (const unsigned slots : axes.fsSlots) {
                                for (const double trace_threshold :
                                     axes.traceThresholds) {
                                    for (const profile::FsOptLevel
                                             level :
                                         axes.fsOptLevels) {
                                        SweepPoint point;
                                        point.index = grid.size();
                                        point.pipe = pipe;
                                        point.btb.entries = entries;
                                        point.btb.associativity =
                                            assoc;
                                        point.btb.policy = policy;
                                        point.counter.bits = bits;
                                        point.counter.threshold =
                                            threshold;
                                        point.fsSlots = slots;
                                        point.traceThreshold =
                                            trace_threshold;
                                        point.fsOpt = level;
                                        grid.push_back(point);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if (skipped > 0) {
        blab_warn("sweep grid dropped ", skipped,
                  " point(s) outside the hardware domain "
                  "(entries/associativity mismatch or counter "
                  "threshold outside [1, 2^bits - 1])");
    }
    return grid;
}

std::uint64_t
sweepPointKey(const SweepPoint &point,
              const std::vector<std::string> &workloads,
              const std::vector<std::uint64_t> &streamHashes)
{
    blab_assert(workloads.size() == streamHashes.size(),
                "one stream hash per swept workload");
    trace::ContentHasher hasher;
    hasher.u64(kJournalSchemaVersion);
    hashPipeline(hasher, point.pipe);
    hasher.u64(point.btb.entries).u64(point.btb.associativity);
    hasher.str(predict::policyName(point.btb.policy));
    hasher.u64(point.btb.seed);
    hasher.u64(point.counter.bits).u64(point.counter.threshold);
    hasher.u64(point.fsSlots);
    hasher.u64(std::bit_cast<std::uint64_t>(point.traceThreshold));
    hasher.str(profile::fsOptLevelName(point.fsOpt));
    hasher.u64(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        hasher.str(workloads[i]);
        hasher.u64(streamHashes[i]);
    }
    return hasher.digest();
}

namespace
{

/** The FS coordinates a workload's software-scheme measurements
 *  depend on; everything else about a point is hardware-only. */
using FsTriple = std::tuple<profile::FsOptLevel, unsigned, double>;

/** Everything per-workload the per-point replays share. */
struct PreparedWorkload
{
    RecordedWorkload recorded;
    /** FS accuracy per distinct (level, slots, threshold) triple:
     *  the stream and the likely map are fixed, so only the FS axes
     *  move the number (tail duplication refines conditional
     *  contexts; none/slots match the seed replay kernel). */
    std::map<FsTriple, double> fsAccuracy;
    /** Code increase per distinct (level, slots, threshold) triple. */
    std::map<FsTriple, double> codeIncrease;
};

/** Grid points per batch-replay pass. Large enough to amortise one
 *  walk of a multi-megabyte stream over many points, small enough
 *  that every point's (tiny) predictor tables stay cache-resident in
 *  the inner loop. Parallelism does not depend on it: every
 *  (group, workload) walk is its own task. */
constexpr std::size_t kBatchPoints = 16;

/** FS accuracy and code increase at one (level, slots, threshold)
 *  coordinate: the image's row-form accuracy from @p profile's
 *  tallies, or the image walk over the stream when the profile is
 *  refused. */
std::pair<double, double>
measureFs(const RecordedWorkload &recorded,
          const profile::ProgramProfile &profile,
          profile::FsOptLevel level, unsigned slots, double threshold)
{
    profile::FsOptConfig config;
    config.fs.slotCount = slots;
    config.fs.trace.minArcProbability = threshold;
    config.level = level;
    const profile::FsOptResult optimized =
        profile::FsOptimizer(profile, config).build();
    const std::optional<double> scored =
        profile::fsOptAccuracyFromProfile(profile, optimized);
    return {scored ? *scored
                   : profile::fsOptAccuracy(profile, optimized,
                                            recorded.traceView()),
            optimized.codeSizeIncrease()};
}

/** Assemble one journal cell from a batch-replayed pair of hardware
 *  schemes plus the workload's point-independent measurements. */
SweepCell
cellFromBatch(const predict::BtbBatchCell &batch,
              const SweepPoint &point,
              const PreparedWorkload &prepared)
{
    SweepCell cell;
    cell.sbtbAccuracy = batch.sbtb.stats.accuracy.ratio();
    cell.sbtbMissRatio = batch.sbtb.missRatio;
    cell.cbtbAccuracy = batch.cbtb.stats.accuracy.ratio();
    cell.cbtbMissRatio = batch.cbtb.missRatio;
    const FsTriple triple{point.fsOpt, point.fsSlots,
                          point.traceThreshold};
    const auto acc_it = prepared.fsAccuracy.find(triple);
    blab_assert(acc_it != prepared.fsAccuracy.end(),
                "FS accuracy missing for sweep point");
    cell.fsAccuracy = acc_it->second;
    const auto it = prepared.codeIncrease.find(triple);
    blab_assert(it != prepared.codeIncrease.end(),
                "code increase missing for sweep point");
    cell.codeIncrease = it->second;
    return cell;
}

} // namespace

SweepCell
evaluatePointCell(const RecordedWorkload &recorded,
                  const SweepPoint &point)
{
    const obs::ScopedSpan point_span("sweep.point");
    blab_assert(recorded.profile != nullptr,
                "evaluatePointCell needs recordWorkload's profile");
    const std::vector<predict::BtbBatchCell> hw =
        replayBatch(recorded.traceView(), *recorded.profile,
                    {{point.btb, point.counter}});
    sweepTelemetry().replays.add(2);

    SweepCell cell;
    cell.sbtbAccuracy = hw.front().sbtb.stats.accuracy.ratio();
    cell.sbtbMissRatio = hw.front().sbtb.missRatio;
    cell.cbtbAccuracy = hw.front().cbtb.stats.accuracy.ratio();
    cell.cbtbMissRatio = hw.front().cbtb.missRatio;

    const auto [accuracy, code] =
        measureFs(recorded, *recorded.profile, point.fsOpt,
                  point.fsSlots, point.traceThreshold);
    cell.fsAccuracy = accuracy;
    cell.codeIncrease = code;
    return cell;
}

SweepResult
runSweep(const SweepConfig &config)
{
    const obs::ScopedSpan suite_span("sweep.suite");
    const auto start = std::chrono::steady_clock::now();

    SweepResult result;

    // ---- Resolve the workload set (Table 1 order by default). ----
    std::vector<const workloads::Workload *> suite;
    if (config.workloads.empty()) {
        for (const workloads::Workload *workload :
             workloads::allWorkloads()) {
            suite.push_back(workload);
        }
    } else {
        for (const std::string &name : config.workloads)
            suite.push_back(&workloads::findWorkload(name));
    }
    blab_assert(!suite.empty(), "sweep needs at least one workload");
    for (const workloads::Workload *workload : suite)
        result.workloads.push_back(workload->name());

    const std::vector<SweepPoint> grid = expandGrid(config.axes);
    if (grid.empty())
        blab_fatal("sweep grid is empty: every point lies outside the "
                   "hardware domain");

    // The distinct (level, slots, threshold) triples the grid
    // touches; the software-scheme measurements are point-independent
    // beyond this triple, so each image is built once per workload
    // rather than once per point.
    std::vector<FsTriple> fs_triples;
    for (const SweepPoint &point : grid) {
        const FsTriple triple{point.fsOpt, point.fsSlots,
                              point.traceThreshold};
        if (std::find(fs_triples.begin(), fs_triples.end(), triple) ==
            fs_triples.end()) {
            fs_triples.push_back(triple);
        }
    }

    const unsigned jobs = resolveJobs(config.base.jobs);

    // ---- Record each workload exactly once (or hit the persistent
    // trace cache), then precompute every point-independent result.
    // ----
    std::vector<PreparedWorkload> prepared(suite.size());
    {
        const obs::ScopedSpan record_span("sweep.record");
        parallelFor(suite.size(), jobs, [&](std::size_t i) {
            const obs::ScopedSpan prepare_span("sweep.prepare");
            PreparedWorkload &slot = prepared[i];
            slot.recorded = recordWorkload(*suite[i], config.base);
            const profile::ProgramProfile &profile =
                *slot.recorded.profile;
            for (const FsTriple &triple : fs_triples) {
                const auto &[level, slots, threshold] = triple;
                const auto [accuracy, code] = measureFs(
                    slot.recorded, profile, level, slots, threshold);
                slot.fsAccuracy[triple] = accuracy;
                slot.codeIncrease[triple] = code;
            }
        }, "sweep");
    }
    for (const PreparedWorkload &slot : prepared) {
        if (slot.recorded.cacheHit)
            ++result.stats.traceCacheHits;
        else
            ++result.stats.recordPasses;
    }

    // ---- Resume: map the journal's segments once, resolve every
    // journalled point from the index (grid order), then evaluate
    // only the remainder. ----
    SweepJournal journal(config.journalDir,
                         store::resolveMaxBytes(
                             config.journalMaxBytes,
                             SweepJournal::kMaxBytesEnv));
    journal.open();
    std::vector<std::uint64_t> stream_hashes;
    stream_hashes.reserve(prepared.size());
    for (const PreparedWorkload &slot : prepared)
        stream_hashes.push_back(slot.recorded.contentHash);

    std::vector<std::uint64_t> keys(grid.size());
    std::vector<SweepPointResult> resolved(grid.size());
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        keys[i] = sweepPointKey(grid[i], result.workloads,
                                stream_hashes);
        resolved[i].point = grid[i];
        std::vector<SweepCell> cells;
        if (journal.load(keys[i], cells) &&
            cells.size() == prepared.size()) {
            resolved[i].cells = std::move(cells);
            resolved[i].resumed = true;
            ++result.stats.resumed;
            sweepTelemetry().resumed.add(1);
        } else {
            pending.push_back(i);
        }
    }

    // The evaluation cap interrupts a sweep deterministically (the CI
    // resume smoke test); resumed points never count against it, so a
    // capped rerun always makes forward progress.
    if (config.maxPoints != 0 && pending.size() > config.maxPoints)
        pending.resize(config.maxPoints);

    // The BTB replay depends only on a point's (btb, counter) pair;
    // the FS axes (slots, trace threshold) feed the point-independent
    // code-size transform alone. Dedup the pending points into
    // classes sharing a pair and replay each distinct pair once,
    // fanning its cells out to every point in the class -- a grid
    // that sweeps the FS axes cuts its replay volume by their width.
    std::vector<std::vector<std::size_t>> classes;
    {
        std::map<std::tuple<std::size_t, std::size_t, int,
                            std::uint64_t, unsigned, unsigned>,
                 std::size_t>
            by_pair;
        for (const std::size_t g : pending) {
            const SweepPoint &point = grid[g];
            const auto key = std::make_tuple(
                point.btb.entries, point.btb.associativity,
                static_cast<int>(point.btb.policy), point.btb.seed,
                point.counter.bits, point.counter.threshold);
            const auto [slot, fresh] =
                by_pair.try_emplace(key, classes.size());
            if (fresh)
                classes.emplace_back();
            classes[slot->second].push_back(g);
        }
    }

    // Batch evaluation: chunk the distinct pairs into groups and
    // replay each workload's stream ONCE per group against every
    // pair in it (events outer, predictor state inner), instead of
    // once per point. One task is one (group, workload) walk, so even
    // a single-group grid spreads across the workers; each task
    // writes its own pre-sized cell slot, keeping results identical
    // at any job count. Journal granularity stays per point, so a
    // capped or interrupted run resumes exactly as before.
    const std::size_t num_groups =
        (classes.size() + kBatchPoints - 1) / kBatchPoints;
    std::vector<std::vector<predict::BtbBatchPoint>> batches(num_groups);
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const SweepPoint &point = grid[classes[c].front()];
        batches[c / kBatchPoints].push_back({point.btb, point.counter});
    }
    for (const std::size_t g : pending)
        resolved[g].cells.resize(prepared.size());

    // Within a group the largest streams go first, so the tail of the
    // queue is short walks that fill idle workers. Groups go in order,
    // and the task that lands a group's last workload journals its
    // points, so a long sweep seals as it goes.
    std::vector<std::size_t> by_size(prepared.size());
    std::iota(by_size.begin(), by_size.end(), std::size_t{0});
    std::stable_sort(by_size.begin(), by_size.end(),
                     [&](std::size_t a, std::size_t b) {
                         return prepared[a].recorded.eventCount() >
                                prepared[b].recorded.eventCount();
                     });
    std::vector<std::atomic<std::size_t>> unfinished(num_groups);
    for (std::atomic<std::size_t> &count : unfinished)
        count = prepared.size();

    parallelFor(num_groups * prepared.size(), jobs, [&](std::size_t task) {
        const obs::ScopedSpan point_span("sweep.point");
        const std::size_t group = task / prepared.size();
        const std::size_t w = by_size[task % prepared.size()];
        const PreparedWorkload &slot = prepared[w];
        const std::vector<predict::BtbBatchPoint> &batch = batches[group];
        const std::vector<predict::BtbBatchCell> cells = replayBatch(
            slot.recorded.traceView(), *slot.recorded.profile, batch);
        sweepTelemetry().replays.add(2 * batch.size());
        const std::size_t begin = group * kBatchPoints;
        for (std::size_t c = begin; c < begin + batch.size(); ++c) {
            for (const std::size_t g : classes[c]) {
                resolved[g].cells[w] =
                    cellFromBatch(cells[c - begin], grid[g], slot);
            }
        }
        // The decrement orders every other task's cell writes before
        // the last task's journal stores.
        if (--unfinished[group] != 0)
            return;
        for (std::size_t c = begin; c < begin + batch.size(); ++c) {
            for (const std::size_t g : classes[c]) {
                journal.store(keys[g], resolved[g].cells);
                sweepTelemetry().evaluated.add(1);
            }
        }
    }, "sweep");
    // Seal the pending journal tail and enforce the byte cap before
    // reporting: a killed run can lose only points completed after
    // the last seal, and those simply re-evaluate.
    journal.flush();
    result.stats.evaluated = pending.size();

    // Emit resolved points in grid order; points beyond the cap have
    // no cells and are omitted (a resumed rerun picks them up).
    for (SweepPointResult &point : resolved) {
        if (!point.cells.empty())
            result.points.push_back(std::move(point));
    }

    result.stats.elapsedSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return result;
}

// ---- Reporting ----

TextTable
makeSweepGridTable(const SweepResult &result)
{
    TextTable table({"#", "Point", "A_SBTB", "A_CBTB", "A_FS",
                     "C_SBTB", "C_CBTB", "C_FS", "Code+", "Src"});
    for (const SweepPointResult &point : result.points) {
        table.addRow({std::to_string(point.point.index),
                      point.point.label(),
                      formatPercent(point.meanAccuracy("SBTB")),
                      formatPercent(point.meanAccuracy("CBTB")),
                      formatPercent(point.meanAccuracy("FS")),
                      formatFixed(point.meanCost("SBTB")),
                      formatFixed(point.meanCost("CBTB")),
                      formatFixed(point.meanCost("FS")),
                      formatPercent(point.meanCodeIncrease()),
                      point.resumed ? "journal" : "replay"});
    }
    return table;
}

TextTable
makeSweepExtremesTable(const SweepResult &result)
{
    TextTable table(
        {"Scheme", "Best point", "Best cost", "Worst point",
         "Worst cost"});
    if (result.points.empty())
        return table;
    for (const char *scheme : kSchemes) {
        const SweepPointResult *best = &result.points.front();
        const SweepPointResult *worst = &result.points.front();
        for (const SweepPointResult &point : result.points) {
            if (point.meanCost(scheme) < best->meanCost(scheme))
                best = &point;
            if (point.meanCost(scheme) > worst->meanCost(scheme))
                worst = &point;
        }
        table.addRow({scheme, best->point.label(),
                      formatFixed(best->meanCost(scheme)),
                      worst->point.label(),
                      formatFixed(worst->meanCost(scheme))});
    }
    return table;
}

namespace
{

/** An axis projection: a stable key for one coordinate of a point
 *  plus the point's full coordinate tuple with that axis blanked. */
struct AxisView
{
    const char *name;
    std::function<std::string(const SweepPoint &)> coordinate;
};

const std::vector<AxisView> &
axisViews()
{
    static const std::vector<AxisView> views = {
        {"pipeline (k,l,m)",
         [](const SweepPoint &p) { return pipeLabel(p.pipe); }},
        {"btb entries",
         [](const SweepPoint &p) {
             return std::to_string(p.btb.entries);
         }},
        {"btb associativity",
         [](const SweepPoint &p) {
             return std::to_string(p.btb.associativity);
         }},
        {"btb policy",
         [](const SweepPoint &p) {
             return std::string(predict::policyName(p.btb.policy));
         }},
        {"counter bits",
         [](const SweepPoint &p) {
             return std::to_string(p.counter.bits);
         }},
        {"counter threshold",
         [](const SweepPoint &p) {
             return std::to_string(p.counter.threshold);
         }},
        {"fs slots",
         [](const SweepPoint &p) {
             return std::to_string(p.fsSlots);
         }},
        {"trace threshold",
         [](const SweepPoint &p) {
             return formatFixed(p.traceThreshold, 4);
         }},
        {"fs opt level",
         [](const SweepPoint &p) {
             return std::string(profile::fsOptLevelName(p.fsOpt));
         }},
    };
    return views;
}

/** Full coordinate tuple of a point with axis @p blank blanked out,
 *  used to pair points that differ only along one axis. */
std::string
residualKey(const SweepPoint &point, std::size_t blank)
{
    const std::vector<AxisView> &views = axisViews();
    std::string key;
    for (std::size_t a = 0; a < views.size(); ++a) {
        key += a == blank ? "*" : views[a].coordinate(point);
        key += '|';
    }
    return key;
}

} // namespace

TextTable
makeSweepSensitivityTable(const SweepResult &result)
{
    TextTable table({"Axis", "Range", "dC_SBTB%", "dC_CBTB%",
                     "dC_FS%", "dCode+%"});
    const std::vector<AxisView> &views = axisViews();
    for (std::size_t a = 0; a < views.size(); ++a) {
        // Distinct swept values, in grid (= axis declaration) order.
        std::vector<std::string> values;
        for (const SweepPointResult &point : result.points) {
            const std::string v = views[a].coordinate(point.point);
            if (std::find(values.begin(), values.end(), v) ==
                values.end()) {
                values.push_back(v);
            }
        }
        if (values.size() < 2)
            continue;
        const std::string &lo = values.front();
        const std::string &hi = values.back();

        // Pair first-value and last-value points that share every
        // other coordinate; the sensitivity is the mean relative cost
        // growth over all such pairs (a Table-4-style "what does
        // moving this axis alone cost" number).
        std::map<std::string, const SweepPointResult *> lo_points;
        for (const SweepPointResult &point : result.points) {
            if (views[a].coordinate(point.point) == lo)
                lo_points[residualKey(point.point, a)] = &point;
        }
        double growth[3] = {0.0, 0.0, 0.0};
        double code_growth = 0.0;
        std::size_t pairs = 0;
        bool code_defined = true;
        for (const SweepPointResult &point : result.points) {
            if (views[a].coordinate(point.point) != hi)
                continue;
            const auto it =
                lo_points.find(residualKey(point.point, a));
            if (it == lo_points.end())
                continue;
            const SweepPointResult &base = *it->second;
            for (std::size_t s = 0; s < 3; ++s) {
                const double c1 = base.meanCost(kSchemes[s]);
                const double c2 = point.meanCost(kSchemes[s]);
                growth[s] += (c2 - c1) / c1 * 100.0;
            }
            const double k1 = base.meanCodeIncrease();
            if (k1 > 0.0) {
                code_growth += (point.meanCodeIncrease() - k1) /
                               k1 * 100.0;
            } else {
                code_defined = false;
            }
            ++pairs;
        }
        if (pairs == 0)
            continue;
        const auto mean = [pairs](double sum) {
            return formatFixed(sum / static_cast<double>(pairs), 1);
        };
        table.addRow({views[a].name, lo + " -> " + hi,
                      mean(growth[0]), mean(growth[1]),
                      mean(growth[2]),
                      code_defined ? mean(code_growth) : "n/a"});
    }
    return table;
}

std::string
sweepToJson(const SweepResult &result)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"branchlab-sweep-v1\",\n";
    os << "  \"workloads\": [";
    for (std::size_t i = 0; i < result.workloads.size(); ++i) {
        os << (i ? ", " : "") << '"' << result.workloads[i] << '"';
    }
    os << "],\n";
    os << "  \"stats\": {\n";
    os << "    \"points_evaluated\": " << result.stats.evaluated
       << ",\n";
    os << "    \"points_resumed\": " << result.stats.resumed << ",\n";
    os << "    \"record_passes\": " << result.stats.recordPasses
       << ",\n";
    os << "    \"trace_cache_hits\": " << result.stats.traceCacheHits
       << ",\n";
    os << "    \"elapsed_seconds\": "
       << jsonNumber(result.stats.elapsedSeconds) << "\n";
    os << "  },\n";
    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const SweepPointResult &point = result.points[i];
        const SweepPoint &p = point.point;
        os << "    {\n";
        os << "      \"index\": " << p.index << ",\n";
        os << "      \"label\": \"" << p.label() << "\",\n";
        os << "      \"resumed\": "
           << (point.resumed ? "true" : "false") << ",\n";
        os << "      \"config\": {\"k\": " << p.pipe.k
           << ", \"ell\": " << p.pipe.ell << ", \"m\": " << p.pipe.m
           << ", \"btb_entries\": " << p.btb.entries
           << ", \"btb_associativity\": " << p.btb.associativity
           << ", \"btb_policy\": \""
           << predict::policyName(p.btb.policy)
           << "\", \"counter_bits\": " << p.counter.bits
           << ", \"counter_threshold\": " << p.counter.threshold
           << ", \"fs_slots\": " << p.fsSlots
           << ", \"trace_threshold\": "
           << jsonNumber(p.traceThreshold) << ", \"fs_opt\": \""
           << profile::fsOptLevelName(p.fsOpt) << "\"},\n";
        os << "      \"means\": {\"sbtb_accuracy\": "
           << jsonNumber(point.meanAccuracy("SBTB"))
           << ", \"cbtb_accuracy\": "
           << jsonNumber(point.meanAccuracy("CBTB"))
           << ", \"fs_accuracy\": "
           << jsonNumber(point.meanAccuracy("FS"))
           << ", \"sbtb_cost\": "
           << jsonNumber(point.meanCost("SBTB"))
           << ", \"cbtb_cost\": "
           << jsonNumber(point.meanCost("CBTB"))
           << ", \"fs_cost\": " << jsonNumber(point.meanCost("FS"))
           << ", \"code_increase\": "
           << jsonNumber(point.meanCodeIncrease()) << "},\n";
        os << "      \"cells\": [\n";
        for (std::size_t w = 0; w < point.cells.size(); ++w) {
            const SweepCell &cell = point.cells[w];
            os << "        {\"workload\": \"" << result.workloads[w]
               << "\", \"sbtb_accuracy\": "
               << jsonNumber(cell.sbtbAccuracy)
               << ", \"sbtb_miss_ratio\": "
               << jsonNumber(cell.sbtbMissRatio)
               << ", \"cbtb_accuracy\": "
               << jsonNumber(cell.cbtbAccuracy)
               << ", \"cbtb_miss_ratio\": "
               << jsonNumber(cell.cbtbMissRatio)
               << ", \"fs_accuracy\": "
               << jsonNumber(cell.fsAccuracy)
               << ", \"code_increase\": "
               << jsonNumber(cell.codeIncrease) << "}"
               << (w + 1 < point.cells.size() ? "," : "") << "\n";
        }
        os << "      ]\n";
        os << "    }" << (i + 1 < result.points.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

std::string
sweepToCsv(const SweepResult &result)
{
    std::ostringstream os;
    os << "point,label,k,ell,m,btb_entries,btb_associativity,"
          "btb_policy,counter_bits,counter_threshold,fs_slots,"
          "trace_threshold,fs_opt,workload,sbtb_accuracy,"
          "sbtb_miss_ratio,cbtb_accuracy,cbtb_miss_ratio,fs_accuracy,"
          "code_increase,sbtb_cost,cbtb_cost,fs_cost\n";
    for (const SweepPointResult &point : result.points) {
        const SweepPoint &p = point.point;
        for (std::size_t w = 0; w < point.cells.size(); ++w) {
            const SweepCell &cell = point.cells[w];
            os << p.index << ',' << csvQuote(p.label()) << ','
               << p.pipe.k << ',' << p.pipe.ell << ',' << p.pipe.m
               << ',' << p.btb.entries << ',' << p.btb.associativity
               << ',' << predict::policyName(p.btb.policy) << ','
               << p.counter.bits << ',' << p.counter.threshold << ','
               << p.fsSlots << ',' << csvNumber(p.traceThreshold)
               << ',' << profile::fsOptLevelName(p.fsOpt) << ','
               << csvQuote(result.workloads[w]) << ','
               << csvNumber(cell.sbtbAccuracy) << ','
               << csvNumber(cell.sbtbMissRatio) << ','
               << csvNumber(cell.cbtbAccuracy) << ','
               << csvNumber(cell.cbtbMissRatio) << ','
               << csvNumber(cell.fsAccuracy) << ','
               << csvNumber(cell.codeIncrease) << ','
               << csvNumber(
                      pipeline::branchCost(cell.sbtbAccuracy, p.pipe))
               << ','
               << csvNumber(
                      pipeline::branchCost(cell.cbtbAccuracy, p.pipe))
               << ','
               << csvNumber(
                      pipeline::branchCost(cell.fsAccuracy, p.pipe))
               << "\n";
        }
    }
    return os.str();
}

} // namespace branchlab::core
