/**
 * @file
 * serve-zipf: an in-process branchlabd (serve::Daemon, fixed worker
 * pool) driven open-loop over a Unix socket. Arrivals are Poisson at
 * a few fixed offered rates; keys follow Zipf(s = 1) over a hot set
 * of 8 design points x 10 workloads stored in setup by one runSweep
 * per workload, so the journal keys equal the single-workload request
 * keys. One request in a thousand asks for a first-seen point, which
 * evaluates and journals: few enough that p99 stays a hit latency
 * queued behind misses.
 *
 * It is the only workload that exercises the protocol, the daemon,
 * per-request journal reads and single-flight.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>

#include "core/sweep_journal.hh"
#include "loadgen.hh"
#include "profile/forward_slots.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "support/thread_pool.hh"
#include "trace/cache.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace blbench
{

namespace
{

namespace core = branchlab::core;
namespace serve = branchlab::serve;
namespace trace = branchlab::trace;
namespace wl = branchlab::workloads;
namespace predict = branchlab::predict;

/** Offered rates (requests/s): the reference rate whose latencies are
 *  the headline, then the ladder that finds the highest rate meeting
 *  the latency limit. */
constexpr double kReferenceRate = 2000.0;
constexpr double kLadderRates[] = {4000.0, 8000.0};
/** Shares of the window: the reference rate, the closed-loop
 *  saturation phase, and each ladder rate. */
constexpr double kReferenceShare = 0.4;
constexpr double kSaturationShare = 0.2;
constexpr double kLadderShare = 0.2;
/** Runs of the reference phase before an invalid one fails the run. */
constexpr int kReferenceAttempts = 3;
/** Requests in flight per connection at saturation. */
constexpr std::size_t kSaturationDepth = 16;
/** Requests per first-seen (miss) request. */
constexpr double kMissEvery = 1000.0;
/** The latency limit on each rate's tail percentile. */
constexpr double kLatencyLimitMs = 50.0;
/** A generator whose p99 send lateness exceeds this is behind its
 *  schedule: the phase is invalid. */
constexpr double kLatenessLimitMs = 1.0;

core::SweepAxes
hotAxes()
{
    core::SweepAxes axes;
    axes.btbEntries = {64, 256};
    axes.btbAssociativity = {0, 2};
    axes.counterBits = {2};
    axes.counterThresholds = {1, 2};
    return axes;
}

/** One request's design point and workload. */
struct Target
{
    core::SweepPoint point;
    std::size_t workload = 0;
    std::uint64_t key = 0;
};

serve::Request
requestFor(const Target &target, std::uint64_t seed, std::uint64_t id)
{
    serve::Request request;
    request.requestId = id;
    request.seed = seed;
    request.btb = target.point.btb;
    request.counter = target.point.counter;
    request.fsSlots = target.point.fsSlots;
    request.traceThreshold = target.point.traceThreshold;
    request.fsOpt = target.point.fsOpt;
    request.workloads = {wl::allWorkloads()[target.workload]->name()};
    return request;
}

std::string
keyName(std::uint64_t key)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

bool
sameCells(const std::vector<core::SweepCell> &a,
          const std::vector<core::SweepCell> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]) == 0);
}

/** First-seen design points: BTB geometries and counters outside the
 *  hot set, in a seeded order, paired round-robin with workloads. */
std::vector<Target>
missTargets(std::uint64_t seed, const std::vector<std::uint64_t> &hashes)
{
    std::vector<core::SweepPoint> candidates;
    const std::set<std::string> hot = [] {
        std::set<std::string> labels;
        for (const core::SweepPoint &p : core::expandGrid(hotAxes()))
            labels.insert(p.label());
        return labels;
    }();
    const std::pair<unsigned, unsigned> counters[] = {
        {1, 1}, {2, 1}, {2, 2}, {2, 3}, {3, 4}};
    for (const std::size_t entries : {16, 32, 64, 128, 256, 512, 1024, 2048})
        for (const std::size_t ways : {0, 1, 2, 4, 8})
            for (const auto policy : {predict::ReplacementPolicy::Lru,
                                      predict::ReplacementPolicy::Fifo})
                for (const auto &[bits, threshold] : counters) {
                    core::SweepPoint point;
                    point.btb.entries = entries;
                    point.btb.associativity = ways;
                    point.btb.policy = policy;
                    point.counter = {bits, threshold};
                    if (!hot.count(point.label()))
                        candidates.push_back(point);
                }
    branchlab::Rng rng(seed ^ 0x6d697373ULL);
    rng.shuffle(candidates);
    std::vector<std::size_t> order(wl::allWorkloads().size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);
    std::vector<Target> targets;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        Target target;
        target.point = candidates[i];
        target.workload = order[i % order.size()];
        target.key = core::sweepPointKey(
            target.point, {wl::allWorkloads()[target.workload]->name()},
            {hashes[target.workload]});
        targets.push_back(target);
    }
    return targets;
}

/** Reference cells for (point, workload) targets through the
 *  virtual-dispatch predictors, digested into @p book. */
void
referenceCells(const Options &options, const std::string &traces,
               const std::vector<Target> &targets, DigestBook &book)
{
    const auto &all = wl::allWorkloads();
    const core::ExperimentConfig config = paperConfig(options.seed, traces);
    std::vector<std::vector<std::pair<std::uint64_t, std::string>>> out(
        all.size());
    branchlab::parallelFor(
        all.size(), kSweepJobs,
        [&](std::size_t w) {
            std::vector<const Target *> mine;
            for (const Target &target : targets)
                if (target.workload == w)
                    mine.push_back(&target);
            if (mine.empty())
                return;
            core::RecordedWorkload recorded =
                core::recordWorkload(*all[w], config);
            const branchlab::profile::ProgramProfile prof =
                recorded.profile != nullptr ? std::move(*recorded.profile)
                                            : foldProfile(recorded);
            core::KernelSpec fs;
            fs.kind = core::SchemeKind::ForwardSemantic;
            fs.likely = &recorded.likelyMap;
            const double fsAccuracy =
                core::replay(recorded.traceView(), *core::makePredictor(fs))
                    .accuracy;
            for (const Target *target : mine) {
                core::KernelSpec sbtb;
                sbtb.kind = core::SchemeKind::Sbtb;
                sbtb.btb = target->point.btb;
                core::KernelSpec cbtb = sbtb;
                cbtb.kind = core::SchemeKind::Cbtb;
                cbtb.counter = target->point.counter;
                const core::ReplayResult sb = core::replay(
                    recorded.traceView(), *core::makePredictor(sbtb));
                const core::ReplayResult cb = core::replay(
                    recorded.traceView(), *core::makePredictor(cbtb));
                core::SweepCell cell;
                cell.sbtbAccuracy = sb.accuracy;
                cell.sbtbMissRatio = sb.missRatio;
                cell.cbtbAccuracy = cb.accuracy;
                cell.cbtbMissRatio = cb.missRatio;
                cell.fsAccuracy = fsAccuracy;
                cell.codeIncrease = branchlab::profile::codeIncreaseFor(
                    prof, target->point.fsSlots,
                    target->point.traceThreshold);
                out[w].emplace_back(target->key,
                                    digestOf(canonicalCell(cell)));
            }
        },
        "reference");
    for (const auto &rows : out)
        for (const auto &[key, digest] : rows)
            book.set("serve", keyName(key), digest);
}

/** Every workload's stream content hash for the seed. */
std::vector<std::uint64_t>
streamHashes(const Options &options, const std::string &traces)
{
    const core::ExperimentConfig config = paperConfig(options.seed, traces);
    std::vector<std::uint64_t> hashes;
    for (const wl::Workload *workload : wl::allWorkloads())
        hashes.push_back(core::workloadContentHash(*workload, config));
    return hashes;
}

/** The hot set: every hot-axes point for every workload, keyed as a
 *  single-workload request. */
std::vector<Target>
hotTargets(const std::vector<std::uint64_t> &hashes)
{
    std::vector<Target> hot;
    const std::vector<core::SweepPoint> grid = core::expandGrid(hotAxes());
    for (std::size_t w = 0; w < wl::allWorkloads().size(); ++w) {
        for (const core::SweepPoint &point : grid) {
            Target target;
            target.point = point;
            target.workload = w;
            target.key = core::sweepPointKey(
                point, {wl::allWorkloads()[w]->name()}, {hashes[w]});
            hot.push_back(target);
        }
    }
    return hot;
}

/** A set-up the measuring process attached to: stores built by the
 *  set-up child, the hot cells as the journal holds them, a live
 *  daemon, and the generator's connections. */
struct ServeSetup
{
    std::unique_ptr<ScratchDir> dir;
    std::string traces;
    std::string journal;
    std::vector<std::uint64_t> hashes;
    std::vector<Target> hot;
    std::map<std::uint64_t, std::vector<core::SweepCell>> stored;
    std::unique_ptr<serve::Daemon> daemon;
    std::vector<std::unique_ptr<serve::Client>> clients;

    ~ServeSetup()
    {
        clients.clear();
        if (daemon) {
            daemon->requestDrain();
            daemon->waitStopped();
        }
    }
};

std::unique_ptr<ServeSetup>
attach(const Options &options, std::unique_ptr<ScratchDir> dir)
{
    auto setup = std::make_unique<ServeSetup>();
    setup->traces = dir->path() + "/traces";
    setup->journal = dir->path() + "/journal";
    setup->hashes = streamHashes(options, setup->traces);
    setup->hot = hotTargets(setup->hashes);
    {
        core::SweepJournal journal(setup->journal);
        journal.open();
        for (const Target &target : setup->hot) {
            std::vector<core::SweepCell> cells;
            if (!journal.load(target.key, cells))
                throw std::runtime_error("hot key " + keyName(target.key) +
                                         " missing from the journal");
            setup->stored[target.key] = std::move(cells);
        }
    }

    // The socket lives in the checkout; a relative path keeps it
    // inside the 108-byte sun_path limit wherever the checkout is.
    const std::string socket =
        std::filesystem::relative(dir->path() + "/d.sock").string();
    serve::DaemonConfig daemon;
    daemon.listen = "unix:" + socket;
    daemon.jobs = kServeWorkers;
    daemon.maxQueue = 1u << 16;
    daemon.service.traceCacheDir = setup->traces;
    daemon.service.journalDir = setup->journal;
    setup->dir = std::move(dir);
    setup->daemon = std::make_unique<serve::Daemon>(daemon);
    setup->daemon->start();
    for (unsigned c = 0; c < kServeConnections; ++c)
        setup->clients.push_back(
            std::make_unique<serve::Client>(setup->daemon->address()));
    return setup;
}

/** One open-loop phase: its schedule, what each request asked for,
 *  and what came back. */
struct Phase
{
    double rate = 0.0;
    std::vector<ScheduledRequest> schedule;
    std::vector<const Target *> targets;
    std::vector<char> isMiss;
    PhaseResult result;

    std::vector<double> latencies(bool misses) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < targets.size(); ++i)
            if (!misses || isMiss[i])
                out.push_back(result.latencyMs[i]);
        return out;
    }
};

Phase
planPhase(double rate, double seconds, branchlab::Rng &rng,
          const ZipfSampler &zipf, const std::vector<std::size_t> &rankToHot,
          const ServeSetup &setup, const std::vector<Target> &misses,
          std::size_t &nextMiss, std::uint64_t &nextId,
          std::uint64_t seed)
{
    Phase phase;
    phase.rate = rate;
    const std::vector<double> arrivals = poissonArrivals(rate, seconds, rng);
    const std::size_t n = arrivals.size();
    // A whole number of rounds over the ten workloads, so every phase
    // asks each workload for first-seen points equally often.
    const std::size_t workloads = wl::allWorkloads().size();
    const std::size_t missCount =
        workloads * static_cast<std::size_t>(std::max(
                        1.0, std::round(static_cast<double>(n) /
                                        (kMissEvery * workloads))));
    // Misses are spread evenly through the phase so no two evaluate
    // at once: every run then sees the same miss mix and overlap.
    std::set<std::size_t> missAt;
    for (std::size_t m = 0; m < std::min(missCount, n); ++m)
        missAt.insert((2 * m + 1) * n / (2 * missCount));
    for (std::size_t i = 0; i < n; ++i) {
        const bool miss = missAt.count(i) != 0 && nextMiss < misses.size();
        const Target *target =
            miss ? &misses[nextMiss++]
                 : &setup.hot[rankToHot[zipf.sample(rng)]];
        ScheduledRequest request;
        request.at = arrivals[i];
        request.requestId = nextId++;
        request.payload = serve::encodeRequest(
            requestFor(*target, seed, request.requestId));
        phase.schedule.push_back(std::move(request));
        phase.targets.push_back(target);
        phase.isMiss.push_back(miss ? 1 : 0);
    }
    return phase;
}

std::string
fmt(double value, int precision = 4)
{
    std::ostringstream os;
    os << std::setprecision(precision) << value;
    return os.str();
}

/** How one phase went against the latency limit. */
struct PhaseVerdict
{
    bool valid = true;
    bool meets = false;
    double p50 = 0.0;
    double p99 = 0.0;
    /** The highest percentile with at least ten samples beyond it. */
    Tail tail;
    double latenessP99 = 0.0;
    std::string why;
};

PhaseVerdict
judge(const Phase &phase, std::size_t failures)
{
    PhaseVerdict verdict;
    const std::vector<double> all = phase.latencies(false);
    verdict.p50 = median(all);
    verdict.p99 = quantile(all, 0.99);
    verdict.tail = supportedTail(all);
    verdict.latenessP99 = quantile(phase.result.latenessMs, 0.99);
    if (phase.result.transportFailed) {
        verdict.valid = false;
        verdict.why = "transport failed";
    } else if (verdict.latenessP99 > kLatenessLimitMs) {
        verdict.valid = false;
        verdict.why = "generator behind schedule";
    }
    const double backlogLimit = phase.rate * kLatencyLimitMs / 1000.0;
    const bool growing =
        static_cast<double>(phase.result.backlogAtLastSend) > backlogLimit;
    const bool p99Supported =
        verdict.tail.valid && verdict.tail.percentile >= 99.0;
    verdict.meets = verdict.valid && failures == 0 && p99Supported &&
                    verdict.p99 <= kLatencyLimitMs && !growing;
    if (verdict.valid && !verdict.meets)
        verdict.why = growing ? "backlog growing"
                              : (failures != 0 ? "failed requests"
                                               : "tail over the limit");
    return verdict;
}

/** Check every response of a phase; returns the failures. */
std::size_t
checkPhase(const Phase &phase, const ServeSetup &setup,
           std::map<std::uint64_t, std::vector<core::SweepCell>> &served,
           Report &report)
{
    std::size_t failures = 0;
    std::string first;
    for (std::size_t i = 0; i < phase.targets.size(); ++i) {
        const serve::Response &response = phase.result.responses[i];
        const Target &target = *phase.targets[i];
        std::string why;
        if (response.status != serve::ResponseStatus::Ok)
            why = "status " + std::to_string(static_cast<int>(response.status)) +
                  " " + response.message;
        else if (response.requestId != phase.schedule[i].requestId)
            why = "request id mismatch";
        else if (phase.isMiss[i] ? response.cacheHit : !response.cacheHit)
            why = phase.isMiss[i] ? "first-seen key served as a hit"
                                  : "hot key missed the journal";
        else if (!phase.isMiss[i] &&
                 !sameCells(response.cells, setup.stored.at(target.key)))
            why = "served hit differs from the cell the sweep stored";
        if (!why.empty() && failures++ == 0)
            first = "request " + std::to_string(phase.schedule[i].requestId) +
                    " (" + keyName(target.key) + "): " + why;
        if (response.status == serve::ResponseStatus::Ok)
            served[target.key] = response.cells;
    }
    if (failures != 0)
        report.failure(std::to_string(failures) +
                           " failed requests at rate " + fmt(phase.rate) +
                           "/s, first: " + first,
                       failures);
    return failures;
}

} // namespace

void
setUpServeZipf(const Options &options, const std::string &dir)
{
    const std::string traces = dir + "/traces";
    const std::string journalDir = dir + "/journal";
    const std::vector<std::uint64_t> hashes = streamHashes(options, traces);
    // One runSweep per workload, so every journal key is a
    // single-workload request key; the journal must then hold exactly
    // the cells the sweep returned.
    std::map<std::uint64_t, std::vector<core::SweepCell>> swept;
    for (std::size_t w = 0; w < wl::allWorkloads().size(); ++w) {
        core::SweepConfig sweep;
        sweep.axes = hotAxes();
        sweep.base = paperConfig(options.seed, traces);
        sweep.base.jobs = kSweepJobs;
        sweep.workloads = {wl::allWorkloads()[w]->name()};
        sweep.journalDir = journalDir;
        for (const core::SweepPointResult &point :
             core::runSweep(sweep).points)
            swept[core::sweepPointKey(point.point, sweep.workloads,
                                      {hashes[w]})] = point.cells;
    }
    core::SweepJournal journal(journalDir);
    journal.open();
    for (const Target &target : hotTargets(hashes)) {
        std::vector<core::SweepCell> cells;
        if (!journal.load(target.key, cells) ||
            !sameCells(cells, swept.at(target.key)))
            throw std::runtime_error("journal cell for hot key " +
                                     keyName(target.key) +
                                     " differs from runSweep's");
    }
}

void
makeServeDigests(const Options &options, DigestBook &book)
{
    const ScratchDir dir(options, "digest-serve");
    setUpServeZipf(options, dir.path());
    const std::string traces = dir.path() + "/traces";
    const std::vector<std::uint64_t> hashes = streamHashes(options, traces);
    std::vector<Target> targets = hotTargets(hashes);
    const std::vector<Target> misses = missTargets(options.seed, hashes);
    targets.insert(targets.end(), misses.begin(),
                   misses.begin() + std::min<std::size_t>(misses.size(), 100));
    referenceCells(options, traces, targets, book);
}

void
runServeZipf(const Options &options, Report &report)
{
    // ---- Setup: stores and hot set in a child process, then the
    // daemon and the generator's connections here. ----
    std::vector<double> setupTimes;
    std::unique_ptr<ServeSetup> setup;
    while (wantAnotherSetup(setupTimes)) {
        setup = nullptr;
        auto dir = std::make_unique<ScratchDir>(options, "serve");
        const double stores = spawnSetup(options, dir->path());
        const Clock::time_point start = Clock::now();
        setup = attach(options, std::move(dir));
        setupTimes.push_back(stores + secondsSince(start));
    }
    report.line("serve-zipf: " + std::to_string(kServeWorkers) +
                " workers, " + std::to_string(kServeConnections) +
                " connections, " + std::to_string(setup->hot.size()) +
                " hot keys (Zipf s=1), one first-seen key per " +
                fmt(kMissEvery) + " requests, latency limit " +
                fmt(kLatencyLimitMs) + " ms on p99");

    branchlab::Rng rng(options.seed ^ 0x7a697066ULL);
    const ZipfSampler zipf(setup->hot.size(), 1.0);
    std::vector<std::size_t> rankToHot(setup->hot.size());
    for (std::size_t i = 0; i < rankToHot.size(); ++i)
        rankToHot[i] = i;
    rng.shuffle(rankToHot);
    const std::vector<Target> misses = missTargets(options.seed, setup->hashes);
    std::size_t nextMiss = 0;
    std::uint64_t nextId = 1;

    std::vector<serve::Client *> clients;
    for (const auto &client : setup->clients)
        clients.push_back(client.get());
    const auto onStall = [&] { setup->daemon->requestDrain(); };
    std::map<std::uint64_t, std::vector<core::SweepCell>> served;

    const CounterMark mark;
    const HistogramMark queueWait("threadpool.serve.queue_wait_ns");
    resetPeakRss();
    const auto runPhase = [&](double rate, double seconds) {
        Phase phase = planPhase(rate, seconds, rng, zipf, rankToHot, *setup,
                                misses, nextMiss, nextId, options.seed);
        phase.result = runOpenLoop(clients, phase.schedule, onStall);
        report.attempted(phase.schedule.size());
        return phase;
    };

    // A reference phase whose generator fell behind its schedule is
    // invalid, not slow: it is rerun, up to kReferenceAttempts times.
    const double referenceSeconds = options.seconds * kReferenceShare;
    Phase reference;
    PhaseVerdict refVerdict;
    for (int attempt = 1; attempt <= kReferenceAttempts; ++attempt) {
        reference = runPhase(kReferenceRate, referenceSeconds);
        refVerdict = judge(reference,
                           checkPhase(reference, *setup, served, report));
        if (refVerdict.valid)
            break;
        report.line("reference phase attempt " + std::to_string(attempt) +
                    " invalid: " + refVerdict.why);
    }
    const auto phaseLine = [&](const Phase &phase,
                               const PhaseVerdict &verdict) {
        return "rate " + fmt(phase.rate) + "/s: " +
               std::to_string(phase.schedule.size()) + " requests, p50 " +
               fmt(verdict.p50) + " ms, p99 " + fmt(verdict.p99) + " ms, p" +
               fmt(verdict.tail.percentile) +
               " " + fmt(verdict.tail.value) + " ms (" +
               std::to_string(verdict.tail.beyond) + " of " +
               std::to_string(verdict.tail.samples) +
               " beyond), generator lateness p50 " +
               fmt(quantile(phase.result.latenessMs, 0.5)) + " p99 " +
               fmt(verdict.latenessP99) + " max " +
               fmt(quantile(phase.result.latenessMs, 1.0)) +
               " ms, backlog at last send " +
               std::to_string(phase.result.backlogAtLastSend) + ": " +
               (verdict.meets ? "meets the limit"
                              : (verdict.valid ? "over: " : "INVALID: ") +
                                    verdict.why);
    };
    report.line(phaseLine(reference, refVerdict));

    // Peak RSS over the reference phase, the same work in every run.
    const double peakRss = options.traced ? 0.0 : peakRssMb();

    double maxRate = refVerdict.meets ? kReferenceRate : 0.0;
    ClosedLoopResult saturation;
    if (!options.traced) {
        // Capacity: hits only, closed loop, kSaturationDepth in flight
        // per connection.
        std::vector<serve::Request> templates;
        std::vector<const Target *> templateTargets;
        for (std::size_t i = 0; i < 4096; ++i) {
            templateTargets.push_back(&setup->hot[rankToHot[zipf.sample(rng)]]);
            templates.push_back(
                requestFor(*templateTargets.back(), options.seed, 0));
        }
        saturation = runClosedLoop(
            clients, templates, nextId, kSaturationDepth,
            options.seconds * kSaturationShare,
            [&](std::size_t index, const serve::Response &response) {
                return response.status == serve::ResponseStatus::Ok &&
                       response.cacheHit &&
                       sameCells(response.cells,
                                 setup->stored.at(templateTargets[index]->key));
            });
        nextId += 1u << 30;
        report.attempted(saturation.completed);
        if (saturation.wrong != 0)
            report.failure("saturation phase: " +
                               std::to_string(saturation.wrong) +
                               " wrong responses",
                           saturation.wrong);
        if (saturation.transportFailed)
            report.failure("saturation phase: transport failed");
        report.line("saturation: " + std::to_string(saturation.completed) +
                    " hits in " + fmt(saturation.seconds) + " s closed loop, " +
                    std::to_string(kSaturationDepth) + " in flight per connection");

        for (const double rate : kLadderRates) {
            if (maxRate == 0.0)
                break;
            Phase phase =
                runPhase(rate, options.seconds * kLadderShare);
            const std::size_t wrong = checkPhase(phase, *setup, served, report);
            const PhaseVerdict verdict = judge(phase, wrong);
            report.line(phaseLine(phase, verdict));
            if (!verdict.meets)
                break;
            maxRate = rate;
        }
    }

    // ---- Single-flight: two identical first-seen requests at once
    // must cost one evaluation and return the same cells. ----
    if (nextMiss < misses.size()) {
        const Target &twin = misses[nextMiss++];
        const std::uint64_t before = counterValue("serve.evaluations");
        std::vector<ScheduledRequest> pair;
        for (int i = 0; i < 2; ++i) {
            ScheduledRequest request;
            request.requestId = nextId++;
            request.payload = serve::encodeRequest(
                requestFor(twin, options.seed, request.requestId));
            pair.push_back(std::move(request));
        }
        const PhaseResult result = runOpenLoop(clients, pair, onStall);
        report.attempted(2);
        const std::uint64_t evaluations =
            counterValue("serve.evaluations") - before;
        if (result.transportFailed ||
            result.responses[0].status != serve::ResponseStatus::Ok ||
            result.responses[1].status != serve::ResponseStatus::Ok ||
            !sameCells(result.responses[0].cells, result.responses[1].cells) ||
            evaluations != 1)
            report.failure("single-flight: twin first-seen requests cost " +
                           std::to_string(evaluations) + " evaluations");
        else
            served[twin.key] = result.responses[0].cells;
    }

    // ---- Invariants through the program's own counters. ----
    const std::uint64_t vmRuns = mark.since("vm.runs");
    const std::uint64_t cacheMisses = mark.since("trace_cache.misses");
    const std::uint64_t fallbacks =
        mark.since("engine.replay.kernel.fallback");
    if (vmRuns != 0 || cacheMisses != 0 || fallbacks != 0)
        report.failure("serve invariants: vm.runs " + std::to_string(vmRuns) +
                       ", trace-cache misses " + std::to_string(cacheMisses) +
                       ", kernel fallbacks " + std::to_string(fallbacks));

    std::map<std::string, double> tracedValues;
    if (options.traced) {
        tracedValues["serve.rejects"] =
            static_cast<double>(mark.since("serve.rejects"));
        const double requests =
            static_cast<double>(mark.since("serve.requests"));
        tracedValues["serve.hit_ratio"] =
            requests > 0
                ? static_cast<double>(mark.since("serve.cache_hits")) / requests
                : 0.0;
        tracedValues["pool.queue_wait_p50_ms"] =
            queueWait.percentileMsSince(50);
        tracedValues["pool.queue_wait_p99_ms"] =
            queueWait.percentileMsSince(99);

        serve::ExperimentService &service = setup->daemon->service();
        // obs.overhead_pct: in-process hits with telemetry on and
        // off, alternating which block runs first.
        std::vector<const Target *> hits;
        for (std::size_t i = 0; i < 2000; ++i)
            hits.push_back(&setup->hot[rankToHot[zipf.sample(rng)]]);
        const auto hitBlock = [&](bool telemetry) {
            branchlab::obs::setEnabled(telemetry);
            const Clock::time_point start = Clock::now();
            for (const Target *target : hits)
                (void)service.handle(requestFor(*target, options.seed, 1));
            const double seconds = secondsSince(start);
            branchlab::obs::setEnabled(true);
            return seconds;
        };
        std::vector<double> on, off;
        for (int i = 0; i < 8; ++i) {
            const bool enabled = (i % 4 == 0) || (i % 4 == 3);
            (enabled ? on : off).push_back(hitBlock(enabled));
        }
        tracedValues["obs.overhead_pct"] =
            100.0 * (median(on) / median(off) - 1.0);

        // The traced requests: every call of a request's path, one at
        // a time, spans tagged with the request id.
        Tracer tracer("serve-zipf");
        const CounterMark tracedMark;
        core::SweepJournal journal(setup->journal);
        {
            const Tracer::Scope span(tracer, "journal", "journal.open", 0,
                                     false);
            journal.open();
        }
        tracedValues["journal.open_s"] = tracer.keySeconds().at("journal.open");
        tracedValues["journal.bytes_mapped"] = static_cast<double>(
            tracedMark.since("sweep.journal.bytes_mapped"));
        tracer.resetTotals();

        std::vector<double> codecUs, keyUs, loadUs, hitUs, missMs, rttUs,
            requestUs, wallUs;
        double loads = 0, loadHits = 0;
        std::vector<const Target *> sample;
        for (std::size_t i = 0; i < 3000; ++i)
            sample.push_back(&setup->hot[rankToHot[zipf.sample(rng)]]);
        std::vector<const Target *> fresh;
        for (std::size_t w = 0; w < wl::allWorkloads().size() &&
                                nextMiss < misses.size();
             ++w)
            fresh.push_back(&misses[nextMiss++]);
        sample.insert(sample.end(), fresh.begin(), fresh.end());

        const std::size_t hotCount = sample.size() - fresh.size();
        for (std::size_t i = 0; i < sample.size(); ++i) {
            const Target &target = *sample[i];
            const bool miss = i >= hotCount;
            const std::uint64_t id = nextId++;
            report.attempted();
            const auto sectionStart = tracer.keySeconds();
            const Clock::time_point start = Clock::now();
            serve::Request decoded;
            {
                const Tracer::Scope span(tracer, "serve", "serve.codec", id);
                std::string error;
                const std::string payload =
                    serve::encodeRequest(requestFor(target, options.seed, id));
                if (!serve::decodeRequest(payload, decoded, error))
                    report.failure("request codec: " + error);
            }
            {
                const Tracer::Scope span(tracer, "serve", "serve.key", id,
                                         false);
                const std::string name =
                    wl::allWorkloads()[target.workload]->name();
                if (core::sweepPointKey(decoded.toPoint(), {name},
                                        {setup->hashes[target.workload]}) !=
                    target.key)
                    report.failure("request key mismatch");
            }
            {
                const Tracer::Scope span(tracer, "journal", "journal.load",
                                         id, false);
                std::vector<core::SweepCell> cells;
                loads += 1;
                loadHits += journal.load(target.key, cells) ? 1 : 0;
            }
            serve::Response response;
            {
                const Tracer::Scope span(
                    tracer, "serve",
                    miss ? "serve.handle_miss" : "serve.handle_hit", id);
                response = service.handle(decoded);
            }
            {
                const Tracer::Scope span(tracer, "serve", "serve.codec", id);
                std::string error;
                serve::Response back;
                if (!serve::decodeResponse(serve::encodeResponse(response),
                                           back, error) ||
                    !sameCells(back.cells, response.cells))
                    report.failure("response codec: " + error);
            }
            {
                const Tracer::Scope span(tracer, "serve", "serve.rtt", id);
                serve::Request ping;
                ping.type = serve::RequestType::Ping;
                ping.requestId = id;
                if (setup->clients[0]->call(ping).status !=
                    serve::ResponseStatus::Ok)
                    report.failure("ping failed");
            }
            wallUs.push_back(1e6 * secondsSince(start));
            const auto delta = [&](const char *key) {
                const auto now = tracer.keySeconds().find(key);
                const auto then = sectionStart.find(key);
                return (now == tracer.keySeconds().end() ? 0.0 : now->second) -
                       (then == sectionStart.end() ? 0.0 : then->second);
            };
            codecUs.push_back(1e6 * delta("serve.codec"));
            keyUs.push_back(1e6 * delta("serve.key"));
            loadUs.push_back(1e6 * delta("journal.load"));
            rttUs.push_back(1e6 * delta("serve.rtt"));
            if (miss) {
                missMs.push_back(1e3 * delta("serve.handle_miss"));
            } else {
                hitUs.push_back(1e6 * delta("serve.handle_hit"));
                requestUs.push_back(1e6 * (delta("serve.codec") +
                                           delta("serve.handle_hit") +
                                           delta("serve.rtt")));
            }
            // Responses to check like the load phases'.
            if (response.status != serve::ResponseStatus::Ok ||
                response.cacheHit == miss ||
                (!miss && !sameCells(response.cells,
                                     setup->stored.at(target.key))))
                report.failure("traced request " + keyName(target.key) +
                               " answered wrong");
            else
                served[target.key] = response.cells;
        }

        // The miss path's layers, one first-seen point per workload,
        // through the calls ExperimentService::handle makes.
        {
            const ScratchDir scratch(options, "serve-journal-probe");
            core::SweepJournal probeJournal(scratch.path());
            probeJournal.open();
            const trace::TraceCache cache(setup->traces);
            std::size_t probes = 0;
            double probeBytesMapped = 0, probeEvents = 0;
            for (const Target *target : fresh) {
                const wl::Workload &workload =
                    *wl::allWorkloads()[target->workload];
                trace::CachedWorkload cached;
                bool hit = false;
                const std::uint64_t mappedBefore =
                    counterValue("trace_cache.bytes_mapped");
                {
                    const Tracer::Scope span(tracer, "trace", "trace.map", 0,
                                             false);
                    hit = cache.load(workload.name(),
                                     setup->hashes[target->workload], cached);
                }
                probeBytesMapped += static_cast<double>(
                    counterValue("trace_cache.bytes_mapped") - mappedBefore);
                probeEvents += static_cast<double>(cached.eventCount());
                if (!hit) {
                    report.failure("probe missed the trace cache");
                    continue;
                }
                const core::ExperimentConfig config =
                    paperConfig(options.seed, setup->traces);
                core::RecordedWorkload recorded =
                    core::recordWorkload(workload, config);
                {
                    const Tracer::Scope span(tracer, "replay", "replay.batch",
                                             0, false);
                    (void)core::replayBatch(
                        recorded.traceView(),
                        {{target->point.btb, target->point.counter}});
                }
                {
                    const Tracer::Scope span(tracer, "profile",
                                             "profile.rebuild", 0, false);
                    (void)foldProfile(recorded);
                }
                {
                    const Tracer::Scope span(tracer, "journal",
                                             "journal.store", 0, false);
                    probeJournal.store(target->key, served[target->key]);
                    probeJournal.flush();
                }
                ++probes;
            }
            const double n = probes > 0 ? static_cast<double>(probes) : 1.0;
            const auto perProbe = [&](const char *key) {
                const auto it = tracer.keySeconds().find(key);
                return it == tracer.keySeconds().end() ? 0.0
                                                       : it->second / n;
            };
            tracedValues["trace.map_s"] = perProbe("trace.map");
            tracedValues["replay.batch_s"] = perProbe("replay.batch");
            tracedValues["profile.rebuild_s"] = perProbe("profile.rebuild");
            tracedValues["journal.store_s"] = perProbe("journal.store");
            tracedValues["trace.bytes_mapped"] = probeBytesMapped / n;
            tracedValues["replay.batch_point_meps"] =
                perProbe("replay.batch") > 0
                    ? probeEvents / n / perProbe("replay.batch") / 1e6
                    : 0.0;
        }

        tracedValues["serve.codec_us"] = median(codecUs);
        tracedValues["serve.key_us"] = median(keyUs);
        tracedValues["journal.load_us"] = median(loadUs);
        tracedValues["journal.hit_ratio"] = loads > 0 ? loadHits / loads : 0.0;
        tracedValues["serve.handle_hit_us"] = median(hitUs);
        tracedValues["serve.handle_miss_ms"] = median(missMs);
        tracedValues["serve.rtt_us"] = median(rttUs);
        const double cacheHits =
            static_cast<double>(tracedMark.since("trace_cache.hits"));
        const double cacheLookups =
            cacheHits +
            static_cast<double>(tracedMark.since("trace_cache.misses"));
        tracedValues["trace.hit_ratio"] =
            cacheLookups > 0 ? cacheHits / cacheLookups : 0.0;
        tracedValues["replay.fallback"] = static_cast<double>(
            mark.since("engine.replay.kernel.fallback"));
        tracedValues["vm.instructions"] =
            static_cast<double>(mark.since("vm.instructions"));

        // Attribution per hit request: codec + handle + transport
        // against the untraced reference-rate median.
        const double untracedUs = 1000.0 * refVerdict.p50;
        const double attributedUs = median(requestUs);
        tracedValues["unattributed_s"] = (untracedUs - attributedUs) / 1e6;
        tracedValues["unattributed_pct"] =
            untracedUs > 0 ? 100.0 * (untracedUs - attributedUs) / untracedUs
                           : 0.0;
        tracedValues["trace_overhead_pct"] =
            untracedUs > 0 ? 100.0 * (median(wallUs) / untracedUs - 1.0) : 0.0;

        const std::string tracePath =
            (std::filesystem::path(options.workDir) / "out" /
             ("serve-zipf-seed" + std::to_string(options.seed) +
              ".trace.json"))
                .string();
        tracer.writeChromeTrace(tracePath);
        report.line("per-request self time, serve-zipf hits (median of " +
                    std::to_string(requestUs.size()) + "): codec " +
                    fmt(tracedValues["serve.codec_us"]) + " us, handle " +
                    fmt(tracedValues["serve.handle_hit_us"]) +
                    " us, transport (ping rtt) " +
                    fmt(tracedValues["serve.rtt_us"]) + " us; untraced p50 " +
                    fmt(untracedUs) + " us; unattributed " +
                    fmt(untracedUs - attributedUs) + " us (" +
                    fmt(tracedValues["unattributed_pct"]) + "%)");
        report.line("chrome trace: " + tracePath);
    }

    // ---- Output check: every served cell against the reference. ----
    DigestBook book;
    book.load(options, options.seed);
    std::vector<Target> unshipped;
    std::map<std::uint64_t, const Target *> byKey;
    for (const Target &target : setup->hot)
        byKey[target.key] = &target;
    for (const Target &target : misses)
        byKey[target.key] = &target;
    for (const auto &[key, cells] : served)
        if (book.get("serve", keyName(key)).empty())
            unshipped.push_back(*byKey.at(key));
    for (const auto &[key, cells] : setup->stored)
        if (book.get("serve", keyName(key)).empty() && !served.count(key))
            unshipped.push_back(*byKey.at(key));
    if (!unshipped.empty())
        referenceCells(options, setup->traces, unshipped, book);
    std::size_t wrong = 0;
    const auto checkCells = [&](std::uint64_t key,
                                const std::vector<core::SweepCell> &cells) {
        if (cells.size() != 1 ||
            digestOf(canonicalCell(cells[0])) != book.get("serve", keyName(key)))
            ++wrong;
    };
    for (const auto &[key, cells] : served)
        checkCells(key, cells);
    for (const auto &[key, cells] : setup->stored)
        checkCells(key, cells);
    if (wrong != 0)
        report.failure(std::to_string(wrong) +
                           " served or stored cells differ from the reference",
                       wrong);

    if (options.traced) {
        emitLayerMetrics(report, tracedValues);
        return;
    }

    const std::vector<double> missLatencies = reference.latencies(true);
    const std::string validity =
        refVerdict.valid ? "" : "; INVALID: generator behind schedule";
    report.info("latency_p50_ms", "ms", refVerdict.p50,
                "at " + fmt(kReferenceRate) + " req/s offered, " +
                    std::to_string(reference.schedule.size()) + " requests" +
                    validity);
    const std::vector<double> referenceLatencies = reference.latencies(false);
    const std::size_t beyondP99 = static_cast<std::size_t>(std::count_if(
        referenceLatencies.begin(), referenceLatencies.end(),
        [&](double v) { return v > refVerdict.p99; }));
    report.info("latency_p99_ms", "ms", refVerdict.p99,
                std::to_string(beyondP99) + " of " +
                    std::to_string(referenceLatencies.size()) +
                    " samples beyond" + validity);
    report.info("latency_tail_ms", "ms", refVerdict.tail.value,
                "p" + fmt(refVerdict.tail.percentile) +
                    ", the highest percentile with " +
                    std::to_string(refVerdict.tail.beyond) + " >= 10 of " +
                    std::to_string(refVerdict.tail.samples) +
                    " samples beyond");
    report.info("miss_latency_p50_ms", "ms", median(missLatencies),
                std::to_string(missLatencies.size()) + " first-seen requests");
    report.info("max_rate_rps", "req/s", maxRate,
                "highest offered rate meeting " + fmt(kLatencyLimitMs) +
                    " ms without a growing backlog");
    const double capacity =
        static_cast<double>(saturation.completed) / saturation.seconds;
    report.metric("throughput_per_s", "1/s", capacity);
    report.metric("peak_rss_mb", "MB", peakRss);
    report.metric("setup_s", "s", median(setupTimes));
}

} // namespace blbench
