/**
 * @file
 * paper-cold and paper-warm: the paper's full suite (ten workloads,
 * seven schemes fused, Table 5 code size) through
 * ExperimentRunner::runAll at jobs 1.
 *
 * paper-cold is a user's first `branchlab tables --trace-cache` run:
 * every pass starts from an empty trace-cache directory, so it is the
 * only workload where the VM, the recorder and the trace store work.
 * paper-warm is the everyday rerun against a cache primed in setup:
 * no VM, only map/validate, view decode, fused replay and the profile
 * rebuild.
 *
 * The traced pass redoes the suite one public call at a time in the
 * runner's order (core/runner.cc: recordWorkload, then
 * runBenchmarkReplay), with a span around each call, and must produce
 * bit-identical results.
 */

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "profile/forward_slots.hh"
#include "support/thread_pool.hh"
#include "trace/cache.hh"
#include "trace/record.hh"
#include "vm/machine.hh"
#include "vm/predecode.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace blbench
{

namespace
{

namespace core = branchlab::core;
namespace trace = branchlab::trace;
namespace wl = branchlab::workloads;

using Digests = std::map<std::string, std::string>;

Digests
digestsOf(const std::vector<core::BenchmarkResult> &results)
{
    Digests digests;
    for (const core::BenchmarkResult &result : results)
        digests[result.name] = digestOf(canonicalResult(result));
    return digests;
}

/** One benchmark through the virtual-dispatch predictors: the
 *  reference the kernels are bound to. Reads the stream through the
 *  trace cache in @p config. */
core::BenchmarkResult
referenceResult(const wl::Workload &workload,
                const core::ExperimentConfig &config)
{
    core::RecordedWorkload recorded = core::recordWorkload(workload, config);
    core::BenchmarkResult result;
    result.name = workload.name();
    result.runs = recorded.runs;
    result.staticSize = recorded.program->staticSize();
    result.stats = recorded.stats;
    const auto specs = paperSpecs(config, &recorded.likelyMap);
    std::vector<core::ReplayResult> replays;
    for (const auto &[name, spec] : specs) {
        const std::unique_ptr<branchlab::predict::BranchPredictor> predictor =
            core::makePredictor(spec);
        replays.push_back(core::replay(recorded.traceView(), *predictor));
    }
    fillSchemes(specs, replays, result);
    const branchlab::profile::ProgramProfile profile =
        recorded.profile != nullptr ? std::move(*recorded.profile)
                                    : foldProfile(recorded);
    for (const unsigned slots : config.codeSizeSlots)
        result.codeIncrease[slots] = branchlab::profile::codeIncreaseFor(
            profile, slots, config.traceThreshold);
    return result;
}

/** Reference digests of the whole suite, streams read from the cache
 *  in @p config (recorded into it on a miss). */
void
referenceDigests(const core::ExperimentConfig &config, DigestBook &book)
{
    const auto &all = wl::allWorkloads();
    std::vector<std::string> digests(all.size());
    branchlab::parallelFor(
        all.size(), kSweepJobs,
        [&](std::size_t i) {
            digests[i] =
                digestOf(canonicalResult(referenceResult(*all[i], config)));
        },
        "reference");
    for (std::size_t i = 0; i < all.size(); ++i)
        book.set("paper", all[i]->name(), digests[i]);
}

/** Compare one pass's digests with the reference: one failed
 *  operation per pass with any mismatch. */
void
checkPass(const Digests &pass, const DigestBook &book, const std::string &what,
          Report &report)
{
    std::string bad;
    for (const wl::Workload *workload : wl::allWorkloads()) {
        const auto it = pass.find(workload->name());
        if (it == pass.end() ||
            it->second != book.get("paper", workload->name()))
            bad += " " + workload->name();
    }
    if (!bad.empty())
        report.failure(what + " differs from the reference on:" + bad);
}

std::vector<trace::CachedLikely>
likelyToCached(const branchlab::predict::LikelyMap &map)
{
    std::vector<trace::CachedLikely> entries;
    entries.reserve(map.size());
    for (const auto &[pc, info] : map)
        entries.push_back({pc, info.dominantTarget, info.likelyTaken});
    std::sort(entries.begin(), entries.end(),
              [](const trace::CachedLikely &a, const trace::CachedLikely &b) {
                  return a.pc < b.pc;
              });
    return entries;
}

/** Span keys of the per-scheme probes, in paperSpecs() order, and the
 *  metric each feeds. */
constexpr const char *kSpecKeys[] = {
    "replay.sbtb",          "replay.cbtb",
    "replay.always_taken",  "replay.always_not_taken",
    "replay.btfnt",         "replay.opcode_bias",
    "replay.fs"};

/** Counts one traced pass accumulates beside its span totals. */
struct PassCounts
{
    double instructions = 0;
    double events = 0;
    double lookups = 0;
    double hits = 0;
    /** Per-scheme probe events (the same for every scheme). */
    double probeEvents = 0;
};

/** Execute every input of a suite on fresh machines sharing one
 *  predecoded program, feeding @p sink (null: no recording). */
std::uint64_t
runInputs(const branchlab::vm::PredecodedProgram &code,
          const std::vector<wl::WorkloadInput> &inputs,
          branchlab::trace::TraceSink *sink, trace::TraceStats *stats,
          std::uint64_t maxInstructions)
{
    std::uint64_t instructions = 0;
    for (const wl::WorkloadInput &input : inputs) {
        branchlab::vm::Machine machine(code);
        for (std::size_t chan = 0; chan < input.channels.size(); ++chan)
            machine.setInput(static_cast<int>(chan), input.channels[chan]);
        machine.setSink(sink);
        branchlab::vm::RunLimits limits;
        limits.maxInstructions = maxInstructions;
        const branchlab::vm::RunResult run = machine.run(limits);
        if (run.reason == branchlab::vm::StopReason::InstructionLimit)
            throw std::runtime_error("instruction limit on " +
                                     input.description);
        instructions += run.instructions;
        if (stats != nullptr)
            stats->addInstructions(run.instructions);
    }
    return instructions;
}

/**
 * The suite, one public call at a time, in the runner's order. On a
 * cache miss the VM runs twice: once bare (the vm.run probe) and once
 * with the recording fan-out; trace.record is the second minus the
 * first.
 */
std::vector<core::BenchmarkResult>
tracedPass(Tracer &tracer, const core::ExperimentConfig &config,
           bool perSchemeProbes, PassCounts &counts)
{
    const trace::TraceCache cache(config.traceCacheDir);
    std::vector<core::BenchmarkResult> results;
    for (const wl::Workload *workload : wl::allWorkloads()) {
        core::BenchmarkResult result;
        result.name = workload->name();
        unsigned runs = workload->defaultRuns();
        TracedAcquire acquired = acquireTraced(tracer, *workload, config, cache);
        counts.lookups += 1;
        counts.hits += acquired.hit ? 1 : 0;
        const branchlab::ir::Program &program = *acquired.program;
        const branchlab::ir::Layout &layout = *acquired.layout;

        branchlab::predict::LikelyMap likely;
        std::optional<branchlab::profile::ProgramProfile> online;
        trace::SoaTrace stream;
        trace::TraceView view;
        if (acquired.hit) {
            likely = std::move(acquired.likely);
            result.stats = trace::TraceStats::fromCounters(acquired.cached.stats);
            runs = acquired.cached.runs;
            view = acquired.cached.traceView();
        } else {
            {
                const Tracer::Scope span(tracer, "vm", "vm.run", 0, false);
                const branchlab::vm::PredecodedProgram code(program, layout);
                counts.instructions +=
                    static_cast<double>(runInputs(code, acquired.inputs, nullptr,
                                                  nullptr,
                                                  config.maxInstructionsPerRun));
            }
            trace::SoaRecorder recorder(1u << 20);
            online.emplace(program, layout);
            for (unsigned r = 0; r < runs; ++r)
                online->noteRun();
            trace::FanoutSink fanout;
            fanout.addSink(&recorder);
            fanout.addSink(&*online);
            fanout.addSink(&result.stats);
            {
                const Tracer::Scope span(tracer, "trace", "trace.record");
                const branchlab::vm::PredecodedProgram code(program, layout);
                runInputs(code, acquired.inputs, &fanout, &result.stats,
                          config.maxInstructionsPerRun);
                stream = recorder.take();
            }
            {
                const Tracer::Scope span(tracer, "profile", "profile.likely");
                likely = online->buildLikelyMap();
            }
            counts.events += static_cast<double>(stream.size());
            {
                const Tracer::Scope span(tracer, "trace", "trace.store");
                trace::CachedWorkload entry;
                entry.contentHash = acquired.hash;
                entry.runs = runs;
                entry.stats = result.stats.counters();
                entry.likely = likelyToCached(likely);
                entry.stream = stream;
                cache.store(workload->name(), entry);
            }
            view = trace::TraceView::of(stream);
        }

        decodeProbe(tracer, view);

        const auto specs = paperSpecs(config, &likely);
        std::vector<core::KernelSpec> kernelSpecs;
        for (const auto &[name, spec] : specs)
            kernelSpecs.push_back(spec);
        std::vector<core::ReplayResult> replays;
        {
            const Tracer::Scope span(tracer, "replay", "replay.fused");
            replays = core::replayManyKernel(view, kernelSpecs);
        }
        if (perSchemeProbes) {
            for (std::size_t i = 0; i < kernelSpecs.size(); ++i) {
                const Tracer::Scope span(tracer, "replay", kSpecKeys[i], 0,
                                         false);
                (void)core::replayKernel(view, kernelSpecs[i]);
            }
            counts.probeEvents += static_cast<double>(view.size());
        }
        fillSchemes(specs, replays, result);

        std::optional<branchlab::profile::ProgramProfile> rebuilt;
        if (!online) {
            const Tracer::Scope span(tracer, "profile", "profile.rebuild");
            rebuilt.emplace(foldProfile(program, layout, runs, view));
        }
        const branchlab::profile::ProgramProfile &profile =
            online ? *online : *rebuilt;
        {
            const Tracer::Scope span(tracer, "profile", "profile.codesize");
            for (const unsigned slots : config.codeSizeSlots)
                result.codeIncrease[slots] =
                    branchlab::profile::codeIncreaseFor(
                        profile, slots, config.traceThreshold);
        }
        result.runs = runs;
        result.staticSize = program.staticSize();
        results.push_back(std::move(result));
    }
    return results;
}

/** The per-layer values of one traced pass. */
std::map<std::string, double>
passLayerValues(const Tracer &tracer, const PassCounts &counts,
                std::map<std::string, double> &layers)
{
    const auto key = [&](const char *name) {
        const auto it = tracer.keySeconds().find(name);
        return it == tracer.keySeconds().end() ? 0.0 : it->second;
    };
    std::map<std::string, double> v;
    const double vmRun = key("vm.run");
    v["workloads.build_s"] = key("workloads.build");
    v["core.content_hash_s"] = key("core.content_hash");
    v["vm.run_s"] = vmRun;
    v["vm.instructions"] = counts.instructions;
    v["vm.mips"] = vmRun > 0 ? counts.instructions / vmRun / 1e6 : 0.0;
    v["trace.record_s"] = std::max(0.0, key("trace.record") - vmRun);
    v["trace.events"] = counts.events;
    v["trace.store_s"] = key("trace.store");
    v["trace.map_s"] = key("trace.map") + key("trace.likely");
    v["trace.decode_s"] = key("trace.decode");
    v["trace.hit_ratio"] = counts.lookups > 0 ? counts.hits / counts.lookups
                                              : 0.0;
    v["profile.rebuild_s"] = key("profile.rebuild");
    v["profile.codesize_s"] = key("profile.codesize");
    v["replay.fused_s"] = key("replay.fused");
    const char *metricNames[] = {
        "replay.sbtb.meps",          "replay.cbtb.meps",
        "replay.always_taken.meps",  "replay.always_not_taken.meps",
        "replay.btfnt.meps",         "replay.opcode_bias.meps",
        "replay.fs.meps"};
    for (std::size_t i = 0; i < std::size(kSpecKeys); ++i) {
        const double seconds = key(kSpecKeys[i]);
        if (seconds > 0)
            v[metricNames[i]] = counts.probeEvents / seconds / 1e6;
    }
    // The recording span holds the VM run the bare probe measured:
    // move that share from the trace layer to the vm layer.
    layers = tracer.layerSeconds();
    if (vmRun > 0) {
        layers["vm"] += vmRun;
        layers["trace"] -= vmRun;
    }
    return v;
}

} // namespace

void
makePaperDigests(const Options &options, DigestBook &book)
{
    const ScratchDir dir(options, "digest-traces");
    referenceDigests(paperConfig(options.seed, dir.path()), book);
}

void
setUpPaper(const Options &options, const std::string &dir, bool cold)
{
    // Build every workload's program and inputs (their content
    // hashes); paper-warm also primes the trace cache.
    const core::ExperimentConfig config = paperConfig(options.seed, dir);
    for (const wl::Workload *workload : wl::allWorkloads())
        (void)core::workloadContentHash(*workload, config);
    if (!cold)
        primeTraces(options.seed, dir);
}

void
runPaper(const Options &options, Report &report, bool cold)
{
    const std::string name = cold ? "paper-cold" : "paper-warm";

    std::vector<double> setupTimes;
    std::unique_ptr<ScratchDir> primed;
    while (wantAnotherSetup(setupTimes)) {
        auto dir = std::make_unique<ScratchDir>(options, name + "-setup");
        setupTimes.push_back(spawnSetup(options, dir->path()));
        primed = std::move(dir);
    }

    std::vector<Digests> passDigests;
    std::vector<std::string> passNames;
    std::unique_ptr<ScratchDir> lastColdDir;
    const auto passConfig = [&]() {
        if (cold) {
            lastColdDir = nullptr;
            lastColdDir = std::make_unique<ScratchDir>(options, name + "-pass");
            return paperConfig(options.seed, lastColdDir->path());
        }
        return paperConfig(options.seed, primed->path());
    };

    // Invariants over telemetry-on passes: the warm suite never runs
    // the VM nor misses the cache; no workload falls back from the
    // kernels.
    std::uint64_t vmRuns = 0, cacheMisses = 0, cacheStores = 0,
                  fallbacks = 0, onPasses = 0;
    const auto untracedPass = [&](bool telemetry) {
        const core::ExperimentConfig config = passConfig();
        branchlab::obs::setEnabled(telemetry);
        const CounterMark mark;
        const Clock::time_point start = Clock::now();
        const std::vector<core::BenchmarkResult> results =
            core::ExperimentRunner(config).runAll();
        const double seconds = secondsSince(start);
        branchlab::obs::setEnabled(true);
        if (telemetry) {
            ++onPasses;
            vmRuns += mark.since("vm.runs");
            cacheMisses += mark.since("trace_cache.misses");
            cacheStores += mark.since("trace_cache.stores");
            fallbacks += mark.since("engine.replay.kernel.fallback");
        }
        passDigests.push_back(digestsOf(results));
        passNames.push_back("untraced pass " +
                            std::to_string(passDigests.size()));
        report.attempted();
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
        alternateTelemetry(options, windowStart, untracedPass, onSeconds,
                           offSeconds);
        Tracer tracer(name);
        std::vector<std::map<std::string, double>> passValues;
        std::vector<std::map<std::string, double>> passLayers;
        std::vector<double> tracedWalls;
        while (tracedWalls.empty() ||
               secondsSince(windowStart) < options.seconds) {
            const core::ExperimentConfig config = passConfig();
            const CounterMark mark;
            PassCounts counts;
            tracer.resetTotals();
            const Clock::time_point start = Clock::now();
            std::vector<core::BenchmarkResult> results;
            try {
                results = tracedPass(tracer, config, tracedWalls.empty(),
                                     counts);
            } catch (const std::exception &error) {
                report.failure(std::string("traced pass: ") + error.what());
                break;
            }
            const double wall = secondsSince(start);
            std::map<std::string, double> layers;
            std::map<std::string, double> values =
                passLayerValues(tracer, counts, layers);
            values["trace.bytes_written"] =
                static_cast<double>(mark.since("trace_cache.bytes_written"));
            values["trace.bytes_mapped"] =
                static_cast<double>(mark.since("trace_cache.bytes_mapped"));
            values["replay.fallback"] = static_cast<double>(
                mark.since("engine.replay.kernel.fallback"));
            passValues.push_back(values);
            passLayers.push_back(layers);
            tracedWalls.push_back(wall);
            passDigests.push_back(digestsOf(results));
            passNames.push_back("traced pass " +
                                std::to_string(tracedWalls.size()));
            report.attempted();
        }
        tracedValues = medianByKey(passValues);
        // Per-scheme probes ran in the first traced pass only.
        for (const auto &[key, value] : passValues.front())
            if (key.find(".meps") != std::string::npos)
                tracedValues[key] = value;
        const double untraced = median(onSeconds);
        const double attributed = closeTracedRun(
            options, tracer, passLayers, onSeconds, offSeconds, tracedWalls,
            "median over " + std::to_string(tracedWalls.size()) +
                " traced passes vs median untraced pass",
            tracedValues, report);
        std::ostringstream share;
        share << std::setprecision(4) << "profile.rebuild_s share of "
              << name << " suite_s: "
              << (untraced > 0
                      ? 100.0 * tracedValues["profile.rebuild_s"] / untraced
                      : 0.0)
              << "%; layer coverage "
              << (untraced > 0 ? 100.0 * attributed / untraced : 0.0)
              << "% of suite_s";
        report.line(share.str());
    }

    // ---- Output check: every pass against the reference digests
    // (shipped for this seed, else made now through the virtual
    // path from the streams this run stored). ----
    DigestBook book;
    if (!book.load(options, options.seed) || !book.has("paper")) {
        referenceDigests(
            paperConfig(options.seed,
                        cold ? lastColdDir->path() : primed->path()),
            book);
    }
    for (std::size_t i = 0; i < passDigests.size(); ++i)
        checkPass(passDigests[i], book, name + " " + passNames[i], report);
    if (fallbacks != 0)
        report.failure(std::to_string(fallbacks) +
                       " replays fell back from the kernels");
    if (!cold && (vmRuns != 0 || cacheMisses != 0))
        report.failure("warm suite ran the VM " + std::to_string(vmRuns) +
                       " times with " + std::to_string(cacheMisses) +
                       " cache misses");
    if (cold && cacheStores != 10 * onPasses)
        report.failure("cold passes stored " + std::to_string(cacheStores) +
                       " trace entries, expected " +
                       std::to_string(10 * onPasses));
    if (options.traced) {
        if (tracedValues["replay.fallback"] != 0)
            report.failure("traced pass fell back from the kernels");
        emitLayerMetrics(report, tracedValues);
        return;
    }

    const double suite = median(onSeconds);
    report.info("suite_s", "s", suite,
                std::to_string(onSeconds.size()) + " passes, q1 " +
                    std::to_string(quantile(onSeconds, 0.25)) + ", q3 " +
                    std::to_string(quantile(onSeconds, 0.75)));
    report.metric("throughput_per_s", "1/s", 1.0 / suite);
    report.metric("peak_rss_mb", "MB", peakRss);
    report.metric("setup_s", "s", median(setupTimes));
}

} // namespace blbench
