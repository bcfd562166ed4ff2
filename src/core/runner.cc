#include "core/runner.hh"

#include <algorithm>
#include <sstream>

#include "core/replay_kernel.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "predict/flushing.hh"
#include "predict/profile_predictor.hh"
#include "predict/static_predictors.hh"
#include "profile/profile.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "trace/cache.hh"
#include "trace/record.hh"
#include "vm/machine.hh"

namespace branchlab::core
{

namespace
{

/** Recorder pre-reservation: large benchmarks emit a few million
 *  branch events, so skipping the early regrowth copies is cheap
 *  insurance (the encoded columns cost about five bytes per event,
 *  so a reservation this size is ~5 MB, returned as soon as the
 *  benchmark's replays finish). */
constexpr std::size_t kRecorderReserveEvents = 1u << 20;

/** Execute every input of a suite, feeding one sink. The program is
 *  predecoded once and shared by every per-input machine. */
void
runSuite(const ir::Program &program, const ir::Layout &layout,
         const std::vector<workloads::WorkloadInput> &inputs,
         trace::TraceSink &sink, trace::TraceStats *stats,
         std::uint64_t max_instructions)
{
    const vm::PredecodedProgram code(program, layout);
    for (const workloads::WorkloadInput &input : inputs) {
        vm::Machine machine(code);
        for (std::size_t chan = 0; chan < input.channels.size(); ++chan) {
            machine.setInput(static_cast<int>(chan),
                             input.channels[chan]);
        }
        machine.setSink(&sink);
        vm::RunLimits limits;
        limits.maxInstructions = max_instructions;
        const vm::RunResult result = machine.run(limits);
        if (result.reason == vm::StopReason::InstructionLimit) {
            blab_fatal("workload '", program.name(),
                       "' exceeded the instruction limit on input '",
                       input.description, "'");
        }
        if (stats != nullptr)
            stats->addInstructions(result.instructions);
    }
}

/** The deterministic per-benchmark input suite. */
std::vector<workloads::WorkloadInput>
makeInputSuite(const workloads::Workload &workload,
               const ExperimentConfig &config, unsigned runs)
{
    Rng rng(config.seed ^ hashString(workload.name()));
    return workload.makeInputs(rng, runs);
}

unsigned
runsFor(const workloads::Workload &workload,
        const ExperimentConfig &config)
{
    return config.runsOverride != 0 ? config.runsOverride
                                    : workload.defaultRuns();
}

/** Bumped whenever the branch-event semantics change, invalidating
 *  every cached trace in one stroke. */
constexpr std::uint64_t kTraceSchemaVersion = 1;

std::uint64_t
computeContentHash(const ir::Program &program, const ir::Layout &layout,
                   const std::vector<workloads::WorkloadInput> &inputs,
                   const ExperimentConfig &config, unsigned runs)
{
    trace::ContentHasher hasher;
    hasher.u64(kTraceSchemaVersion);
    std::ostringstream text;
    ir::printProgramWithAddrs(text, program, layout);
    hasher.str(text.str());
    hasher.u64(program.data().size());
    for (const ir::Word word : program.data())
        hasher.u64(static_cast<std::uint64_t>(word));
    hasher.u64(layout.totalSize());
    hasher.u64(inputs.size());
    for (const workloads::WorkloadInput &input : inputs) {
        hasher.str(input.description);
        hasher.u64(input.channels.size());
        for (const std::vector<ir::Word> &channel : input.channels) {
            hasher.u64(channel.size());
            for (const ir::Word word : channel)
                hasher.u64(static_cast<std::uint64_t>(word));
        }
    }
    hasher.u64(config.seed);
    hasher.u64(runs);
    hasher.u64(config.maxInstructionsPerRun);
    return hasher.digest();
}

/** LikelyMap -> persistable entries, sorted by pc so the cache file
 *  is byte-stable across unordered_map iteration orders. */
std::vector<trace::CachedLikely>
likelyToCached(const predict::LikelyMap &map)
{
    std::vector<trace::CachedLikely> entries;
    entries.reserve(map.size());
    for (const auto &[pc, info] : map)
        entries.push_back({pc, info.dominantTarget, info.likelyTaken});
    std::sort(entries.begin(), entries.end(),
              [](const trace::CachedLikely &a,
                 const trace::CachedLikely &b) { return a.pc < b.pc; });
    return entries;
}

predict::LikelyMap
cachedToLikely(const std::vector<trace::CachedLikely> &entries)
{
    predict::LikelyMap map;
    map.reserve(entries.size());
    for (const trace::CachedLikely &entry : entries)
        map.emplace(entry.pc, predict::LikelyInfo{entry.likelyTaken,
                                                  entry.dominantTarget});
    return map;
}

/** recordWorkload's profile counters, registered together on first
 *  use so every snapshot shows both, zero or not. */
struct ProfileTelemetry
{
    obs::Counter &restored =
        obs::Registry::global().counter("engine.profile.restored");
    obs::Counter &folds =
        obs::Registry::global().counter("engine.profile.folds");
};

ProfileTelemetry &
profileTelemetry()
{
    static ProfileTelemetry telemetry;
    return telemetry;
}

/** Table 5: the code-size cost of the Forward Semantic transform. */
void
applyCodeSizeTransform(const profile::ProgramProfile &profile,
                       const ExperimentConfig &config,
                       BenchmarkResult &result)
{
    const obs::ScopedSpan span("engine.codesize");
    for (unsigned slots : config.codeSizeSlots) {
        result.codeIncrease[slots] = profile::codeIncreaseFor(
            profile, slots, config.traceThreshold);
    }
}

} // namespace

BenchmarkResult
ExperimentRunner::runBenchmark(const workloads::Workload &workload) const
{
    return config_.engine == EngineMode::Replay
               ? runBenchmarkReplay(workload)
               : runBenchmarkTwoPass(workload);
}

BenchmarkResult
ExperimentRunner::runBenchmarkReplay(
    const workloads::Workload &workload) const
{
    BenchmarkResult result;
    result.name = workload.name();

    // ---- The record pass (or a trace-cache hit in its place). ----
    RecordedWorkload recorded = recordWorkload(workload, config_);
    result.staticSize = recorded.program->staticSize();
    result.runs = recorded.runs;
    result.stats = recorded.stats;

    // ---- Replay the recorded stream against every scheme through
    // the kernel dispatch layer (one monomorphized pass per scheme,
    // virtual fallback for anything unregistered). The schemes never
    // interact, so the replays observe exactly the stream the seed
    // engine's online fan-out delivered. The FS is profiled over the
    // recorded runs and measured over the very same stream
    // (profile-equals-measurement). ----
    std::vector<std::pair<const char *, KernelSpec>> schemes;
    KernelSpec sbtb_spec;
    sbtb_spec.kind = SchemeKind::Sbtb;
    sbtb_spec.btb = config_.btb;
    schemes.emplace_back("SBTB", sbtb_spec);
    KernelSpec cbtb_spec;
    cbtb_spec.kind = SchemeKind::Cbtb;
    cbtb_spec.btb = config_.btb;
    cbtb_spec.counter = config_.counter;
    schemes.emplace_back("CBTB", cbtb_spec);
    if (config_.runStaticSchemes) {
        const std::pair<const char *, SchemeKind> statics[] = {
            {"always-taken", SchemeKind::AlwaysTaken},
            {"always-not-taken", SchemeKind::AlwaysNotTaken},
            {"btfnt", SchemeKind::BackwardTaken},
            {"opcode-bias", SchemeKind::OpcodeBias}};
        for (const auto &[name, kind] : statics) {
            KernelSpec spec;
            spec.kind = kind;
            schemes.emplace_back(name, spec);
        }
    }
    KernelSpec fs_spec;
    fs_spec.kind = SchemeKind::ForwardSemantic;
    fs_spec.likely = &recorded.likelyMap;
    schemes.emplace_back("FS", fs_spec);

    std::vector<KernelSpec> specs;
    specs.reserve(schemes.size());
    for (const auto &[name, spec] : schemes)
        specs.push_back(spec);
    const std::vector<ReplayResult> replays =
        replayManyKernel(recorded.traceView(), specs);

    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const SchemeResult scheme{schemes[i].first, replays[i].accuracy,
                                  replays[i].missRatio,
                                  replays[i].hasMissRatio};
        switch (schemes[i].second.kind) {
          case SchemeKind::Sbtb:
            result.sbtb = scheme;
            break;
          case SchemeKind::Cbtb:
            result.cbtb = scheme;
            break;
          case SchemeKind::ForwardSemantic:
            result.fs = scheme;
            break;
          default:
            result.staticSchemes.push_back(scheme);
            break;
        }
    }

    if (config_.runCodeSize)
        applyCodeSizeTransform(*recorded.profile, config_, result);

    return result;
}

BenchmarkResult
ExperimentRunner::runBenchmarkTwoPass(
    const workloads::Workload &workload) const
{
    BenchmarkResult result;
    result.name = workload.name();

    const ir::Program program = workload.buildProgram();
    ir::verifyProgramOrDie(program);
    const ir::Layout layout(program);
    result.staticSize = program.staticSize();

    const unsigned runs = config_.runsOverride != 0
                              ? config_.runsOverride
                              : workload.defaultRuns();
    result.runs = runs;
    const std::vector<workloads::WorkloadInput> inputs =
        makeInputSuite(workload, config_, runs);

    // ---- Pass 1: hardware schemes, statics, profile, statistics. ----
    predict::SimpleBtb sbtb(config_.btb);
    predict::CounterBtb cbtb(config_.btb, config_.counter);
    predict::PredictionDriver sbtb_driver(sbtb);
    predict::PredictionDriver cbtb_driver(cbtb);

    predict::AlwaysTaken always_taken;
    predict::AlwaysNotTaken always_not_taken;
    predict::BackwardTaken btfnt;
    predict::OpcodeBias opcode_bias;
    std::vector<predict::PredictionDriver> static_drivers;
    static_drivers.reserve(4);
    if (config_.runStaticSchemes) {
        static_drivers.emplace_back(always_taken);
        static_drivers.emplace_back(always_not_taken);
        static_drivers.emplace_back(btfnt);
        static_drivers.emplace_back(opcode_bias);
    }

    profile::ProgramProfile profile(program, layout);

    trace::FanoutSink fanout;
    fanout.addSink(&sbtb_driver);
    fanout.addSink(&cbtb_driver);
    for (predict::PredictionDriver &driver : static_drivers)
        fanout.addSink(&driver);
    fanout.addSink(&profile);
    fanout.addSink(&result.stats);

    for (unsigned r = 0; r < runs; ++r)
        profile.noteRun();
    runSuite(program, layout, inputs, fanout, &result.stats,
             config_.maxInstructionsPerRun);

    result.sbtb = SchemeResult{"SBTB",
                               sbtb_driver.stats().accuracy.ratio(),
                               sbtb.missRatio(), true};
    result.cbtb = SchemeResult{"CBTB",
                               cbtb_driver.stats().accuracy.ratio(),
                               cbtb.missRatio(), true};
    if (config_.runStaticSchemes) {
        const char *names[] = {"always-taken", "always-not-taken",
                               "btfnt", "opcode-bias"};
        for (std::size_t i = 0; i < static_drivers.size(); ++i) {
            result.staticSchemes.push_back(SchemeResult{
                names[i], static_drivers[i].stats().accuracy.ratio(),
                0.0, false});
        }
    }

    // ---- Pass 2: the Forward Semantic over the same runs. ----
    predict::ProfilePredictor fs(profile.buildLikelyMap());
    predict::PredictionDriver fs_driver(fs);
    runSuite(program, layout, inputs, fs_driver, nullptr,
             config_.maxInstructionsPerRun);
    result.fs = SchemeResult{"FS", fs_driver.stats().accuracy.ratio(),
                             0.0, false};

    if (config_.runCodeSize)
        applyCodeSizeTransform(profile, config_, result);

    return result;
}

std::uint64_t
workloadContentHash(const workloads::Workload &workload,
                    const ExperimentConfig &config)
{
    ir::Program program = workload.buildProgram();
    const ir::Layout layout(program);
    const unsigned runs = runsFor(workload, config);
    return computeContentHash(program, layout,
                              makeInputSuite(workload, config, runs),
                              config, runs);
}

RecordedWorkload
recordWorkload(const workloads::Workload &workload,
               const ExperimentConfig &config)
{
    const obs::ScopedSpan span("engine.record");
    ProfileTelemetry &telemetry = profileTelemetry();
    RecordedWorkload recorded;
    recorded.name = workload.name();
    recorded.program =
        std::make_unique<ir::Program>(workload.buildProgram());
    ir::verifyProgramOrDie(*recorded.program);
    recorded.layout = std::make_unique<ir::Layout>(*recorded.program);

    const unsigned runs = runsFor(workload, config);
    recorded.runs = runs;
    const std::vector<workloads::WorkloadInput> inputs =
        makeInputSuite(workload, config, runs);

    const trace::TraceCache cache(
        trace::TraceCache::resolveDir(config.traceCacheDir),
        trace::TraceCache::resolveMaxBytes(config.traceCacheMaxBytes));
    recorded.contentHash = computeContentHash(
        *recorded.program, *recorded.layout, inputs, config, runs);

    if (cache.enabled()) {
        trace::CachedWorkload cached;
        bool hit = cache.load(recorded.name, recorded.contentHash, cached);
        const ir::Addr code_end = recorded.layout->codeEnd();
        if (hit && cached.eventCount() != 0 &&
            cached.traceView().maxPc() >= code_end) {
            // Checksums and hash match, but the stream's pcs lie
            // outside the program; the profile's pc-indexed tables
            // must never see them.
            blab_warn("trace cache entry for '", recorded.name,
                      "' has max pc ", cached.traceView().maxPc(),
                      " past the program's code end ", code_end,
                      "; re-recording");
            hit = false;
        }
        if (hit) {
            // v2 hits stay mmap'd (stream empty); legacy v1 hits
            // arrive as an owning stream.
            recorded.stream = std::move(cached.stream);
            recorded.mapped = std::move(cached.mapped);
            recorded.stats = trace::TraceStats::fromCounters(cached.stats);
            recorded.likelyMap = cachedToLikely(cached.likely);
            recorded.runs = cached.runs;
            recorded.cacheHit = true;
            if (cached.profile) {
                recorded.profile =
                    std::make_unique<profile::ProgramProfile>(
                        *recorded.program, *recorded.layout,
                        recorded.runs, *cached.profile);
                telemetry.restored.add(1);
            } else {
                // No profile section (v1, pre-section, or synthetic
                // entries): fold the stream back into the profile.
                const obs::ScopedSpan fold_span("engine.profile.fold");
                recorded.profile =
                    std::make_unique<profile::ProgramProfile>(
                        profile::foldProfile(*recorded.program,
                                             *recorded.layout,
                                             recorded.runs,
                                             recorded.traceView()));
                telemetry.folds.add(1);
            }
            return recorded;
        }
    }

    trace::SoaRecorder recorder(kRecorderReserveEvents);
    recorded.profile = std::make_unique<profile::ProgramProfile>(
        *recorded.program, *recorded.layout);
    for (unsigned r = 0; r < runs; ++r)
        recorded.profile->noteRun();
    trace::FanoutSink fanout;
    fanout.addSink(&recorder);
    fanout.addSink(recorded.profile.get());
    fanout.addSink(&recorded.stats);
    runSuite(*recorded.program, *recorded.layout, inputs, fanout,
             &recorded.stats, config.maxInstructionsPerRun);

    recorded.stream = recorder.take();
    recorded.likelyMap = recorded.profile->buildLikelyMap();

    if (cache.enabled()) {
        trace::CachedWorkload entry;
        entry.contentHash = recorded.contentHash;
        entry.runs = runs;
        entry.stats = recorded.stats.counters();
        entry.likely = likelyToCached(recorded.likelyMap);
        entry.profile = recorded.profile->exportRows();
        // The recorded columns are the entry's sections: lend them to
        // the store and take them back, never copying the stream.
        entry.stream = std::move(recorded.stream);
        cache.store(recorded.name, entry);
        recorded.stream = std::move(entry.stream);
    }
    return recorded;
}

void
noteReplayTelemetry(std::size_t event_count, std::size_t scheme_count)
{
    auto &registry = obs::Registry::global();
    registry.counter("engine.replays").add(1);
    registry.counter("engine.replay.events").add(event_count);
    if (scheme_count != 0)
        registry.counter("engine.replay.schemes").add(scheme_count);
}

namespace
{

/** Fold one finished driver's measurements into a ReplayResult. */
ReplayResult
driverResult(const predict::PredictionDriver &driver,
             const predict::BranchPredictor &predictor)
{
    ReplayResult result;
    result.stats = driver.stats();
    result.accuracy = result.stats.accuracy.ratio();
    result.hasMissRatio = predictor.hasMissRatio();
    if (result.hasMissRatio)
        result.missRatio = predictor.missRatio();
    return result;
}

} // namespace

ReplayResult
replay(const std::vector<trace::BranchEvent> &events,
       predict::BranchPredictor &predictor)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(events.size(), 0);
    predict::PredictionDriver driver(predictor);
    for (const trace::BranchEvent &event : events)
        driver.onBranch(event);
    return driverResult(driver, predictor);
}

ReplayResult
replay(const trace::TraceView &view,
       predict::BranchPredictor &predictor)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), 0);
    predict::PredictionDriver driver(predictor);
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    while (cursor.next(block))
        for (std::size_t i = 0; i < block.count; ++i)
            driver.onBranch(block.event(i));
    return driverResult(driver, predictor);
}

std::vector<ReplayResult>
replayMany(const std::vector<trace::BranchEvent> &events,
           const std::vector<predict::BranchPredictor *> &predictors)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(events.size(), predictors.size());
    std::vector<predict::PredictionDriver> drivers;
    drivers.reserve(predictors.size());
    for (predict::BranchPredictor *predictor : predictors)
        drivers.emplace_back(*predictor);
    for (const trace::BranchEvent &event : events) {
        for (predict::PredictionDriver &driver : drivers)
            driver.onBranch(event);
    }
    std::vector<ReplayResult> results;
    results.reserve(predictors.size());
    for (std::size_t i = 0; i < drivers.size(); ++i)
        results.push_back(driverResult(drivers[i], *predictors[i]));
    return results;
}

std::vector<ReplayResult>
replayMany(const trace::TraceView &view,
           const std::vector<predict::BranchPredictor *> &predictors)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), predictors.size());
    std::vector<predict::PredictionDriver> drivers;
    drivers.reserve(predictors.size());
    for (predict::BranchPredictor *predictor : predictors)
        drivers.emplace_back(*predictor);
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    while (cursor.next(block)) {
        for (std::size_t i = 0; i < block.count; ++i) {
            const trace::BranchEvent event = block.event(i);
            for (predict::PredictionDriver &driver : drivers)
                driver.onBranch(event);
        }
    }
    std::vector<ReplayResult> results;
    results.reserve(predictors.size());
    for (std::size_t i = 0; i < drivers.size(); ++i)
        results.push_back(driverResult(drivers[i], *predictors[i]));
    return results;
}

double
replayAccuracy(const RecordedWorkload &recorded,
               predict::BranchPredictor &predictor)
{
    return replay(recorded.traceView(), predictor).accuracy;
}

std::vector<BenchmarkResult>
ExperimentRunner::runAll() const
{
    const obs::ScopedSpan span("engine.suite");
    const std::vector<const workloads::Workload *> &all =
        workloads::allWorkloads();
    std::vector<BenchmarkResult> results(all.size());
    const unsigned jobs = resolveJobs(config_.jobs);
    obs::Registry::global()
        .gauge("engine.jobs")
        .set(static_cast<std::int64_t>(jobs));
    // Workload-level fan-out: every benchmark seeds its own RNG
    // sub-stream and owns all of its state, so any job count produces
    // bit-identical results in deterministic (Table 1) order.
    parallelFor(
        all.size(), jobs,
        [&](std::size_t i) { results[i] = runBenchmark(*all[i]); },
        "engine");
    return results;
}

} // namespace branchlab::core
