#include "core/runner.hh"

#include <sstream>

#include "core/replay_kernel.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "predict/profile_predictor.hh"
#include "profile/forward_slots.hh"
#include "profile/profile.hh"
#include "store/store.hh"
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
 *  predecoded once and shared by every per-input machine. @return
 *  the instructions executed. */
std::uint64_t
runSuite(const ir::Program &program, const ir::Layout &layout,
         const std::vector<workloads::WorkloadInput> &inputs,
         trace::TraceSink &sink, std::uint64_t max_instructions)
{
    const vm::PredecodedProgram code(program, layout);
    std::uint64_t instructions = 0;
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
        instructions += result.instructions;
    }
    return instructions;
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

} // namespace

BenchmarkResult
ExperimentRunner::runBenchmark(const workloads::Workload &workload) const
{
    BenchmarkResult result;
    result.name = workload.name();

    // ---- The record pass (or a trace-cache hit in its place). ----
    RecordedWorkload recorded = recordWorkload(workload, config_);
    result.staticSize = recorded.program->staticSize();
    result.runs = recorded.runs;
    result.stats = recorded.stats;

    // ---- Score every scheme on the recorded stream: the stateless
    // ones (statics, FS) in closed form from the profile, SBTB and
    // CBTB (and any refused spec) in one fused kernel walk. The
    // schemes never interact, so each observes exactly the stream it
    // would see driven straight from the VM. The FS is profiled over
    // the recorded runs and measured over the very same stream
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
    KernelSpec fs_spec;
    fs_spec.kind = SchemeKind::ForwardSemantic;
    fs_spec.likely = &recorded.likelyMap;
    schemes.emplace_back("FS", fs_spec);

    std::vector<KernelSpec> specs;
    specs.reserve(schemes.size());
    for (const auto &[name, spec] : schemes)
        specs.push_back(spec);
    const std::vector<ReplayResult> replays =
        replayProfiled(recorded.traceView(), *recorded.profile, specs);

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

    // ---- Table 5: the code-size cost of the FS transform. ----
    // The sites do not depend on k + l, so one plan prices every k + l.
    const obs::ScopedSpan span("engine.codesize");
    profile::FsConfig fs;
    fs.trace.minArcProbability = config_.traceThreshold;
    const profile::FsPlan plan =
        profile::planForwardSlots(*recorded.profile, fs);
    for (unsigned slots : config_.codeSizeSlots)
        result.codeIncrease[slots] = plan.codeSizeIncrease(slots);
    return result;
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

std::vector<workloads::WorkloadInput>
makeInputSuite(const workloads::Workload &workload,
               const ExperimentConfig &config)
{
    Rng rng(config.seed ^ hashString(workload.name()));
    return workload.makeInputs(rng, runsFor(workload, config));
}

std::uint64_t
workloadContentHash(const workloads::Workload &workload,
                    const ExperimentConfig &config)
{
    ir::Program program = workload.buildProgram();
    const ir::Layout layout(program);
    return computeContentHash(program, layout,
                              makeInputSuite(workload, config), config,
                              runsFor(workload, config));
}

RecordedWorkload
recordWorkload(const workloads::Workload &workload,
               const ExperimentConfig &config)
{
    const obs::ScopedSpan span("engine.record");
    // Registered on first use, so every snapshot shows it, zero or not.
    static obs::Counter &restored =
        obs::Registry::global().counter("engine.profile.restored");
    RecordedWorkload recorded;
    recorded.name = workload.name();
    const unsigned runs = runsFor(workload, config);
    recorded.runs = runs;
    std::vector<workloads::WorkloadInput> inputs;
    {
        // The key: everything the content hash covers, and the hash.
        const obs::ScopedSpan key_span("engine.key");
        recorded.program =
            std::make_unique<ir::Program>(workload.buildProgram());
        ir::verifyProgramOrDie(*recorded.program);
        recorded.layout = std::make_unique<ir::Layout>(*recorded.program);
        inputs = makeInputSuite(workload, config);
        recorded.contentHash = computeContentHash(
            *recorded.program, *recorded.layout, inputs, config, runs);
    }

    const trace::TraceCache cache(
        trace::TraceCache::resolveDir(config.traceCacheDir),
        store::resolveMaxBytes(config.traceCacheMaxBytes,
                               trace::TraceCache::kMaxBytesEnv));

    // What the cache cannot check without the program. An entry whose
    // checksums and hash match but whose pcs lie outside the program
    // is refused: the profile's pc-indexed tables must never see
    // them. So is a stream-only entry (a synthetic writer's): the
    // profile is the entry's one derived record, so record it again
    // rather than fold the stream.
    const auto fits_program = [&](const trace::CachedWorkload &cached) {
        const ir::Addr code_end = recorded.layout->codeEnd();
        if (cached.eventCount() != 0 &&
            cached.traceView().maxPc() >= code_end) {
            return "max pc " + std::to_string(cached.traceView().maxPc()) +
                   " past the program's code end " +
                   std::to_string(code_end);
        }
        return std::string(cached.profile ? "" : "no profile section");
    };
    if (cache.enabled()) {
        trace::CachedWorkload cached;
        const bool hit = [&] {
            const obs::ScopedSpan map_span("engine.map");
            return cache.load(recorded.name, recorded.contentHash, cached,
                              fits_program);
        }();
        if (hit) {
            {
                const obs::ScopedSpan restore_span("engine.restore");
                recorded.profile = std::make_unique<profile::ProgramProfile>(
                    *recorded.program, *recorded.layout, cached.runs,
                    *cached.profile);
            }
            restored.add(1);
            // Hits stay mmap'd (stream empty).
            recorded.mapped = std::move(cached.mapped);
            recorded.stats = trace::TraceStats::fromCounters(cached.stats);
            recorded.likelyMap = cachedToLikely(cached.likely);
            recorded.runs = cached.runs;
            recorded.cacheHit = true;
            return recorded;
        }
    }

    // The VM hands each block of branches to the two block
    // consumers, the encoder and the profile; Table 1/2's counters
    // are then read off the finished profile.
    trace::SoaRecorder recorder(kRecorderReserveEvents);
    recorded.profile = std::make_unique<profile::ProgramProfile>(
        *recorded.program, *recorded.layout);
    for (unsigned r = 0; r < runs; ++r)
        recorded.profile->noteRun();
    trace::FanoutSink fanout;
    fanout.addSink(&recorder);
    fanout.addSink(recorded.profile.get());
    const std::uint64_t instructions =
        runSuite(*recorded.program, *recorded.layout, inputs, fanout,
                 config.maxInstructionsPerRun);

    recorded.stream = recorder.take();
    recorded.likelyMap = recorded.profile->buildLikelyMap();
    recorded.stats = trace::TraceStats::fromCounters(
        recorded.profile->traceCounters(instructions));

    if (cache.enabled()) {
        // The recorded columns are the entry's sections: lend them to
        // the store and take them back, never copying the stream.
        trace::CachedWorkload entry = takeCacheEntry(recorded);
        cache.store(recorded.name, entry);
        recorded.stream = std::move(entry.stream);
    }
    return recorded;
}

trace::CachedWorkload
takeCacheEntry(RecordedWorkload &recorded)
{
    trace::CachedWorkload entry;
    entry.contentHash = recorded.contentHash;
    entry.runs = recorded.runs;
    entry.stats = recorded.stats.counters();
    entry.profile = recorded.profile->exportRows();
    recorded.materializedStream();
    entry.stream = std::move(recorded.stream);
    return entry;
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
replay(const trace::TraceView &view,
       predict::BranchPredictor &predictor)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), 0);
    return replayVirtual(view, {&predictor}).front();
}

std::vector<ReplayResult>
replayMany(const trace::TraceView &view,
           const std::vector<predict::BranchPredictor *> &predictors)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), predictors.size());
    return replayVirtual(view, predictors);
}

std::vector<ReplayResult>
replayVirtual(const trace::TraceView &view,
              const std::vector<predict::BranchPredictor *> &predictors)
{
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
