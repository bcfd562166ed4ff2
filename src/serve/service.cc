#include "serve/service.hh"

#include <exception>
#include <utility>

#include "core/runner.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "store/store.hh"
#include "workloads/workload.hh"

namespace branchlab::serve
{

namespace
{

struct ServeTelemetry
{
    obs::Counter &requests =
        obs::Registry::global().counter("serve.requests");
    obs::Counter &cacheHits =
        obs::Registry::global().counter("serve.cache_hits");
    obs::Counter &evaluations =
        obs::Registry::global().counter("serve.evaluations");
    obs::Counter &errors =
        obs::Registry::global().counter("serve.errors");
};

ServeTelemetry &
serveTelemetry()
{
    static ServeTelemetry telemetry;
    return telemetry;
}

/** The engine configuration one request resolves to. Replay engine,
 *  single-threaded within the request -- parallelism comes from the
 *  daemon's worker pool, not from inside one request. */
core::ExperimentConfig
configFor(const Request &request, const ServiceConfig &service)
{
    core::ExperimentConfig config;
    config.seed = request.seed;
    config.runsOverride = request.runs;
    config.jobs = 1;
    config.traceCacheDir = service.traceCacheDir;
    config.traceCacheMaxBytes = service.traceCacheMaxBytes;
    return config;
}

} // namespace

ExperimentService::ExperimentService(ServiceConfig config)
    : config_(std::move(config)),
      journal_(config_.journalDir,
               store::resolveMaxBytes(config_.journalMaxBytes,
                                      core::SweepJournal::kMaxBytesEnv))
{
    journal_.open();
}

std::uint64_t
ExperimentService::requestKey(const Request &request,
                              std::vector<std::uint64_t> &streamHashes)
{
    const core::ExperimentConfig config = configFor(request, config_);
    streamHashes.clear();
    streamHashes.reserve(request.workloads.size());
    for (const std::string &name : request.workloads) {
        const auto memo_key =
            std::make_tuple(name, request.seed, request.runs);
        {
            std::lock_guard<std::mutex> lock(hashMutex_);
            const auto it = streamHashes_.find(memo_key);
            if (it != streamHashes_.end()) {
                streamHashes.push_back(it->second);
                continue;
            }
        }
        // findWorkload is fatal on unknown names; the caller turns
        // the ConfigFailure into an Error response.
        const std::uint64_t hash = core::workloadContentHash(
            workloads::findWorkload(name), config);
        {
            std::lock_guard<std::mutex> lock(hashMutex_);
            streamHashes_.emplace(memo_key, hash);
        }
        streamHashes.push_back(hash);
    }
    return core::sweepPointKey(request.toPoint(), request.workloads,
                               streamHashes);
}

Response
ExperimentService::handle(const Request &request)
{
    const obs::ScopedSpan request_span("serve.request");
    serveTelemetry().requests.add(1);

    Response response;
    response.requestId = request.requestId;
    if (request.type == RequestType::Ping)
        return response;

    try {
        std::vector<std::uint64_t> stream_hashes;
        const std::uint64_t key =
            requestKey(request, stream_hashes);
        const core::SweepPoint point = request.toPoint();

        const auto serve_from_journal = [&]() -> bool {
            std::vector<core::SweepCell> cells;
            if (journal_.load(key, cells) &&
                cells.size() == request.workloads.size()) {
                response.cells = std::move(cells);
                response.cacheHit = true;
                serveTelemetry().cacheHits.add(1);
                return true;
            }
            return false;
        };

        if (serve_from_journal())
            return response;

        // Single-flight: exactly one evaluator per key; twins block
        // here and are then served from the store the winner wrote.
        {
            std::unique_lock<std::mutex> lock(flightMutex_);
            flightCv_.wait(lock, [&] {
                return inFlight_.find(key) == inFlight_.end();
            });
            if (serve_from_journal())
                return response;
            inFlight_.insert(key);
        }
        try {
            if (evalHook)
                evalHook();
            serveTelemetry().evaluations.add(1);
            const core::ExperimentConfig config =
                configFor(request, config_);
            std::vector<core::SweepCell> cells;
            cells.reserve(request.workloads.size());
            for (const std::string &name : request.workloads) {
                const core::RecordedWorkload recorded =
                    core::recordWorkload(
                        workloads::findWorkload(name), config);
                cells.push_back(
                    core::evaluatePointCell(recorded, point));
            }
            // Store AND seal before responding: a result a client
            // has seen must survive a crash.
            journal_.store(key, cells);
            journal_.flush();
            response.cells = std::move(cells);
        } catch (...) {
            std::lock_guard<std::mutex> lock(flightMutex_);
            inFlight_.erase(key);
            flightCv_.notify_all();
            throw;
        }
        {
            std::lock_guard<std::mutex> lock(flightMutex_);
            inFlight_.erase(key);
            flightCv_.notify_all();
        }
        return response;
    } catch (const std::exception &failure) {
        serveTelemetry().errors.add(1);
        response.status = ResponseStatus::Error;
        response.cacheHit = false;
        response.cells.clear();
        response.message = failure.what();
        return response;
    }
}

} // namespace branchlab::serve
