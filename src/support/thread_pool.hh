/**
 * @file
 * A small fixed-size worker pool and a deterministic parallel-for.
 *
 * The experiment engine fans independent workload-level jobs across
 * threads: every benchmark derives its own RNG sub-stream from the
 * master seed, so results are bit-identical regardless of the worker
 * count or scheduling order. Callers write results into per-index
 * slots, which keeps output ordering deterministic by construction.
 *
 * Job-count resolution (resolveJobs): an explicit request wins, then
 * the BRANCHLAB_JOBS environment variable, then the hardware
 * concurrency. No pool is sized past kMaxJobs, whichever source asks.
 *
 * Error semantics are fail-fast: the first exception a job throws is
 * captured, every job still queued at that point is drained and
 * DISCARDED (popped without running), and waitIdle() rethrows the
 * captured exception exactly once. See waitIdle() for the contract.
 *
 * The pool reports telemetry to obs::Registry::global(), namespaced
 * by the pool's *name* so independent pools never pollute each
 * other's numbers (the serving daemon's long-lived pool coexists with
 * the engine's per-call pools): `threadpool.pools` counts every
 * construction, and each named family carries
 * `threadpool.<name>.jobs`, `threadpool.<name>.jobs_discarded`, the
 * `threadpool.<name>.queue_wait_ns` histogram (submit-to-dequeue
 * latency, stamped only while telemetry is enabled) and its
 * `..._total` counter. Unnamed pools share the "adhoc" family.
 */

#ifndef BRANCHLAB_SUPPORT_THREAD_POOL_HH
#define BRANCHLAB_SUPPORT_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace branchlab
{

/** A pool's named telemetry family (defined in the .cc). */
struct PoolMetricsFamily;

/** The most worker threads a job count may ask for: BRANCHLAB_JOBS
 *  past it is ignored, --jobs and --serve-jobs past it are fatal, and
 *  resolveJobs() clamps explicit requests to it. */
inline constexpr unsigned kMaxJobs = 1024;

/** max(1, std::thread::hardware_concurrency()). */
unsigned hardwareJobs();

/** BRANCHLAB_JOBS parsed as an integer from 1 to kMaxJobs, or 0 when
 *  unset, unparsable or out of range (a bad value warns once per
 *  process; the once-latch is atomic, so concurrent pool construction
 *  is race-free). */
unsigned envJobs();

/**
 * Resolve an effective job count: @p requested (at most kMaxJobs)
 * when > 0, else BRANCHLAB_JOBS when set, else the hardware
 * concurrency.
 */
unsigned resolveJobs(unsigned requested);

/** The value @p text of job-count option @p flag (--jobs,
 *  --serve-jobs): parseOptionNumber() bounded by kMaxJobs, so a
 *  larger count is a fatal diagnostic at parse time. */
unsigned parseJobsOption(std::string_view flag, std::string_view text);

/**
 * A fixed set of workers draining a FIFO queue of jobs. Exceptions
 * thrown by jobs are captured (first one wins) and rethrown from
 * waitIdle(), so blab_fatal/blab_panic propagate to the caller under
 * the test harness's throwing mode.
 */
class ThreadPool
{
  public:
    /** Spawn @p workers threads (clamped to at least 1). @p name
     *  namespaces the pool's telemetry (`threadpool.<name>.*`);
     *  unnamed pools share the "adhoc" family. */
    explicit ThreadPool(unsigned workers,
                        std::string_view name = "adhoc");

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. */
    void submit(std::function<void()> job);

    /**
     * Block until the queue is empty and no job is running, then
     * rethrow the first captured job exception, if any.
     *
     * Post-error behaviour is explicit and fail-fast:
     *  - once a job has thrown, every job still queued is popped and
     *    discarded without running (their side effects never happen);
     *  - the first exception is rethrown exactly once -- rethrowing
     *    clears it, so a second waitIdle() with no intervening
     *    failure returns success;
     *  - after the rethrow the pool is reusable: newly submitted jobs
     *    run normally.
     */
    void waitIdle();

    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    struct QueuedJob
    {
        std::function<void()> fn;
        /** Submit time for the queue-wait histogram; only stamped
         *  (and only read) while telemetry is enabled. */
        std::chrono::steady_clock::time_point enqueued{};
        bool stamped = false;
    };

    void workerLoop();

    /** This pool's named metric family, resolved once at
     *  construction (registration is the only locked step). */
    const PoolMetricsFamily &metrics_;
    std::vector<std::thread> workers_;
    std::deque<QueuedJob> queue_;
    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable idleCv_;
    std::size_t active_ = 0;
    bool stop_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run body(0) .. body(count - 1) across @p jobs workers and wait for
 * completion. jobs <= 1 (or count <= 1) runs inline on the calling
 * thread, byte-for-byte the serial loop. Rethrows the first job
 * exception; iterations still queued when it was thrown are discarded
 * (the pool's fail-fast contract), and the serial path likewise stops
 * at the throwing iteration. @p name namespaces the backing pool's
 * telemetry, like the ThreadPool constructor.
 */
void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)> &body,
                 std::string_view name = "adhoc");

} // namespace branchlab

#endif // BRANCHLAB_SUPPORT_THREAD_POOL_HH
