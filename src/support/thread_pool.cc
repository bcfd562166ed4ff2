#include "support/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace branchlab
{

/** One named metric family. Families are registered on first use and
 *  live for the process, so pools constructed later under the same
 *  name keep accumulating into the same counters -- the per-process
 *  double-counting the unnamed globals suffered (a daemon's long-lived
 *  pool plus per-request pools folding into one number) cannot recur:
 *  each pool only ever touches its own name. */
struct PoolMetricsFamily
{
    explicit PoolMetricsFamily(const std::string &name)
        : jobs(obs::Registry::global().counter("threadpool." + name +
                                               ".jobs")),
          discarded(obs::Registry::global().counter(
              "threadpool." + name + ".jobs_discarded")),
          queueWaitNs(obs::Registry::global().counter(
              "threadpool." + name + ".queue_wait_ns_total")),
          queueWait(obs::Registry::global().histogram(
              "threadpool." + name + ".queue_wait_ns",
              {1'000, 10'000, 100'000, 1'000'000, 10'000'000,
               100'000'000, 1'000'000'000}))
    {}

    obs::Counter &jobs;
    obs::Counter &discarded;
    obs::Counter &queueWaitNs;
    obs::Histogram &queueWait;
};

namespace
{

obs::Counter &
poolsCounter()
{
    static obs::Counter &pools =
        obs::Registry::global().counter("threadpool.pools");
    return pools;
}

/** Named families, resolved once per name; hot-path updates are
 *  lock-free through the cached references. */
const PoolMetricsFamily &
poolMetrics(std::string_view name)
{
    static std::mutex mutex;
    static auto *families =
        new std::map<std::string, PoolMetricsFamily, std::less<>>;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = families->find(name);
    if (it == families->end()) {
        it = families
                 ->emplace(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple(std::string(name)))
                 .first;
    }
    return it->second;
}

} // namespace

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
}

unsigned
envJobs()
{
    const char *raw = std::getenv("BRANCHLAB_JOBS");
    if (raw == nullptr || *raw == '\0')
        return 0;
    const std::optional<std::uint64_t> value =
        parseDecimal(raw, std::numeric_limits<unsigned>::max());
    if (!value || *value == 0) {
        // Warn-once latch. Pools are constructed from multiple threads
        // (nested parallelFor, concurrent tests), so a plain bool here
        // would be a data race; exchange makes exactly one caller the
        // warner with no torn reads.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true, std::memory_order_relaxed))
            blab_warn("ignoring unparsable BRANCHLAB_JOBS='", raw, "'");
        return 0;
    }
    return static_cast<unsigned>(*value);
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned env = envJobs();
    return env > 0 ? env : hardwareJobs();
}

ThreadPool::ThreadPool(unsigned workers, std::string_view name)
    : metrics_(poolMetrics(name))
{
    const unsigned count = workers == 0 ? 1u : workers;
    workers_.reserve(count);
    for (unsigned w = 0; w < count; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    poolsCounter().add(1);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    QueuedJob item;
    item.fn = std::move(job);
    if (obs::enabled()) {
        item.enqueued = std::chrono::steady_clock::now();
        item.stamped = true;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(item));
    }
    workCv_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && active_ == 0; });
    if (firstError_ != nullptr) {
        std::exception_ptr error = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        QueuedJob item;
        bool discard = false;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            item = std::move(queue_.front());
            queue_.pop_front();
            // Fail-fast: once a job has thrown, the rest of the queue
            // is drained without running (see waitIdle()).
            discard = firstError_ != nullptr;
            ++active_;
        }
        if (item.stamped && obs::enabled()) {
            const auto waited =
                std::chrono::steady_clock::now() - item.enqueued;
            const auto ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    waited)
                    .count());
            metrics_.queueWait.observe(ns);
            metrics_.queueWaitNs.add(ns);
        }
        if (discard) {
            metrics_.discarded.add(1);
        } else {
            metrics_.jobs.add(1);
            try {
                item.fn();
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (firstError_ == nullptr)
                    firstError_ = std::current_exception();
            }
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
        }
        idleCv_.notify_all();
    }
}

void
parallelFor(std::size_t count, unsigned jobs,
            const std::function<void(std::size_t)> &body,
            std::string_view name)
{
    if (count == 0)
        return;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs, count));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    ThreadPool pool(workers, name);
    for (std::size_t i = 0; i < count; ++i)
        pool.submit([&body, i] { body(i); });
    pool.waitIdle();
}

} // namespace branchlab
