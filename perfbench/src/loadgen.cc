#include "loadgen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <condition_variable>
#include <thread>

#include "harness.hh"

namespace blbench
{

std::vector<double>
poissonArrivals(double ratePerSecond, double seconds, branchlab::Rng &rng)
{
    std::vector<double> arrivals;
    if (ratePerSecond <= 0.0)
        return arrivals;
    arrivals.reserve(static_cast<std::size_t>(ratePerSecond * seconds * 1.1));
    double t = 0.0;
    for (;;) {
        // Exponential gap by inversion; 1 - u keeps log() finite.
        t += -std::log(1.0 - rng.nextDouble()) / ratePerSecond;
        if (t >= seconds)
            break;
        arrivals.push_back(t);
    }
    return arrivals;
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
{
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_.push_back(total);
    }
    for (double &value : cdf_)
        value /= total;
}

std::size_t
ZipfSampler::sample(branchlab::Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
}

PhaseResult
runOpenLoop(std::vector<branchlab::serve::Client *> &clients,
            const std::vector<ScheduledRequest> &schedule,
            const std::function<void()> &onStall, double stallSeconds)
{
    const std::size_t n = schedule.size();
    const std::size_t lanes = clients.size();
    PhaseResult result;
    result.latencyMs.assign(n, 0.0);
    result.latenessMs.assign(n, 0.0);
    result.responses.resize(n);
    if (n == 0 || lanes == 0)
        return result;

    const std::uint64_t firstId = schedule.front().requestId;
    std::vector<Clock::time_point> doneAt(n);
    std::vector<char> answered(n, 0);
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> failed{false};
    std::mutex doneMutex;
    std::condition_variable doneCv;

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);

    std::vector<std::thread> receivers;
    receivers.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::size_t expected = (n + lanes - 1 - lane) / lanes;
        receivers.emplace_back([&, lane, expected] {
            try {
                for (std::size_t got = 0; got < expected; ++got) {
                    branchlab::serve::Response response;
                    if (!clients[lane]->receive(response)) {
                        failed = true;
                        break;
                    }
                    const Clock::time_point now = Clock::now();
                    const std::uint64_t index =
                        response.requestId - firstId;
                    if (response.requestId < firstId || index >= n ||
                        answered[index]) {
                        failed = true;
                        continue;
                    }
                    answered[index] = 1;
                    doneAt[index] = now;
                    result.responses[index] = std::move(response);
                    completed.fetch_add(1, std::memory_order_release);
                }
            } catch (const std::exception &) {
                failed = true;
            }
            {
                std::lock_guard<std::mutex> lock(doneMutex);
            }
            doneCv.notify_all();
        });
    }

    // The sender spins on the clock between sends: a sleeping sender
    // pays a scheduler wake-up on every request, which shows up as
    // lateness on a busy host.
    std::vector<Clock::time_point> sentAt(n);
    std::size_t sent = 0;
    try {
        for (; sent < n; ++sent) {
            const ScheduledRequest &request = schedule[sent];
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(request.at));
            while (Clock::now() < due) {
            }
            sentAt[sent] = Clock::now();
            clients[sent % lanes]->sendFrame(request.payload);
        }
    } catch (const std::exception &) {
        failed = true;
    }
    result.backlogAtLastSend =
        sent - completed.load(std::memory_order_acquire);

    {
        std::unique_lock<std::mutex> lock(doneMutex);
        const bool finished = doneCv.wait_for(
            lock, std::chrono::duration<double>(stallSeconds), [&] {
                return completed.load(std::memory_order_acquire) == sent ||
                       failed.load();
            });
        if (!finished || completed.load() != n) {
            failed = true;
            lock.unlock();
            onStall();
        }
    }
    for (std::thread &receiver : receivers)
        receiver.join();

    for (std::size_t i = 0; i < n; ++i) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i].at));
        if (i < sent) {
            result.latenessMs[i] =
                std::chrono::duration<double, std::milli>(sentAt[i] - due)
                    .count();
        }
        if (answered[i]) {
            result.latencyMs[i] =
                std::chrono::duration<double, std::milli>(doneAt[i] - due)
                    .count();
        }
    }
    result.transportFailed = failed.load() || sent != n;
    return result;
}

ClosedLoopResult
runClosedLoop(std::vector<branchlab::serve::Client *> &clients,
              const std::vector<branchlab::serve::Request> &templates,
              std::uint64_t firstId, std::size_t depth, double seconds,
              const std::function<bool(std::size_t,
                                       const branchlab::serve::Response &)>
                  &check)
{
    ClosedLoopResult result;
    const std::size_t lanes = clients.size();
    if (lanes == 0 || templates.empty() || depth == 0)
        return result;
    std::atomic<std::size_t> completed{0}, wrong{0};
    std::atomic<bool> failed{false};
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        threads.emplace_back([&, lane] {
            // Lane l sends the k-th requests with k = l, l + lanes, ...
            std::size_t next = lane, outstanding = 0;
            const auto send = [&] {
                branchlab::serve::Request request =
                    templates[next % templates.size()];
                request.requestId = firstId + next;
                clients[lane]->sendFrame(
                    branchlab::serve::encodeRequest(request));
                next += lanes;
                ++outstanding;
            };
            try {
                for (std::size_t i = 0; i < depth; ++i)
                    send();
                while (outstanding > 0) {
                    branchlab::serve::Response response;
                    if (!clients[lane]->receive(response)) {
                        failed = true;
                        return;
                    }
                    --outstanding;
                    const std::uint64_t k = response.requestId - firstId;
                    if (response.requestId < firstId ||
                        !check(static_cast<std::size_t>(k % templates.size()),
                               response))
                        wrong.fetch_add(1);
                    completed.fetch_add(1);
                    if (Clock::now() < stop)
                        send();
                }
            } catch (const std::exception &) {
                failed = true;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    result.seconds = secondsSince(start);
    result.completed = completed.load();
    result.wrong = wrong.load();
    result.transportFailed = failed.load();
    return result;
}

} // namespace blbench
