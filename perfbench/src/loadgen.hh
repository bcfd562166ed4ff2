/**
 * @file
 * The serve-zipf load generator: seeded Poisson arrivals, Zipf key
 * popularity, and an open-loop sender that pipelines pre-encoded
 * requests over a few daemon connections.
 *
 * Open loop: request i is sent at its scheduled time whatever the
 * daemon is doing, and its latency is timed from that scheduled time,
 * so a stall also charges the wait it imposes on later requests. The
 * sender reports how late it sent each request; a phase whose
 * generator fell behind its own schedule is invalid, not slow.
 */

#ifndef BLBENCH_LOADGEN_HH
#define BLBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "support/random.hh"

namespace blbench
{

/** Arrival offsets (seconds from the phase start) of a Poisson
 *  process with @p ratePerSecond over [0, @p seconds). */
std::vector<double> poissonArrivals(double ratePerSecond, double seconds,
                                    branchlab::Rng &rng);

/** Zipf(s) over ranks 0..n-1: P(rank k) is proportional to
 *  1 / (k + 1)^s. */
class ZipfSampler
{
  public:
    explicit ZipfSampler(std::size_t n, double s = 1.0);

    std::size_t sample(branchlab::Rng &rng) const;
    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

/** One request of an open-loop phase, encoded before the phase. */
struct ScheduledRequest
{
    /** Send time, seconds from the phase start. */
    double at = 0.0;
    /** Unique within the phase: responses are matched by it. */
    std::uint64_t requestId = 0;
    std::string payload;
};

struct PhaseResult
{
    /** Per request (schedule order): scheduled send to response. */
    std::vector<double> latencyMs;
    /** Per request: actual send minus scheduled send. */
    std::vector<double> latenessMs;
    std::vector<branchlab::serve::Response> responses;
    /** Requests still outstanding when the last one was sent. */
    std::size_t backlogAtLastSend = 0;
    /** Sends or receives failed, or responses never arrived. */
    bool transportFailed = false;
};

/**
 * Send @p schedule open-loop: request i goes out on
 * clients[i % clients.size()] at its scheduled time, and one receiver
 * thread per client collects responses. When responses stop arriving
 * for @p stallSeconds after the last send, @p onStall is called (it
 * must make the receivers' reads return, e.g. by draining the daemon)
 * and the phase is marked failed.
 */
PhaseResult runOpenLoop(std::vector<branchlab::serve::Client *> &clients,
                        const std::vector<ScheduledRequest> &schedule,
                        const std::function<void()> &onStall,
                        double stallSeconds = 30.0);

struct ClosedLoopResult
{
    std::size_t completed = 0;
    double seconds = 0.0;
    /** Responses whose check failed. */
    std::size_t wrong = 0;
    bool transportFailed = false;
};

/**
 * Closed loop at saturation: every client keeps @p depth requests in
 * flight for @p seconds, sending the next as each response arrives,
 * then drains. The k-th request is templates[k % size] with request id
 * firstId + k; @p check(templateIndex, response) validates each reply.
 * One thread per client.
 */
ClosedLoopResult
runClosedLoop(std::vector<branchlab::serve::Client *> &clients,
              const std::vector<branchlab::serve::Request> &templates,
              std::uint64_t firstId, std::size_t depth, double seconds,
              const std::function<bool(std::size_t,
                                       const branchlab::serve::Response &)>
                  &check);

} // namespace blbench

#endif // BLBENCH_LOADGEN_HH
