/**
 * @file
 * The branchlabd wire protocol: length-prefixed binary frames
 * carrying experiment requests and their results.
 *
 * Framing is a 4-byte little-endian payload length followed by the
 * payload; a frame longer than kMaxFrameBytes is refused before any
 * payload is read, so a hostile or corrupt length prefix cannot make
 * the server allocate. Multi-byte integers inside a payload are
 * little-endian; doubles travel as the little-endian bytes of their
 * IEEE-754 bit pattern, so a served cell is byte-identical to the
 * journal's copy.
 *
 * A request names a design point with exactly the coordinates of a
 * core::SweepPoint (BTB geometry, counter shape, FS slot count,
 * trace-selection threshold, optimizer level) plus the stream
 * parameters (seed, run override) and a workload list. The daemon
 * keys the request with core::sweepPointKey over the same content
 * hashes the trace cache and sweep journal use, which is what makes
 * the serving path content-addressed: any client asking for the same
 * experiment -- across connections, restarts, or machines sharing
 * the store -- hits the same journal record.
 *
 * Responses carry a status (Ok / Reject / Error / Draining), the
 * request id echoed back, a cache-hit flag, a retry hint for
 * rejects, and on Ok one core::SweepCell per requested workload in
 * request order.
 *
 * The encode and decode functions are pure functions over byte
 * strings; socket I/O lives with the daemon and client.
 */

#ifndef BRANCHLAB_SERVE_PROTOCOL_HH
#define BRANCHLAB_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.hh"
#include "core/sweep_journal.hh"

namespace branchlab::serve
{

/** Hard ceiling on one frame's payload. Generous for any request the
 *  CLI can build (a maximal workload list is a few hundred bytes) and
 *  small enough that a garbage length prefix cannot drive an
 *  allocation. */
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/** The largest design point a request may name. Keying a request
 *  builds its input suite for `runs` before any journal lookup, and
 *  the entries and slots size the buffers' ways and the forward-slot
 *  images, so each is bounded, well above any point the tools and
 *  benchmarks ask for (default runs reach 20, serve-zipf's largest
 *  BTB is 2048 entries, the paper's largest k + l is 8). */
inline constexpr std::uint32_t kMaxRequestRuns = 256;
inline constexpr std::uint32_t kMaxRequestEntries = 65536;
inline constexpr std::uint32_t kMaxRequestFsSlots = 64;

/** Protocol version; bumped on any wire-layout change. */
inline constexpr std::uint16_t kProtocolVersion = 1;

/** Request frame magic ("BLRQ", little-endian). */
inline constexpr std::uint32_t kRequestMagic = 0x51524C42u;
/** Response frame magic ("BLRS", little-endian). */
inline constexpr std::uint32_t kResponseMagic = 0x53524C42u;

enum class RequestType : std::uint8_t
{
    /** Evaluate (or serve from the store) one design point. */
    Experiment = 1,
    /** Liveness probe; answered Ok with no cells. */
    Ping = 2,
};

enum class ResponseStatus : std::uint8_t
{
    Ok = 0,
    /** Admission control refused the request; retryAfterMs hints when
     *  to try again. */
    Reject = 1,
    /** The request was malformed or evaluation failed; `message`
     *  says why. */
    Error = 2,
    /** The daemon is shutting down and accepts no new work. */
    Draining = 3,
};

/** One experiment request: a design point plus stream parameters and
 *  the workloads to measure it over. */
struct Request
{
    RequestType type = RequestType::Experiment;
    /** Client-chosen id, echoed back verbatim in the response. */
    std::uint64_t requestId = 0;
    /** Master seed of the recorded streams. */
    std::uint64_t seed = 19890528;
    /** Per-workload run override (0 = workload default). */
    std::uint32_t runs = 0;
    /** The design point; the pipeline axis keeps its default (cells
     *  are pipeline-independent, costs are derived client-side). */
    predict::BufferConfig btb{};
    predict::CounterConfig counter{};
    std::uint32_t fsSlots = 2;
    double traceThreshold = 0.7;
    profile::FsOptLevel fsOpt = profile::FsOptLevel::None;
    /** Workload names, in result order. */
    std::vector<std::string> workloads;

    /** The request's coordinates as a sweep grid point. */
    core::SweepPoint toPoint() const;
};

struct Response
{
    ResponseStatus status = ResponseStatus::Ok;
    /** True when every cell came from the journal without evaluation. */
    bool cacheHit = false;
    std::uint64_t requestId = 0;
    /** Backpressure hint (Reject only). */
    std::uint32_t retryAfterMs = 0;
    /** One cell per requested workload, request order (Ok only). */
    std::vector<core::SweepCell> cells;
    /** Diagnostic (Error only). */
    std::string message;
};

/** Serialize a request/response payload (no frame header). */
std::string encodeRequest(const Request &request);
std::string encodeResponse(const Response &response);

/**
 * Parse a payload. False when the payload is malformed (bad magic,
 * unknown version or enum value, truncated body, trailing bytes) or
 * names a design point the engine cannot build or that sizes
 * unbounded work (runs, entries or slots past the kMaxRequest*
 * limits, ways that are neither 0 nor a divisor of the entries, a
 * counter outside 1-16 bits or a threshold outside
 * [1, 2^bits - 1]), with a diagnostic in @p error; @p out is
 * unspecified on failure.
 */
bool decodeRequest(std::string_view payload, Request &out,
                   std::string &error);
bool decodeResponse(std::string_view payload, Response &out,
                    std::string &error);

/** The 4-byte little-endian frame header for a payload this long. */
std::string frameHeader(std::uint32_t payloadBytes);

} // namespace branchlab::serve

#endif // BRANCHLAB_SERVE_PROTOCOL_HH
