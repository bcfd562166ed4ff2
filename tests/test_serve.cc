/**
 * @file
 * Tests for the serving subsystem: the wire protocol's encode/decode
 * pair, and the daemon end to end over in-process Unix-socket (and
 * TCP) instances -- warm hits, hostile frames, disconnects,
 * single-flight dedup, admission control, and graceful drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.hh"
#include "scratch_dir.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "support/logging.hh"

namespace branchlab::serve
{
namespace
{

test::ScratchDir
makeDir(const std::string &tag)
{
    return test::ScratchDir("blab_serve_" + tag, true);
}

/** A fast experiment request at the paper's design point. */
Request
tinyRequest(std::uint64_t id = 1)
{
    Request request;
    request.requestId = id;
    request.runs = 1;
    request.workloads = {"tee"};
    return request;
}

/** A daemon on its own Unix socket with its own stores. */
struct TestDaemon
{
    explicit TestDaemon(const std::string &tag, unsigned jobs = 2,
                        std::size_t max_queue = 64)
        : scratch(makeDir(tag)), dir(scratch.path())
    {
        DaemonConfig config;
        config.listen = "unix:" + dir + "/d.sock";
        config.jobs = jobs;
        config.maxQueue = max_queue;
        config.service.traceCacheDir = dir + "/tc";
        config.service.journalDir = dir + "/jr";
        daemon = std::make_unique<Daemon>(config);
        daemon->start();
    }

    Client
    connect()
    {
        return Client(daemon->address());
    }

    /** Declared first: outlives the daemon that writes into it. */
    const test::ScratchDir scratch;
    std::string dir;
    std::unique_ptr<Daemon> daemon;
};

std::uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

// ---------------------------------------------------------------------
// Protocol encode/decode.
// ---------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsAllFields)
{
    Request request;
    request.requestId = 0x1122334455667788ULL;
    request.seed = 42;
    request.runs = 3;
    request.btb.entries = 512;
    request.btb.associativity = 4;
    request.btb.policy = predict::ReplacementPolicy::Random;
    request.btb.seed = 77;
    request.counter.bits = 3;
    request.counter.threshold = 5;
    request.fsSlots = 4;
    request.traceThreshold = 0.625;
    request.fsOpt = profile::FsOptLevel::Superblock;
    request.workloads = {"tee", "wc", "grep"};

    Request decoded;
    std::string error;
    ASSERT_TRUE(
        decodeRequest(encodeRequest(request), decoded, error))
        << error;
    EXPECT_EQ(decoded.requestId, request.requestId);
    EXPECT_EQ(decoded.seed, request.seed);
    EXPECT_EQ(decoded.runs, request.runs);
    EXPECT_EQ(decoded.btb.entries, request.btb.entries);
    EXPECT_EQ(decoded.btb.associativity, request.btb.associativity);
    EXPECT_EQ(decoded.btb.policy, request.btb.policy);
    EXPECT_EQ(decoded.btb.seed, request.btb.seed);
    EXPECT_EQ(decoded.counter.bits, request.counter.bits);
    EXPECT_EQ(decoded.counter.threshold, request.counter.threshold);
    EXPECT_EQ(decoded.fsSlots, request.fsSlots);
    EXPECT_EQ(decoded.traceThreshold, request.traceThreshold);
    EXPECT_EQ(decoded.fsOpt, request.fsOpt);
    EXPECT_EQ(decoded.workloads, request.workloads);
}

TEST(ServeProtocol, ResponseRoundTripsCellsBitExactly)
{
    Response response;
    response.status = ResponseStatus::Ok;
    response.cacheHit = true;
    response.requestId = 9;
    core::SweepCell cell;
    cell.sbtbAccuracy = 0.1 + 0.2; // deliberately non-representable
    cell.sbtbMissRatio = 1.0 / 3.0;
    cell.cbtbAccuracy = 0.99999999999999989;
    cell.cbtbMissRatio = 5e-324; // min subnormal
    cell.fsAccuracy = 0.875;
    cell.codeIncrease = 0.046875;
    response.cells = {cell};

    Response decoded;
    std::string error;
    ASSERT_TRUE(
        decodeResponse(encodeResponse(response), decoded, error))
        << error;
    EXPECT_EQ(decoded.status, ResponseStatus::Ok);
    EXPECT_TRUE(decoded.cacheHit);
    EXPECT_EQ(decoded.requestId, 9u);
    ASSERT_EQ(decoded.cells.size(), 1u);
    EXPECT_EQ(decoded.cells.front(), cell);
}

TEST(ServeProtocol, ErrorAndRejectResponsesRoundTrip)
{
    Response error_response;
    error_response.status = ResponseStatus::Error;
    error_response.requestId = 4;
    Response decoded;
    std::string error;
    // A message past the 16-bit length field decodes to its first
    // 65,535 bytes, not to a frame with trailing bytes.
    const std::string long_message(70'000, 'x');
    for (const std::string &message :
         {std::string("unknown workload 'nope'"), long_message}) {
        error_response.message = message;
        ASSERT_TRUE(decodeResponse(encodeResponse(error_response),
                                   decoded, error))
            << error;
        EXPECT_EQ(decoded.status, ResponseStatus::Error);
        EXPECT_EQ(decoded.message, message.substr(0, 65'535));
    }

    Response reject;
    reject.status = ResponseStatus::Reject;
    reject.retryAfterMs = 250;
    ASSERT_TRUE(
        decodeResponse(encodeResponse(reject), decoded, error));
    EXPECT_EQ(decoded.status, ResponseStatus::Reject);
    EXPECT_EQ(decoded.retryAfterMs, 250u);
    EXPECT_TRUE(decoded.message.empty());
}

TEST(ServeProtocol, MalformedRequestsAreRejectedWithDiagnostics)
{
    Request out;
    std::string error;

    EXPECT_FALSE(decodeRequest("", out, error));
    EXPECT_NE(error.find("truncated"), std::string::npos);

    std::string bad_magic = encodeRequest(tinyRequest());
    bad_magic[0] = 'X';
    EXPECT_FALSE(decodeRequest(bad_magic, out, error));
    EXPECT_NE(error.find("magic"), std::string::npos);

    std::string truncated = encodeRequest(tinyRequest());
    truncated.resize(truncated.size() - 3);
    EXPECT_FALSE(decodeRequest(truncated, out, error));

    std::string trailing = encodeRequest(tinyRequest());
    trailing.push_back('\0');
    EXPECT_FALSE(decodeRequest(trailing, out, error));
    EXPECT_NE(error.find("trailing"), std::string::npos);

    // Unknown enum values are refused, not cast blindly.
    Request bad_policy = tinyRequest();
    std::string encoded = encodeRequest(bad_policy);
    // policy is the byte right after magic(4)+ver(2)+type(1)+pad(1)+
    // id(8)+seed(8)+runs(4)+entries(4)+assoc(4).
    encoded[4 + 2 + 1 + 1 + 8 + 8 + 4 + 4 + 4] = 9;
    EXPECT_FALSE(decodeRequest(encoded, out, error));
    EXPECT_NE(error.find("policy"), std::string::npos);

    // Design points that would size unbounded work or reach an
    // engine assert are refused with a diagnostic that names the
    // field; a legal value at each edge decodes.
    struct Case
    {
        const char *what;
        void (*set)(Request &);
        bool ok;
    };
    const Case cases[] = {
        {"runs", [](Request &r) { r.runs = 256; }, true},
        {"runs", [](Request &r) { r.runs = 257; }, false},
        {"runs", [](Request &r) { r.runs = 4294967295u; }, false},
        {"entries", [](Request &r) { r.btb.entries = 0; }, false},
        {"entries", [](Request &r) { r.btb.entries = 65536; }, true},
        {"entries", [](Request &r) { r.btb.entries = 65537; }, false},
        {"associativity",
         [](Request &r) {
             r.btb.entries = 12;
             r.btb.associativity = 8;
         },
         false},
        {"associativity",
         [](Request &r) {
             r.btb.entries = 12;
             r.btb.associativity = 12;
         },
         true},
        {"bits", [](Request &r) { r.counter = {0, 1}; }, false},
        {"bits", [](Request &r) { r.counter = {17, 1}; }, false},
        {"bits", [](Request &r) { r.counter = {16, 255}; }, true},
        {"threshold", [](Request &r) { r.counter = {2, 0}; }, false},
        {"threshold", [](Request &r) { r.counter = {2, 4}; }, false},
        {"threshold", [](Request &r) { r.counter = {2, 3}; }, true},
        {"slots", [](Request &r) { r.fsSlots = 64; }, true},
        {"slots", [](Request &r) { r.fsSlots = 65; }, false},
    };
    for (const Case &c : cases) {
        Request request = tinyRequest();
        c.set(request);
        SCOPED_TRACE(std::string(c.what) + (c.ok ? " ok" : " refused"));
        error.clear();
        EXPECT_EQ(decodeRequest(encodeRequest(request), out, error), c.ok);
        if (!c.ok) {
            EXPECT_NE(error.find(c.what), std::string::npos) << error;
        }
    }
}

TEST(ServeProtocol, EmptyWorkloadListIsMalformed)
{
    Request request = tinyRequest();
    request.workloads.clear();
    Request out;
    std::string error;
    EXPECT_FALSE(decodeRequest(encodeRequest(request), out, error));
    EXPECT_NE(error.find("workload"), std::string::npos);
}

// ---------------------------------------------------------------------
// Daemon end to end.
// ---------------------------------------------------------------------

TEST(ServeDaemon, ColdThenWarmServesIdenticalCellsFromTheStore)
{
    TestDaemon daemon("warm");
    Client client = daemon.connect();

    const Response cold = client.call(tinyRequest(1));
    ASSERT_EQ(cold.status, ResponseStatus::Ok);
    EXPECT_FALSE(cold.cacheHit);
    ASSERT_EQ(cold.cells.size(), 1u);
    EXPECT_GT(cold.cells.front().sbtbAccuracy, 0.0);

    const Response warm = client.call(tinyRequest(2));
    ASSERT_EQ(warm.status, ResponseStatus::Ok);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.requestId, 2u);
    // Served straight from the journal: bit-identical, not re-derived.
    EXPECT_EQ(warm.cells, cold.cells);
}

TEST(ServeDaemon, RestartServesFromThePersistentStores)
{
    TestDaemon first("restart");
    const std::string &dir = first.dir;
    Response cold;
    {
        Client client = first.connect();
        cold = client.call(tinyRequest(1));
        ASSERT_EQ(cold.status, ResponseStatus::Ok);
        first.daemon->requestDrain();
        first.daemon->waitStopped();
    }
    first.daemon.reset();
    // A fresh daemon over the same directories serves the stored
    // result as a hit -- the key is content-addressed, not per-process.
    DaemonConfig config;
    config.listen = "unix:" + dir + "/d2.sock";
    config.jobs = 1;
    config.service.traceCacheDir = dir + "/tc";
    config.service.journalDir = dir + "/jr";
    Daemon second(config);
    second.start();
    Client client(second.address());
    const Response warm = client.call(tinyRequest(2));
    EXPECT_EQ(warm.status, ResponseStatus::Ok);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.cells, cold.cells);
}

TEST(ServeDaemon, TcpListenResolvesEphemeralPortAndServes)
{
    const test::ScratchDir scratch = makeDir("tcp");
    const std::string &dir = scratch.path();
    DaemonConfig config;
    config.listen = "tcp:127.0.0.1:0";
    config.jobs = 1;
    config.service.traceCacheDir = dir + "/tc";
    config.service.journalDir = dir + "/jr";
    Daemon daemon(config);
    daemon.start();
    EXPECT_EQ(daemon.address().find("tcp:127.0.0.1:"), 0u);
    EXPECT_NE(daemon.address(), "tcp:127.0.0.1:0");
    Client client(daemon.address());
    Request ping;
    ping.type = RequestType::Ping;
    ping.requestId = 7;
    const Response pong = client.call(ping);
    EXPECT_EQ(pong.status, ResponseStatus::Ok);
    EXPECT_EQ(pong.requestId, 7u);
}

TEST(ServeDaemon, TcpPortsOtherThanZeroTo65535AreFatal)
{
    // Once parsed with atoi: "8080x" meant 8080, "abc" an ephemeral
    // port, and a client connected to 99999 reached port 34463.
    for (const char *port : {"8080x", "abc", "99999", "65536", "-1",
                             "+80", " 80", ""}) {
        const std::string address = std::string("tcp:127.0.0.1:") + port;
        SCOPED_TRACE(address);
        EXPECT_THROW(Client client(address), ConfigFailure);
        DaemonConfig config;
        config.listen = address;
        config.jobs = 1;
        Daemon daemon(config);
        EXPECT_THROW(daemon.start(), ConfigFailure);
    }
}

std::size_t
openDescriptors()
{
    std::size_t count = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++count;
    return count;
}

TEST(ServeDaemon, FailedStartsCloseTheirSocket)
{
    // A daemon that throws out of start() never stops, so the socket
    // it opened is closed on the failure path or not at all.
    const test::ScratchDir scratch = makeDir("failed_start");
    const std::string &dir = scratch.path();
    DaemonConfig held_config;
    held_config.listen = "tcp:127.0.0.1:0";
    held_config.jobs = 1;
    held_config.service.traceCacheDir = dir + "/tc";
    held_config.service.journalDir = dir + "/jr";
    Daemon holder(held_config);
    holder.start();

    for (const std::string &address :
         {std::string("unix:/nonexistent-dir/x.sock"),
          std::string("tcp:abc:0"), holder.address()}) {
        SCOPED_TRACE(address);
        const std::size_t before = openDescriptors();
        for (int attempt = 0; attempt < 5; ++attempt) {
            DaemonConfig config;
            config.listen = address;
            config.jobs = 1;
            Daemon daemon(config);
            EXPECT_THROW(daemon.start(), ConfigFailure);
        }
        EXPECT_EQ(openDescriptors(), before);
    }
}

TEST(ServeDaemon, MalformedFrameGetsErrorResponseAndCloses)
{
    TestDaemon daemon("malformed");
    Client client = daemon.connect();
    client.sendFrame("this is not a request");
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, ResponseStatus::Error);
    EXPECT_NE(response.message.find("malformed"),
              std::string::npos);
    // Fail closed: the connection is done after one diagnostic.
    EXPECT_FALSE(client.receive(response));

    // The daemon itself survives and serves the next connection.
    Client next = daemon.connect();
    Request ping;
    ping.type = RequestType::Ping;
    EXPECT_EQ(next.call(ping).status, ResponseStatus::Ok);
}

TEST(ServeDaemon, LongestWorkloadNameGetsADecodableError)
{
    // The longest name a request can carry decodes fine, and its
    // "unknown workload" diagnostic is longer than an Error's 16-bit
    // length field: the client must still decode the response.
    TestDaemon daemon("longname");
    Client client = daemon.connect();
    Request request = tinyRequest();
    request.workloads = {std::string(65'535, 'w')};
    const Response response = client.call(request);
    EXPECT_EQ(response.status, ResponseStatus::Error);
    EXPECT_EQ(response.message.size(), 65'535u);
    EXPECT_NE(response.message.find("unknown workload 'www"),
              std::string::npos)
        << response.message.substr(0, 40);
}

TEST(ServeDaemon, OversizedLengthPrefixIsRefusedWithoutAllocating)
{
    TestDaemon daemon("oversized");
    Client client = daemon.connect();
    client.sendRaw(frameHeader(kMaxFrameBytes + 1));
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, ResponseStatus::Error);
    EXPECT_NE(response.message.find("limit"), std::string::npos);
    EXPECT_FALSE(client.receive(response));

    Client next = daemon.connect();
    Request ping;
    ping.type = RequestType::Ping;
    EXPECT_EQ(next.call(ping).status, ResponseStatus::Ok);
}

TEST(ServeDaemon, TruncatedFrameThenDisconnectLeavesDaemonServing)
{
    TestDaemon daemon("truncated");
    {
        Client client = daemon.connect();
        // Promise 100 bytes, deliver 10, vanish.
        client.sendRaw(frameHeader(100));
        client.sendRaw("ten bytes!");
        client.close();
    }
    Client next = daemon.connect();
    Request ping;
    ping.type = RequestType::Ping;
    EXPECT_EQ(next.call(ping).status, ResponseStatus::Ok);
}

TEST(ServeDaemon, MidRequestDisconnectDoesNotKillTheDaemon)
{
    TestDaemon daemon("disconnect");
    {
        Client client = daemon.connect();
        // A real (cold, so slow) request... and the client is gone
        // before the response can be written.
        client.sendFrame(encodeRequest(tinyRequest(1)));
        client.close();
    }
    // The admitted request still evaluates and stores; only its
    // response write fails. A new connection then gets the warm hit.
    Client next = daemon.connect();
    Response warm;
    for (int attempt = 0; attempt < 100; ++attempt) {
        warm = next.call(tinyRequest(2));
        ASSERT_EQ(warm.status, ResponseStatus::Ok);
        if (warm.cacheHit)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(warm.status, ResponseStatus::Ok);
}

TEST(ServeDaemon, ConcurrentIdenticalRequestsSingleFlightOneStore)
{
    TestDaemon daemon("singleflight");
    // Slow the (single) evaluation down so the twin genuinely
    // overlaps it instead of arriving at a warm store.
    daemon.daemon->service().evalHook = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
    };
    const std::uint64_t evaluations_before =
        counterValue("serve.evaluations");
    const std::uint64_t stores_before =
        counterValue("sweep.journal.stores");

    Response first, second;
    std::thread a([&] {
        Client client = daemon.connect();
        first = client.call(tinyRequest(1));
    });
    std::thread b([&] {
        Client client = daemon.connect();
        second = client.call(tinyRequest(2));
    });
    a.join();
    b.join();

    ASSERT_EQ(first.status, ResponseStatus::Ok);
    ASSERT_EQ(second.status, ResponseStatus::Ok);
    EXPECT_EQ(first.cells, second.cells);
    // One evaluation, one journal record; the twin was served from
    // the store the winner wrote.
    EXPECT_EQ(counterValue("serve.evaluations") - evaluations_before,
              1u);
    EXPECT_EQ(counterValue("sweep.journal.stores") - stores_before,
              1u);
}

TEST(ServeDaemon, OverloadedQueueRejectsWithRetryHint)
{
    TestDaemon daemon("reject", /*jobs=*/1, /*max_queue=*/1);
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false;
    bool release = false;
    daemon.daemon->service().evalHook = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    };

    Client slow = daemon.connect();
    slow.sendFrame(encodeRequest(tinyRequest(1)));
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return started; });
    }
    // The ceiling (1) is reached: the next request is rejected on
    // arrival, before the first one has even finished.
    Client burst = daemon.connect();
    const Response rejected = burst.call(tinyRequest(2));
    EXPECT_EQ(rejected.status, ResponseStatus::Reject);
    EXPECT_GT(rejected.retryAfterMs, 0u);

    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    Response response;
    ASSERT_TRUE(slow.receive(response));
    EXPECT_EQ(response.status, ResponseStatus::Ok);
}

TEST(ServeDaemon, DrainFinishesInFlightWorkAndAnswersDraining)
{
    TestDaemon daemon("drain", /*jobs=*/1);
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false;
    bool release = false;
    daemon.daemon->service().evalHook = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    };

    Client client = daemon.connect();
    client.sendFrame(encodeRequest(tinyRequest(1)));
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return started; });
    }

    daemon.daemon->requestDrain();
    // A frame arriving after drain began is answered Draining, on
    // the same still-open connection.
    client.sendFrame(encodeRequest(tinyRequest(2)));
    Response busy;
    ASSERT_TRUE(client.receive(busy));
    EXPECT_EQ(busy.status, ResponseStatus::Draining);

    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    // The in-flight request completes and responds before shutdown.
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.requestId, 1u);
    daemon.daemon->waitStopped();
}

} // namespace
} // namespace branchlab::serve
