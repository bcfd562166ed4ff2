/**
 * @file
 * branchlabd: the content-addressed experiment-serving daemon.
 *
 *   branchlabd --listen unix:/run/branchlabd.sock \
 *              --trace-cache DIR --journal DIR \
 *              [--serve-jobs N] [--max-queue N] \
 *              [--trace-cache-max-bytes N] \
 *              [--sweep-journal-max-bytes N] [--telemetry FILE]
 *
 * Serves experiment requests (see src/serve/protocol.hh) until
 * SIGTERM or SIGINT, then drains gracefully: in-flight requests
 * complete and respond, new frames are answered Draining, and the
 * process exits 0. Point `branchlab client --connect` (or any
 * program speaking the frame protocol) at the listen address.
 *
 * The daemon keeps the library's throwing-fatal semantics: a bad
 * request (unknown workload, malformed config) becomes an Error
 * response on that one connection, never a daemon exit.
 */

#include <csignal>
#include <iostream>
#include <string>

#include "obs/metrics.hh"
#include "serve/daemon.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"

using namespace branchlab;

namespace
{

int
usage()
{
    std::cerr
        << "usage: branchlabd --listen ADDR [options]\n"
           "  --listen ADDR              unix:<path>, "
           "tcp:<host>:<port>, or a bare unix path\n"
           "  --serve-jobs N             worker threads (default: "
           "BRANCHLAB_JOBS, then hardware)\n"
           "  --max-queue N              admitted-request ceiling "
           "before rejects (default 64)\n"
           "  --trace-cache DIR          persistent trace cache "
           "(default: BRANCHLAB_TRACE_CACHE)\n"
           "  --trace-cache-max-bytes N  trace-cache byte cap\n"
           "  --journal DIR              sweep journal: the "
           "content-addressed result store\n"
           "  --sweep-journal-max-bytes N  journal byte cap\n"
           "  --telemetry FILE           write the metrics snapshot "
           "as JSON on exit\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromEnv();

    // A bad option exits with its fatal diagnostic. Serving turns a
    // request's fatal into an Error response, so fatals throw again
    // once the options are parsed (before any thread exists).
    setLoggingThrows(false);
    serve::DaemonConfig config;
    std::string telemetry;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&]() -> const char * {
            if (i + 1 >= argc)
                blab_fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--listen")
            config.listen = need_value();
        else if (arg == "--serve-jobs")
            config.jobs = parseJobsOption(arg, need_value());
        else if (arg == "--max-queue")
            config.maxQueue =
                parseOptionNumber<std::size_t>(arg, need_value());
        else if (arg == "--trace-cache")
            config.service.traceCacheDir = need_value();
        else if (arg == "--trace-cache-max-bytes")
            config.service.traceCacheMaxBytes =
                parseOptionNumber<std::uint64_t>(arg, need_value());
        else if (arg == "--journal")
            config.service.journalDir = need_value();
        else if (arg == "--sweep-journal-max-bytes")
            config.service.journalMaxBytes =
                parseOptionNumber<std::uint64_t>(arg, need_value());
        else if (arg == "--telemetry")
            telemetry = need_value();
        else if (arg == "--help" || arg == "-h")
            return usage();
        else {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage();
        }
    }
    setLoggingThrows(true);

    // Block the shutdown signals BEFORE any thread exists: spawned
    // threads inherit the mask, so sigwait() below is the only
    // consumer and no handler races the drain.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    if (pthread_sigmask(SIG_BLOCK, &signals, nullptr) != 0) {
        std::cerr << "pthread_sigmask failed\n";
        return 1;
    }

    // A fatal while the daemon is built or started (an unparsable or
    // unbindable listen address) ends the process like a bad option:
    // its diagnostic and status 1. The daemon is destroyed, its pool
    // joined, before the handler runs.
    try {
        serve::Daemon daemon(config);
        daemon.start();
        std::cerr << "branchlabd listening on " << daemon.address()
                  << "\n";

        int signal_number = 0;
        sigwait(&signals, &signal_number);
        std::cerr << "branchlabd: caught "
                  << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
                  << ", draining\n";
        daemon.requestDrain();
        daemon.waitStopped();
        std::cerr << "branchlabd: drained\n";
    } catch (const ConfigFailure &failure) {
        std::cerr << failure.what() << std::endl;
        return 1;
    }

    if (!telemetry.empty())
        obs::setExportPath(telemetry);
    obs::exportIfConfigured();
    return 0;
}
