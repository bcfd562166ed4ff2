/**
 * @file
 * The BranchLab command-line tool: record benchmark branch traces to
 * disk, replay them through any scheme, and print the paper's tables
 * without writing code.
 *
 *   branchlab list
 *   branchlab stats  <benchmark> [--runs N] [--seed S]
 *   branchlab record <benchmark> -o trace.bltc [--runs N] [--seed S]
 *   branchlab replay <trace.bltc> --scheme <name> [--flush-every Q]
 *   branchlab tables [--runs N] [--seed S]
 *   branchlab figures [--runs N] [--seed S]
 *   branchlab client --connect ADDR [--workloads a,b,...]
 *                    [--repeat N] [--runs N] [--seed S] [-o FILE]
 *                    [--expect-all-hits]
 *
 * `client` drives a running branchlabd (tools/branchlabd): one
 * experiment request per named workload per repeat round, at the
 * paper's design point. -o writes a canonical full-precision dump of
 * the served cells (no hit flags), so two rounds against a warm
 * store must compare byte-identical.
 *
 * A trace file is a BLTC entry (trace/format.hh), byte for byte the
 * one the trace cache stores for the same workload: `record` writes
 * it through the cache's durable writer, and `replay` maps it with
 * the cache's validation, holding it to the content hash its own
 * header declares.
 *
 * Scheme names: sbtb, cbtb, gshare, always-taken, always-not-taken,
 * btfnt, opcode-bias, fs (fs predicts from the likely map the trace
 * file stores, profiled over that very stream -- the paper's
 * same-inputs methodology).
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/figures.hh"
#include "core/runner.hh"
#include "core/tables.hh"
#include "obs/metrics.hh"
#include "pipeline/cost_model.hh"
#include "predict/flushing.hh"
#include "predict/gshare.hh"
#include "predict/profile_predictor.hh"
#include "predict/static_predictors.hh"
#include "serve/client.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"
#include "trace/cache.hh"

using namespace branchlab;

namespace
{

int
usage()
{
    std::cerr
        << "usage:\n"
           "  branchlab list\n"
           "  branchlab stats  <benchmark> [--runs N] [--seed S]\n"
           "  branchlab record <benchmark> -o FILE [--runs N] "
           "[--seed S]\n"
           "  branchlab replay <FILE> --scheme NAME "
           "[--flush-every Q]\n"
           "  branchlab tables [--runs N] [--seed S] [--jobs N]\n"
           "  branchlab figures [--runs N] [--seed S] [--jobs N]\n"
           "  branchlab client --connect ADDR [--workloads a,b,...] "
           "[--repeat N] [--runs N] [--seed S] [-o FILE] "
           "[--expect-all-hits]\n"
           "schemes: sbtb cbtb gshare always-taken always-not-taken "
           "btfnt opcode-bias fs\n"
           "--jobs defaults to BRANCHLAB_JOBS, then the hardware "
           "concurrency\n"
           "--trace-cache DIR caches recorded streams on disk "
           "(default: BRANCHLAB_TRACE_CACHE)\n"
           "--trace-cache-max-bytes N evicts LRU cache entries past N "
           "bytes (default: BRANCHLAB_TRACE_CACHE_MAX_BYTES; 0 = "
           "unbounded)\n"
           "--telemetry FILE writes the metrics snapshot as JSON on "
           "exit (also: BRANCHLAB_TELEMETRY=FILE; set it to 0/off to "
           "disable collection)\n";
    return 2;
}

struct Options
{
    unsigned runs = 0;
    std::uint64_t seed = 0;
    unsigned jobs = 0;
    std::string output;
    std::string scheme;
    std::uint64_t flushEvery = 0;
    std::string traceCache;
    std::uint64_t traceCacheMaxBytes = 0;
    std::string telemetry;
    std::string connect;
    std::string workloads;
    unsigned repeat = 1;
    bool expectAllHits = false;
};

Options
parseOptions(int argc, char **argv, int first)
{
    Options options;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&]() -> std::string {
            if (i + 1 >= argc)
                blab_fatal("missing value for ", arg);
            return argv[++i];
        };
        const auto need_number = [&](auto &field) {
            field = parseOptionNumber<std::remove_reference_t<
                decltype(field)>>(arg, need_value());
        };
        if (arg == "--runs")
            need_number(options.runs);
        else if (arg == "--seed")
            need_number(options.seed);
        else if (arg == "--jobs")
            options.jobs = parseJobsOption(arg, need_value());
        else if (arg == "-o" || arg == "--output")
            options.output = need_value();
        else if (arg == "--scheme")
            options.scheme = need_value();
        else if (arg == "--flush-every")
            need_number(options.flushEvery);
        else if (arg == "--trace-cache")
            options.traceCache = need_value();
        else if (arg == "--trace-cache-max-bytes")
            need_number(options.traceCacheMaxBytes);
        else if (arg == "--telemetry")
            options.telemetry = need_value();
        else if (arg == "--connect")
            options.connect = need_value();
        else if (arg == "--workloads")
            options.workloads = need_value();
        else if (arg == "--repeat")
            need_number(options.repeat);
        else if (arg == "--expect-all-hits")
            options.expectAllHits = true;
        else
            blab_fatal("unknown option '", arg, "'");
    }
    return options;
}

core::ExperimentConfig
makeConfig(const Options &options)
{
    core::ExperimentConfig config;
    if (options.runs != 0)
        config.runsOverride = options.runs;
    if (options.seed != 0)
        config.seed = options.seed;
    config.jobs = options.jobs;
    config.traceCacheDir = options.traceCache;
    config.traceCacheMaxBytes = options.traceCacheMaxBytes;
    return config;
}

std::unique_ptr<predict::BranchPredictor>
makeScheme(const std::string &name,
           const std::vector<trace::CachedLikely> &likely)
{
    if (name == "sbtb")
        return std::make_unique<predict::SimpleBtb>();
    if (name == "cbtb")
        return std::make_unique<predict::CounterBtb>();
    if (name == "gshare")
        return std::make_unique<predict::GsharePredictor>();
    if (name == "always-taken")
        return std::make_unique<predict::AlwaysTaken>();
    if (name == "always-not-taken")
        return std::make_unique<predict::AlwaysNotTaken>();
    if (name == "btfnt")
        return std::make_unique<predict::BackwardTaken>();
    if (name == "opcode-bias")
        return std::make_unique<predict::OpcodeBias>();
    if (name == "fs") {
        return std::make_unique<predict::ProfilePredictor>(
            core::cachedToLikely(likely));
    }
    blab_fatal("unknown scheme '", name, "'");
}

int
cmdList()
{
    for (const workloads::Workload *workload : workloads::allWorkloads()) {
        std::cout << workload->name() << "\t"
                  << workload->inputDescription() << "\n";
    }
    return 0;
}

int
cmdStats(const std::string &name, const Options &options)
{
    core::ExperimentRunner runner(makeConfig(options));
    const core::BenchmarkResult result =
        runner.runBenchmark(workloads::findWorkload(name));
    TextTable table({"Metric", "Value"});
    table.addRow({"runs", std::to_string(result.runs)});
    table.addRow({"static size", std::to_string(result.staticSize)});
    table.addRow({"dynamic instructions",
                  std::to_string(result.stats.instructions())});
    table.addRow({"dynamic branches",
                  std::to_string(result.stats.branches())});
    table.addRow({"control fraction",
                  formatPercent(result.stats.controlFraction(), 1)});
    table.addRow({"A_SBTB", formatPercent(result.sbtb.accuracy, 2)});
    table.addRow({"A_CBTB", formatPercent(result.cbtb.accuracy, 2)});
    table.addRow({"A_FS", formatPercent(result.fs.accuracy, 2)});
    table.render(std::cout);
    return 0;
}

int
cmdRecord(const std::string &name, const Options &options)
{
    if (options.output.empty())
        blab_fatal("record needs -o FILE");
    core::RecordedWorkload recorded = core::recordWorkload(
        workloads::findWorkload(name), makeConfig(options));
    const trace::CachedWorkload entry = core::takeCacheEntry(recorded);
    std::uint64_t bytes = 0;
    std::string error;
    if (!trace::writeEntryFile(options.output, entry, bytes, error))
        blab_fatal("cannot write '", options.output, "': ", error);
    std::cout << "wrote " << entry.stream.size() << " events to "
              << options.output << "\n";
    return 0;
}

int
cmdReplay(const std::string &path, const Options &options)
{
    if (options.scheme.empty())
        blab_fatal("replay needs --scheme NAME");
    // A standalone file has no lookup key: its own header's content
    // hash (covered by the header checksum) is the one it must match.
    trace::CachedWorkload entry;
    std::string error;
    trace::MapFailure failure = trace::MapFailure::None;
    if (!trace::mapEntryFile(path, std::nullopt, entry, error, failure))
        blab_fatal("cannot read trace file '", path, "': ", error);
    std::unique_ptr<predict::BranchPredictor> scheme =
        makeScheme(options.scheme, entry.likely);
    predict::BranchPredictor *predictor = scheme.get();
    std::unique_ptr<predict::FlushingPredictor> flushed;
    if (options.flushEvery != 0) {
        flushed = std::make_unique<predict::FlushingPredictor>(
            *scheme, options.flushEvery);
        predictor = flushed.get();
    }
    const double a =
        core::replay(entry.traceView(), *predictor).accuracy;
    std::cout << predictor->name() << " over " << entry.eventCount()
              << " branches:\n"
              << "  accuracy          " << formatPercent(a, 2) << "\n"
              << "  cost @ depth 4    "
              << formatFixed(pipeline::branchCost(a, 4.0), 3) << "\n"
              << "  cost @ depth 10   "
              << formatFixed(pipeline::branchCost(a, 10.0), 3) << "\n";
    return 0;
}

int
cmdTables(const Options &options)
{
    core::ExperimentRunner runner(makeConfig(options));
    std::cerr << "running the suite...\n";
    const std::vector<core::BenchmarkResult> results = runner.runAll();
    const auto print = [](const char *title, const TextTable &table) {
        std::cout << "\n" << title << "\n";
        table.render(std::cout);
    };
    print("Table 1: benchmark characteristics",
          core::makeTable1(results));
    print("Table 2: branch statistics", core::makeTable2(results));
    print("Table 3: prediction performance",
          core::makeTable3(results));
    print("Table 4: branch cost (k+l=2,3; m=1)",
          core::makeTable4(results));
    print("Table 5: code-size increase", core::makeTable5(results));
    print("Static schemes (section 1)",
          core::makeStaticSchemeTable(results));
    return 0;
}

int
cmdFigures(const Options &options)
{
    core::ExperimentRunner runner(makeConfig(options));
    std::cerr << "running the suite...\n";
    const std::vector<core::BenchmarkResult> results = runner.runAll();
    for (unsigned k : {1u, 2u, 4u, 8u}) {
        const core::FigurePanel panel =
            core::makeFigurePanel(results, k);
        std::cout << "\nFigure " << (k <= 2 ? 3 : 4) << " panel, k = "
                  << k << ":\n";
        core::panelTable(panel).render(std::cout);
        std::cout << "\n" << core::renderAsciiChart(panel);
    }
    return 0;
}

int
cmdClient(const Options &options)
{
    if (options.connect.empty())
        blab_fatal("client needs --connect ADDR");
    if (options.runs > serve::kMaxRequestRuns)
        blab_fatal("client --runs is at most ", serve::kMaxRequestRuns);
    std::vector<std::string> names;
    if (options.workloads.empty()) {
        for (const workloads::Workload *workload :
             workloads::allWorkloads()) {
            names.push_back(workload->name());
        }
    } else {
        std::istringstream stream(options.workloads);
        std::string name;
        while (std::getline(stream, name, ','))
            if (!name.empty())
                names.push_back(name);
    }
    if (names.empty())
        blab_fatal("client needs at least one workload");

    serve::Client client(options.connect);
    std::size_t ok = 0, hits = 0, rejects = 0, errors = 0;
    std::size_t sent = 0;
    std::ostringstream dump;
    dump.precision(17);
    for (unsigned round = 0; round < options.repeat; ++round) {
        for (const std::string &name : names) {
            serve::Request request;
            request.requestId = ++sent;
            if (options.seed != 0)
                request.seed = options.seed;
            request.runs = options.runs;
            request.workloads = {name};
            serve::Response response = client.call(request);
            // Backpressure is a protocol answer, not a failure:
            // honour the retry hint a bounded number of times.
            for (int retry = 0;
                 response.status == serve::ResponseStatus::Reject &&
                 retry < 100;
                 ++retry) {
                ++rejects;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        response.retryAfterMs == 0
                            ? 10
                            : response.retryAfterMs));
                response = client.call(request);
            }
            switch (response.status) {
              case serve::ResponseStatus::Ok:
                ++ok;
                if (response.cacheHit)
                    ++hits;
                // The dump is cache-hit-agnostic on purpose: a cold
                // and a warm round must be byte-identical.
                for (const core::SweepCell &cell : response.cells) {
                    dump << name << ' ' << cell.sbtbAccuracy << ' '
                         << cell.sbtbMissRatio << ' '
                         << cell.cbtbAccuracy << ' '
                         << cell.cbtbMissRatio << ' '
                         << cell.fsAccuracy << ' '
                         << cell.codeIncrease << '\n';
                }
                break;
              case serve::ResponseStatus::Error:
                ++errors;
                std::cerr << "error for " << name << ": "
                          << response.message << "\n";
                break;
              case serve::ResponseStatus::Reject:
                ++errors;
                std::cerr << "gave up on " << name
                          << " after repeated rejects\n";
                break;
              case serve::ResponseStatus::Draining:
                ++errors;
                std::cerr << "server is draining\n";
                break;
            }
        }
    }
    if (!options.output.empty()) {
        std::ofstream out(options.output,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            blab_fatal("cannot write ", options.output);
        out << dump.str();
    }
    std::cout << "requests=" << sent << " ok=" << ok
              << " hits=" << hits << " rejects=" << rejects
              << " errors=" << errors << "\n";
    if (errors != 0)
        return 1;
    if (options.expectAllHits && hits != ok) {
        std::cerr << "expected every request to hit the store, got "
                  << hits << "/" << ok << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setLoggingThrows(false); // CLI: fatal() exits with a message
    obs::initFromEnv();      // BRANCHLAB_TELEMETRY
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    Options options;
    int rc = 2;
    if (command == "list") {
        rc = cmdList();
    } else if (command == "stats" && argc >= 3) {
        options = parseOptions(argc, argv, 3);
        rc = cmdStats(argv[2], options);
    } else if (command == "record" && argc >= 3) {
        options = parseOptions(argc, argv, 3);
        rc = cmdRecord(argv[2], options);
    } else if (command == "replay" && argc >= 3) {
        options = parseOptions(argc, argv, 3);
        rc = cmdReplay(argv[2], options);
    } else if (command == "tables") {
        options = parseOptions(argc, argv, 2);
        rc = cmdTables(options);
    } else if (command == "figures") {
        options = parseOptions(argc, argv, 2);
        rc = cmdFigures(options);
    } else if (command == "client") {
        options = parseOptions(argc, argv, 2);
        rc = cmdClient(options);
    } else {
        return usage();
    }
    // --telemetry wins over the environment; either exports the final
    // snapshot once the command has fully run.
    if (!options.telemetry.empty())
        obs::setExportPath(options.telemetry);
    obs::exportIfConfigured();
    return rc;
}
