/**
 * @file
 * blbench: BranchLab's benchmark runner. One invocation runs one
 * workload for one seed and prints, last on standard output, a JSON
 * line with the end-to-end metrics (untraced run) or the per-layer
 * metrics (traced run). Results are also written to
 * <work-dir>/out/<workload>-seed<seed>-trace<0|1>.json.
 *
 *   blbench --workload paper-warm --seed 19890528 --seconds 10 \
 *           --trace 0 --work-dir .bench_build --digest-dir perfbench/digests
 *   blbench --make-digests --seed 19890528 ...
 *
 * Exit status: 0 when every output matched its reference and every
 * invariant held; 1 otherwise; 2 on a usage error or when the run is
 * unmeasurable on this host.
 */

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "harness.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "workloads.hh"

namespace
{

using namespace blbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "blbench: " << why
              << "\nusage: blbench --workload "
                 "paper-cold|paper-warm|sweep-grid|serve-zipf --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--digest-dir DIR]\n"
                 "       blbench --make-digests --seed N [--work-dir DIR] "
                 "[--digest-dir DIR]\n";
    std::exit(2);
}

/** Threads a workload runs beside the calling thread's; more than
 *  nproc and the host cannot measure it. */
unsigned
workloadThreads(const std::string &workload)
{
    if (workload == "sweep-grid")
        return kSweepJobs;
    if (workload == "serve-zipf")
        return std::max(kServeWorkers, kServeConnections);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    branchlab::setLoggingThrows(true);
    Options options;
    bool makeDigests = false;
    std::string setupDir;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                options.workload = value();
            else if (arg == "--seed")
                options.seed = std::stoull(value());
            else if (arg == "--seconds")
                options.seconds = std::stod(value());
            else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                options.traced = v == "1";
                haveTrace = true;
            } else if (arg == "--work-dir")
                options.workDir = value();
            else if (arg == "--digest-dir")
                options.digestDir = value();
            else if (arg == "--make-digests")
                makeDigests = true;
            else if (arg == "--setup-into")
                setupDir = value();
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }

    try {
        if (makeDigests) {
            DigestBook book;
            options.workload = "digests";
            makePaperDigests(options, book);
            makeSweepDigests(options, book);
            makeServeDigests(options, book);
            if (!book.save(options, options.seed)) {
                std::cerr << "blbench: cannot write digests\n";
                return 1;
            }
            std::cout << "wrote " << options.digestDir << "/" << options.seed
                      << ".txt\n";
            return 0;
        }
        if (!setupDir.empty()) {
            if (options.workload == "paper-cold" ||
                options.workload == "paper-warm")
                setUpPaper(options, setupDir,
                           options.workload == "paper-cold");
            else if (options.workload == "sweep-grid")
                setUpSweepGrid(options, setupDir);
            else if (options.workload == "serve-zipf")
                setUpServeZipf(options, setupDir);
            else
                usage("unknown workload " + options.workload);
            return 0;
        }
        if (options.workload.empty() || !haveTrace)
            usage("--workload and --trace are required");
        if (options.seconds < 1)
            usage("--seconds must be at least 1");

        const Fingerprint host = hostFingerprint();
        Report report;
        report.line("blbench " + options.workload + " seed " +
                    std::to_string(options.seed) +
                    (options.traced ? " (traced)" : "") + " on " +
                    std::to_string(host.nproc) + " x " + host.cpu + ", " +
                    host.compiler + " " + host.buildType + " [" + host.flags +
                    "]");
        if (workloadThreads(options.workload) > host.nproc) {
            report.unmeasurable(options.workload + " runs " +
                                std::to_string(workloadThreads(
                                    options.workload)) +
                                " threads but this host has nproc " +
                                std::to_string(host.nproc));
        } else if (options.workload == "paper-cold") {
            runPaper(options, report, true);
        } else if (options.workload == "paper-warm") {
            runPaper(options, report, false);
        } else if (options.workload == "sweep-grid") {
            runSweepGrid(options, report);
        } else if (options.workload == "serve-zipf") {
            runServeZipf(options, report);
        } else {
            usage("unknown workload " + options.workload);
        }

        const std::filesystem::path resultsPath =
            std::filesystem::path(options.workDir) / "out" /
            (options.workload + "-seed" + std::to_string(options.seed) +
             "-trace" + (options.traced ? "1" : "0") + ".json");
        std::filesystem::create_directories(resultsPath.parent_path());
        std::ofstream(resultsPath) << report.resultsJson(options, host);

        if (!report.measurable()) {
            std::cout << "unmeasurable on this host; no result printed\n";
            return 2;
        }
        report.printHuman(std::cout);
        std::cout << "results: " << resultsPath.string() << '\n';
        std::cout << report.json() << std::endl;
        return report.correct() ? 0 : 1;
    } catch (const std::exception &error) {
        std::cerr << "blbench: " << error.what() << '\n';
        return 1;
    }
}
