/**
 * @file
 * Design-space sweep driver: evaluate the paper's schemes over a grid
 * of pipeline / BTB / counter / Forward-Semantic configurations.
 *
 *   blab_sweep [axis flags] [run flags] [output flags]
 *
 * Axis flags (comma-separated value lists; defaults are the paper's
 * design point):
 *   --k LIST --ell LIST --m LIST      pipeline geometry (crossed)
 *   --btb-entries LIST --btb-assoc LIST --btb-policy LIST
 *   --counter-bits LIST --counter-threshold LIST
 *   --fs-slots LIST --trace-threshold LIST
 *   --fs-opt LIST      optimizer levels (none|slots|superblock|hoist,
 *                      or "all")
 *
 * Run flags:
 *   --workloads LIST   benchmark names (default: the Table 1 suite)
 *   --runs N --seed S --jobs N --trace-cache DIR
 *   --journal DIR      persist per-point results; an interrupted
 *                      sweep rerun with the same journal resumes
 *                      without re-evaluating completed points
 *   --sweep-journal-max-bytes N
 *                      cap the journal store (LRU eviction; also
 *                      BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES)
 *   --max-points N     stop after evaluating N points this run
 *                      (journalled points do not count); the CI
 *                      resume test uses this to interrupt a sweep
 *
 * Output flags:
 *   --json FILE --csv FILE --telemetry FILE
 *   --list             print the expanded grid and exit without
 *                      running anything
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"

using namespace branchlab;

namespace
{

int
usage()
{
    std::cerr
        << "usage: blab_sweep [options]\n"
           "axes (comma-separated lists):\n"
           "  --k LIST --ell LIST --m LIST\n"
           "  --btb-entries LIST --btb-assoc LIST --btb-policy LIST\n"
           "  --counter-bits LIST --counter-threshold LIST\n"
           "  --fs-slots LIST --trace-threshold LIST\n"
           "  --fs-opt LIST (none|slots|superblock|hoist|all)\n"
           "run control:\n"
           "  --workloads LIST --runs N --seed S --jobs N\n"
           "  --trace-cache DIR --trace-cache-max-bytes N\n"
           "  --journal DIR --sweep-journal-max-bytes N\n"
           "  --max-points N\n"
           "output:\n"
           "  --json FILE --csv FILE --telemetry FILE --list\n";
    return 2;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::istringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ',')) {
        if (!item.empty())
            items.push_back(item);
    }
    if (items.empty())
        blab_fatal("empty value list '", text, "'");
    return items;
}

template <typename T>
std::vector<T>
parseNumberList(const std::string &flag, const std::string &text)
{
    std::vector<T> values;
    for (const std::string &item : splitList(text))
        values.push_back(parseOptionNumber<T>(flag, item));
    return values;
}

std::vector<double>
parseDoubleList(const std::string &flag, const std::string &text)
{
    std::vector<double> values;
    for (const std::string &item : splitList(text)) {
        try {
            std::size_t used = 0;
            const double value = std::stod(item, &used);
            if (used != item.size())
                throw std::invalid_argument(item);
            values.push_back(value);
        } catch (const std::exception &) {
            blab_fatal("value for ", flag,
                       " must be a real number, got '", item, "'");
        }
    }
    return values;
}

struct Options
{
    std::vector<unsigned> k = {1};
    std::vector<unsigned> ell = {1};
    std::vector<unsigned> m = {1};
    core::SweepAxes axes;
    core::SweepConfig sweep;
    std::string jsonPath;
    std::string csvPath;
    std::string telemetry;
    bool listOnly = false;
};

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&]() -> std::string {
            if (i + 1 >= argc)
                blab_fatal("missing value for ", arg);
            return argv[++i];
        };
        const auto need_numbers = [&](auto &list) {
            using Value = typename std::remove_reference_t<
                decltype(list)>::value_type;
            list = parseNumberList<Value>(arg, need_value());
        };
        const auto need_number = [&](auto &field) {
            field = parseOptionNumber<std::remove_reference_t<
                decltype(field)>>(arg, need_value());
        };
        if (arg == "--k")
            need_numbers(options.k);
        else if (arg == "--ell")
            need_numbers(options.ell);
        else if (arg == "--m")
            need_numbers(options.m);
        else if (arg == "--btb-entries") {
            need_numbers(options.axes.btbEntries);
        } else if (arg == "--btb-assoc") {
            need_numbers(options.axes.btbAssociativity);
        } else if (arg == "--btb-policy") {
            options.axes.btbPolicies.clear();
            for (const std::string &name : splitList(need_value()))
                options.axes.btbPolicies.push_back(
                    predict::parsePolicy(name));
        } else if (arg == "--counter-bits") {
            need_numbers(options.axes.counterBits);
        } else if (arg == "--counter-threshold") {
            need_numbers(options.axes.counterThresholds);
        } else if (arg == "--fs-slots") {
            need_numbers(options.axes.fsSlots);
        } else if (arg == "--trace-threshold") {
            options.axes.traceThresholds =
                parseDoubleList(arg, need_value());
        } else if (arg == "--fs-opt") {
            options.axes.fsOptLevels.clear();
            for (const std::string &name : splitList(need_value())) {
                if (name == "all") {
                    for (const profile::FsOptLevel level :
                         profile::allFsOptLevels())
                        options.axes.fsOptLevels.push_back(level);
                } else {
                    options.axes.fsOptLevels.push_back(
                        profile::parseFsOptLevel(name));
                }
            }
        } else if (arg == "--workloads") {
            options.sweep.workloads = splitList(need_value());
        } else if (arg == "--runs") {
            need_number(options.sweep.base.runsOverride);
        } else if (arg == "--seed") {
            need_number(options.sweep.base.seed);
        } else if (arg == "--jobs") {
            options.sweep.base.jobs = parseJobsOption(arg, need_value());
        } else if (arg == "--trace-cache") {
            options.sweep.base.traceCacheDir = need_value();
        } else if (arg == "--trace-cache-max-bytes") {
            need_number(options.sweep.base.traceCacheMaxBytes);
        } else if (arg == "--journal") {
            options.sweep.journalDir = need_value();
        } else if (arg == "--sweep-journal-max-bytes") {
            need_number(options.sweep.journalMaxBytes);
        } else if (arg == "--max-points") {
            need_number(options.sweep.maxPoints);
        } else if (arg == "--json") {
            options.jsonPath = need_value();
        } else if (arg == "--csv") {
            options.csvPath = need_value();
        } else if (arg == "--telemetry") {
            options.telemetry = need_value();
        } else if (arg == "--list") {
            options.listOnly = true;
        } else if (arg == "--help" || arg == "-h") {
            std::exit(usage());
        } else {
            blab_fatal("unknown option '", arg, "'");
        }
    }

    // Cross the k/ell/m lists into the pipeline axis.
    options.axes.pipelines.clear();
    for (const unsigned k : options.k) {
        for (const unsigned ell : options.ell) {
            for (const unsigned m : options.m) {
                pipeline::PipelineConfig pipe;
                pipe.k = k;
                pipe.ell = ell;
                pipe.m = m;
                options.axes.pipelines.push_back(pipe);
            }
        }
    }
    options.sweep.axes = options.axes;
    return options;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream file(path, std::ios::trunc);
    if (!file)
        blab_fatal("cannot write '", path, "'");
    file << content;
}

/** Everything after option parsing; @return the exit status. */
int
run(const Options &options)
{
    if (options.listOnly) {
        const std::vector<core::SweepPoint> grid =
            core::expandGrid(options.sweep.axes);
        for (const core::SweepPoint &point : grid)
            std::cout << point.index << "  " << point.label() << "\n";
        std::cout << grid.size() << " point(s)\n";
        return 0;
    }

    const core::SweepResult result = core::runSweep(options.sweep);

    std::cout << "== Sweep grid ==\n";
    core::makeSweepGridTable(result).render(std::cout);
    std::cout << "\n== Best/worst per scheme (mean cost) ==\n";
    core::makeSweepExtremesTable(result).render(std::cout);
    const TextTable sensitivity =
        core::makeSweepSensitivityTable(result);
    if (sensitivity.numRows() > 0) {
        std::cout << "\n== Axis sensitivity (Table 4 style) ==\n";
        sensitivity.render(std::cout);
    }
    std::cout << "\n"
              << result.points.size() << " point(s): "
              << result.stats.evaluated << " evaluated, "
              << result.stats.resumed << " resumed from journal; "
              << result.stats.recordPasses << " record pass(es), "
              << result.stats.traceCacheHits
              << " trace-cache hit(s); "
              << formatFixed(result.stats.elapsedSeconds, 2)
              << " s\n";

    if (!options.jsonPath.empty())
        writeFile(options.jsonPath, core::sweepToJson(result));
    if (!options.csvPath.empty())
        writeFile(options.csvPath, core::sweepToCsv(result));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setLoggingThrows(false); // CLI: fatal() exits with a message
    obs::initFromEnv();      // BRANCHLAB_TELEMETRY
    const Options options = parseOptions(argc, argv);
    const int rc = run(options);
    // --telemetry wins over the environment; either exports the final
    // snapshot once the sweep has fully run.
    if (!options.telemetry.empty())
        obs::setExportPath(options.telemetry);
    obs::exportIfConfigured();
    return rc;
}
