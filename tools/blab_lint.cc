/**
 * @file
 * blab_lint: run the analysis-layer diagnostics over benchmark
 * programs and their Forward Semantic images.
 *
 *   blab_lint [benchmark...] [options]
 *
 * With no benchmarks named, lints all ten paper workloads. For each
 * benchmark the tool verifies the program, runs every program rule,
 * then profiles the benchmark and runs the FS-image rules over the
 * transformed image at each requested slot count.
 *
 * Options:
 *   --Werror          promote warnings to errors (exit 1 on any)
 *   --min-severity S  drop diagnostics below note|warning|error
 *   --json            emit a JSON array instead of text lines
 *   --fix-preview     emit JSON with per-diagnostic "span" objects
 *                     naming the offending instruction range
 *   --rules A,B,...   run only the named rules
 *   --list-rules      print the registered rules and exit
 *   --slots K[,K...]  FS slot counts to lint (default 2,8)
 *   --fs-opt L[,L...] optimizer levels to lint the images at
 *                     (none|slots|superblock|hoist; default none)
 *   --no-images       skip the FS-image checks
 *   --runs N          profiling runs per benchmark (default 1)
 *   --seed S          input-suite seed (default 1989)
 *
 * Exit status: 0 clean, 1 when any (post-promotion) error was
 * reported, 2 on usage errors.
 */

#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "ir/layout.hh"
#include "ir/verifier.hh"
#include "profile/fs_opt.hh"
#include "profile/profile.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "vm/machine.hh"
#include "vm/predecode.hh"
#include "workloads/workload.hh"

using namespace branchlab;

namespace
{

int
usage()
{
    std::cerr
        << "usage: blab_lint [benchmark...] [options]\n"
           "  --Werror          promote warnings to errors\n"
           "  --min-severity S  drop diagnostics below "
           "note|warning|error\n"
           "  --json            emit a JSON array\n"
           "  --fix-preview     emit JSON with per-diagnostic "
           "\"span\" objects\n"
           "  --rules A,B,...   run only the named rules\n"
           "  --list-rules      print registered rules and exit\n"
           "  --slots K[,K...]  FS slot counts to lint (default 2,8)\n"
           "  --fs-opt L[,L...] optimizer levels "
           "(none|slots|superblock|hoist; default none)\n"
           "  --no-images       skip the FS-image checks\n"
           "  --runs N          profiling runs per benchmark "
           "(default 1)\n"
           "  --seed S          input-suite seed (default 1989)\n"
           "with no benchmark, lints all ten paper workloads\n";
    return 2;
}

struct Options
{
    std::vector<std::string> benchmarks;
    std::vector<std::string> rules;
    std::vector<unsigned> slots{2, 8};
    std::vector<profile::FsOptLevel> fsOptLevels{
        profile::FsOptLevel::None};
    analysis::LintOptions lint;
    bool json = false;
    bool fixPreview = false;
    bool listRules = false;
    bool images = true;
    unsigned runs = 1;
    std::uint64_t seed = 1989;
};

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--Werror") {
            opts.lint.warningsAsErrors = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--fix-preview") {
            opts.fixPreview = true;
        } else if (arg == "--list-rules") {
            opts.listRules = true;
        } else if (arg == "--no-images") {
            opts.images = false;
        } else if (arg == "--min-severity") {
            const char *value = next();
            if (value == nullptr)
                return false;
            if (std::strcmp(value, "note") == 0)
                opts.lint.minSeverity = analysis::Severity::Note;
            else if (std::strcmp(value, "warning") == 0)
                opts.lint.minSeverity = analysis::Severity::Warning;
            else if (std::strcmp(value, "error") == 0)
                opts.lint.minSeverity = analysis::Severity::Error;
            else
                return false;
        } else if (arg == "--rules") {
            const char *value = next();
            if (value == nullptr)
                return false;
            opts.rules = splitList(value);
        } else if (arg == "--slots") {
            const char *value = next();
            if (value == nullptr)
                return false;
            opts.slots.clear();
            for (const std::string &item : splitList(value))
                opts.slots.push_back(parseOptionNumber<unsigned>(arg, item));
            if (opts.slots.empty())
                return false;
        } else if (arg == "--fs-opt") {
            const char *value = next();
            if (value == nullptr)
                return false;
            opts.fsOptLevels.clear();
            for (const std::string &item : splitList(value))
                opts.fsOptLevels.push_back(
                    profile::parseFsOptLevel(item));
            if (opts.fsOptLevels.empty())
                return false;
        } else if (arg == "--runs") {
            const char *value = next();
            if (value == nullptr)
                return false;
            opts.runs = parseOptionNumber<unsigned>(arg, value);
        } else if (arg == "--seed") {
            const char *value = next();
            if (value == nullptr)
                return false;
            opts.seed = parseOptionNumber<std::uint64_t>(arg, value);
        } else if (!arg.empty() && arg[0] == '-') {
            return false;
        } else {
            opts.benchmarks.push_back(arg);
        }
    }
    return true;
}

/** Profile @p program over the benchmark's deterministic inputs. */
profile::ProgramProfile
profileWorkload(const workloads::Workload &workload,
                const ir::Program &program, const ir::Layout &layout,
                const Options &opts)
{
    profile::ProgramProfile profile(program, layout);
    Rng rng(opts.seed ^ hashString(workload.name()));
    const auto inputs = workload.makeInputs(rng, opts.runs);
    const vm::PredecodedProgram code(program, layout);
    for (const workloads::WorkloadInput &input : inputs) {
        profile.noteRun();
        vm::Machine machine(code);
        for (std::size_t c = 0; c < input.channels.size(); ++c)
            machine.setInput(static_cast<int>(c), input.channels[c]);
        machine.setSink(&profile);
        machine.run();
    }
    return profile;
}

/** Prefix each diagnostic's location with the subject it came from. */
void
tagAndCollect(std::vector<analysis::Diagnostic> diags,
              const std::string &subject,
              std::vector<analysis::Diagnostic> &out)
{
    for (analysis::Diagnostic &diag : diags) {
        diag.where = diag.where.empty()
                         ? subject
                         : subject + ": " + diag.where;
        out.push_back(std::move(diag));
    }
}

int
lintBenchmark(const workloads::Workload &workload,
              const analysis::DiagnosticEngine &engine,
              const Options &opts,
              std::vector<analysis::Diagnostic> &out)
{
    const ir::Program program = workload.buildProgram();
    const ir::VerifyResult verdict = ir::verifyProgram(program);
    if (!verdict.ok()) {
        std::cerr << "blab_lint: benchmark '" << workload.name()
                  << "' fails the structural verifier:\n"
                  << verdict.message() << "\n";
        return 1;
    }
    tagAndCollect(engine.lintProgram(program), workload.name(), out);

    if (!opts.images)
        return 0;

    const ir::Layout layout(program);
    const profile::ProgramProfile profile =
        profileWorkload(workload, program, layout, opts);
    for (unsigned slots : opts.slots) {
        for (const profile::FsOptLevel level : opts.fsOptLevels) {
            profile::FsOptConfig config;
            config.fs.slotCount = slots;
            config.level = level;
            const profile::FsOptResult optimized =
                profile::FsOptimizer(profile, config).build();
            const profile::FsVerifyResult fs_verdict =
                profile::verifyFsOptImage(profile, optimized);
            if (!fs_verdict.ok()) {
                std::cerr << "blab_lint: benchmark '"
                          << workload.name() << "' fs image (slots="
                          << slots << ", opt="
                          << profile::fsOptLevelName(level)
                          << ") violates the FS invariants:\n"
                          << fs_verdict.message() << "\n";
                return 1;
            }
            // Level none is the paper's transform: its subject is bare.
            std::string subject =
                workload.name() + "/fs" + std::to_string(slots);
            if (level != profile::FsOptLevel::None)
                subject += std::string("-") +
                           profile::fsOptLevelName(level);
            tagAndCollect(engine.lintFsImage(profile, optimized),
                          subject, out);
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setLoggingThrows(false); // CLI: fatal() exits with a message
    Options opts;
    if (!parseArgs(argc, argv, opts))
        return usage();

    analysis::DiagnosticEngine engine(opts.lint);
    analysis::registerBuiltinRules(engine);

    if (opts.listRules) {
        for (const analysis::LintRule *rule : engine.rules()) {
            std::cout << rule->name() << ": " << rule->description()
                      << "\n";
        }
        return 0;
    }
    if (!opts.rules.empty())
        engine.enableOnly(opts.rules);

    std::vector<const workloads::Workload *> targets;
    if (opts.benchmarks.empty()) {
        targets = workloads::allWorkloads();
    } else {
        for (const std::string &name : opts.benchmarks)
            targets.push_back(&workloads::findWorkload(name));
    }

    std::vector<analysis::Diagnostic> diags;
    for (const workloads::Workload *workload : targets) {
        const int rc = lintBenchmark(*workload, engine, opts, diags);
        if (rc != 0)
            return rc;
    }

    if (opts.fixPreview) {
        std::cout << analysis::renderFixPreviewJson(diags) << "\n";
    } else if (opts.json) {
        std::cout << analysis::renderDiagnosticsJson(diags) << "\n";
    } else {
        std::cout << analysis::renderDiagnosticsText(diags);
        std::cout << "blab_lint: " << targets.size()
                  << " benchmark(s), " << diags.size()
                  << " diagnostic(s)\n";
    }
    return analysis::DiagnosticEngine::hasErrors(diags) ? 1 : 0;
}
