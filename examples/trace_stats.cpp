/**
 * @file
 * Inspect a single benchmark's dynamic branch behaviour: run one
 * workload (name from argv, default 'wc') over its input suite and
 * print its Table 1/2-style statistics plus the per-scheme accuracy
 * -- the quickest way to see what a workload actually does.
 *
 * Run:  ./build/examples/trace_stats [benchmark-name]
 */

#include <iostream>

#include "core/runner.hh"
#include "core/tables.hh"
#include "support/table.hh"

using namespace branchlab;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "wc";

    std::cerr << "running '" << name << "'...\n";
    core::ExperimentRunner runner;
    const core::BenchmarkResult result =
        runner.runBenchmark(workloads::findWorkload(name));

    std::cout << "\nBenchmark: " << result.name << " ("
              << result.runs << " runs, " << result.staticSize
              << " static instructions)\n\n";

    TextTable dynamics({"Metric", "Value"});
    dynamics.setAlign(1, TextTable::Align::Right);
    dynamics.addRow({"dynamic instructions",
                     std::to_string(result.stats.instructions())});
    dynamics.addRow({"dynamic branches",
                     std::to_string(result.stats.branches())});
    dynamics.addRow({"control fraction",
                     formatPercent(result.stats.controlFraction(), 1)});
    dynamics.addRow(
        {"instructions / branch",
         formatFixed(result.stats.instructionsPerBranch(), 2)});
    dynamics.addRow(
        {"conditional taken",
         formatPercent(result.stats.conditionalTakenFraction(), 1)});
    dynamics.addRow(
        {"unconditional known-target",
         formatPercent(result.stats.unconditionalKnownFraction(), 1)});
    dynamics.render(std::cout);

    std::cout << "\nPrediction schemes:\n";
    TextTable schemes({"Scheme", "A", "miss ratio"});
    schemes.addRow({"SBTB", formatPercent(result.sbtb.accuracy, 1),
                    formatFixed(result.sbtb.missRatio, 3)});
    schemes.addRow({"CBTB", formatPercent(result.cbtb.accuracy, 1),
                    formatFixed(result.cbtb.missRatio, 4)});
    schemes.addRow({"Forward Semantic",
                    formatPercent(result.fs.accuracy, 1), "-"});
    for (const core::SchemeResult &scheme : result.staticSchemes) {
        schemes.addRow({scheme.scheme,
                        formatPercent(scheme.accuracy, 1), "-"});
    }
    schemes.render(std::cout);

    std::cout << "\nForward Semantic code growth:\n";
    for (const auto &[slots, increase] : result.codeIncrease) {
        std::cout << "  k+l=" << slots << ": "
                  << formatPercent(increase, 2) << "\n";
    }
    return 0;
}
