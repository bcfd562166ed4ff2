/**
 * @file
 * Design-space exploration with the paper's cost model: sweep the
 * pipeline shape (k, l, m) and report, per scheme, the branch cost
 * and the overall CPI estimate -- the study a microarchitect would
 * run before choosing how deep to pipeline the fetch unit.
 *
 * Run:  ./build/examples/pipeline_explorer
 */

#include <iostream>

#include "core/runner.hh"
#include "core/tables.hh"
#include "pipeline/cost_model.hh"
#include "support/table.hh"

using namespace branchlab;

int
main()
{
    // Measure scheme accuracies over a slice of the suite (three
    // benchmarks keep this example quick; the bench binaries run all
    // ten).
    core::ExperimentConfig config;
    config.runsOverride = 3;
    core::ExperimentRunner runner(config);
    std::vector<core::BenchmarkResult> results;
    for (const char *name : {"grep", "compress", "yacc"}) {
        std::cerr << "running " << name << "...\n";
        results.push_back(
            runner.runBenchmark(workloads::findWorkload(name)));
    }

    const double a_sbtb = core::averageAccuracy(results, "SBTB");
    const double a_cbtb = core::averageAccuracy(results, "CBTB");
    const double a_fs = core::averageAccuracy(results, "FS");
    double control = 0.0;
    double f_cond = 0.0;
    for (const core::BenchmarkResult &r : results) {
        control += r.stats.controlFraction();
        f_cond += r.stats.conditionalFraction();
    }
    control /= static_cast<double>(results.size());
    f_cond /= static_cast<double>(results.size());

    std::cout << "\nMeasured: A_SBTB=" << formatPercent(a_sbtb, 1)
              << " A_CBTB=" << formatPercent(a_cbtb, 1)
              << " A_FS=" << formatPercent(a_fs, 1)
              << "  control=" << formatPercent(control, 1)
              << " f_cond=" << formatFixed(f_cond, 2) << "\n\n";

    // Sweep the design space. CPI = 1 + control * (cost - 1): every
    // instruction costs a cycle, and each branch adds its excess.
    TextTable table({"k", "l", "m", "flush", "SBTB CPI", "CBTB CPI",
                     "FS CPI", "best"});
    for (unsigned k : {0u, 1u, 2u, 4u}) {
        for (unsigned ell : {1u, 2u, 4u}) {
            for (unsigned m : {1u, 2u, 4u}) {
                pipeline::PipelineConfig pipe;
                pipe.k = k;
                pipe.ell = ell;
                pipe.m = m;
                pipe.fCond = f_cond;
                const double flush = pipe.flushDepth();
                const double cpi_sbtb =
                    1.0 +
                    control * (pipeline::branchCost(a_sbtb, flush) - 1.0);
                const double cpi_cbtb =
                    1.0 +
                    control * (pipeline::branchCost(a_cbtb, flush) - 1.0);
                const double cpi_fs =
                    1.0 +
                    control * (pipeline::branchCost(a_fs, flush) - 1.0);
                const char *best = "FS";
                if (cpi_sbtb < cpi_cbtb && cpi_sbtb < cpi_fs)
                    best = "SBTB";
                else if (cpi_cbtb < cpi_fs)
                    best = "CBTB";
                table.addRow({std::to_string(k), std::to_string(ell),
                              std::to_string(m), formatFixed(flush, 2),
                              formatFixed(cpi_sbtb, 3),
                              formatFixed(cpi_cbtb, 3),
                              formatFixed(cpi_fs, 3), best});
            }
        }
        table.addSeparator();
    }
    table.render(std::cout);
    std::cout << "\nThe gap between schemes widens with depth -- "
                 "Figures 3 and 4's message.\n";
    return 0;
}
