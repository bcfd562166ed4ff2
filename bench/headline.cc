/**
 * @file
 * Reproduces the abstract's headline comparison: branch cost of the
 * Forward Semantic vs the best hardware scheme on a moderately
 * pipelined processor (5-stage, flush depth k + l-bar + m-bar = 4)
 * and a highly pipelined one (11-stage, flush depth 10).
 *
 * Paper: 1.19 (FS) vs 1.23 (best hardware) at 5 stages;
 *        1.65 (FS) vs 1.68 (best hardware) at 11 stages.
 * The claim to reproduce is the *ordering*: FS matches or beats the
 * better of SBTB/CBTB at both depths.
 */

#include "bench_common.hh"

#include "pipeline/cost_model.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    const double a_sbtb = core::averageAccuracy(results, "SBTB");
    const double a_cbtb = core::averageAccuracy(results, "CBTB");
    const double a_fs = core::averageAccuracy(results, "FS");

    bench::printCaption("Headline: cycles per branch, FS vs hardware");
    TextTable table({"Pipeline", "flush", "SBTB", "CBTB", "best HW",
                     "FS", "FS wins?"});
    for (const auto &[label, depth] :
         std::vector<std::pair<std::string, double>>{
             {"5-stage (moderate)", 4.0}, {"11-stage (deep)", 10.0}}) {
        const double c_s = pipeline::branchCost(a_sbtb, depth);
        const double c_c = pipeline::branchCost(a_cbtb, depth);
        const double c_f = pipeline::branchCost(a_fs, depth);
        const double best_hw = std::min(c_s, c_c);
        table.addRow({label, formatFixed(depth, 0), formatFixed(c_s, 2),
                      formatFixed(c_c, 2), formatFixed(best_hw, 2),
                      formatFixed(c_f, 2),
                      c_f <= best_hw ? "yes" : "no"});
    }
    table.render(std::cout);
    std::cout << "\nPaper: 5-stage 1.19 (FS) vs 1.23 (best HW); "
                 "11-stage 1.65 vs 1.68.\n";
    return 0;
}
