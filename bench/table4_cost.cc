/**
 * @file
 * Reproduces Table 4: branch cost per benchmark for k + l-bar = 2 and
 * k + l-bar = 3 at m-bar = 1, plus the scaling sentence the paper
 * derives from it: cost grows 7.7% / 6.9% / 5.3% for SBTB / CBTB / FS
 * when the pipeline deepens, so the Forward Semantic scales best.
 */

#include "bench_common.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    bench::printCaption(
        "Table 4: Branch cost for k+l-bar = 2 and 3, m-bar = 1");
    core::makeTable4(results).render(std::cout);

    const std::vector<double> growth =
        core::table4GrowthPercents(results);
    std::cout << "\nAverage % increase in branch cost (2 -> 3):\n"
              << "  SBTB " << formatFixed(growth[0], 1) << "%   CBTB "
              << formatFixed(growth[1], 1) << "%   FS "
              << formatFixed(growth[2], 1) << "%\n"
              << "  (paper: 7.7%, 6.9%, 5.3% -- FS scales best, SBTB "
                 "worst)\n";
    return 0;
}
