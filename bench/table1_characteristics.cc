/**
 * @file
 * Reproduces Table 1: benchmark characteristics (static size, runs,
 * dynamic instruction count, fraction of control instructions) plus
 * the paper's in-text observation that "the number of dynamic
 * instructions between dynamic branches is small (about four)".
 */

#include "bench_common.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    bench::printCaption("Table 1: Benchmark characteristics");
    core::makeTable1(results).render(std::cout);

    double ipb = 0.0;
    for (const auto &r : results)
        ipb += r.stats.instructionsPerBranch();
    ipb /= static_cast<double>(results.size());
    std::cout << "\nAverage dynamic instructions between branches: "
              << formatFixed(ipb, 1)
              << "  (paper: \"about four\")\n";
    return 0;
}
