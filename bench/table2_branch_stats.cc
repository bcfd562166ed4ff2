/**
 * @file
 * Reproduces Table 2: per-benchmark conditional taken/not-taken split
 * and unconditional known/unknown-target split, with the averages the
 * paper's text leans on (61% of conditionals not taken; almost all
 * unconditional targets known, cccp being the outlier).
 */

#include "bench_common.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    bench::printCaption("Table 2: Benchmark branch statistics");
    core::makeTable2(results).render(std::cout);

    std::cout << "\nPaper shape: conditionals are mostly not-taken on "
                 "average (61%),\nand cccp is the only benchmark with "
                 "a sizeable unknown-target share (19%).\n";
    return 0;
}
