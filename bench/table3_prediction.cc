/**
 * @file
 * Reproduces Table 3: SBTB/CBTB miss ratios and the prediction
 * accuracy of all three schemes per benchmark, with average and
 * standard-deviation rows.
 *
 * Paper shapes to check: rho_SBTB (~0.48) is orders of magnitude
 * larger than rho_CBTB (~0.005); average accuracy orders
 * FS >= CBTB >= SBTB and all three land in the high-80s/low-90s.
 */

#include "bench_common.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    bench::printCaption(
        "Table 3: Branch prediction performance of the benchmarks");
    core::makeTable3(results).render(std::cout);

    std::cout << "\nPaper averages: rho_SBTB 0.48, A_SBTB 91.5%, "
                 "rho_CBTB 0.0053, A_CBTB 92.4%, A_FS 93.5%\n";
    return 0;
}
