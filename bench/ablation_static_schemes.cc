/**
 * @file
 * Reproduces the accuracy survey of the paper's introduction for the
 * static (state-free) schemes on our suite:
 *
 *   - always taken:    63-77% across the studies the paper cites;
 *   - BTFNT:           76.5% average in J. E. Smith's study;
 *   - opcode bias:     66.2% [3] to 86.7% [4].
 *
 * Shape to check: every static scheme trails all three paper schemes
 * (Table 3), which is why the paper dismisses them for deep pipes.
 */

#include "bench_common.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    bench::printCaption(
        "Static prediction schemes (paper section 1 survey)");
    core::makeStaticSchemeTable(results).render(std::cout);

    std::cout << "\nFor reference, the paper's three schemes on the "
                 "same runs:\n  A_SBTB "
              << formatPercent(core::averageAccuracy(results, "SBTB"), 1)
              << "  A_CBTB "
              << formatPercent(core::averageAccuracy(results, "CBTB"), 1)
              << "  A_FS "
              << formatPercent(core::averageAccuracy(results, "FS"), 1)
              << "\n";
    return 0;
}
