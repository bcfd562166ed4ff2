/**
 * @file
 * Reproduces Figure 3: branch cost vs l-bar + m-bar for k = 1 and
 * k = 2, using the suite-average accuracies from Table 3 (exactly the
 * paper's construction). Prints both the numeric series and an ASCII
 * rendering of each panel.
 *
 * Shapes to check: cost rises linearly in flush depth; the scheme
 * ordering (FS cheapest, SBTB dearest) holds everywhere and the gap
 * widens with depth.
 */

#include "bench_common.hh"

#include "core/figures.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    for (unsigned k : {1u, 2u}) {
        const core::FigurePanel panel =
            core::makeFigurePanel(results, k);
        bench::printCaption("Figure 3 (k = " + std::to_string(k) +
                            "): branch cost vs l-bar + m-bar");
        core::panelTable(panel).render(std::cout);
        std::cout << "\n" << core::renderAsciiChart(panel);
    }
    return 0;
}
