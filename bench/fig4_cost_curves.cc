/**
 * @file
 * Reproduces Figure 4: branch cost vs l-bar + m-bar for k = 4 and
 * k = 8 (the deep-fetch-pipeline panels). As the instruction fetch
 * pipeline lengthens, both the overall cost and the gap between the
 * schemes increase -- the paper's central scaling observation.
 */

#include "bench_common.hh"

#include "core/figures.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    for (unsigned k : {4u, 8u}) {
        const core::FigurePanel panel =
            core::makeFigurePanel(results, k);
        bench::printCaption("Figure 4 (k = " + std::to_string(k) +
                            "): branch cost vs l-bar + m-bar");
        core::panelTable(panel).render(std::cout);
        std::cout << "\n" << core::renderAsciiChart(panel);
    }
    return 0;
}
