/**
 * @file
 * Reproduces Table 5: percentage code-size increase of the Forward
 * Semantic transformation as a function of the forward-slot count
 * k + l in {1, 2, 4, 8}. The paper's averages are 3.24%, 6.61%,
 * 14.12% and 32.96% -- near-linear growth in k + l.
 *
 * (The paper's own Table 5 includes two extra benchmarks, eqn and
 * espresso, that appear nowhere else in the evaluation; we report the
 * ten benchmarks of Tables 1-4. See EXPERIMENTS.md.)
 */

#include "bench_common.hh"

int
main()
{
    using namespace branchlab;

    const auto results = bench::runSuite();

    bench::printCaption(
        "Table 5: Percentage code-size increase vs k + l");
    core::makeTable5(results).render(std::cout);

    // Linearity check: increase(k+l) / (k+l) should be near-constant.
    std::cout << "\nGrowth per slot (average increase / slots):\n";
    for (const auto &[slots, _] : results.front().codeIncrease) {
        double avg = 0.0;
        for (const auto &r : results)
            avg += r.codeIncrease.at(slots);
        avg /= static_cast<double>(results.size());
        std::cout << "  k+l=" << slots << ": "
                  << formatPercent(avg / slots, 2) << " per slot\n";
    }
    std::cout << "(paper: near-linear growth, ~3.3% per slot)\n";
    return 0;
}
