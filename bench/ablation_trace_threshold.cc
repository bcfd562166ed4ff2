/**
 * @file
 * Trace-selection sensitivity: the Forward Semantic's code growth and
 * layout quality depend on how aggressively blocks are bundled into
 * traces ("virtually always executed together"). Sweeps the arc-
 * probability threshold and reports, over the whole suite:
 *
 *   - trace count and mean trace length (blocks),
 *   - slot-site count and Table 5 code growth at k + l = 2,
 *   - the fraction of dynamic control transfers that stay inside a
 *     trace (sequential on the likely path -- the quantity trace
 *     selection exists to maximise).
 *
 * Shape: lower thresholds bundle more (longer traces, more in-trace
 * transfers) at the price of more slot sites behind weaker majority
 * bits; the IMPACT-style 0.7 sits near the knee.
 */

#include "bench_common.hh"

#include "profile/forward_slots.hh"

int
main()
{
    using namespace branchlab;

    // Profile the whole suite once: three runs per workload, drawn
    // from seed 606.
    core::ExperimentConfig experiment;
    experiment.seed = 606;
    experiment.runsOverride = 3;
    std::vector<core::RecordedWorkload> suite;
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        std::cerr << "  running " << workload->name() << "...\n";
        suite.push_back(core::recordWorkload(*workload, experiment));
    }

    bench::printCaption(
        "Trace-selection threshold sweep (suite aggregates)");
    TextTable table({"threshold", "traces", "mean blocks/trace",
                     "slot sites", "code growth (k+l=2)",
                     "in-trace transfers"});

    for (double threshold : {0.5, 0.6, 0.7, 0.8, 0.9, 0.999}) {
        std::size_t traces = 0;
        std::size_t blocks = 0;
        std::size_t sites = 0;
        double growth = 0.0;
        std::uint64_t in_trace = 0;
        std::uint64_t transfers = 0;

        for (const core::RecordedWorkload &entry : suite) {
            profile::FsConfig config;
            config.slotCount = 2;
            config.trace.minArcProbability = threshold;
            const profile::FsPlan plan =
                profile::planForwardSlots(*entry.profile, config);
            sites += plan.sites.size();
            growth += plan.codeSizeIncrease(config.slotCount);
            for (const profile::Trace &trace : plan.traces) {
                ++traces;
                blocks += trace.blocks.size();
                // Dynamic weight of in-trace transitions: the arc
                // from each block to its in-trace successor.
                for (std::size_t j = 0; j + 1 < trace.blocks.size();
                     ++j) {
                    for (const profile::Arc &arc :
                         entry.profile->outArcs(trace.func,
                                                trace.blocks[j])) {
                        if (arc.to == trace.blocks[j + 1])
                            in_trace += arc.weight;
                    }
                }
            }
            // All dynamic intra-function transfers.
            for (ir::FuncId f = 0; f < entry.program->numFunctions();
                 ++f) {
                const ir::Function &fn = entry.program->function(f);
                for (const ir::BasicBlock &block : fn.blocks()) {
                    for (const profile::Arc &arc :
                         entry.profile->outArcs(f, block.id()))
                        transfers += arc.weight;
                }
            }
        }

        table.addRow(
            {formatFixed(threshold, 3), std::to_string(traces),
             formatFixed(static_cast<double>(blocks) /
                             static_cast<double>(traces),
                         2),
             std::to_string(sites), formatPercent(growth / 10.0, 2),
             formatPercent(static_cast<double>(in_trace) /
                               static_cast<double>(transfers),
                           1)});
    }
    table.render(std::cout);
    std::cout << "\nShape: raising the threshold fragments traces "
                 "(more, shorter traces; fewer\nsequential transfers) "
                 "and grows the slot bill. The IMPACT-style 0.7\n"
                 "keeps most of 0.5's sequential coverage while only "
                 "bundling arcs that are\n\"virtually always\" "
                 "followed -- the paper's phrasing.\n";
    return 0;
}
