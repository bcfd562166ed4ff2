/**
 * @file
 * The delayed-branch-with-squashing comparison (paper section 2.2's
 * contrast with McFarling & Hennessy [1]).
 *
 * Reports, per benchmark, the compiler's dynamic fill-from-above rate
 * for the first and second delay slot (the cited reference achieved
 * ~70% and ~25%), and the expected cycles/branch of a d-slot delayed
 * machine vs. the Forward Semantic at the same depth. The paper's
 * point to reproduce: fill rates collapse beyond one slot, so
 * "it is hard to support moderately pipelined instruction fetch units
 * using the delayed branch technique" -- while FS keeps scaling.
 */

#include "bench_common.hh"

#include "core/replay_kernel.hh"
#include "ir/verifier.hh"
#include "pipeline/cost_model.hh"
#include "profile/delay_fill.hh"
#include "profile/profile.hh"
#include "vm/machine.hh"

int
main()
{
    using namespace branchlab;
    setLoggingThrows(false);

    bench::printCaption(
        "Delayed branch with squashing vs Forward Semantic");
    TextTable table({"Benchmark", "slot1 fill", "slot2 fill",
                     "DBS cost (d=2)", "FS cost (d=2)", "DBS (d=4)",
                     "FS (d=4)"});

    double slot1 = 0.0, slot2 = 0.0;
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        std::cerr << "  running " << workload->name() << "...\n";

        // Profile the workload (one representative run suite; the
        // same Rng(1989) inputs for every workload). Every run is
        // noted before the first event, as ProgramProfile requires.
        ir::Program prog = workload->buildProgram();
        ir::verifyProgramOrDie(prog);
        const ir::Layout layout(prog);
        profile::ProgramProfile profile(prog, layout);
        Rng rng(1989);
        const auto inputs = workload->makeInputs(rng, 4);
        for (std::size_t r = 0; r < inputs.size(); ++r)
            profile.noteRun();
        for (const auto &input : inputs) {
            vm::Machine machine(prog, layout);
            for (std::size_t chan = 0; chan < input.channels.size();
                 ++chan) {
                machine.setInput(static_cast<int>(chan),
                                 input.channels[chan]);
            }
            machine.setSink(&profile);
            machine.run();
        }

        // FS accuracy over the same runs, in closed form from the
        // profile's per-pc tallies.
        const predict::LikelyMap likely = profile.buildLikelyMap();
        core::KernelSpec fs_spec;
        fs_spec.kind = core::SchemeKind::ForwardSemantic;
        fs_spec.likely = &likely;
        const auto fs = core::scoreClosedForm(profile, fs_spec);
        if (!fs)
            blab_fatal("FS closed form refused ", workload->name(),
                       "'s profile");
        const double a_fs = fs->accuracy;

        // Delay-slot analysis at d = 2 and d = 4 (MIPS-X had d = 2
        // for its k=0, l=1, m=2 pipeline: d = flush depth - 1).
        const profile::DelayFillResult d2 =
            profile::analyzeDelaySlots(profile, 2);
        const profile::DelayFillResult d4 =
            profile::analyzeDelaySlots(profile, 4);
        slot1 += d2.aboveFillRate(0);
        slot2 += d2.aboveFillRate(1);

        table.addRow(
            {workload->name(), formatPercent(d2.aboveFillRate(0), 0),
             formatPercent(d2.aboveFillRate(1), 0),
             formatFixed(d2.expectedBranchCost(), 2),
             formatFixed(pipeline::branchCost(a_fs, 3.0), 2),
             formatFixed(d4.expectedBranchCost(), 2),
             formatFixed(pipeline::branchCost(a_fs, 5.0), 2)});
    }
    table.render(std::cout);

    const double n = 10.0;
    std::cout << "\nAverage fill-from-above rates: slot1 "
              << formatPercent(slot1 / n, 0) << ", slot2 "
              << formatPercent(slot2 / n, 0)
              << "  (McFarling & Hennessy: ~70% and ~25%)\n"
              << "Note: ours is the strict same-block from-above "
                 "measure; the cited scheduler\ncould also hoist from "
                 "the target or fall-through paths, so its absolute\n"
                 "rates run higher. The reproduced shape is the "
                 "collapse from slot 1 to\nslot 2 -- the reason "
                 "\"it is hard to support moderately pipelined\n"
                 "instruction fetch units using the delayed branch "
                 "technique\".\n";
    return 0;
}
