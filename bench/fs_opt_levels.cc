/**
 * @file
 * FS optimizer level ablation: for each of the ten paper workloads,
 * the Forward Semantic prediction accuracy and Table 5 code growth at
 * every --fs-opt level (none / slots / superblock / hoist), plus the
 * per-level suite means and the per-workload verdict of the hoist
 * level against the seed transform.
 *
 * Shape: levels slots and hoist leave accuracy untouched (they shrink
 * the image: dropped pads, truncated copies, moved fills, elided
 * recomputations), while superblock may lift accuracy by giving each
 * duplicated side-entrance its own likely bit. "hoist" is cumulative,
 * so a workload counts as improved when it gains accuracy OR sheds
 * code growth relative to level none.
 */

#include "bench_common.hh"

#include "ir/verifier.hh"
#include "profile/fs_opt.hh"
#include "profile/image_exec.hh"
#include "trace/soa.hh"
#include "vm/machine.hh"

int
main()
{
    using namespace branchlab;

    struct Profiled
    {
        std::string name;
        std::unique_ptr<ir::Program> program;
        std::unique_ptr<ir::Layout> layout;
        std::unique_ptr<profile::ProgramProfile> profile;
        trace::SoaTrace stream;
    };
    std::vector<Profiled> suite;
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        std::cerr << "  running " << workload->name() << "...\n";
        Profiled entry;
        entry.name = workload->name();
        entry.program = std::make_unique<ir::Program>(
            workload->buildProgram());
        ir::verifyProgramOrDie(*entry.program);
        entry.layout = std::make_unique<ir::Layout>(*entry.program);
        entry.profile = std::make_unique<profile::ProgramProfile>(
            *entry.program, *entry.layout);
        Rng rng(1989 ^ hashString(workload->name()));
        const auto inputs = workload->makeInputs(rng, 3);
        trace::SoaRecorder recorder; // every input, concatenated
        for (const auto &input : inputs) {
            entry.profile->noteRun();
            struct Tee : trace::TraceSink
            {
                trace::TraceSink *a;
                trace::TraceSink *b;
                void
                onBranch(const trace::BranchEvent &event) override
                {
                    a->onBranch(event);
                    b->onBranch(event);
                }
            } tee;
            tee.a = entry.profile.get();
            tee.b = &recorder;
            vm::Machine machine(*entry.program, *entry.layout);
            for (std::size_t chan = 0; chan < input.channels.size();
                 ++chan) {
                machine.setInput(static_cast<int>(chan),
                                 input.channels[chan]);
            }
            machine.setSink(&tee);
            machine.run();
        }
        entry.stream = recorder.take();
        suite.push_back(std::move(entry));
    }

    bench::printCaption(
        "FS optimizer levels: accuracy vs code growth (k + l = 2)");
    TextTable table({"benchmark", "level", "fs accuracy", "code growth",
                     "fills", "forwarded", "dups", "elisions"});

    std::size_t improved = 0;
    std::vector<std::string> verdicts;
    for (const Profiled &entry : suite) {
        double none_accuracy = 0.0;
        double none_growth = 0.0;
        double hoist_accuracy = 0.0;
        double hoist_growth = 0.0;
        for (const profile::FsOptLevel level :
             profile::allFsOptLevels()) {
            profile::FsOptConfig config;
            config.fs.slotCount = 2;
            config.level = level;
            const profile::FsOptResult opt =
                profile::FsOptimizer(*entry.profile, config).build();
            const profile::FsVerifyResult verdict =
                profile::verifyFsOptImage(*entry.profile, opt);
            if (!verdict.ok()) {
                blab_fatal(entry.name, " at ",
                           profile::fsOptLevelName(level),
                           " fails verification:\n", verdict.message());
            }
            const double accuracy = profile::fsOptAccuracy(
                *entry.profile, opt,
                trace::TraceView::of(entry.stream));
            const double growth = opt.codeSizeIncrease();
            table.addRow({entry.name,
                          profile::fsOptLevelName(level),
                          formatPercent(accuracy, 2),
                          formatPercent(growth, 2),
                          std::to_string(opt.counters.slotsFilled),
                          std::to_string(opt.counters.homesForwarded),
                          std::to_string(opt.counters.tailsDuplicated),
                          std::to_string(opt.counters.hoistElisions)});
            if (level == profile::FsOptLevel::None) {
                none_accuracy = accuracy;
                none_growth = growth;
            } else if (level == profile::FsOptLevel::Hoist) {
                hoist_accuracy = accuracy;
                hoist_growth = growth;
            }
        }
        const bool better_accuracy = hoist_accuracy > none_accuracy;
        const bool less_growth = hoist_growth < none_growth;
        if (better_accuracy || less_growth)
            ++improved;
        std::string verdict = entry.name + ": ";
        if (better_accuracy && less_growth)
            verdict += "accuracy up, growth down";
        else if (better_accuracy)
            verdict += "accuracy up";
        else if (less_growth)
            verdict += "growth down";
        else
            verdict += "unchanged";
        verdicts.push_back(std::move(verdict));
    }
    table.render(std::cout);

    std::cout << "\nhoist vs none, per workload:\n";
    for (const std::string &verdict : verdicts)
        std::cout << "  " << verdict << "\n";
    std::cout << improved
              << "/10 workloads improve (accuracy or code growth) at "
                 "--fs-opt=hoist.\n";
    return 0;
}
