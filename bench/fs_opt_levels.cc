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

#include "profile/fs_opt.hh"

int
main()
{
    using namespace branchlab;
    setLoggingThrows(false);

    // Three profiling runs per workload keep the ablation quick.
    core::ExperimentConfig experiment;
    experiment.seed = 1989;
    experiment.runsOverride = 3;
    std::vector<core::RecordedWorkload> suite;
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        std::cerr << "  running " << workload->name() << "...\n";
        suite.push_back(core::recordWorkload(*workload, experiment));
    }

    bench::printCaption(
        "FS optimizer levels: accuracy vs code growth (k + l = 2)");
    TextTable table({"benchmark", "level", "fs accuracy", "code growth",
                     "fills", "forwarded", "dups", "elisions"});

    std::size_t improved = 0;
    std::vector<std::string> verdicts;
    for (const core::RecordedWorkload &entry : suite) {
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
            const std::optional<double> scored =
                profile::fsOptAccuracyFromProfile(*entry.profile, opt);
            if (!scored.has_value()) {
                blab_fatal(entry.name,
                           "'s profile tallies a pc that holds no branch");
            }
            const double accuracy = *scored;
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
