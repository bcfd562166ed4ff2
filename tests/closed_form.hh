/**
 * @file
 * The profile scorers' differentials shared by the replay-kernel and
 * fuzz suites: every stateless scheme scored from a profile in closed
 * form, and every non-evicting SBTB or CBTB scored per pc, must
 * equal both its replay kernel and its virtual-dispatch reference
 * over the stream the profile was folded from. The CBTB's per-pc
 * counter step is also held to the bit-serial step it replaced.
 */

#ifndef BRANCHLAB_TESTS_CLOSED_FORM_HH
#define BRANCHLAB_TESTS_CLOSED_FORM_HH

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "core/replay_kernel.hh"
#include "obs/metrics.hh"
#include "predict/cbtb.hh"

namespace branchlab::test
{

/** The five schemes the closed form scores, FS over @p likely. */
inline std::vector<std::pair<const char *, core::KernelSpec>>
statelessSpecs(const predict::LikelyMap &likely)
{
    std::vector<std::pair<const char *, core::KernelSpec>> specs;
    const std::pair<const char *, core::SchemeKind> kinds[] = {
        {"always-taken", core::SchemeKind::AlwaysTaken},
        {"always-not-taken", core::SchemeKind::AlwaysNotTaken},
        {"btfnt", core::SchemeKind::BackwardTaken},
        {"opcode-bias", core::SchemeKind::OpcodeBias},
        {"FS", core::SchemeKind::ForwardSemantic},
    };
    for (const auto &[name, kind] : kinds) {
        core::KernelSpec spec;
        spec.kind = kind;
        spec.likely = &likely;
        specs.emplace_back(name, spec);
    }
    return specs;
}

/** Hits and totals of all four ratios, hasMissRatio and accuracy. */
inline void
expectSameScore(const core::ReplayResult &a, const core::ReplayResult &b)
{
    const auto same = [](const Ratio &x, const Ratio &y) {
        EXPECT_EQ(x.hits(), y.hits());
        EXPECT_EQ(x.total(), y.total());
    };
    same(a.stats.accuracy, b.stats.accuracy);
    same(a.stats.conditionalAccuracy, b.stats.conditionalAccuracy);
    same(a.stats.unconditionalAccuracy, b.stats.unconditionalAccuracy);
    same(a.stats.predictedTaken, b.stats.predictedTaken);
    EXPECT_EQ(a.hasMissRatio, b.hasMissRatio);
    EXPECT_EQ(a.accuracy, b.accuracy);
}

/**
 * Every stateless scheme scored from @p profile (none may be refused)
 * equals its replay kernel and its virtual-dispatch predictor over
 * @p view, the stream @p profile was folded from.
 */
inline void
expectClosedFormMatches(const trace::TraceView &view,
                        const profile::ProgramProfile &profile,
                        const predict::LikelyMap &likely)
{
    const auto named = statelessSpecs(likely);
    std::vector<core::KernelSpec> specs;
    std::vector<std::unique_ptr<predict::BranchPredictor>> owned;
    std::vector<predict::BranchPredictor *> predictors;
    for (const auto &[name, spec] : named) {
        specs.push_back(spec);
        owned.push_back(core::makePredictor(spec));
        predictors.push_back(owned.back().get());
    }
    const std::vector<core::ReplayResult> kernels =
        core::replayManyKernel(view, specs);
    const std::vector<core::ReplayResult> references =
        core::replayMany(view, predictors);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(named[i].first);
        const std::optional<core::ReplayResult> scored =
            core::scoreClosedForm(profile, specs[i]);
        ASSERT_TRUE(scored.has_value()) << "closed form refused";
        expectSameScore(*scored, kernels[i]);
        expectSameScore(*scored, references[i]);
    }
}

/**
 * core::scoreCounterHistory's model: the CBTB counter stepped one
 * outcome at a time over @p history's @p n outcomes, as the kernel
 * and the virtual CounterBtb step it. The first outcome misses,
 * predicts not taken and inserts the counter at T or T - 1.
 */
inline core::CounterScore
bitSerialCounterScore(const profile::BranchHistory &history,
                      std::uint64_t n, const predict::CounterConfig &counter)
{
    const unsigned ceiling = predict::counterCeiling(counter);
    const unsigned threshold = counter.threshold;
    const bool first = history.outcome(0);
    unsigned count = first ? threshold : threshold - 1;
    core::CounterScore score;
    score.correct = first ? 0 : 1;
    for (std::uint64_t i = 1; i < n; ++i) {
        const bool taken = history.outcome(i);
        const bool predicted = count >= threshold;
        score.predictedTaken += predicted ? 1 : 0;
        score.correct += predicted == taken ? 1 : 0;
        if (taken)
            count += count < ceiling ? 1 : 0;
        else
            count -= count > 0 ? 1 : 0;
    }
    return score;
}

/** predict.{sbtb,cbtb}.{lookups,hits}, in that order. */
inline std::array<std::uint64_t, 4>
btbLookupCounters()
{
    obs::Registry &registry = obs::Registry::global();
    return {registry.counter("predict.sbtb.lookups").value(),
            registry.counter("predict.sbtb.hits").value(),
            registry.counter("predict.cbtb.lookups").value(),
            registry.counter("predict.cbtb.hits").value()};
}

/** What @p run adds to btbLookupCounters(). */
template <typename Run>
std::array<std::uint64_t, 4>
btbLookupsAddedBy(Run &&run)
{
    const std::array<std::uint64_t, 4> before = btbLookupCounters();
    run();
    std::array<std::uint64_t, 4> added = btbLookupCounters();
    for (std::size_t i = 0; i < added.size(); ++i)
        added[i] -= before[i];
    return added;
}

/**
 * @p spec (SBTB or CBTB) scored per pc from @p profile -- it must not
 * be refused -- equals its kernel walk and its virtual-dispatch
 * predictor over @p view, the stream @p profile was folded from: all
 * four ratios, the miss ratio, and the buffer lookups and hits each
 * adds to telemetry.
 */
inline void
expectPerPcMatches(const trace::TraceView &view,
                   const profile::ProgramProfile &profile,
                   const core::KernelSpec &spec)
{
    std::optional<core::ReplayResult> scored;
    const auto scored_adds = btbLookupsAddedBy(
        [&] { scored = core::scorePerPc(view, profile, spec); });
    ASSERT_TRUE(scored.has_value()) << "per-pc scorer refused";
    core::ReplayResult kernel;
    const auto kernel_adds = btbLookupsAddedBy(
        [&] { kernel = core::replayManyKernel(view, {spec}).front(); });
    core::ReplayResult reference;
    const auto reference_adds = btbLookupsAddedBy([&] {
        const std::unique_ptr<predict::BranchPredictor> predictor =
            core::makePredictor(spec);
        reference = core::replay(view, *predictor);
    });
    expectSameScore(*scored, kernel);
    expectSameScore(*scored, reference);
    EXPECT_EQ(scored->missRatio, kernel.missRatio);
    EXPECT_EQ(scored->missRatio, reference.missRatio);
    EXPECT_EQ(scored_adds, kernel_adds);
    EXPECT_EQ(scored_adds, reference_adds);
}

} // namespace branchlab::test

#endif // BRANCHLAB_TESTS_CLOSED_FORM_HH
