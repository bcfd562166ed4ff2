/**
 * @file
 * The fused kernel walk under every kernel replay entry point. See
 * core/replay_kernel.hh for the contract; predict/replay_kernels.hh
 * for the kernels themselves.
 */

#include "core/replay_kernel.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "predict/cbtb.hh"
#include "predict/predictor.hh"
#include "predict/sbtb.hh"
#include "predict/static_predictors.hh"
#include "support/logging.hh"

namespace branchlab::core
{

namespace
{

ReplayResult
toReplayResult(const predict::KernelReplayResult &kernel)
{
    ReplayResult result;
    result.stats = kernel.stats;
    result.accuracy = result.stats.accuracy.ratio();
    result.missRatio = kernel.missRatio;
    result.hasMissRatio = kernel.hasMissRatio;
    return result;
}

predict::StaticKind
staticKindOf(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::AlwaysTaken:
        return predict::StaticKind::AlwaysTaken;
      case SchemeKind::AlwaysNotTaken:
        return predict::StaticKind::AlwaysNotTaken;
      case SchemeKind::BackwardTaken:
        return predict::StaticKind::BackwardTaken;
      case SchemeKind::OpcodeBias:
        return predict::StaticKind::OpcodeBias;
      default:
        blab_panic("not a static scheme kind");
    }
}

bool
isStaticKind(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::AlwaysTaken:
      case SchemeKind::AlwaysNotTaken:
      case SchemeKind::BackwardTaken:
      case SchemeKind::OpcodeBias:
        return true;
      default:
        return false;
    }
}

/** Whether a kernel takes @p spec on @p view. The statics take any
 *  stream; the pc-indexed kernels size flat tables by the stream's
 *  largest pc, so they only engage when that stays reasonable, and
 *  FS also needs its likely map. */
bool
kernelTakes(const KernelSpec &spec, const trace::TraceView &view)
{
    if (isStaticKind(spec.kind))
        return true;
    const bool flat = view.maxPc() < predict::kMaxKernelPc;
    if (spec.kind == SchemeKind::ForwardSemantic)
        return flat && spec.likely != nullptr;
    return flat;
}

/** @p spec with every field its kernel ignores at its default: two
 *  specs with equal keys step identical kernels, so they share one. */
KernelSpec
kernelKey(const KernelSpec &spec)
{
    KernelSpec key;
    key.kind = spec.kind;
    if (spec.kind == SchemeKind::Sbtb || spec.kind == SchemeKind::Cbtb)
        key.btb = spec.btb;
    if (spec.kind == SchemeKind::Cbtb)
        key.counter = spec.counter;
    if (spec.kind == SchemeKind::ForwardSemantic)
        key.likely = spec.likely;
    return key;
}

/** The kernel that replays @p spec on @p view. */
std::unique_ptr<predict::ReplayKernel>
makeKernel(const KernelSpec &spec, const trace::TraceView &view)
{
    switch (spec.kind) {
      case SchemeKind::Sbtb:
        return std::make_unique<predict::SbtbKernel>(spec.btb);
      case SchemeKind::Cbtb:
        return std::make_unique<predict::CbtbKernel>(spec.btb,
                                                     spec.counter);
      case SchemeKind::ForwardSemantic:
        return std::make_unique<predict::FsKernel>(*spec.likely,
                                                   view.maxPc());
      default:
        return std::make_unique<predict::StaticKernel>(
            staticKindOf(spec.kind));
    }
}

} // namespace

std::unique_ptr<predict::BranchPredictor>
makePredictor(const KernelSpec &spec)
{
    switch (spec.kind) {
      case SchemeKind::Sbtb:
        return std::make_unique<predict::SimpleBtb>(spec.btb);
      case SchemeKind::Cbtb:
        return std::make_unique<predict::CounterBtb>(spec.btb,
                                                     spec.counter);
      case SchemeKind::AlwaysTaken:
        return std::make_unique<predict::AlwaysTaken>();
      case SchemeKind::AlwaysNotTaken:
        return std::make_unique<predict::AlwaysNotTaken>();
      case SchemeKind::BackwardTaken:
        return std::make_unique<predict::BackwardTaken>();
      case SchemeKind::OpcodeBias:
        return std::make_unique<predict::OpcodeBias>();
      case SchemeKind::ForwardSemantic:
        blab_assert(spec.likely != nullptr,
                    "ForwardSemantic spec needs a likely map");
        return std::make_unique<predict::ProfilePredictor>(*spec.likely);
    }
    blab_panic("unreachable scheme kind");
}

ReplayResult
replayKernel(const trace::TraceView &view, const KernelSpec &spec)
{
    return replayManyKernel(view, {spec}).front();
}

/**
 * The engine under replayKernel and replayBatch too: every spec a
 * kernel takes steps in one walkKernels() pass, specs with equal
 * kernel keys sharing a kernel; the rest share one virtual walk.
 */
std::vector<ReplayResult>
replayManyKernel(const trace::TraceView &view,
                 const std::vector<KernelSpec> &specs)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), specs.size());

    constexpr std::size_t kVirtual = static_cast<std::size_t>(-1);
    std::vector<std::unique_ptr<predict::ReplayKernel>> ownedKernels;
    std::vector<predict::ReplayKernel *> kernels;
    std::vector<KernelSpec> keys;
    std::vector<std::size_t> kernelOf(specs.size(), kVirtual);
    std::vector<std::size_t> virtualAt;
    std::vector<std::unique_ptr<predict::BranchPredictor>> ownedPredictors;
    std::vector<predict::BranchPredictor *> predictors;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!kernelTakes(specs[i], view)) {
            virtualAt.push_back(i);
            ownedPredictors.push_back(makePredictor(specs[i]));
            predictors.push_back(ownedPredictors.back().get());
            continue;
        }
        const KernelSpec key = kernelKey(specs[i]);
        const auto shared = std::find(keys.begin(), keys.end(), key);
        kernelOf[i] = static_cast<std::size_t>(shared - keys.begin());
        if (shared == keys.end()) {
            keys.push_back(key);
            ownedKernels.push_back(makeKernel(specs[i], view));
            kernels.push_back(ownedKernels.back().get());
        }
    }

    auto &registry = obs::Registry::global();
    std::vector<ReplayResult> results(specs.size());
    if (const std::size_t taken = specs.size() - virtualAt.size();
        taken > 0) {
        registry.counter("engine.replay.kernel.specialized").add(taken);
        predict::walkKernels(view, kernels);
        for (std::size_t i = 0; i < specs.size(); ++i)
            if (kernelOf[i] != kVirtual)
                results[i] =
                    toReplayResult(kernels[kernelOf[i]]->result());
    }
    if (!virtualAt.empty()) {
        registry.counter("engine.replay.kernel.fallback")
            .add(virtualAt.size());
        const std::vector<ReplayResult> replays =
            replayVirtual(view, predictors);
        for (std::size_t j = 0; j < virtualAt.size(); ++j)
            results[virtualAt[j]] = replays[j];
    }
    return results;
}

std::optional<ReplayResult>
scoreClosedForm(const profile::ProgramProfile &profile,
                const KernelSpec &spec)
{
    const bool stateless =
        isStaticKind(spec.kind) ||
        (spec.kind == SchemeKind::ForwardSemantic && spec.likely);
    const auto sites = stateless ? profile.branchSites() : std::nullopt;
    if (!sites)
        return std::nullopt;

    // The reference predictor decides each pc once, from its static
    // facts alone; every execution of the pc shares that prediction.
    const std::unique_ptr<predict::BranchPredictor> predictor =
        makePredictor(spec);
    predict::KernelStats acc;
    for (const profile::BranchSite &site : *sites) {
        const predict::Prediction guess = predictor->predict(site.query);
        const profile::BranchCounts &counts = *site.counts;
        const bool conditional = site.query.conditional;
        // A taken conditional always reaches its static target.
        const std::uint64_t correct =
            !guess.taken  ? counts.notTaken
            : conditional ? counts.taken
                          : counts.nextCount(guess.target);
        const std::uint64_t n = counts.executions();
        acc.events += n;
        acc.correct += correct;
        acc.conditional += conditional ? n : 0;
        acc.conditionalCorrect += conditional ? correct : 0;
        acc.predictedTaken += guess.taken ? n : 0;
    }
    obs::Registry::global().counter("engine.replay.closed_form").add(1);
    return toReplayResult({acc.toStats()});
}

std::vector<ReplayResult>
replayProfiled(const trace::TraceView &view,
               const profile::ProgramProfile &profile,
               const std::vector<KernelSpec> &specs)
{
    std::vector<ReplayResult> results(specs.size());
    std::vector<std::size_t> walkedAt;
    std::vector<KernelSpec> walked;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (const auto scored = scoreClosedForm(profile, specs[i])) {
            results[i] = *scored;
        } else {
            walkedAt.push_back(i);
            walked.push_back(specs[i]);
        }
    }
    if (!walked.empty()) {
        const auto replays = replayManyKernel(view, walked);
        for (std::size_t j = 0; j < walked.size(); ++j)
            results[walkedAt[j]] = replays[j];
    }
    return results;
}

std::vector<predict::BtbBatchCell>
replayBatch(const trace::TraceView &view,
            const std::vector<predict::BtbBatchPoint> &points)
{
    // Every SBTB spec, then every CBTB spec: the walk steps kernels in
    // spec order, and stepping one kernel type's loop back to back is
    // measurably faster than alternating the two.
    const std::size_t n = points.size();
    std::vector<KernelSpec> specs(2 * n);
    for (std::size_t p = 0; p < n; ++p) {
        specs[p].btb = specs[n + p].btb = points[p].btb;
        specs[p].counter = specs[n + p].counter = points[p].counter;
        specs[p].kind = SchemeKind::Sbtb;
        specs[n + p].kind = SchemeKind::Cbtb;
    }
    // One batch walk whenever the BTB kernels take the stream.
    if (kernelTakes(KernelSpec{}, view))
        obs::Registry::global().counter("engine.replay.kernel.batch").add(1);
    const std::vector<ReplayResult> results = replayManyKernel(view, specs);

    const auto cellOf = [](const ReplayResult &result) {
        return predict::KernelReplayResult{result.stats, result.missRatio,
                                           result.hasMissRatio};
    };
    std::vector<predict::BtbBatchCell> cells(n);
    for (std::size_t p = 0; p < n; ++p) {
        cells[p].sbtb = cellOf(results[p]);
        cells[p].cbtb = cellOf(results[n + p]);
    }
    return cells;
}

} // namespace branchlab::core
