/**
 * @file
 * The kernel registry and dispatch paths for replay. See
 * core/replay_kernel.hh for the contract; predict/replay_kernels.hh
 * for the kernels themselves.
 */

#include "core/replay_kernel.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "predict/cbtb.hh"
#include "predict/gshare.hh"
#include "predict/predictor.hh"
#include "predict/sbtb.hh"
#include "predict/static_predictors.hh"
#include "support/logging.hh"

namespace branchlab::core
{

namespace
{

/** The pc-indexed kernels size flat tables by the stream's largest
 *  pc, so they only engage when that stays reasonable. */
bool
flatEligible(const trace::TraceView &view)
{
    return view.maxPc() < predict::kMaxKernelPc;
}

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

/** Run a spec through the registry if anything matches, else the
 *  virtual-dispatch fallback. Telemetry counters record which. */
ReplayResult
dispatchSpec(const trace::TraceView &view, const KernelSpec &spec)
{
    auto &registry = obs::Registry::global();
    for (const KernelRegistration &entry : kernelRegistry()) {
        if (!entry.matches(spec, view))
            continue;
        registry.counter("engine.replay.kernel.specialized").add(1);
        return toReplayResult(entry.run(spec, view));
    }

    // Reference path: replay()'s own driver loop (the caller has
    // already emitted replay()'s telemetry).
    registry.counter("engine.replay.kernel.fallback").add(1);
    const std::unique_ptr<predict::BranchPredictor> predictor =
        makePredictor(spec);
    return replayVirtual(view, *predictor);
}

} // namespace

const std::vector<KernelRegistration> &
kernelRegistry()
{
    static const std::vector<KernelRegistration> *registry =
        new std::vector<KernelRegistration>{
            {"sbtb",
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 return spec.kind == SchemeKind::Sbtb &&
                        flatEligible(view);
             },
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 predict::SbtbKernel kernel(spec.btb);
                 return kernel.run(view);
             }},
            {"cbtb",
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 return spec.kind == SchemeKind::Cbtb &&
                        flatEligible(view);
             },
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 predict::CbtbKernel kernel(spec.btb, spec.counter);
                 return kernel.run(view);
             }},
            {"static",
             [](const KernelSpec &spec, const trace::TraceView &) {
                 // Stateless: eligible for any stream.
                 return isStaticKind(spec.kind);
             },
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 predict::StaticKernel kernel(staticKindOf(spec.kind));
                 return kernel.run(view);
             }},
            {"fs",
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 return spec.kind == SchemeKind::ForwardSemantic &&
                        spec.likely != nullptr && flatEligible(view);
             },
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 predict::FsKernel kernel(*spec.likely, view.maxPc());
                 return kernel.run(view);
             }},
            {"gshare",
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 return spec.kind == SchemeKind::Gshare &&
                        flatEligible(view);
             },
             [](const KernelSpec &spec, const trace::TraceView &view) {
                 predict::GshareKernel kernel(spec.gshare);
                 return kernel.run(view);
             }},
        };
    return *registry;
}

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
      case SchemeKind::Gshare:
        return std::make_unique<predict::GsharePredictor>(spec.gshare);
    }
    blab_panic("unreachable scheme kind");
}

ReplayResult
replayKernel(const trace::TraceView &view, const KernelSpec &spec)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), 0);
    return dispatchSpec(view, spec);
}

std::vector<ReplayResult>
replayManyKernel(const trace::TraceView &view,
                 const std::vector<KernelSpec> &specs)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), specs.size());
    auto &registry = obs::Registry::global();

    // Fused path: instantiate a kernel for every spec the registry
    // would specialize (the eligibility tests below mirror the
    // registry rows; tests/test_replay_kernel.cc holds the two in
    // lock-step), then walk the trace ONCE, stepping every kernel on
    // each materialised event. Seven schemes cost one stream
    // traversal instead of seven. Specs without a kernel take the
    // per-spec dispatch -- and its virtual fallback -- afterwards.
    const bool flat = flatEligible(view);
    std::vector<ReplayResult> results(specs.size());
    std::vector<std::size_t> unmatched;
    std::vector<std::size_t> sbtbAt, cbtbAt, staticAt, fsAt, gshareAt;
    std::vector<std::unique_ptr<predict::SbtbKernel>> sbtbs;
    std::vector<std::unique_ptr<predict::CbtbKernel>> cbtbs;
    std::vector<std::unique_ptr<predict::StaticKernel>> statics;
    std::vector<std::unique_ptr<predict::FsKernel>> fss;
    std::vector<std::unique_ptr<predict::GshareKernel>> gshares;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const KernelSpec &spec = specs[i];
        if (spec.kind == SchemeKind::Sbtb && flat) {
            sbtbAt.push_back(i);
            sbtbs.push_back(
                std::make_unique<predict::SbtbKernel>(spec.btb));
        } else if (spec.kind == SchemeKind::Cbtb && flat) {
            cbtbAt.push_back(i);
            cbtbs.push_back(std::make_unique<predict::CbtbKernel>(
                spec.btb, spec.counter));
        } else if (isStaticKind(spec.kind)) {
            staticAt.push_back(i);
            statics.push_back(std::make_unique<predict::StaticKernel>(
                staticKindOf(spec.kind)));
        } else if (spec.kind == SchemeKind::ForwardSemantic &&
                   spec.likely != nullptr && flat) {
            fsAt.push_back(i);
            fss.push_back(std::make_unique<predict::FsKernel>(
                *spec.likely, view.maxPc()));
        } else if (spec.kind == SchemeKind::Gshare && flat) {
            gshareAt.push_back(i);
            gshares.push_back(std::make_unique<predict::GshareKernel>(
                spec.gshare));
        } else {
            unmatched.push_back(i);
        }
    }

    if (const std::size_t fused = specs.size() - unmatched.size();
        fused > 0) {
        registry.counter("engine.replay.kernel.specialized")
            .add(fused);
        // Strip-mined: decode one L1-resident block of events, then
        // let each kernel run its monomorphized loop over it. The
        // kernels are independent state machines, so block-major
        // order yields the same per-kernel event sequence.
        std::vector<predict::KernelEvent> events(
            predict::kKernelBlockEvents);
        trace::TraceView::Cursor cursor = view.cursor();
        trace::TraceBlock block;
        while (cursor.next(block)) {
            predict::fillKernelBlock(block, events.data());
            for (auto &kernel : sbtbs)
                kernel->stepBlock(events.data(), block.count);
            for (auto &kernel : cbtbs)
                kernel->stepBlock(events.data(), block.count);
            for (auto &kernel : statics)
                kernel->stepBlock(events.data(), block.count);
            for (auto &kernel : fss)
                kernel->stepBlock(events.data(), block.count);
            for (auto &kernel : gshares)
                kernel->stepBlock(events.data(), block.count);
        }
        for (std::size_t j = 0; j < sbtbs.size(); ++j)
            results[sbtbAt[j]] = toReplayResult(sbtbs[j]->result());
        for (std::size_t j = 0; j < cbtbs.size(); ++j)
            results[cbtbAt[j]] = toReplayResult(cbtbs[j]->result());
        for (std::size_t j = 0; j < statics.size(); ++j)
            results[staticAt[j]] =
                toReplayResult(statics[j]->result());
        for (std::size_t j = 0; j < fss.size(); ++j)
            results[fsAt[j]] = toReplayResult(fss[j]->result());
        for (std::size_t j = 0; j < gshares.size(); ++j)
            results[gshareAt[j]] =
                toReplayResult(gshares[j]->result());
    }

    for (const std::size_t i : unmatched)
        results[i] = dispatchSpec(view, specs[i]);
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
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), 2 * points.size());
    auto &registry = obs::Registry::global();

    if (flatEligible(view)) {
        registry.counter("engine.replay.kernel.batch").add(1);
        registry.counter("engine.replay.kernel.specialized")
            .add(2 * points.size());
        return predict::runBtbBatch(view, points);
    }

    // Ineligible stream: evaluate every point through the virtual
    // reference path, one pair of predictors at a time.
    registry.counter("engine.replay.kernel.fallback")
        .add(2 * points.size());
    std::vector<predict::BtbBatchCell> cells(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        predict::SimpleBtb sbtb(points[p].btb);
        predict::CounterBtb cbtb(points[p].btb, points[p].counter);
        predict::PredictionDriver sbtb_driver(sbtb);
        predict::PredictionDriver cbtb_driver(cbtb);
        trace::TraceView::Cursor cursor = view.cursor();
        trace::TraceBlock block;
        while (cursor.next(block)) {
            for (std::size_t i = 0; i < block.count; ++i) {
                const trace::BranchEvent event = block.event(i);
                sbtb_driver.onBranch(event);
                cbtb_driver.onBranch(event);
            }
        }
        cells[p].sbtb.stats = sbtb_driver.stats();
        cells[p].sbtb.missRatio = sbtb.missRatio();
        cells[p].sbtb.hasMissRatio = true;
        cells[p].cbtb.stats = cbtb_driver.stats();
        cells[p].cbtb.missRatio = cbtb.missRatio();
        cells[p].cbtb.hasMissRatio = true;
    }
    return cells;
}

} // namespace branchlab::core
