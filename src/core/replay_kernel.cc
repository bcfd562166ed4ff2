/**
 * @file
 * The fused kernel walk under every kernel replay entry point. See
 * core/replay_kernel.hh for the contract; predict/replay_kernels.hh
 * for the kernels themselves.
 */

#include "core/replay_kernel.hh"

#include <algorithm>
#include <bit>
#include <string>

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

bool
isBtbKind(SchemeKind kind)
{
    return kind == SchemeKind::Sbtb || kind == SchemeKind::Cbtb;
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

/** Whether no set of @p btb holds more of @p candidates than it has
 *  ways: then no insert ever finds its set full, and the buffer never
 *  evicts under any replacement policy. */
bool
neverEvicts(const predict::BufferConfig &btb,
            const std::vector<ir::Addr> &candidates)
{
    const predict::BufferGeometry geometry(btb);
    std::vector<std::size_t> load(geometry.sets(), 0);
    for (const ir::Addr pc : candidates)
        ++load[geometry.setOf(pc)];
    return std::all_of(load.begin(), load.end(), [&](std::size_t n) {
        return n <= geometry.ways();
    });
}

/** A scored BTB spec's counts, as its kernel would end them. */
struct PerPcScore
{
    predict::KernelStats acc;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;

    /** Add one pc: @p n executions, each one lookup, of which @p hit
     *  hit, @p correct were predicted right and @p predicted_taken
     *  predicted taken. */
    void
    add(bool conditional, std::uint64_t n, std::uint64_t hit,
        std::uint64_t correct, std::uint64_t predicted_taken)
    {
        lookups += n;
        hits += hit;
        acc.events += n;
        acc.correct += correct;
        acc.conditional += conditional ? n : 0;
        acc.conditionalCorrect += conditional ? correct : 0;
        acc.predictedTaken += predicted_taken;
    }

    /** Add an unconditional pc, the same in either buffer: always
     *  taken, so its first execution misses and inserts it, and every
     *  later one hits (an SBTB erases only on not taken, and a CBTB
     *  counter inserted at T never drops below it) and predicts the
     *  previous next pc. */
    void
    addUnconditional(const profile::BranchSite &site)
    {
        const std::uint64_t n = site.counts->executions();
        add(false, n, n - 1, site.history->repeats, n - 1);
    }
};

/** Calls @p fn(w, flips) for each outcome word w of @p history's
 *  @p n executions, where bit i of flips is set when execution
 *  64 w + i's outcome differs from the one before (a not-taken one
 *  before the first) and bits past execution n - 1 are clear. */
template <typename Fn>
void
forEachFlipWord(const profile::BranchHistory &history, std::uint64_t n,
                Fn &&fn)
{
    const std::size_t words = history.outcomes.size();
    std::uint64_t carry = 0;
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t word = history.outcomes[w];
        std::uint64_t flips = word ^ (word << 1 | carry);
        if (w + 1 == words && n % 64 != 0)
            flips &= (std::uint64_t{1} << (n % 64)) - 1;
        carry = word >> 63;
        fn(w, flips);
    }
}

/** Outcomes of @p history's @p n executions that differ from the
 *  one before (a not-taken one before the first). */
std::uint64_t
outcomeFlips(const profile::BranchHistory &history, std::uint64_t n)
{
    std::uint64_t flips = 0;
    forEachFlipWord(history, n, [&](std::size_t, std::uint64_t word) {
        flips += static_cast<std::uint64_t>(std::popcount(word));
    });
    return flips;
}

/** The SBTB over @p sites. A conditional branch is resident exactly
 *  after a taken outcome (not taken erases it) and then predicts its
 *  static target, so a prediction is right when the outcome repeats
 *  the previous one. */
PerPcScore
scoreSbtb(const std::vector<profile::BranchSite> &sites)
{
    PerPcScore score;
    for (const profile::BranchSite &site : sites) {
        if (!site.history->conditional) {
            score.addUnconditional(site);
            continue;
        }
        const std::uint64_t n = site.counts->executions();
        const std::uint64_t hits =
            site.counts->taken - (site.history->outcome(n - 1) ? 1 : 0);
        score.add(true, n, hits, n - outcomeFlips(*site.history, n), hits);
    }
    return score;
}

/** The CBTB with @p counter over @p sites: every conditional branch's
 *  first execution misses, every later one hits
 *  (scoreCounterHistory). */
PerPcScore
scoreCbtb(const std::vector<profile::BranchSite> &sites,
          const predict::CounterConfig &counter)
{
    PerPcScore score;
    for (const profile::BranchSite &site : sites) {
        if (!site.history->conditional) {
            score.addUnconditional(site);
            continue;
        }
        const std::uint64_t n = site.counts->executions();
        const CounterScore counts =
            scoreCounterHistory(*site.history, n, counter);
        score.add(true, n, n - 1, counts.correct, counts.predictedTaken);
    }
    return score;
}

/**
 * The per-pc scorer over one profile and the stream it was folded
 * from. It decides once whether the profile's histories stand in for
 * the stream -- no anomalous event, every tallied pc a branch, every
 * history of its instruction's kind, every unconditional branch
 * always taken -- then takes each SBTB or CBTB spec whose buffer
 * never evicts. Without eviction each pc is its own small automaton
 * and the geometry and policy drop out, so one SBTB score serves
 * every fitting geometry and one CBTB score every fitting geometry
 * of a counter config.
 */
class PerPcScorer
{
  public:
    PerPcScorer(const trace::TraceView &view,
                const profile::ProgramProfile &profile)
    {
        if (view.hasAnomalies())
            return;
        sites_ = profile.branchSites();
        if (!sites_)
            return;
        for (const profile::BranchSite &site : *sites_) {
            const profile::BranchHistory &history = *site.history;
            if (history.conditional != site.query.conditional ||
                (!history.conditional && site.counts->notTaken != 0)) {
                sites_.reset();
                return;
            }
            executed_.push_back(site.query.pc);
            if (site.counts->taken != 0)
                taken_.push_back(site.query.pc);
        }
    }

    /** Whether @p spec is an SBTB or CBTB spec whose buffer never
     *  evicts on this stream: no set holds more candidates than ways,
     *  the candidates being the pcs ever taken for an SBTB (only a
     *  taken outcome inserts) and every executed pc for a CBTB. */
    bool
    takes(const KernelSpec &spec) const
    {
        if (!sites_ || !isBtbKind(spec.kind))
            return false;
        return neverEvicts(spec.btb,
                           spec.kind == SchemeKind::Sbtb ? taken_
                                                         : executed_);
    }

    /** @p spec's result; takes(spec) must hold. Adds its kernel's
     *  predict.{sbtb,cbtb}.{lookups,hits} once per distinct kernel,
     *  as the walk would, and counts engine.replay.per_pc. */
    ReplayResult
    score(const KernelSpec &spec)
    {
        const bool sbtb = spec.kind == SchemeKind::Sbtb;
        const PerPcScore &score =
            sbtb ? sbtbScore() : cbtbScore(spec.counter);
        auto &registry = obs::Registry::global();
        const KernelSpec key = kernelKey(spec);
        if (std::find(noted_.begin(), noted_.end(), key) == noted_.end()) {
            noted_.push_back(key);
            if (obs::enabled()) {
                const std::string prefix =
                    sbtb ? "predict.sbtb." : "predict.cbtb.";
                registry.counter(prefix + "lookups").add(score.lookups);
                registry.counter(prefix + "hits").add(score.hits);
            }
        }
        registry.counter("engine.replay.per_pc").add(1);
        return toReplayResult(
            predict::btbResult(score.acc, score.lookups, score.hits));
    }

  private:
    const PerPcScore &
    sbtbScore()
    {
        if (!sbtb_)
            sbtb_ = scoreSbtb(*sites_);
        return *sbtb_;
    }

    const PerPcScore &
    cbtbScore(const predict::CounterConfig &counter)
    {
        for (const auto &[config, score] : cbtb_) {
            if (config == counter)
                return score;
        }
        cbtb_.emplace_back(counter, scoreCbtb(*sites_, counter));
        return cbtb_.back().second;
    }

    /** Every executed branch; nullopt when the profile cannot stand
     *  in for the stream. */
    std::optional<std::vector<profile::BranchSite>> sites_;
    std::vector<ir::Addr> executed_;
    std::vector<ir::Addr> taken_;
    std::optional<PerPcScore> sbtb_;
    std::vector<std::pair<predict::CounterConfig, PerPcScore>> cbtb_;
    /** Kernel keys whose predict.* lookups were added. */
    std::vector<KernelSpec> noted_;
};

/** Score every spec of @p specs @p profile answers into @p results --
 *  the stateless ones in closed form, non-evicting SBTB and CBTB per
 *  pc -- and return the indexes of the rest, in order. */
std::vector<std::size_t>
scoreFromProfile(const trace::TraceView &view,
                 const profile::ProgramProfile &profile,
                 const std::vector<KernelSpec> &specs,
                 std::vector<ReplayResult> &results)
{
    const obs::ScopedSpan span("engine.score");
    std::optional<PerPcScorer> per_pc;
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (const auto scored = scoreClosedForm(profile, specs[i])) {
            results[i] = *scored;
            continue;
        }
        if (isBtbKind(specs[i].kind)) {
            if (!per_pc)
                per_pc.emplace(view, profile);
            if (per_pc->takes(specs[i])) {
                results[i] = per_pc->score(specs[i]);
                continue;
            }
        }
        rest.push_back(i);
    }
    return rest;
}

/** Walk the specs at @p at in one replayManyKernel call, into
 *  @p results. */
void
walkInto(const trace::TraceView &view, const std::vector<KernelSpec> &specs,
         const std::vector<std::size_t> &at,
         std::vector<ReplayResult> &results)
{
    if (at.empty())
        return;
    std::vector<KernelSpec> walked;
    walked.reserve(at.size());
    for (const std::size_t i : at)
        walked.push_back(specs[i]);
    const std::vector<ReplayResult> replays = replayManyKernel(view, walked);
    for (std::size_t j = 0; j < at.size(); ++j)
        results[at[j]] = replays[j];
}

/** A batch's specs: every SBTB spec, then every CBTB spec. The walk
 *  steps kernels in spec order, and stepping one kernel type's loop
 *  back to back is measurably faster than alternating the two. */
std::vector<KernelSpec>
batchSpecs(const std::vector<predict::BtbBatchPoint> &points)
{
    const std::size_t n = points.size();
    std::vector<KernelSpec> specs(2 * n);
    for (std::size_t p = 0; p < n; ++p) {
        specs[p].btb = specs[n + p].btb = points[p].btb;
        specs[p].counter = specs[n + p].counter = points[p].counter;
        specs[p].kind = SchemeKind::Sbtb;
        specs[n + p].kind = SchemeKind::Cbtb;
    }
    return specs;
}

/** batchSpecs()' results as cells. */
std::vector<predict::BtbBatchCell>
batchCells(const std::vector<ReplayResult> &results)
{
    const auto cellOf = [](const ReplayResult &result) {
        return predict::KernelReplayResult{result.stats, result.missRatio,
                                           result.hasMissRatio};
    };
    const std::size_t n = results.size() / 2;
    std::vector<predict::BtbBatchCell> cells(n);
    for (std::size_t p = 0; p < n; ++p) {
        cells[p].sbtb = cellOf(results[p]);
        cells[p].cbtb = cellOf(results[n + p]);
    }
    return cells;
}

/** Count one batch walk whenever the BTB kernels take the stream. */
void
noteBatchWalk(const trace::TraceView &view)
{
    if (kernelTakes(KernelSpec{}, view))
        obs::Registry::global().counter("engine.replay.kernel.batch").add(1);
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

CounterScore
scoreCounterHistory(const profile::BranchHistory &history, std::uint64_t n,
                    const predict::CounterConfig &counter)
{
    const std::int64_t ceiling = predict::counterCeiling(counter);
    const std::int64_t threshold = counter.threshold;
    const bool first = history.outcome(0);
    std::int64_t count = first ? threshold : threshold - 1;
    CounterScore score;
    score.correct = first ? 0 : 1;
    if (n < 2)
        return score;
    // Executions 1 to n - 1 each predict and step: walk them as runs
    // of equal outcomes, the first run in execution 1's direction and
    // each later one the other way.
    bool taken = history.outcome(1);
    std::uint64_t start = 1;
    const auto run_to = [&](std::uint64_t end) {
        const auto k = static_cast<std::int64_t>(end - start);
        std::int64_t predicted = 0;
        if (taken) {
            // The first max(0, T - c) steps climb to T unpredicted.
            predicted = std::max<std::int64_t>(
                0, k - std::max<std::int64_t>(0, threshold - count));
            count = std::min(ceiling, count + k);
        } else {
            // Counts c down to T predict taken: c - T + 1 steps.
            predicted = std::min(
                k, std::max<std::int64_t>(0, count - threshold + 1));
            count = std::max<std::int64_t>(0, count - k);
        }
        score.predictedTaken += static_cast<std::uint64_t>(predicted);
        score.correct +=
            static_cast<std::uint64_t>(taken ? predicted : k - predicted);
        start = end;
        taken = !taken;
    };
    forEachFlipWord(history, n, [&](std::size_t w, std::uint64_t flips) {
        // Execution 0 inserts and execution 1 starts the first run,
        // so neither ends one.
        if (w == 0)
            flips &= ~std::uint64_t{3};
        for (; flips != 0; flips &= flips - 1)
            run_to(64 * w + static_cast<unsigned>(std::countr_zero(flips)));
    });
    run_to(n);
    return score;
}

std::optional<ReplayResult>
scorePerPc(const trace::TraceView &view,
           const profile::ProgramProfile &profile, const KernelSpec &spec)
{
    PerPcScorer scorer(view, profile);
    if (!scorer.takes(spec))
        return std::nullopt;
    return scorer.score(spec);
}

std::vector<ReplayResult>
replayProfiled(const trace::TraceView &view,
               const profile::ProgramProfile &profile,
               const std::vector<KernelSpec> &specs)
{
    std::vector<ReplayResult> results(specs.size());
    walkInto(view, specs, scoreFromProfile(view, profile, specs, results),
             results);
    return results;
}

std::vector<predict::BtbBatchCell>
replayBatch(const trace::TraceView &view,
            const std::vector<predict::BtbBatchPoint> &points)
{
    noteBatchWalk(view);
    return batchCells(replayManyKernel(view, batchSpecs(points)));
}

std::vector<predict::BtbBatchCell>
replayBatch(const trace::TraceView &view,
            const profile::ProgramProfile &profile,
            const std::vector<predict::BtbBatchPoint> &points)
{
    const std::vector<KernelSpec> specs = batchSpecs(points);
    std::vector<ReplayResult> results(specs.size());
    const std::vector<std::size_t> rest =
        scoreFromProfile(view, profile, specs, results);
    if (!rest.empty())
        noteBatchWalk(view);
    walkInto(view, specs, rest, results);
    return batchCells(results);
}

} // namespace branchlab::core
