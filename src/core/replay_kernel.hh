/**
 * @file
 * Kernel-dispatched replay: the engine side of the monomorphized
 * replay kernels (predict/replay_kernels.hh). replayKernel,
 * replayManyKernel and replayBatch are entry points over one fused
 * walk: one eligibility function decides per spec whether a kernel
 * takes it on the stream at hand, identical specs share one kernel,
 * and every taken spec steps through one walkKernels() pass. Every
 * spec no kernel takes goes through the virtual-dispatch walk that
 * replay() and replayMany() use.
 *
 * Beside the walk, two scorers read results off a profile instead:
 *  - scoreClosedForm() scores the stateless schemes from the
 *    profile's per-pc tallies;
 *  - scorePerPc() scores an SBTB or CBTB spec whose buffer never
 *    evicts -- no set ever holds more candidate pcs than it has ways
 *    (the pcs ever taken for an SBTB, every executed pc for a CBTB)
 *    -- from the profile's per-pc histories
 *    (profile::BranchHistory): the SBTB from each conditional pc's
 *    outcome flips, the CBTB by stepping each conditional pc's
 *    counter over its runs of equal outcomes, and every other pc
 *    from its repeats. A stream with an anomalous-next event is
 *    refused.
 * Both are exact for a profile folded from a stream the VM emitted
 * for its own program (all recordWorkload returns). replayProfiled()
 * (the paper suite) and replayBatch() given the profile (the sweep
 * and the daemon) score what the scorers take and walk only the rest.
 *
 * The CBTB step is run-length, not bit-serial. The flip mask
 * `word ^ (word << 1 | carry)` marks where an outcome differs from
 * the one before, and countr_zero walks it, so the counter steps
 * once per run of equal outcomes; runs alternate direction. From
 * counter c with threshold T and ceiling 2^bits - 1, a taken run of
 * k outcomes predicts taken max(0, k - max(0, T - c)) times (the
 * steps that climb to T predict not taken) and ends at
 * min(ceiling, c + k); a not-taken run predicts taken
 * min(k, max(0, c - T + 1)) times (the steps from c down to T) and
 * ends at max(0, c - k). One path serves every width from 1 to 16
 * bits.
 *
 * The virtual path is not an afterthought -- it *is* the reference
 * semantics. Kernels and scorers are optimisations bound by
 * differential tests to produce bit-identical results; any spec no
 * kernel takes (traces whose pcs exceed the flat-table bound, FS
 * without a likely map) silently takes the virtual path and is merely
 * slower. Coverage is observable via the
 * engine.replay.kernel.{specialized,fallback,batch},
 * engine.replay.closed_form and engine.replay.per_pc counters; CI
 * gates fallback == 0, closed_form == 50 and per_pc == 20 on the
 * paper suite, which walks no stream.
 */

#ifndef BRANCHLAB_CORE_REPLAY_KERNEL_HH
#define BRANCHLAB_CORE_REPLAY_KERNEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/runner.hh"
#include "predict/replay_kernels.hh"

namespace branchlab::core
{

/** Scheme families the replay engine evaluates. */
enum class SchemeKind
{
    Sbtb,
    Cbtb,
    AlwaysTaken,
    AlwaysNotTaken,
    BackwardTaken,
    OpcodeBias,
    ForwardSemantic,
};

/**
 * A replayable (scheme, config) pair. Only the fields relevant to
 * `kind` are consulted: btb for Sbtb/Cbtb, counter for Cbtb, likely
 * for ForwardSemantic (must outlive the call).
 */
struct KernelSpec
{
    SchemeKind kind = SchemeKind::Sbtb;
    predict::BufferConfig btb{};
    predict::CounterConfig counter{};
    const predict::LikelyMap *likely = nullptr;

    bool operator==(const KernelSpec &) const = default;
};

/** Build the virtual-dispatch predictor a spec describes (the
 *  fallback path, and the reference half of differential tests). */
std::unique_ptr<predict::BranchPredictor>
makePredictor(const KernelSpec &spec);

/**
 * Replay a stream against one spec: a kernel when one takes it
 * (engine.replay.kernel.specialized), the virtual path otherwise
 * (engine.replay.kernel.fallback). Results are bit-identical either
 * way.
 */
ReplayResult replayKernel(const trace::TraceView &view,
                          const KernelSpec &spec);

/** Replay a stream against several specs in one fused trace walk
 *  (plus one virtual walk for the specs no kernel takes). Results are
 *  in spec order. */
std::vector<ReplayResult>
replayManyKernel(const trace::TraceView &view,
                 const std::vector<KernelSpec> &specs);

/** A stateless spec's replayKernel result from @p profile's per-pc
 *  tallies (engine.replay.closed_form): a not-taken prediction scores
 *  notTaken, a taken conditional its taken count (nextCount(target)
 *  would merge both sides when the target is the fall-through), a
 *  taken unconditional to X nextCount(X). Nullopt for SBTB, CBTB,
 *  FS without a likely map, and refused profiles. */
std::optional<ReplayResult>
scoreClosedForm(const profile::ProgramProfile &profile,
                const KernelSpec &spec);

/** A non-evicting SBTB or CBTB spec's replayKernel result from
 *  @p profile's per-pc histories (engine.replay.per_pc; also adds
 *  the predict.{sbtb,cbtb}.{lookups,hits} its kernel would). Nullopt
 *  for other kinds, for a geometry some set of which holds more
 *  candidate pcs than ways, for a @p view (the stream @p profile was
 *  folded from) with an anomalous-next event, and for a profile that
 *  tallies a non-branch pc or whose histories disagree with their
 *  instructions. */
std::optional<ReplayResult>
scorePerPc(const trace::TraceView &view,
           const profile::ProgramProfile &profile, const KernelSpec &spec);

/** One conditional branch's CBTB counts over its executions. */
struct CounterScore
{
    std::uint64_t correct = 0;
    std::uint64_t predictedTaken = 0;
};

/**
 * The CBTB's counts over the @p n >= 1 outcomes of one conditional
 * branch's @p history, with @p counter (T its threshold): the first
 * execution misses, predicts not taken and inserts the counter at T
 * (taken) or T - 1; every later one predicts taken when the counter
 * is at least T, then steps it. scorePerPc's CBTB step, exposed for
 * the differential tests: it steps once per run of equal outcomes,
 * not once per outcome (see the file comment).
 */
CounterScore
scoreCounterHistory(const profile::BranchHistory &history, std::uint64_t n,
                    const predict::CounterConfig &counter);

/** replayManyKernel, but every spec scoreClosedForm or scorePerPc
 *  takes is scored from @p profile (folded from @p view) instead of
 *  walked; one SBTB score serves every SBTB spec scored, one CBTB
 *  score every CBTB spec of a counter config. */
std::vector<ReplayResult>
replayProfiled(const trace::TraceView &view,
               const profile::ProgramProfile &profile,
               const std::vector<KernelSpec> &specs);

/**
 * Batch-replay both hardware schemes at N sweep grid points in one
 * walk of the stream (engine.replay.kernel.batch). Points that differ
 * only in their counter share one SBTB kernel, so predict.sbtb.*
 * counts one kernel's lookups per distinct geometry. On a stream past
 * the flat-table bound all 2N predictors share one virtual walk;
 * every cell is bit-identical to a standalone replay of its point.
 */
std::vector<predict::BtbBatchCell>
replayBatch(const trace::TraceView &view,
            const std::vector<predict::BtbBatchPoint> &points);

/** replayBatch, but the cells scorePerPc takes are scored from
 *  @p profile (folded from @p view) and only the rest walk; the batch
 *  counts as a walk only when some cell walked. */
std::vector<predict::BtbBatchCell>
replayBatch(const trace::TraceView &view,
            const profile::ProgramProfile &profile,
            const std::vector<predict::BtbBatchPoint> &points);

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_REPLAY_KERNEL_HH
