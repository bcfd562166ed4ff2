/**
 * @file
 * Kernel-dispatched replay: the engine-side registry that maps a
 * (scheme, config) pair onto a monomorphized replay kernel
 * (predict/replay_kernels.hh), falling back to the virtual-dispatch
 * PredictionDriver path for anything it does not recognise.
 *
 * Beside it, scoreClosedForm() reads the stateless schemes off a
 * profile's per-pc tallies: exact for a profile folded from a stream
 * the VM emitted for its own program (all recordWorkload returns).
 *
 * The fallback is not an afterthought -- it *is* the reference
 * semantics. Kernels are an optimisation bound by differential tests
 * to produce bit-identical results; any spec the registry cannot
 * match (custom bias maps, traces whose pcs exceed the flat-table
 * bound, future schemes) silently takes the virtual path and is
 * merely slower. Coverage is observable via the
 * engine.replay.kernel.{specialized,fallback,batch} and
 * engine.replay.closed_form counters; CI gates fallback == 0 and
 * closed_form == 50 on the paper suite.
 */

#ifndef BRANCHLAB_CORE_REPLAY_KERNEL_HH
#define BRANCHLAB_CORE_REPLAY_KERNEL_HH

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
    Gshare,
};

/**
 * A replayable (scheme, config) pair. Only the fields relevant to
 * `kind` are consulted: btb for Sbtb/Cbtb, counter for Cbtb, gshare
 * for Gshare, likely for ForwardSemantic (must outlive the call).
 */
struct KernelSpec
{
    SchemeKind kind = SchemeKind::Sbtb;
    predict::BufferConfig btb{};
    predict::CounterConfig counter{};
    predict::GshareConfig gshare{};
    const predict::LikelyMap *likely = nullptr;
};

/** One registry row: can this spec run as a kernel on this stream,
 *  and if so, run it. Streams arrive as views, so one row serves both
 *  cold SoA traces and mmap'd cache entries. */
struct KernelRegistration
{
    const char *name;
    bool (*matches)(const KernelSpec &spec,
                    const trace::TraceView &view);
    predict::KernelReplayResult (*run)(const KernelSpec &spec,
                                       const trace::TraceView &view);
};

/** The ordered kernel registry (first match wins). */
const std::vector<KernelRegistration> &kernelRegistry();

/** Build the virtual-dispatch predictor a spec describes (the
 *  fallback path, and the reference half of differential tests). */
std::unique_ptr<predict::BranchPredictor>
makePredictor(const KernelSpec &spec);

/**
 * Replay a stream against one spec: a registered kernel when one
 * matches (engine.replay.kernel.specialized), the virtual path
 * otherwise (engine.replay.kernel.fallback). Results are bit-
 * identical either way.
 */
ReplayResult replayKernel(const trace::TraceView &view,
                          const KernelSpec &spec);

/** Replay a stream against several specs in one fused trace walk.
 *  Results are in spec order. */
std::vector<ReplayResult>
replayManyKernel(const trace::TraceView &view,
                 const std::vector<KernelSpec> &specs);

/** A stateless spec's replayKernel result from @p profile's per-pc
 *  tallies (engine.replay.closed_form): a not-taken prediction scores
 *  notTaken, a taken conditional its taken count (nextCount(target)
 *  would merge both sides when the target is the fall-through), a
 *  taken unconditional to X nextCount(X). Nullopt for SBTB, CBTB,
 *  gshare, FS without a likely map, and refused profiles. */
std::optional<ReplayResult>
scoreClosedForm(const profile::ProgramProfile &profile,
                const KernelSpec &spec);

/** replayManyKernel, but every spec scoreClosedForm takes is scored
 *  from @p profile (folded from @p view) instead of walked. */
std::vector<ReplayResult>
replayProfiled(const trace::TraceView &view,
               const profile::ProgramProfile &profile,
               const std::vector<KernelSpec> &specs);

/**
 * Batch-replay both hardware schemes at N sweep grid points in one
 * walk of the stream (engine.replay.kernel.batch). Falls back to
 * point-by-point virtual replay for ineligible streams; every cell is
 * bit-identical to a standalone replay of its point.
 */
std::vector<predict::BtbBatchCell>
replayBatch(const trace::TraceView &view,
            const std::vector<predict::BtbBatchPoint> &points);

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_REPLAY_KERNEL_HH
