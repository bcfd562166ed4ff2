/**
 * @file
 * Kernel-dispatched replay: the engine-side registry that maps a
 * (scheme, config) pair onto a monomorphized replay kernel
 * (predict/replay_kernels.hh), falling back to the virtual-dispatch
 * PredictionDriver path for anything it does not recognise.
 *
 * The fallback is not an afterthought -- it *is* the reference
 * semantics. Kernels are an optimisation bound by differential tests
 * to produce bit-identical results; any spec the registry cannot
 * match (custom bias maps, traces whose pcs exceed the flat-table
 * bound, future schemes) silently takes the virtual path and is
 * merely slower. Coverage is observable via the
 * engine.replay.kernel.{specialized,fallback,batch} counters; CI
 * gates fallback == 0 for the paper's schemes.
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
