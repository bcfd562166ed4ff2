/**
 * @file
 * BTB replay kernels: SBTB and CBTB (per counter width), and the one
 * walk that steps every kernel over a view.
 */

#include "obs/metrics.hh"
#include "predict/replay_kernels.hh"

namespace branchlab::predict
{

SbtbKernel::SbtbKernel(const BufferConfig &config)
    : buffer_(config)
{}

SbtbKernel::~SbtbKernel()
{
    if (!obs::enabled())
        return;
    auto &reg = obs::Registry::global();
    reg.counter("predict.sbtb.lookups").add(lookups_);
    reg.counter("predict.sbtb.hits").add(lookupHits_);
}

KernelReplayResult
btbResult(const KernelStats &acc, std::uint64_t lookups, std::uint64_t hits)
{
    KernelReplayResult out;
    out.stats = acc.toStats();
    Ratio ratio;
    ratio.add(hits, lookups);
    out.missRatio = ratio.complement();
    out.hasMissRatio = true;
    return out;
}

KernelReplayResult
SbtbKernel::result() const
{
    return btbResult(acc_, lookups_, lookupHits_);
}

CbtbKernel::CbtbKernel(const BufferConfig &buffer,
                       const CounterConfig &counter)
    : buffer_(buffer), counter_(counter), maxCount_(counterCeiling(counter))
{}

CbtbKernel::~CbtbKernel()
{
    if (!obs::enabled())
        return;
    auto &reg = obs::Registry::global();
    reg.counter("predict.cbtb.lookups").add(lookups_);
    reg.counter("predict.cbtb.hits").add(lookupHits_);
}

KernelReplayResult
CbtbKernel::result() const
{
    return btbResult(acc_, lookups_, lookupHits_);
}

void
walkKernels(const trace::TraceView &view,
            const std::vector<ReplayKernel *> &kernels)
{
    std::vector<KernelEvent> events(kKernelBlockEvents);
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    while (cursor.next(block)) {
        fillKernelBlock(block, events.data());
        for (ReplayKernel *kernel : kernels)
            kernel->stepBlock(events.data(), block.count);
    }
}

} // namespace branchlab::predict
