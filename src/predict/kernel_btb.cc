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
SbtbKernel::result() const
{
    KernelReplayResult out;
    out.stats = acc_.toStats();
    Ratio lookups;
    lookups.add(lookupHits_, lookups_);
    out.missRatio = lookups.complement();
    out.hasMissRatio = true;
    return out;
}

CbtbKernel::CbtbKernel(const BufferConfig &buffer,
                       const CounterConfig &counter)
    : buffer_(buffer), counter_(counter)
{
    blab_assert(counter_.bits >= 1 && counter_.bits <= 16,
                "counter bits out of range");
    maxCount_ = (1u << counter_.bits) - 1;
    blab_assert(counter_.threshold >= 1 &&
                    counter_.threshold <= maxCount_,
                "threshold must lie within the counter range");
}

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
    KernelReplayResult out;
    out.stats = acc_.toStats();
    Ratio lookups;
    lookups.add(lookupHits_, lookups_);
    out.missRatio = lookups.complement();
    out.hasMissRatio = true;
    return out;
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
