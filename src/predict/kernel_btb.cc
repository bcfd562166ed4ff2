/**
 * @file
 * BTB replay kernels: SBTB, CBTB (per counter width), and the batch
 * driver that replays one stream against many grid points per pass.
 */

#include <algorithm>
#include <memory>

#include "obs/metrics.hh"
#include "predict/replay_kernels.hh"

namespace branchlab::predict
{

SbtbKernel::SbtbKernel(const BufferConfig &config)
    : buffer_(kernelIndexedConfig(config))
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
SbtbKernel::run(const trace::TraceView &view)
{
    return runKernelOverView(*this, view);
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
    : buffer_(kernelIndexedConfig(buffer)), counter_(counter)
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
CbtbKernel::run(const trace::TraceView &view)
{
    // stepBlock monomorphizes the common counter widths so the
    // saturation ceiling is a compile-time constant per block.
    return runKernelOverView(*this, view);
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

std::vector<BtbBatchCell>
runBtbBatch(const trace::TraceView &view,
            const std::vector<BtbBatchPoint> &points)
{
    // Kernels are non-movable (their destructors fold telemetry), so
    // hold them by pointer. Allocation cost is per batch, not per
    // event. SBTB state depends on the buffer geometry alone, so
    // points differing only in their counter share one SBTB kernel
    // (sbtbOf maps each point to it); every point keeps its own CBTB.
    const std::size_t num_points = points.size();
    std::vector<std::unique_ptr<SbtbKernel>> sbtbs;
    std::vector<BufferConfig> sbtbConfigs;
    std::vector<std::size_t> sbtbOf(num_points);
    std::vector<std::unique_ptr<CbtbKernel>> cbtbs;
    cbtbs.reserve(num_points);
    for (std::size_t p = 0; p < num_points; ++p) {
        const BufferConfig config = kernelIndexedConfig(points[p].btb);
        const auto shared =
            std::find(sbtbConfigs.begin(), sbtbConfigs.end(), config);
        sbtbOf[p] = static_cast<std::size_t>(shared - sbtbConfigs.begin());
        if (shared == sbtbConfigs.end()) {
            sbtbConfigs.push_back(config);
            sbtbs.push_back(std::make_unique<SbtbKernel>(config));
        }
        cbtbs.push_back(
            std::make_unique<CbtbKernel>(points[p].btb, points[p].counter));
    }

    // Strip-mined, events outer: decode one L1-resident block of the
    // stream, then advance every kernel's predictor state over it in a
    // tight per-kernel loop. Each kernel still sees the events in
    // stream order, so the cells match a point-at-a-time replay
    // bit-for-bit.
    std::vector<KernelEvent> events(kKernelBlockEvents);
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    while (cursor.next(block)) {
        fillKernelBlock(block, events.data());
        for (const auto &kernel : sbtbs)
            kernel->stepBlock(events.data(), block.count);
        for (const auto &kernel : cbtbs)
            kernel->stepBlock(events.data(), block.count);
    }

    std::vector<BtbBatchCell> cells(num_points);
    for (std::size_t p = 0; p < num_points; ++p) {
        cells[p].sbtb = sbtbs[sbtbOf[p]]->result();
        cells[p].cbtb = cbtbs[p]->result();
    }
    return cells;
}

} // namespace branchlab::predict
