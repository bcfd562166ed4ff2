/**
 * @file
 * SoaTrace out-of-line members: the v2 encoder.
 */

#include "trace/soa.hh"

#include <algorithm>

#include "trace/varint.hh"
#include "trace/view.hh"

namespace branchlab::trace
{

void
SoaTrace::clear()
{
    ops_.clear();
    conditionalPlane_.clear();
    takenPlane_.clear();
    targetKnownPlane_.clear();
    anomalyPlane_.clear();
    deltas_.clear();
    anomalyDeltas_.clear();
    prevPc_ = 0;
    maxPc_ = 0;
}

void
SoaTrace::reserve(std::size_t n)
{
    const std::size_t plane_bytes = (n + 7) / 8;
    ops_.reserve(n);
    conditionalPlane_.reserve(plane_bytes);
    takenPlane_.reserve(plane_bytes);
    targetKnownPlane_.reserve(plane_bytes);
    anomalyPlane_.reserve(plane_bytes);
    deltas_.reserve(3 * n);
}

void
SoaTrace::append(const BranchEvent &event)
{
    const std::size_t i = ops_.size();
    ops_.push_back(static_cast<std::uint8_t>(event.op));
    if ((i & 7) == 0) {
        conditionalPlane_.push_back(0);
        takenPlane_.push_back(0);
        targetKnownPlane_.push_back(0);
        anomalyPlane_.push_back(0);
    }
    const auto bit = static_cast<std::uint8_t>(1u << (i & 7));
    if (event.conditional)
        conditionalPlane_.back() |= bit;
    if (event.taken)
        takenPlane_.back() |= bit;
    if (event.targetKnown)
        targetKnownPlane_.back() |= bit;
    // "Anomalous next" events (never VM-emitted, but representable)
    // carry their nextPc in a side column.
    const ir::Addr implied =
        event.taken ? event.targetAddr : event.fallthroughAddr;
    if (event.nextPc != implied) {
        anomalyPlane_.back() |= bit;
        putVarint(anomalyDeltas_, zigzag(event.nextPc - event.pc));
    }
    // One interleaved triple per event, so the decoder fills each
    // event in a single sequential pass.
    putVarint(deltas_, zigzag(event.pc - prevPc_));
    putVarint(deltas_, zigzag(event.targetAddr - event.pc));
    putVarint(deltas_, zigzag(event.fallthroughAddr - event.pc));
    prevPc_ = event.pc;
    maxPc_ = std::max(maxPc_, event.pc);
}

SoaTrace
SoaTrace::fromEvents(const std::vector<BranchEvent> &events)
{
    SoaTrace out;
    out.reserve(events.size());
    for (const BranchEvent &event : events)
        out.append(event);
    return out;
}

std::vector<BranchEvent>
SoaTrace::toEvents() const
{
    std::vector<BranchEvent> out;
    out.reserve(size());
    const TraceView view = TraceView::of(*this);
    TraceView::Cursor cursor = view.cursor();
    TraceBlock block;
    while (cursor.next(block))
        for (std::size_t i = 0; i < block.count; ++i)
            out.push_back(block.event(i));
    return out;
}

} // namespace branchlab::trace
