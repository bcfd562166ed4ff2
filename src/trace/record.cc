#include "trace/record.hh"

#include "support/logging.hh"

namespace branchlab::trace
{

void
BranchRecorder::onBranch(const BranchEvent &event)
{
    events_.push_back(event);
}

void
BranchRecorder::replayInto(TraceSink &sink) const
{
    for (const BranchEvent &event : events_)
        sink.onBranch(event);
}

void
InstRecorder::onInstruction(const InstEvent &event)
{
    addrs_.push_back(event.pc);
}

void
FanoutSink::addSink(TraceSink *sink)
{
    blab_assert(sink != nullptr, "null sink");
    sinks_.push_back(sink);
}

bool
FanoutSink::wantsInstructions() const
{
    for (const TraceSink *sink : sinks_) {
        if (sink->wantsInstructions())
            return true;
    }
    return false;
}

void
FanoutSink::onInstruction(const InstEvent &event)
{
    for (TraceSink *sink : sinks_) {
        if (sink->wantsInstructions())
            sink->onInstruction(event);
    }
}

void
FanoutSink::onBlock(const TraceBlock &block)
{
    for (TraceSink *sink : sinks_)
        sink->onBlock(block);
}

void
FanoutSink::onBranch(const BranchEvent &event)
{
    for (TraceSink *sink : sinks_)
        sink->onBranch(event);
}

} // namespace branchlab::trace
