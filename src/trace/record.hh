/**
 * @file
 * Recording and fan-out trace sinks.
 */

#ifndef BRANCHLAB_TRACE_RECORD_HH
#define BRANCHLAB_TRACE_RECORD_HH

#include <vector>

#include "trace/event.hh"

namespace branchlab::trace
{

/** Buffers every branch event in memory (tests, replay). */
class BranchRecorder : public TraceSink
{
  public:
    BranchRecorder() = default;

    /** Pre-reserve capacity for @p reserve_hint events, sparing the
     *  engine's record pass the early geometric regrowth copies. */
    explicit BranchRecorder(std::size_t reserve_hint)
    {
        events_.reserve(reserve_hint);
    }

    void onBranch(const BranchEvent &event) override;

    const std::vector<BranchEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

    /** Grow capacity to at least @p capacity events. */
    void reserve(std::size_t capacity) { events_.reserve(capacity); }

    /** Move the recorded events out, leaving the recorder in a
     *  defined empty state (a moved-from vector is only guaranteed
     *  "valid but unspecified", so clear it before reuse). */
    std::vector<BranchEvent> takeEvents()
    {
        std::vector<BranchEvent> taken = std::move(events_);
        events_.clear();
        return taken;
    }

    /** Replay all recorded events into another sink. */
    void replayInto(TraceSink &sink) const;

  private:
    std::vector<BranchEvent> events_;
};

/** Buffers the full committed instruction stream (addresses). */
class InstRecorder : public TraceSink
{
  public:
    bool wantsInstructions() const override { return true; }
    void onInstruction(const InstEvent &event) override;
    void onBranch(const BranchEvent &event) override { (void)event; }

    const std::vector<ir::Addr> &addrs() const { return addrs_; }
    void clear() { addrs_.clear(); }

  private:
    std::vector<ir::Addr> addrs_;
};

/** Forwards events to several sinks in order. Does not own them.
 *  A block goes to each sink whole, one sink after the other, so the
 *  sinks must not read one another's state. */
class FanoutSink : public TraceSink
{
  public:
    void addSink(TraceSink *sink);

    bool wantsInstructions() const override;
    void onInstruction(const InstEvent &event) override;
    void onBlock(const TraceBlock &block) override;
    void onBranch(const BranchEvent &event) override;

  private:
    std::vector<TraceSink *> sinks_;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_RECORD_HH
