#include "predict/cbtb.hh"

#include "obs/metrics.hh"

namespace branchlab::predict
{

unsigned
counterCeiling(const CounterConfig &counter)
{
    blab_assert(counter.bits >= 1 && counter.bits <= 16,
                "counter bits out of range");
    const unsigned ceiling = (1u << counter.bits) - 1;
    blab_assert(counter.threshold >= 1 && counter.threshold <= ceiling,
                "threshold must lie within the counter range");
    return ceiling;
}

CounterBtb::CounterBtb(const BufferConfig &buffer,
                       const CounterConfig &counter)
    : buffer_(buffer), counter_(counter), maxCount_(counterCeiling(counter))
{}

CounterBtb::~CounterBtb()
{
    if (!obs::enabled())
        return;
    auto &reg = obs::Registry::global();
    reg.counter("predict.cbtb.lookups").add(lookups_.total());
    reg.counter("predict.cbtb.hits").add(lookups_.hits());
}

std::string
CounterBtb::name() const
{
    return "CBTB-" + std::to_string(buffer_.config().entries) + "-n" +
           std::to_string(counter_.bits) + "t" +
           std::to_string(counter_.threshold);
}

Prediction
CounterBtb::predict(const BranchQuery &query)
{
    Entry *entry = buffer_.find(query.pc);
    lookups_.record(entry != nullptr);
    if (entry == nullptr)
        return Prediction{false, ir::kNoAddr};
    if (entry->counter >= counter_.threshold)
        return Prediction{true, entry->target};
    return Prediction{false, ir::kNoAddr};
}

void
CounterBtb::update(const BranchQuery &query,
                   const trace::BranchEvent &outcome)
{
    Entry *entry = buffer_.find(query.pc);
    if (entry == nullptr) {
        entry = &buffer_.insert(query.pc);
        entry->counter = outcome.taken ? counter_.threshold
                                       : counter_.threshold - 1;
    } else if (outcome.taken) {
        if (entry->counter < maxCount_)
            ++entry->counter;
    } else {
        if (entry->counter > 0)
            --entry->counter;
    }
    // Track the most recent taken-path target; for conditional
    // branches this is the static target the hardware computes anyway.
    entry->target = outcome.targetAddr;
}

void
CounterBtb::flush()
{
    buffer_.flush();
}

int
CounterBtb::counterOf(ir::Addr pc) const
{
    const Entry *entry = buffer_.peek(pc);
    return entry == nullptr ? -1 : static_cast<int>(entry->counter);
}

} // namespace branchlab::predict
