#include "trace/stats.hh"

#include <bit>

namespace branchlab::trace
{

void
TraceStats::onBlock(const TraceBlock &block)
{
    branches_ += block.count;
    const std::size_t bytes = (block.count + 7) / 8;
    for (std::size_t byte = 0; byte < bytes; ++byte) {
        const unsigned live = byte + 1 == bytes && (block.count & 7) != 0
                                  ? (1u << (block.count & 7)) - 1
                                  : 0xffu;
        const unsigned cond = block.condPlane[byte] & live;
        conditional_ += std::popcount(cond);
        condTaken_ += std::popcount(cond & block.takenPlane[byte]);
        uncondKnown_ +=
            std::popcount(~cond & live & block.targetKnownPlane[byte]);
    }
}

void
TraceStats::onBranch(const BranchEvent &event)
{
    const BlockBuffer<1> one(event);
    onBlock(one.block());
}

void
TraceStats::merge(const TraceStats &other)
{
    instructions_ += other.instructions_;
    branches_ += other.branches_;
    conditional_ += other.conditional_;
    condTaken_ += other.condTaken_;
    uncondKnown_ += other.uncondKnown_;
}

double
TraceStats::controlFraction() const
{
    if (instructions_ == 0)
        return 0.0;
    return static_cast<double>(branches_) /
           static_cast<double>(instructions_);
}

double
TraceStats::conditionalTakenFraction() const
{
    if (conditional_ == 0)
        return 0.0;
    return static_cast<double>(condTaken_) /
           static_cast<double>(conditional_);
}

double
TraceStats::unconditionalKnownFraction() const
{
    const std::uint64_t uncond = unconditionalBranches();
    if (uncond == 0)
        return 0.0;
    return static_cast<double>(uncondKnown_) / static_cast<double>(uncond);
}

double
TraceStats::conditionalFraction() const
{
    if (branches_ == 0)
        return 0.0;
    return static_cast<double>(conditional_) /
           static_cast<double>(branches_);
}

double
TraceStats::instructionsPerBranch() const
{
    if (branches_ == 0)
        return 0.0;
    return static_cast<double>(instructions_) /
           static_cast<double>(branches_);
}

} // namespace branchlab::trace
