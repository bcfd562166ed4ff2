/**
 * @file
 * Dynamic branch statistics, mirroring the paper's Tables 1 and 2:
 * dynamic instruction count, fraction of control instructions,
 * conditional taken/not-taken split, unconditional known/unknown split.
 */

#ifndef BRANCHLAB_TRACE_STATS_HH
#define BRANCHLAB_TRACE_STATS_HH

#include <cstdint>

#include "support/stats.hh"
#include "trace/event.hh"

namespace branchlab::trace
{

class TraceStats;

/**
 * Plain-data snapshot of a TraceStats -- the five raw counters every
 * derived fraction is computed from. Serializable (the trace cache
 * persists one per workload) and convertible back losslessly.
 */
struct TraceCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t conditional = 0;
    std::uint64_t condTaken = 0;
    std::uint64_t uncondKnown = 0;

    bool operator==(const TraceCounters &) const = default;
};

/**
 * Accumulates branch statistics over one or many runs, a block at a
 * time from the bit-planes. Instruction totals are fed from the
 * machine's run result (cheaper than instruction-level tracing) via
 * addInstructions(). The record pass derives the same counters from
 * its profile instead (ProgramProfile::traceCounters); a trace-cache
 * map counts a mapped entry's planes through onBlock().
 */
class TraceStats : public TraceSink
{
  public:
    void onBlock(const TraceBlock &block) override;
    void onBranch(const BranchEvent &event) override;

    /** Add a run's total executed instruction count. */
    void addInstructions(std::uint64_t count) { instructions_ += count; }

    /** Merge another collector's totals into this one. */
    void merge(const TraceStats &other);

    /** Snapshot the raw counters (for serialization). */
    TraceCounters counters() const
    {
        return {instructions_, branches_, conditional_, condTaken_,
                uncondKnown_};
    }

    /** Rebuild a collector from a counter snapshot. */
    static TraceStats fromCounters(const TraceCounters &c)
    {
        TraceStats stats;
        stats.instructions_ = c.instructions;
        stats.branches_ = c.branches;
        stats.conditional_ = c.conditional;
        stats.condTaken_ = c.condTaken;
        stats.uncondKnown_ = c.uncondKnown;
        return stats;
    }

    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t branches() const { return branches_; }
    std::uint64_t conditionalBranches() const { return conditional_; }
    std::uint64_t unconditionalBranches() const
    {
        return branches_ - conditional_;
    }
    std::uint64_t conditionalTaken() const { return condTaken_; }
    std::uint64_t conditionalNotTaken() const
    {
        return conditional_ - condTaken_;
    }
    std::uint64_t unconditionalKnown() const { return uncondKnown_; }
    std::uint64_t unconditionalUnknown() const
    {
        return unconditionalBranches() - uncondKnown_;
    }

    /** Fraction of dynamic instructions that are branches ("Control"
     *  column of Table 1); 0 when no instructions were recorded. */
    double controlFraction() const;

    /** Fraction of conditional branches that were taken (Table 2). */
    double conditionalTakenFraction() const;

    /** Fraction of unconditional branches with known targets. */
    double unconditionalKnownFraction() const;

    /** Fraction of *all* branches that are conditional (the paper's
     *  f_cond, used for the m-bar averaging). */
    double conditionalFraction() const;

    /** Mean dynamic instructions between branches (paper: "about
     *  four"); 0 when no branches were recorded. */
    double instructionsPerBranch() const;

  private:
    std::uint64_t instructions_ = 0;
    std::uint64_t branches_ = 0;
    std::uint64_t conditional_ = 0;
    std::uint64_t condTaken_ = 0;
    std::uint64_t uncondKnown_ = 0;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_STATS_HH
