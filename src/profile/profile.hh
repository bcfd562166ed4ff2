/**
 * @file
 * Profile collection: per-branch direction/target counts and
 * per-block/arc execution weights, gathered from the VM's branch
 * stream. This is the "program is first compiled into an executable
 * intermediate form with probes" step of the Forward Semantic (paper
 * section 2.2); we observe terminators instead of inserting probes,
 * which yields identical counts.
 *
 * The profile runs on every recorded event, so it folds a block at a
 * time (onBlock(): the VM's blocks on a cold record, a view's blocks
 * in foldProfile(); onBranch() is a one-event block through the same
 * loop) into dense tables. A pc-indexed slot table sized by the
 * program's layout (four bytes per code address) gives each executed
 * branch a dense ordinal, and every pc is bounds-checked against the
 * layout's code end before it indexes a table. A (prev, pc) path
 * context is found by its ordinal pair: first in the previous
 * branch's successor of the same taken bit, else in an open-addressed
 * index. Both grow with the pairs that executed, never with the
 * square of the branches. Each tally keeps one cell per side of the
 * taken bit holding that side's first next pc, so a branch whose
 * next pc the taken bit fixes -- conditionals, jumps, direct calls --
 * keeps no next-pc list; only executions that continue elsewhere
 * (Ret, JTab, CallInd, anomalies) go to a short ascending list.
 *
 * Table 1/2's counters are per-pc sums of these tallies, so the
 * record pass derives them (traceCounters()) instead of counting
 * each event a second time.
 *
 * Beside its tallies each branch keeps a BranchHistory, the one
 * per-pc record that is ordered in time: a conditional branch's
 * outcome bits (one bit per execution), or for any other branch the
 * number of executions that continued where the previous one did.
 * A buffer that never evicts treats each pc as its own small
 * automaton, so core::scorePerPc scores the SBTB and CBTB from these
 * histories instead of walking the stream.
 */

#ifndef BRANCHLAB_PROFILE_PROFILE_HH
#define BRANCHLAB_PROFILE_PROFILE_HH

#include <optional>
#include <utility>
#include <vector>

#include "ir/layout.hh"
#include "ir/program.hh"
#include "predict/profile_predictor.hh"
#include "trace/cache.hh"
#include "trace/event.hh"
#include "trace/view.hh"

namespace branchlab::profile
{

/**
 * Dynamic counts for one static branch instruction, or for one path
 * context of it. `taken` and `notTaken` are read-only outside add()
 * and the constructor; the next-pc distribution is kept as each
 * side's first next pc plus a list of the executions that continued
 * elsewhere (see the file comment), and read through nextCounts(),
 * nextCount() and dominantTarget().
 */
class BranchCounts
{
  public:
    using NextCounts = std::vector<std::pair<ir::Addr, std::uint64_t>>;

    std::uint64_t taken = 0;
    std::uint64_t notTaken = 0;

    BranchCounts() = default;

    /** Counts with next-PC distribution @p next (ascending addresses,
     *  every count nonzero, summing to taken + notTaken). */
    BranchCounts(std::uint64_t taken_count, std::uint64_t not_taken_count,
                 NextCounts next);

    std::uint64_t executions() const { return taken + notTaken; }
    bool majorityTaken() const { return taken > notTaken; }
    /** Most frequent dynamic target, the lowest address on a tie
     *  (kNoAddr when never executed). */
    ir::Addr dominantTarget() const;
    /** Executions that continued at @p next (0 when none did). */
    std::uint64_t nextCount(ir::Addr next) const;
    /** Dynamic next-PC distribution (targets of taken executions and,
     *  for conditionals, the fallthrough address of not-taken ones):
     *  ascending addresses, every count nonzero. */
    NextCounts nextCounts() const;

    /** Tally one execution that continued at @p next: the one tally
     *  routine of every branch and path cell. */
    void
    add(bool taken_branch, ir::Addr next)
    {
        std::uint64_t &side = taken_branch ? taken : notTaken;
        if (side++ == 0)
            first_[taken_branch] = next;
        else if (next != first_[taken_branch])
            addElsewhere(taken_branch, next);
    }

    /** Equal tallies: the same counts and next-PC distribution. */
    bool operator==(const BranchCounts &other) const;

  private:
    void addElsewhere(bool taken_branch, ir::Addr next);

    /** Visit the distribution as (addr, count), ascending. */
    template <typename Visit> void forEachNext(Visit &&visit) const;

    /** Per side (index: the taken bit), the next pc of its first
     *  execution; every execution of the side that did not continue
     *  elsewhere continued there. */
    ir::Addr first_[2] = {ir::kNoAddr, ir::kNoAddr};
    /** Per side, the executions that continued elsewhere. */
    std::uint64_t elsewhere_[2] = {0, 0};
    /** Where those executions continued: ascending, counts nonzero;
     *  an address may also be a side's first next pc. */
    NextCounts others_;
};

/**
 * One branch's executions in order, as far as a buffer that never
 * evicts can tell them apart (core::scorePerPc): a conditional branch
 * keeps its outcome bits, any other branch a tally of the executions
 * that continued where its previous execution did. Which record a
 * branch keeps is fixed by its first execution; in a stream the VM
 * emits, every execution of a pc agrees.
 */
struct BranchHistory
{
    /** Whether the branch's first execution was conditional. */
    bool conditional = false;
    /** Conditional branches: execution i's taken bit is bit i % 64 of
     *  word i / 64, one bit per execution. */
    std::vector<std::uint64_t> outcomes;
    /** Other branches: the executions whose next pc equals the
     *  previous execution's. */
    std::uint64_t repeats = 0;
    /** Other branches: the last execution's next pc (kNoAddr before
     *  the first), so a restored profile keeps folding identically. */
    ir::Addr lastNext = ir::kNoAddr;

    /** Record the branch's execution number @p n (from 0). */
    void
    add(std::uint64_t n, bool taken, ir::Addr next)
    {
        if (conditional) {
            if (n % 64 == 0)
                outcomes.push_back(0);
            outcomes.back() |= std::uint64_t{taken} << (n % 64);
        } else {
            repeats += n != 0 && next == lastNext ? 1 : 0;
            lastNext = next;
        }
    }

    /** Execution @p i's taken bit (conditional branches). */
    bool
    outcome(std::uint64_t i) const
    {
        return (outcomes[i / 64] >> (i % 64) & 1) != 0;
    }
};

/** One executed branch: its tallies and history, and its
 *  instruction's static facts as makeQuery() derives them from each
 *  event the VM emits. */
struct BranchSite
{
    predict::BranchQuery query;
    const BranchCounts *counts = nullptr;
    const BranchHistory *history = nullptr;
};

/**
 * A weighted arc of the control-flow graph, local to a function.
 */
struct Arc
{
    ir::BlockId from;
    ir::BlockId to;
    std::uint64_t weight;
};

/**
 * Profile of one program over one or more runs. Attach as a trace
 * sink during the profiling runs, then query.
 */
class ProgramProfile : public trace::TraceSink
{
  public:
    ProgramProfile(const ir::Program &program, const ir::Layout &layout);

    /**
     * Restore a profile from exportRows() output (the trace cache's
     * profile section) over @p runs noted runs. The result answers
     * every query exactly as the exported profile did, and further
     * onBlock() calls continue its fold identically. Rows must be in
     * exportRows() order, and every path context and the last pc must
     * be a profiled branch, as the entry validator requires; a row
     * whose pc lies past the layout's code end is fatal
     * (core::recordWorkload refuses such entries first).
     */
    ProgramProfile(const ir::Program &program, const ir::Layout &layout,
                   std::uint64_t runs, const trace::CachedProfile &rows);

    /** Tally one block of events in order: the one fold. A pc past
     *  the layout's code end is fatal, before any of the block is
     *  tallied: such a stream did not come from this program. */
    void onBlock(const trace::TraceBlock &block) override;

    /** Tally one event (a one-event block). */
    void onBranch(const trace::BranchEvent &event) override;

    /** Record that a run started (weights the entry block). Also
     *  clears the path context, but every caller notes all of its
     *  runs before the first event (see pathCounts()). */
    void
    noteRun()
    {
        ++runs_;
        prevSlot_ = 0;
    }

    std::uint64_t runs() const { return runs_; }

    /** Counts for the branch at @p pc (zeros when never executed). */
    const BranchCounts &branchCounts(ir::Addr pc) const;

    /**
     * Counts for the branch at @p pc restricted to executions whose
     * immediately preceding event in the fold was at @p prevPc (zeros
     * when the pair never executed). Every block transition is a
     * terminator execution, so the previous event identifies the
     * dynamic predecessor block -- the path correlation the
     * superblock pass duplicates for.
     *
     * Only noteRun() clears the context, and every caller (the
     * record pass and foldProfile()) notes all of its runs before the
     * first event: a recorded stream carries no run boundaries.
     * Contexts therefore span runs -- the first event of run r+1 is
     * tallied under the last event of run r -- and only the stream's
     * very first event has none. The shipped result digests pin this
     * behaviour.
     */
    const BranchCounts &pathCounts(ir::Addr pc, ir::Addr prevPc) const;

    /**
     * Execution count of a block: the execution count of its
     * terminator (every block ends in one). Blocks ending in Halt use
     * the recorded run count.
     */
    std::uint64_t blockWeight(ir::FuncId func, ir::BlockId block) const;

    /**
     * Weighted intra-function arcs leaving @p block:
     *  - conditional: taken-target and fallthrough arcs;
     *  - Jmp: the target arc;
     *  - JTab: one arc per observed dynamic target;
     *  - Call/CallInd: the continuation arc (the callee is another
     *    function; trace selection is function-local);
     *  - Ret/Halt: none.
     */
    std::vector<Arc> outArcs(ir::FuncId func, ir::BlockId block) const;

    /**
     * Build the likely map the Forward Semantic compiles into the
     * binary: per conditional branch the majority direction, per
     * branch the dominant dynamic target.
     */
    predict::LikelyMap buildLikelyMap() const;

    /** Every executed branch, ascending by pc: the closed-form and
     *  per-pc scorers' one source of per-pc facts. Nullopt when a
     *  tallied pc holds no branch (a stream this program did not
     *  emit). */
    std::optional<std::vector<BranchSite>> branchSites() const;

    /** Every tally as canonical rows (lossless: the restore
     *  constructor rebuilds this profile from them exactly). */
    trace::CachedProfile exportRows() const;

    /**
     * Table 1/2's counters of the folded stream, summed over
     * branchSites() with @p instructions as the executed-instruction
     * total: every execution is a branch, conditional sites split
     * taken from not taken, and an unconditional site counts as known
     * when ir::hasKnownTarget() holds for its opcode -- the
     * classification the VM gives each event. Exact for every stream
     * the VM emits for this program; a tallied pc that holds no
     * branch is fatal.
     */
    trace::TraceCounters traceCounters(std::uint64_t instructions) const;

    const ir::Program &program() const { return prog_; }
    const ir::Layout &layout() const { return layout_; }

  private:
    /** One executed branch, by ordinal. */
    struct Branch
    {
        ir::Addr pc = ir::kNoAddr;
        BranchCounts counts;
        BranchHistory history;
        /** Per side of the taken bit, the pair this branch last led
         *  into: the next event's slot and the pair's index in paths_.
         *  A branch whose next pc the taken bit fixes always leads to
         *  the same branch, so the fold finds almost every pair here
         *  without probing the index. */
        std::uint32_t succSlot[2] = {0, 0};
        std::uint32_t succPath[2] = {0, 0};
    };

    /** One executed (prev, pc) pair, as slots (1 + ordinal). */
    struct Path
    {
        std::uint32_t slot = 0;
        std::uint32_t prevSlot = 0;
        BranchCounts counts;
    };

    /** One entry of the open-addressed path index: key 0 is empty. */
    struct PathIndexEntry
    {
        std::uint64_t key = 0;
        std::uint32_t path = 0;
    };

    /** Address of a block's terminator instruction. */
    ir::Addr terminatorAddr(ir::FuncId func, ir::BlockId block) const;

    /** The tallies of the branch at @p pc (null when it never
     *  executed, or lies outside the code). */
    const Branch *find(ir::Addr pc) const;

    /** The slot of the branch at @p pc, created on first use; a pc
     *  past the code end is fatal. */
    std::uint32_t slotFor(ir::Addr pc);

    [[noreturn]] void pastCodeEnd(ir::Addr pc) const;
    /** Give the branch at @p pc (inside the code), whose first
     *  execution was @p conditional, the next slot. */
    std::uint32_t addBranch(ir::Addr pc, bool conditional);

    /** The index of @p key's path entry, or of the empty entry where
     *  it would go. */
    std::size_t probe(std::uint64_t key) const;

    /** The index in paths_ of the pair (@p prev_slot, @p slot),
     *  created on first use. */
    std::uint32_t pathOf(std::uint32_t prev_slot, std::uint32_t slot);

    const ir::Program &prog_;
    const ir::Layout &layout_;
    /** Indexed by pc, sized to the layout's code end: 0 for a branch
     *  that never executed, else its slot, 1 + its ordinal. */
    std::vector<std::uint32_t> slotOf_;
    /** Executed branches, by ordinal (first-execution order). */
    std::vector<Branch> branches_;
    /** Executed pairs, in first-execution order. */
    std::vector<Path> paths_;
    /** paths_ by (prevSlot << 32 | slot): a power-of-two table at
     *  most half full, so memory grows with the pairs that executed. */
    std::vector<PathIndexEntry> pathIndex_;
    /** The preceding event's slot; 0 before a stream's first event. */
    std::uint32_t prevSlot_ = 0;
    /** The preceding event's taken bit (which successor to try). */
    bool prevTaken_ = false;
    std::uint64_t runs_ = 0;
    BranchCounts zero_;
};

/**
 * Fold a recorded stream into the profile its record pass collected
 * online: @p runs noteRun() calls, then every view block in order
 * through onBlock(), the record pass's own fold. A pure fold, so the
 * result equals the online profile exactly. No product path folds a
 * stream -- a trace-cache entry carries its profile, and
 * core::recordWorkload re-records one that does not -- so only tests
 * call it, to hold the online and the restored profiles to the
 * stream they came from.
 */
ProgramProfile foldProfile(const ir::Program &program,
                           const ir::Layout &layout, std::uint64_t runs,
                           const trace::TraceView &view);

} // namespace branchlab::profile

#endif // BRANCHLAB_PROFILE_PROFILE_HH
