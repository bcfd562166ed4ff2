/**
 * @file
 * Profile collection: per-branch direction/target counts and
 * per-block/arc execution weights, gathered from the VM's branch
 * stream. This is the "program is first compiled into an executable
 * intermediate form with probes" step of the Forward Semantic (paper
 * section 2.2); we observe terminators instead of inserting probes,
 * which yields identical counts.
 *
 * The profile runs on every recorded event, so its tallies live in
 * dense tables: a pc-indexed slot table sized by the program's layout
 * (four bytes per code address) points each executed branch at its
 * counts and its list of path contexts, sorted by the preceding
 * event's pc. Next-PC distributions are short ascending (address,
 * count) vectors. No event does a hash or tree lookup, and every pc
 * is bounds-checked against the layout's code end before it indexes
 * a table.
 */

#ifndef BRANCHLAB_PROFILE_PROFILE_HH
#define BRANCHLAB_PROFILE_PROFILE_HH

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

/** Dynamic counts for one static branch instruction. */
struct BranchCounts
{
    std::uint64_t taken = 0;
    std::uint64_t notTaken = 0;
    /** Dynamic next-PC distribution (targets of taken executions and,
     *  for conditionals, the fallthrough address of not-taken ones):
     *  ascending addresses, every count nonzero. */
    std::vector<std::pair<ir::Addr, std::uint64_t>> nextCounts;

    std::uint64_t executions() const { return taken + notTaken; }
    bool majorityTaken() const { return taken > notTaken; }
    /** Most frequent dynamic target (kNoAddr when never executed). */
    ir::Addr dominantTarget() const;
    /** Executions that continued at @p next (0 when none did). */
    std::uint64_t nextCount(ir::Addr next) const;
    /** Tally one execution that continued at @p next. */
    void add(bool taken_branch, ir::Addr next);

    bool operator==(const BranchCounts &) const = default;
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
     * onBranch() calls continue its fold identically. Rows must be in
     * exportRows() order; a row whose pc lies past the layout's code
     * end is fatal (core::recordWorkload refuses such entries first).
     */
    ProgramProfile(const ir::Program &program, const ir::Layout &layout,
                   std::uint64_t runs, const trace::CachedProfile &rows);

    /** Tally one event. A pc past the layout's code end is fatal:
     *  such a stream did not come from this program. */
    void onBranch(const trace::BranchEvent &event) override;

    /** Record that a run started (weights the entry block). Also
     *  clears the path context, but every caller notes all of its
     *  runs before the first event (see pathCounts()). */
    void
    noteRun()
    {
        ++runs_;
        prevPc_ = ir::kNoAddr;
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
     * record pass, foldProfile(), the two-pass engine) notes all of
     * its runs before the first event: a recorded stream carries no
     * run boundaries. Contexts therefore span runs -- the first event
     * of run r+1 is tallied under the last event of run r -- and only
     * the stream's very first event has none. The shipped result
     * digests pin this behaviour.
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

    /** Every tally as canonical rows (lossless: the restore
     *  constructor rebuilds this profile from them exactly). */
    trace::CachedProfile exportRows() const;

    const ir::Program &program() const { return prog_; }
    const ir::Layout &layout() const { return layout_; }

  private:
    /** One context of a branch: the preceding event's pc and the
     *  branch's tallies under it. */
    using PathRow = std::pair<ir::Addr, BranchCounts>;

    /** Everything tallied for one executed branch. */
    struct Branch
    {
        BranchCounts counts;
        /** The branch's contexts, ascending by prevPc. */
        std::vector<PathRow> paths;
    };

    /** Address of a block's terminator instruction. */
    ir::Addr terminatorAddr(ir::FuncId func, ir::BlockId block) const;

    /** The tallies of the branch at @p pc (null when it never
     *  executed, or lies outside the code). */
    const Branch *find(ir::Addr pc) const;

    /** The tallies of the branch at @p pc, created on first use; a pc
     *  past the code end is fatal. */
    Branch &at(ir::Addr pc);

    const ir::Program &prog_;
    const ir::Layout &layout_;
    /** Indexed by pc, sized to the layout's code end: 0 for a branch
     *  that never executed, else 1 + its index in branches_. */
    std::vector<std::uint32_t> slotOf_;
    /** Executed branches, in first-execution order. */
    std::vector<Branch> branches_;
    ir::Addr prevPc_ = ir::kNoAddr;
    std::uint64_t runs_ = 0;
    BranchCounts zero_;
};

/**
 * Fold a recorded stream into the profile its record pass collected
 * online: @p runs noteRun() calls, then every event in order. A pure
 * fold, so the result equals the online profile exactly; the fallback
 * for trace-cache entries without a profile section.
 */
ProgramProfile foldProfile(const ir::Program &program,
                           const ir::Layout &layout, std::uint64_t runs,
                           const trace::TraceView &view);

} // namespace branchlab::profile

#endif // BRANCHLAB_PROFILE_PROFILE_HH
