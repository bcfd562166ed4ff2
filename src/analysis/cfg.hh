/**
 * @file
 * Control-flow graph over one ir::Function.
 *
 * Successor edges come from the canonical block-reference enumeration
 * (analysis/operands.hh), so jump tables contribute one edge per
 * distinct arm and calls contribute their local continuation (trace
 * selection, layout, and the Forward Semantic all operate
 * function-locally; the callee is a different graph).
 *
 * The graph is immutable once built: construct, then query successor
 * and predecessor lists, reachability from the entry block, and a
 * reverse postorder for dataflow iteration.
 */

#ifndef BRANCHLAB_ANALYSIS_CFG_HH
#define BRANCHLAB_ANALYSIS_CFG_HH

#include <vector>

#include "ir/function.hh"

namespace branchlab::analysis
{

class Cfg
{
  public:
    /** Build the graph. Every block of @p fn must be sealed and every
     *  block reference in range (run the verifier first). */
    explicit Cfg(const ir::Function &fn);

    const ir::Function &function() const { return fn_; }

    std::size_t numBlocks() const { return succ_.size(); }

    /** Successors in terminator order, deduplicated. */
    const std::vector<ir::BlockId> &successors(ir::BlockId block) const
    {
        return succ_[block];
    }

    /** Predecessors in ascending block order, deduplicated. */
    const std::vector<ir::BlockId> &predecessors(ir::BlockId block) const
    {
        return pred_[block];
    }

    bool hasEdge(ir::BlockId from, ir::BlockId to) const;

    /** True when @p block is reachable from the entry block. */
    bool isReachable(ir::BlockId block) const
    {
        return reachable_[block];
    }

    /**
     * Reverse postorder of the blocks reachable from the entry
     * (entry first). Unreachable blocks are absent.
     */
    const std::vector<ir::BlockId> &reversePostOrder() const
    {
        return rpo_;
    }

  private:
    const ir::Function &fn_;
    std::vector<std::vector<ir::BlockId>> succ_;
    std::vector<std::vector<ir::BlockId>> pred_;
    std::vector<bool> reachable_;
    std::vector<ir::BlockId> rpo_;
};

/**
 * The successor control falls into when @p term is *not* taken (the
 * sequential path the Forward Semantic keeps inside a trace):
 * conditional -> fallthrough (or the taken side when the condition
 * was @p reversed by trace alignment), Jmp -> target, Call/CallInd ->
 * continuation, JTab/Ret/Halt -> kNoBlock (no single static
 * successor).
 */
ir::BlockId sequentialSuccessor(const ir::Instruction &term, bool reversed);

/**
 * Block-to-block reachability through at least one CFG edge, so
 * reach[b][b] means "b lies on a cycle" rather than the trivial empty
 * path. Quadratic in blocks -- fine for the workloads' CFGs.
 */
std::vector<std::vector<bool>> blockReachability(const Cfg &cfg);

} // namespace branchlab::analysis

#endif // BRANCHLAB_ANALYSIS_CFG_HH
