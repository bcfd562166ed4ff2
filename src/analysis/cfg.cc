#include "analysis/cfg.hh"

#include <algorithm>

#include "analysis/operands.hh"
#include "support/logging.hh"

namespace branchlab::analysis
{

using ir::BlockId;
using ir::Instruction;
using ir::kNoBlock;
using ir::Opcode;

Cfg::Cfg(const ir::Function &fn) : fn_(fn)
{
    const std::size_t n = fn.numBlocks();
    succ_.resize(n);
    pred_.resize(n);
    reachable_.assign(n, false);

    for (BlockId b = 0; b < n; ++b) {
        const ir::BasicBlock &block = fn.block(b);
        blab_assert(block.isSealed(), "CFG over unsealed block ",
                    fn.name(), ".", block.label());
        for (const BlockRef &ref : blockRefs(block.terminator())) {
            blab_assert(ref.block < n, "CFG block reference out of range");
            std::vector<BlockId> &out = succ_[b];
            if (std::find(out.begin(), out.end(), ref.block) == out.end())
                out.push_back(ref.block);
        }
    }
    for (BlockId b = 0; b < n; ++b) {
        for (BlockId s : succ_[b])
            pred_[s].push_back(b);
    }
    for (std::vector<BlockId> &preds : pred_)
        std::sort(preds.begin(), preds.end());

    // Iterative DFS from the entry: marks reachability and builds a
    // postorder, reversed below.
    if (n == 0)
        return;
    std::vector<std::pair<BlockId, std::size_t>> stack;
    stack.emplace_back(fn.entry(), 0);
    reachable_[fn.entry()] = true;
    std::vector<BlockId> postorder;
    while (!stack.empty()) {
        auto &[block, next_child] = stack.back();
        if (next_child < succ_[block].size()) {
            const BlockId child = succ_[block][next_child++];
            if (!reachable_[child]) {
                reachable_[child] = true;
                stack.emplace_back(child, 0);
            }
        } else {
            postorder.push_back(block);
            stack.pop_back();
        }
    }
    rpo_.assign(postorder.rbegin(), postorder.rend());
}

bool
Cfg::hasEdge(BlockId from, BlockId to) const
{
    const std::vector<BlockId> &out = succ_[from];
    return std::find(out.begin(), out.end(), to) != out.end();
}

BlockId
sequentialSuccessor(const Instruction &term, bool reversed)
{
    if (term.isConditional())
        return reversed ? term.target : term.next;
    switch (term.op) {
      case Opcode::Jmp:
        return term.target;
      case Opcode::Call:
      case Opcode::CallInd:
        return term.next;
      default:
        return kNoBlock;
    }
}

std::vector<std::vector<bool>>
blockReachability(const Cfg &cfg)
{
    const std::size_t n = cfg.numBlocks();
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (BlockId from = 0; from < static_cast<BlockId>(n); ++from) {
        // BFS through at least one edge (so reach[b][b] means "b sits
        // on a cycle", not the trivial empty path).
        std::vector<BlockId> work(cfg.successors(from).begin(),
                                  cfg.successors(from).end());
        while (!work.empty()) {
            const BlockId b = work.back();
            work.pop_back();
            if (reach[from][b])
                continue;
            reach[from][b] = true;
            for (BlockId s : cfg.successors(b))
                work.push_back(s);
        }
    }
    return reach;
}

} // namespace branchlab::analysis
