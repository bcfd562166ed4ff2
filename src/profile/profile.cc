#include "profile/profile.hh"

#include <algorithm>

#include "support/logging.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::BlockId;
using ir::FuncId;
using ir::Opcode;

namespace
{

/** The first entry of @p rows (sorted by .first) at or past @p key. */
template <typename Rows>
auto
lowerByKey(Rows &rows, Addr key)
{
    return std::lower_bound(
        rows.begin(), rows.end(), key,
        [](const auto &row, Addr k) { return row.first < k; });
}

BranchCounts
countsOf(const trace::CachedProfileRow &row)
{
    BranchCounts counts;
    counts.taken = row.taken;
    counts.notTaken = row.notTaken;
    counts.nextCounts = row.next;
    return counts;
}

trace::CachedProfileRow
rowOf(Addr pc, Addr prevPc, const BranchCounts &counts)
{
    trace::CachedProfileRow row;
    row.pc = pc;
    row.prevPc = prevPc;
    row.taken = counts.taken;
    row.notTaken = counts.notTaken;
    row.next = counts.nextCounts;
    return row;
}

} // namespace

Addr
BranchCounts::dominantTarget() const
{
    Addr best = ir::kNoAddr;
    std::uint64_t best_count = 0;
    for (const auto &[addr, count] : nextCounts) {
        if (count > best_count) {
            best = addr;
            best_count = count;
        }
    }
    return best;
}

std::uint64_t
BranchCounts::nextCount(Addr next) const
{
    const auto it = lowerByKey(nextCounts, next);
    return it != nextCounts.end() && it->first == next ? it->second : 0;
}

void
BranchCounts::add(bool taken_branch, Addr next)
{
    if (taken_branch)
        ++taken;
    else
        ++notTaken;
    const auto it = lowerByKey(nextCounts, next);
    if (it != nextCounts.end() && it->first == next)
        ++it->second;
    else
        nextCounts.emplace(it, next, 1);
}

ProgramProfile::ProgramProfile(const ir::Program &program,
                               const ir::Layout &layout)
    : prog_(program), layout_(layout),
      slotOf_(static_cast<std::size_t>(layout.codeEnd()), 0)
{}

ProgramProfile::ProgramProfile(const ir::Program &program,
                               const ir::Layout &layout,
                               std::uint64_t runs,
                               const trace::CachedProfile &rows)
    : ProgramProfile(program, layout)
{
    prevPc_ = rows.lastPc;
    runs_ = runs;
    branches_.reserve(rows.branches.size());
    for (const trace::CachedProfileRow &row : rows.branches)
        at(row.pc).counts = countsOf(row);
    // Rows arrive sorted by (pc, prevPc), so every context lands at
    // the end of its branch's list.
    for (const trace::CachedProfileRow &row : rows.paths) {
        std::vector<PathRow> &contexts = at(row.pc).paths;
        blab_assert(contexts.empty() || contexts.back().first < row.prevPc,
                    "profile path rows out of order");
        contexts.emplace_back(row.prevPc, countsOf(row));
    }
}

trace::CachedProfile
ProgramProfile::exportRows() const
{
    trace::CachedProfile rows;
    rows.lastPc = prevPc_;
    rows.branches.reserve(branches_.size());
    for (std::size_t pc = 0; pc < slotOf_.size(); ++pc) {
        if (slotOf_[pc] == 0)
            continue;
        const Branch &branch = branches_[slotOf_[pc] - 1];
        rows.branches.push_back(rowOf(pc, ir::kNoAddr, branch.counts));
        for (const auto &[prev_pc, counts] : branch.paths)
            rows.paths.push_back(rowOf(pc, prev_pc, counts));
    }
    return rows;
}

const ProgramProfile::Branch *
ProgramProfile::find(Addr pc) const
{
    if (pc >= slotOf_.size() || slotOf_[pc] == 0)
        return nullptr;
    return &branches_[slotOf_[pc] - 1];
}

ProgramProfile::Branch &
ProgramProfile::at(Addr pc)
{
    if (pc >= slotOf_.size()) {
        blab_fatal("profile: branch pc ", pc,
                   " lies past the program's code end ", slotOf_.size());
    }
    std::uint32_t &slot = slotOf_[pc];
    if (slot == 0) {
        branches_.emplace_back();
        slot = static_cast<std::uint32_t>(branches_.size());
    }
    return branches_[slot - 1];
}

void
ProgramProfile::onBranch(const trace::BranchEvent &event)
{
    Branch &branch = at(event.pc);
    branch.counts.add(event.taken, event.nextPc);
    if (prevPc_ != ir::kNoAddr) {
        std::vector<PathRow> &contexts = branch.paths;
        auto it = lowerByKey(contexts, prevPc_);
        if (it == contexts.end() || it->first != prevPc_)
            it = contexts.emplace(it, prevPc_, BranchCounts{});
        it->second.add(event.taken, event.nextPc);
    }
    prevPc_ = event.pc;
}

const BranchCounts &
ProgramProfile::branchCounts(Addr pc) const
{
    const Branch *branch = find(pc);
    return branch != nullptr ? branch->counts : zero_;
}

const BranchCounts &
ProgramProfile::pathCounts(Addr pc, Addr prevPc) const
{
    const Branch *branch = find(pc);
    if (branch == nullptr)
        return zero_;
    const auto it = lowerByKey(branch->paths, prevPc);
    return it != branch->paths.end() && it->first == prevPc ? it->second
                                                            : zero_;
}

Addr
ProgramProfile::terminatorAddr(FuncId func, BlockId block) const
{
    const ir::BasicBlock &bb = prog_.function(func).block(block);
    blab_assert(bb.isSealed(), "profiling an unsealed block");
    return layout_.blockAddr(func, block) + bb.size() - 1;
}

std::uint64_t
ProgramProfile::blockWeight(FuncId func, BlockId block) const
{
    const ir::BasicBlock &bb = prog_.function(func).block(block);
    const ir::Instruction &term = bb.terminator();
    if (term.op == Opcode::Halt)
        return runs_;
    return branchCounts(terminatorAddr(func, block)).executions();
}

std::vector<Arc>
ProgramProfile::outArcs(FuncId func, BlockId block) const
{
    const ir::Function &fn = prog_.function(func);
    const ir::BasicBlock &bb = fn.block(block);
    const ir::Instruction &term = bb.terminator();
    const BranchCounts &counts = branchCounts(terminatorAddr(func, block));

    std::vector<Arc> arcs;
    switch (term.op) {
      case Opcode::Jmp:
        arcs.push_back(Arc{block, term.target, counts.taken});
        break;
      case Opcode::JTab: {
        // One arc per observed target; resolve addresses to blocks.
        for (const auto &[addr, count] : counts.nextCounts) {
            const ir::CodeLocation loc = layout_.locate(addr);
            blab_assert(loc.func == func && loc.index == 0,
                        "jump-table target is not a local block start");
            arcs.push_back(Arc{block, loc.block, count});
        }
        break;
      }
      case Opcode::Call:
      case Opcode::CallInd:
        // The continuation runs once per (returning) call.
        arcs.push_back(Arc{block, term.next, counts.executions()});
        break;
      case Opcode::Ret:
      case Opcode::Halt:
        break;
      default: {
        blab_assert(term.isConditional(), "unexpected terminator");
        arcs.push_back(Arc{block, term.target, counts.taken});
        if (term.next != term.target)
            arcs.push_back(Arc{block, term.next, counts.notTaken});
        break;
      }
    }
    return arcs;
}

predict::LikelyMap
ProgramProfile::buildLikelyMap() const
{
    predict::LikelyMap map;
    map.reserve(branches_.size());
    for (std::size_t pc = 0; pc < slotOf_.size(); ++pc) {
        if (slotOf_[pc] == 0)
            continue;
        const BranchCounts &counts = branches_[slotOf_[pc] - 1].counts;
        predict::LikelyInfo info;
        info.likelyTaken = counts.majorityTaken();
        info.dominantTarget = counts.dominantTarget();
        map.emplace(pc, info);
    }
    return map;
}

ProgramProfile
foldProfile(const ir::Program &program, const ir::Layout &layout,
            std::uint64_t runs, const trace::TraceView &view)
{
    ProgramProfile profile(program, layout);
    for (std::uint64_t r = 0; r < runs; ++r)
        profile.noteRun();
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    while (cursor.next(block))
        for (std::size_t i = 0; i < block.count; ++i)
            profile.onBranch(block.event(i));
    return profile;
}

} // namespace branchlab::profile
