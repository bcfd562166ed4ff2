#include "profile/profile.hh"

#include <algorithm>

#include "support/logging.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::BlockId;
using ir::FuncId;
using ir::Opcode;

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

namespace
{

BranchCounts
countsOf(const trace::CachedProfileRow &row)
{
    BranchCounts counts;
    counts.taken = row.taken;
    counts.notTaken = row.notTaken;
    for (const auto &[addr, count] : row.next)
        counts.nextCounts.emplace_hint(counts.nextCounts.end(), addr,
                                       count);
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
    row.next.assign(counts.nextCounts.begin(), counts.nextCounts.end());
    return row;
}

} // namespace

ProgramProfile::ProgramProfile(const ir::Program &program,
                               const ir::Layout &layout)
    : prog_(program), layout_(layout)
{}

ProgramProfile::ProgramProfile(const ir::Program &program,
                               const ir::Layout &layout,
                               std::uint64_t runs,
                               const trace::CachedProfile &rows)
    : prog_(program), layout_(layout), prevPc_(rows.lastPc), runs_(runs)
{
    counts_.reserve(rows.branches.size());
    for (const trace::CachedProfileRow &row : rows.branches)
        counts_.emplace(row.pc, countsOf(row));
    // Rows arrive sorted, so every insertion lands at the end.
    for (const trace::CachedProfileRow &row : rows.paths)
        pathCounts_.emplace_hint(pathCounts_.end(),
                                 std::pair{row.pc, row.prevPc},
                                 countsOf(row));
}

trace::CachedProfile
ProgramProfile::exportRows() const
{
    trace::CachedProfile rows;
    rows.lastPc = prevPc_;
    rows.branches.reserve(counts_.size());
    for (const auto &[pc, counts] : counts_)
        rows.branches.push_back(rowOf(pc, ir::kNoAddr, counts));
    std::sort(rows.branches.begin(), rows.branches.end(),
              [](const trace::CachedProfileRow &a,
                 const trace::CachedProfileRow &b) {
                  return a.pc < b.pc;
              });
    rows.paths.reserve(pathCounts_.size());
    for (const auto &[key, counts] : pathCounts_)
        rows.paths.push_back(rowOf(key.first, key.second, counts));
    return rows;
}

void
ProgramProfile::onBranch(const trace::BranchEvent &event)
{
    BranchCounts &counts = counts_[event.pc];
    if (event.taken)
        ++counts.taken;
    else
        ++counts.notTaken;
    ++counts.nextCounts[event.nextPc];
    if (prevPc_ != ir::kNoAddr) {
        BranchCounts &path = pathCounts_[{event.pc, prevPc_}];
        if (event.taken)
            ++path.taken;
        else
            ++path.notTaken;
        ++path.nextCounts[event.nextPc];
    }
    prevPc_ = event.pc;
}

const BranchCounts &
ProgramProfile::branchCounts(Addr pc) const
{
    const auto it = counts_.find(pc);
    return it == counts_.end() ? zero_ : it->second;
}

const BranchCounts &
ProgramProfile::pathCounts(Addr pc, Addr prevPc) const
{
    const auto it = pathCounts_.find({pc, prevPc});
    return it == pathCounts_.end() ? zero_ : it->second;
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
    map.reserve(counts_.size());
    for (const auto &[pc, counts] : counts_) {
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
