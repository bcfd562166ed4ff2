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
    return BranchCounts(row.taken, row.notTaken, row.next);
}

BranchHistory
historyOf(const trace::CachedProfileRow &row)
{
    return {row.conditional, row.outcomes, row.repeats, row.lastNext};
}

trace::CachedProfileRow
rowOf(Addr pc, Addr prevPc, const BranchCounts &counts)
{
    trace::CachedProfileRow row;
    row.pc = pc;
    row.prevPc = prevPc;
    row.taken = counts.taken;
    row.notTaken = counts.notTaken;
    row.next = counts.nextCounts();
    return row;
}

/** A branch row: the tallies plus the branch's history. */
trace::CachedProfileRow
branchRowOf(Addr pc, const BranchCounts &counts,
            const BranchHistory &history)
{
    trace::CachedProfileRow row = rowOf(pc, ir::kNoAddr, counts);
    row.conditional = history.conditional;
    row.outcomes = history.outcomes;
    row.repeats = history.repeats;
    row.lastNext = history.lastNext;
    return row;
}

/** The path index key of the pair (@p prev_slot, @p slot); never 0,
 *  the empty key, since slots start at 1. */
std::uint64_t
pathKey(std::uint32_t prev_slot, std::uint32_t slot)
{
    return static_cast<std::uint64_t>(prev_slot) << 32 | slot;
}

constexpr std::size_t kInitialPathIndex = 64;

} // namespace

BranchCounts::BranchCounts(std::uint64_t taken_count,
                           std::uint64_t not_taken_count, NextCounts next)
    : taken(taken_count), notTaken(not_taken_count),
      elsewhere_{not_taken_count, taken_count}, others_(std::move(next))
{}

void
BranchCounts::addElsewhere(bool taken_branch, Addr next)
{
    ++elsewhere_[taken_branch];
    const auto it = lowerByKey(others_, next);
    if (it != others_.end() && it->first == next)
        ++it->second;
    else
        others_.emplace(it, next, 1);
}

template <typename Visit>
void
BranchCounts::forEachNext(Visit &&visit) const
{
    // Each side's first next pc with the executions that continued
    // there (at most two entries, ascending, equal ones merged)...
    std::pair<Addr, std::uint64_t> firsts[2];
    std::size_t count = 0;
    for (const bool side : {false, true}) {
        const std::uint64_t n =
            (side ? taken : notTaken) - elsewhere_[side];
        if (n == 0)
            continue;
        if (count == 1 && firsts[0].first == first_[side])
            firsts[0].second += n;
        else
            firsts[count++] = {first_[side], n};
    }
    if (count == 2 && firsts[1].first < firsts[0].first)
        std::swap(firsts[0], firsts[1]);
    // ...merged into the list of the rest.
    std::size_t f = 0;
    auto it = others_.begin();
    while (f < count || it != others_.end()) {
        if (it == others_.end() ||
            (f < count && firsts[f].first < it->first)) {
            visit(firsts[f].first, firsts[f].second);
            ++f;
        } else if (f < count && firsts[f].first == it->first) {
            visit(it->first, it->second + firsts[f].second);
            ++f;
            ++it;
        } else {
            visit(it->first, it->second);
            ++it;
        }
    }
}

Addr
BranchCounts::dominantTarget() const
{
    Addr best = ir::kNoAddr;
    std::uint64_t best_count = 0;
    forEachNext([&](Addr addr, std::uint64_t count) {
        if (count > best_count) {
            best = addr;
            best_count = count;
        }
    });
    return best;
}

std::uint64_t
BranchCounts::nextCount(Addr next) const
{
    std::uint64_t count = 0;
    for (const bool side : {false, true}) {
        if (first_[side] == next)
            count += (side ? taken : notTaken) - elsewhere_[side];
    }
    const auto it = lowerByKey(others_, next);
    if (it != others_.end() && it->first == next)
        count += it->second;
    return count;
}

BranchCounts::NextCounts
BranchCounts::nextCounts() const
{
    NextCounts out;
    out.reserve(others_.size() + 2);
    forEachNext([&out](Addr addr, std::uint64_t count) {
        out.emplace_back(addr, count);
    });
    return out;
}

bool
BranchCounts::operator==(const BranchCounts &other) const
{
    return taken == other.taken && notTaken == other.notTaken &&
           nextCounts() == other.nextCounts();
}

ProgramProfile::ProgramProfile(const ir::Program &program,
                               const ir::Layout &layout)
    : prog_(program), layout_(layout),
      slotOf_(static_cast<std::size_t>(layout.codeEnd()), 0),
      pathIndex_(kInitialPathIndex)
{}

ProgramProfile::ProgramProfile(const ir::Program &program,
                               const ir::Layout &layout,
                               std::uint64_t runs,
                               const trace::CachedProfile &rows)
    : ProgramProfile(program, layout)
{
    runs_ = runs;
    branches_.reserve(rows.branches.size());
    for (const trace::CachedProfileRow &row : rows.branches) {
        Branch &branch = branches_[slotFor(row.pc) - 1];
        branch.counts = countsOf(row);
        branch.history = historyOf(row);
    }
    const auto profiled = [this](Addr pc) {
        const std::uint32_t slot = slotFor(pc);
        blab_assert(branches_[slot - 1].counts.executions() != 0,
                    "profile rows name an unprofiled branch");
        return slot;
    };
    paths_.reserve(rows.paths.size());
    for (const trace::CachedProfileRow &row : rows.paths) {
        const std::uint32_t path =
            pathOf(profiled(row.prevPc), slotFor(row.pc));
        blab_assert(path + 1 == paths_.size(), "duplicate profile path row");
        paths_[path].counts = countsOf(row);
    }
    prevSlot_ = rows.lastPc == ir::kNoAddr ? 0 : profiled(rows.lastPc);
}

trace::CachedProfile
ProgramProfile::exportRows() const
{
    trace::CachedProfile rows;
    rows.lastPc = prevSlot_ == 0 ? ir::kNoAddr : branches_[prevSlot_ - 1].pc;
    rows.branches.reserve(branches_.size());
    for (std::size_t pc = 0; pc < slotOf_.size(); ++pc) {
        if (slotOf_[pc] != 0) {
            const Branch &branch = branches_[slotOf_[pc] - 1];
            rows.branches.push_back(
                branchRowOf(pc, branch.counts, branch.history));
        }
    }
    // Paths in (pc, prevPc) order.
    const auto pcOf = [this](std::uint32_t slot) {
        return branches_[slot - 1].pc;
    };
    std::vector<std::pair<std::pair<Addr, Addr>, const BranchCounts *>>
        paths;
    paths.reserve(paths_.size());
    for (const Path &path : paths_) {
        paths.push_back(
            {{pcOf(path.slot), pcOf(path.prevSlot)}, &path.counts});
    }
    std::sort(paths.begin(), paths.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    rows.paths.reserve(paths.size());
    for (const auto &[key, counts] : paths)
        rows.paths.push_back(rowOf(key.first, key.second, *counts));
    return rows;
}

trace::TraceCounters
ProgramProfile::traceCounters(std::uint64_t instructions) const
{
    const std::optional<std::vector<BranchSite>> sites = branchSites();
    if (!sites) {
        blab_fatal("profile of '", prog_.name(),
                   "' tallies a pc that holds no branch");
    }
    trace::TraceCounters counters;
    counters.instructions = instructions;
    for (const BranchSite &site : *sites) {
        const std::uint64_t executions = site.counts->executions();
        counters.branches += executions;
        if (site.query.conditional) {
            counters.conditional += executions;
            counters.condTaken += site.counts->taken;
        } else if (site.query.targetKnown) {
            counters.uncondKnown += executions;
        }
    }
    return counters;
}

const ProgramProfile::Branch *
ProgramProfile::find(Addr pc) const
{
    if (pc >= slotOf_.size() || slotOf_[pc] == 0)
        return nullptr;
    return &branches_[slotOf_[pc] - 1];
}

void
ProgramProfile::pastCodeEnd(Addr pc) const
{
    blab_fatal("profile: branch pc ", pc,
               " lies past the program's code end ", slotOf_.size());
}

std::uint32_t
ProgramProfile::slotFor(Addr pc)
{
    if (pc >= slotOf_.size())
        pastCodeEnd(pc);
    return slotOf_[pc] != 0 ? slotOf_[pc] : addBranch(pc, false);
}

std::uint32_t
ProgramProfile::addBranch(Addr pc, bool conditional)
{
    branches_.emplace_back();
    branches_.back().pc = pc;
    branches_.back().history.conditional = conditional;
    const auto slot = static_cast<std::uint32_t>(branches_.size());
    slotOf_[pc] = slot;
    return slot;
}

std::size_t
ProgramProfile::probe(std::uint64_t key) const
{
    // Fibonacci hashing; linear probing finds the key or the empty
    // entry where it belongs (the table is never full).
    const std::size_t mask = pathIndex_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
    while (pathIndex_[i].key != key && pathIndex_[i].key != 0)
        i = (i + 1) & mask;
    return i;
}

std::uint32_t
ProgramProfile::pathOf(std::uint32_t prev_slot, std::uint32_t slot)
{
    const std::uint64_t key = pathKey(prev_slot, slot);
    std::size_t i = probe(key);
    if (pathIndex_[i].key == key)
        return pathIndex_[i].path;
    if (2 * (paths_.size() + 1) > pathIndex_.size()) {
        // Keep the table at most half full: double it and re-insert.
        pathIndex_.assign(2 * pathIndex_.size(), PathIndexEntry{});
        for (std::size_t p = 0; p < paths_.size(); ++p) {
            const std::uint64_t old =
                pathKey(paths_[p].prevSlot, paths_[p].slot);
            pathIndex_[probe(old)] = {old, static_cast<std::uint32_t>(p)};
        }
        i = probe(key);
    }
    pathIndex_[i] = {key, static_cast<std::uint32_t>(paths_.size())};
    paths_.push_back({slot, prev_slot, BranchCounts{}});
    return static_cast<std::uint32_t>(paths_.size() - 1);
}

void
ProgramProfile::onBlock(const trace::TraceBlock &block)
{
    // Every pc is checked before any of the block's indexes a table,
    // so a block this program did not emit leaves the profile as it
    // was.
    for (std::size_t i = 0; i < block.count; ++i) {
        if (block.pc[i] >= slotOf_.size())
            pastCodeEnd(block.pc[i]);
    }
    std::uint32_t prev = prevSlot_;
    bool prev_taken = prevTaken_;
    for (std::size_t i = 0; i < block.count; ++i) {
        std::uint32_t slot = slotOf_[block.pc[i]];
        if (slot == 0)
            slot = addBranch(block.pc[i], block.conditional(i));
        const bool taken = block.taken(i);
        const Addr next = block.nextPc[i];
        Branch &branch = branches_[slot - 1];
        branch.history.add(branch.counts.executions(), taken, next);
        branch.counts.add(taken, next);
        if (prev != 0) {
            Branch &from = branches_[prev - 1];
            if (from.succSlot[prev_taken] != slot) {
                from.succSlot[prev_taken] = slot;
                from.succPath[prev_taken] = pathOf(prev, slot);
            }
            paths_[from.succPath[prev_taken]].counts.add(taken, next);
        }
        prev = slot;
        prev_taken = taken;
    }
    prevSlot_ = prev;
    prevTaken_ = prev_taken;
}

void
ProgramProfile::onBranch(const trace::BranchEvent &event)
{
    const trace::BlockBuffer<1> one(event);
    onBlock(one.block());
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
    const Branch *prev = find(prevPc);
    if (branch == nullptr || prev == nullptr)
        return zero_;
    const std::uint64_t key = pathKey(slotOf_[prevPc], slotOf_[pc]);
    const PathIndexEntry &entry = pathIndex_[probe(key)];
    return entry.key == key ? paths_[entry.path].counts : zero_;
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
        for (const auto &[addr, count] : counts.nextCounts()) {
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

std::optional<std::vector<BranchSite>>
ProgramProfile::branchSites() const
{
    std::vector<BranchSite> sites;
    for (std::size_t pc = 0; pc < slotOf_.size(); ++pc) {
        if (slotOf_[pc] == 0)
            continue;
        if (!layout_.isCodeAddr(pc))
            return std::nullopt;
        const ir::CodeLocation loc = layout_.locate(pc);
        const ir::Instruction &inst =
            prog_.function(loc.func).block(loc.block).inst(loc.index);
        if (!inst.isBranch())
            return std::nullopt;
        predict::BranchQuery query{pc, inst.op, inst.isConditional(),
                                   ir::hasKnownTarget(inst.op)};
        if (query.conditional || inst.op == Opcode::Jmp)
            query.staticTarget = layout_.blockAddr(loc.func, inst.target);
        else if (inst.op == Opcode::Call)
            query.staticTarget = layout_.funcEntry(inst.func);
        const Branch &branch = branches_[slotOf_[pc] - 1];
        sites.push_back({query, &branch.counts, &branch.history});
    }
    return sites;
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
        profile.onBlock(block);
    return profile;
}

} // namespace branchlab::profile
