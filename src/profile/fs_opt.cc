/**
 * @file
 * The analysis-driven FS optimizer: refines the seed plan into the
 * optimized image (all levels) and scores its prediction accuracy over
 * a recorded stream. The static safety re-verification lives in
 * fs_opt_verify.cc; the shared proof helpers (speculable opcode set,
 * instruction identity, hoist interference scan) are defined here so
 * builder and verifier reason from one implementation exercised by
 * adversarial tests.
 */

#include "profile/fs_opt.hh"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "analysis/analysis_cache.hh"
#include "analysis/operands.hh"
#include "obs/metrics.hh"
#include "profile/fs_opt_internal.hh"
#include "support/logging.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::BlockId;
using ir::CodeLocation;
using ir::FuncId;
using ir::Opcode;
using ir::Reg;

using analysis::definedReg;
using analysis::usedRegs;

const char *
fsOptLevelName(FsOptLevel level)
{
    switch (level) {
      case FsOptLevel::None: return "none";
      case FsOptLevel::Slots: return "slots";
      case FsOptLevel::Superblock: return "superblock";
      case FsOptLevel::Hoist: return "hoist";
    }
    return "?";
}

FsOptLevel
parseFsOptLevel(std::string_view name)
{
    for (FsOptLevel level : allFsOptLevels()) {
        if (name == fsOptLevelName(level))
            return level;
    }
    blab_fatal("unknown --fs-opt level '", name,
               "' (expected none, slots, superblock or hoist)");
}

const std::vector<FsOptLevel> &
allFsOptLevels()
{
    static const std::vector<FsOptLevel> levels{
        FsOptLevel::None, FsOptLevel::Slots, FsOptLevel::Superblock,
        FsOptLevel::Hoist};
    return levels;
}

bool
fsSpeculablePure(const ir::Instruction &inst)
{
    switch (inst.op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Not:
      case Opcode::Neg:
      case Opcode::Mov:
      case Opcode::Ldi:
      case Opcode::Ldf:
        return true;
      default:
        // Div/Rem can fault, Ld/St touch memory, In/Out touch the
        // streams, Nop defines nothing, terminators transfer control.
        return false;
    }
}

bool
fsRegionMovable(const ir::Instruction &inst)
{
    // Loads join the pure set for slot filling only: the region runs
    // on the committed likely path (never speculatively), so a moved
    // load rereads the same memory as long as nothing it moved past
    // can store. The fill pass and the verifier both enforce that
    // barrier; St/In/Out/Div stay immovable (stores and stream ops
    // have effects other paths observe, Div/Rem can fault).
    return fsSpeculablePure(inst) || inst.op == Opcode::Ld;
}

bool
sameInstruction(const ir::Instruction &a, const ir::Instruction &b)
{
    return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.imm == b.imm && a.useImm == b.useImm &&
           a.func == b.func;
}

namespace
{

/** Largest block (instructions) tail duplication will copy. */
constexpr std::size_t kDupMaxBlockInstrs = 8;

/** Minimum fraction of the side-entered block's executions the
 *  entrance arc must carry to earn a duplicate. With the
 *  profile-guided gain gate screening usefulness, this floor only
 *  prunes noise arcs. */
constexpr double kDupMinArcFraction = 0.02;

bool
definesAny(const ir::Instruction &inst, const std::vector<Reg> &regs)
{
    const Reg def = definedReg(inst);
    if (def == ir::kNoReg)
        return false;
    return std::find(regs.begin(), regs.end(), def) != regs.end();
}

struct FsOptTelemetry
{
    obs::Counter &slotsFilled =
        obs::Registry::global().counter("fs_opt.slots_filled");
    obs::Counter &padsDropped =
        obs::Registry::global().counter("fs_opt.pads_dropped");
    obs::Counter &copiesTruncated =
        obs::Registry::global().counter("fs_opt.copies_truncated");
    obs::Counter &deadCopiesDropped =
        obs::Registry::global().counter("fs_opt.dead_copies_dropped");
    obs::Counter &tailsDuplicated =
        obs::Registry::global().counter("fs_opt.tails_duplicated");
    obs::Counter &hoists =
        obs::Registry::global().counter("fs_opt.hoists");
    obs::Counter &homesForwarded =
        obs::Registry::global().counter("fs_opt.homes_forwarded");
};

FsOptTelemetry &
fsOptTelemetry()
{
    static FsOptTelemetry telemetry;
    return telemetry;
}

} // namespace

bool
fsHoistInterference(const ir::Function &fn, const analysis::Cfg &cfg,
                    const std::vector<std::vector<bool>> &reach,
                    const std::set<std::pair<BlockId, std::uint32_t>>
                        &elided,
                    BlockId d, std::size_t j, BlockId b, std::size_t i,
                    const std::vector<Reg> &regs, bool mem_barrier)
{
    const auto interferes = [&](BlockId block, std::size_t idx) {
        if (elided.count({block, static_cast<std::uint32_t>(idx)}))
            return false; // Removed code neither defines nor stores.
        const ir::Instruction &inst = fn.block(block).inst(idx);
        if (mem_barrier && inst.op == ir::Opcode::St)
            return true; // Writes memory under a load elision.
        return definesAny(inst, regs);
    };

    // The straight-line segments adjacent to source and use.
    if (d == b) {
        for (std::size_t idx = j + 1; idx < i; ++idx) {
            if (interferes(d, idx))
                return true;
        }
    } else {
        for (std::size_t idx = j + 1; idx < fn.block(d).size(); ++idx) {
            if (interferes(d, idx))
                return true;
        }
        for (std::size_t idx = 0; idx < i; ++idx) {
            if (interferes(b, idx))
                return true;
        }
    }

    // Every block that can sit on a d -> b path (through at least one
    // edge, so a cyclic d or b is rescanned in full -- the value must
    // survive the whole loop body). The source and use positions
    // themselves are exempt: the source is the producer, the use is
    // the instruction being removed.
    for (BlockId r = 0; r < static_cast<BlockId>(cfg.numBlocks());
         ++r) {
        if (!reach[d][r] || !reach[r][b])
            continue;
        for (std::size_t idx = 0; idx < fn.block(r).size(); ++idx) {
            if ((r == d && idx == j) || (r == b && idx == i))
                continue;
            if (interferes(r, idx))
                return true;
        }
    }
    return false;
}

FsOptimizer::FsOptimizer(const ProgramProfile &profile,
                         const FsOptConfig &config)
    : profile_(profile), config_(config)
{}

struct FsOptimizer::Refinements
{
    explicit Refinements(std::size_t functions)
        : elided(functions), forwarded(functions)
    {}

    /** Homes the hoist pass removed, per function. */
    std::vector<std::set<std::pair<BlockId, std::uint32_t>>> elided;
    /** Homes forwarded into their Copy slots, per function. */
    std::vector<std::set<std::pair<BlockId, std::uint32_t>>> forwarded;
    /** Addresses moved into Fill slots. */
    std::unordered_set<Addr> moved;
    /** Each filled site's fills, in program order, keyed like
     *  FsPlan::sites. */
    std::map<std::pair<std::size_t, std::size_t>,
             std::vector<CodeLocation>>
        fills;
    /** Each forwarding site's forwarded prefix length. */
    std::map<std::pair<std::size_t, std::size_t>, unsigned> forwards;
    /** Tail duplicates, in image order. */
    std::vector<DupTail> dups;
};

void
FsOptimizer::refine(FsPlan &seed, FsOptResult &out,
                    Refinements &chosen) const
{
    const ir::Program &prog = profile_.program();
    const ir::Layout &layout = profile_.layout();
    const FsResult &result = out.image;
    analysis::AnalysisCache analyses(prog);

    // Refine each site's window: truncation at the first redirecting
    // copy and per-instruction-liveness dead-copy drops.
    for (auto &[key, pending] : seed.sites) {
        SlotSite &plan = pending.site;
        const std::span<const CodeLocation> path =
            seed.targetPath(pending);
        out.counters.padsDropped += plan.padded;
        unsigned copied = plan.copied;

        // Truncation: a copied terminator always leaves the region
        // (copies are not sites; both outcomes redirect home), so
        // later copies can never execute.
        for (unsigned c = 0; c < copied; ++c) {
            const CodeLocation &loc = path[c];
            const ir::Instruction &inst =
                prog.function(loc.func).block(loc.block).inst(loc.index);
            if (inst.isTerminator()) {
                out.counters.copiesTruncated += copied - (c + 1);
                copied = c + 1;
                break;
            }
        }
        const unsigned consumed = copied;
        plan.resume.reset();
        if (consumed < path.size())
            plan.resume = path[consumed];

        // Dead-copy drops: a trailing pure copy whose definition is
        // dead at the resume point never influences the region path;
        // the region skips it (consumed keeps the resume fixed) and
        // its home still executes on every other path.
        if (plan.resume.has_value()) {
            const analysis::Liveness &live =
                analyses.liveness(plan.branchOrig.func);
            while (copied > 0) {
                const CodeLocation &loc = path[copied - 1];
                const ir::Instruction &inst = prog.function(loc.func)
                                                  .block(loc.block)
                                                  .inst(loc.index);
                if (!fsSpeculablePure(inst))
                    break;
                const Reg def = definedReg(inst);
                if (def == ir::kNoReg)
                    break;
                const analysis::RegSet &live_at = live.liveBeforeAt(
                    plan.resume->block, plan.resume->index);
                if (def < live_at.size() && live_at[def])
                    break;
                --copied;
                ++out.counters.deadCopiesDropped;
                out.relaxedAddrs.insert(
                    layout.instAddr(loc.func, loc.block, loc.index));
            }
        }

        plan.copied = copied;
        plan.consumed = consumed;
        plan.padded = 0;
    }

    // Resume points must keep their homes: nothing may move or elide
    // an instruction a region resumes into.
    std::unordered_set<Addr> resume_addrs;
    for (const auto &[key, pending] : seed.sites) {
        const std::optional<CodeLocation> &resume = pending.site.resume;
        if (resume.has_value()) {
            resume_addrs.insert(
                layout.instAddr(resume->func, resume->block, resume->index));
        }
    }

    // Hoist pass: dominator-based redundancy elision. Blocks are
    // visited in reverse postorder so every dominator's elisions are
    // final before its subtree is considered (sources are never
    // chosen from positions already elided).
    auto &elided = chosen.elided;
    if (config_.level >= FsOptLevel::Hoist) {
        for (FuncId f = 0; f < prog.numFunctions(); ++f) {
            const ir::Function &fn = prog.function(f);
            const analysis::Cfg &cfg = analyses.cfg(f);
            const analysis::DominatorTree &dom = analyses.dominators(f);
            const auto &reach = analyses.reachability(f);
            for (BlockId b : cfg.reversePostOrder()) {
                const ir::BasicBlock &bb = fn.block(b);
                for (std::uint32_t i = 1; i + 1 < bb.size(); ++i) {
                    const ir::Instruction &inst = bb.inst(i);
                    // Loads may be elided against a dominating
                    // identical load when every connecting path is
                    // memory-silent: same address registers, same
                    // memory, hence the same value (and the same
                    // fault behavior, trivially -- the source runs
                    // first at the same address).
                    if (!fsRegionMovable(inst))
                        continue;
                    const Reg dst = definedReg(inst);
                    if (dst == ir::kNoReg)
                        continue;
                    std::vector<Reg> uses = usedRegs(inst);
                    if (std::find(uses.begin(), uses.end(), dst) !=
                        uses.end())
                        continue; // Not idempotent: reads its def.
                    const Addr addr = layout.instAddr(f, b, i);
                    if (resume_addrs.count(addr))
                        continue;

                    std::vector<Reg> regs = std::move(uses);
                    regs.push_back(dst);
                    const auto try_source = [&](BlockId d,
                                                std::uint32_t j) {
                        if (elided[f].count({d, j}))
                            return false;
                        if (!sameInstruction(fn.block(d).inst(j), inst))
                            return false;
                        if (fsHoistInterference(fn, cfg, reach,
                                                elided[f], d, j, b, i,
                                                regs,
                                                inst.op ==
                                                    Opcode::Ld)) {
                            ++out.counters.rejectedHoists;
                            return false;
                        }
                        elided[f].insert({b, i});
                        out.elisions.push_back(HoistElision{
                            CodeLocation{f, b, i}, addr,
                            CodeLocation{f, d, j},
                            layout.instAddr(f, d, j)});
                        ++out.counters.hoistElisions;
                        out.relaxedAddrs.insert(addr);
                        return true;
                    };

                    bool done = false;
                    for (std::uint32_t j = i; j-- > 0 && !done;)
                        done = try_source(b, j);
                    for (BlockId d = dom.idom(b);
                         d != ir::kNoBlock && !done; d = dom.idom(d)) {
                        const std::size_t dn = fn.block(d).size();
                        for (std::uint32_t j =
                                 static_cast<std::uint32_t>(dn);
                             j-- > 0 && !done;)
                            done = try_source(d, j);
                    }
                }
            }
        }
    }

    // Fill pass: move instructions from in front of a site branch
    // into the freed slot space whenever liveness and def-use prove
    // it safe (the moved definitions execute inside the region --
    // after the branch, taken path only). Candidates need not be a
    // contiguous suffix: an immovable instruction only blocks the
    // candidates that depend on it.
    auto &site_fills = chosen.fills;
    auto &moved_addrs = chosen.moved;
    for (auto &[key, pending] : seed.sites) {
        SlotSite &plan = pending.site;
        // A proven fill beats a copy: the copy duplicates its target
        // (+1 image slot) while the fill relocates a home (net -1).
        // When the region kept exactly its copy run (no dead-drop
        // detached consumed from copied), fills may displace trailing
        // copies -- the resume point then backs up onto the first
        // displaced copy, whose home must stay intact.
        const bool displaceable = plan.consumed == plan.copied;
        const unsigned space =
            displaceable ? config_.fs.slotCount
                         : config_.fs.slotCount - plan.copied;
        if (space == 0)
            continue;
        const CodeLocation &br = plan.branchOrig;
        const ir::Function &fn = prog.function(br.func);
        const ir::BasicBlock &bb = fn.block(br.block);
        const ir::Instruction &term = bb.inst(br.index);

        // The untaken side of a conditional site (after reversal the
        // likely target is origTargetAddr's block).
        BlockId untaken = ir::kNoBlock;
        if (term.isConditional()) {
            const BlockId likely_block =
                layout.locate(plan.origTargetAddr).block;
            untaken = term.target == likely_block ? term.next
                                                  : term.target;
        }

        std::vector<CodeLocation> fills;
        const std::vector<Reg> term_uses = usedRegs(term);
        // Registers touched by instructions that keep their home
        // between a candidate and the branch. A candidate may move
        // past them only when it carries no register dependence on
        // them: its def must not be read or re-defined by a stayer,
        // and its operands must not be written by one. Moved
        // instructions never touch memory (fsSpeculablePure), so
        // register dependences are the whole story.
        std::set<Reg> stay_defs;
        std::set<Reg> stay_uses;
        // A store stayer bars loads from moving past it: the load's
        // value is only provably unchanged across memory-silent code,
        // and St is the only non-terminator that writes memory (the
        // stream ops touch the separate I/O streams, Div/Rem fault
        // without storing, and stayers keep their homes either way).
        bool stay_barrier = false;
        const auto stays = [&](const ir::Instruction &inst) {
            const Reg d = definedReg(inst);
            if (d != ir::kNoReg)
                stay_defs.insert(d);
            for (const Reg u : usedRegs(inst))
                stay_uses.insert(u);
            if (inst.op == Opcode::St)
                stay_barrier = true;
        };
        for (std::uint32_t m = br.index;
             m-- > 1 && fills.size() < space;) {
            const ir::Instruction &inst = bb.inst(m);
            if (elided[br.func].count({br.block, m})) {
                stays(inst);
                continue;
            }
            if (!fsRegionMovable(inst) ||
                (inst.op == Opcode::Ld && stay_barrier)) {
                ++out.counters.rejectedFills;
                stays(inst);
                continue;
            }
            const Reg dst = definedReg(inst);
            if (dst == ir::kNoReg) {
                stays(inst);
                continue;
            }
            const std::vector<Reg> uses = usedRegs(inst);
            const bool reorder_hazard =
                stay_defs.count(dst) != 0 ||
                stay_uses.count(dst) != 0 ||
                std::any_of(uses.begin(), uses.end(),
                            [&](Reg u) {
                                return stay_defs.count(u) != 0;
                            });
            if (reorder_hazard ||
                std::find(term_uses.begin(), term_uses.end(), dst) !=
                    term_uses.end()) {
                ++out.counters.rejectedFills;
                stays(inst);
                continue;
            }
            const Addr addr = layout.instAddr(br.func, br.block, m);
            if (resume_addrs.count(addr)) {
                ++out.counters.rejectedFills;
                stays(inst);
                continue;
            }
            if (untaken != ir::kNoBlock) {
                const analysis::RegSet &live_in =
                    analyses.liveness(br.func).liveBeforeAt(untaken,
                                                            0);
                if (dst < live_in.size() && live_in[dst]) {
                    ++out.counters.rejectedFills;
                    stays(inst);
                    continue;
                }
            }
            fills.push_back(CodeLocation{br.func, br.block, m});
        }
        if (fills.empty())
            continue;
        std::reverse(fills.begin(), fills.end()); // Program order.

        // Displace trailing copies until fills and copies fit the
        // region together. Each displaced copy becomes the new resume
        // point, so it must keep its home: not moved by an earlier
        // site's fill, not elided by the hoist pass.
        if (fills.size() + plan.copied > config_.fs.slotCount) {
            const std::span<const CodeLocation> path =
                seed.targetPath(pending);
            unsigned copied = plan.copied;
            while (fills.size() + copied > config_.fs.slotCount &&
                   copied > 0) {
                const CodeLocation &cand = path[copied - 1];
                if (elided[cand.func].count({cand.block, cand.index}))
                    break;
                const Addr cand_addr = layout.instAddr(
                    cand.func, cand.block, cand.index);
                if (moved_addrs.count(cand_addr))
                    break;
                // On a self-loop the candidate may be one of this
                // site's own (not yet committed) fills.
                if (std::find(fills.begin(), fills.end(), cand) !=
                    fills.end())
                    break;
                --copied;
            }
            // Fills that still do not fit stay home. Dropping from
            // the front keeps every remaining move's reorder proof
            // intact: a dropped (earlier) instruction sits above the
            // kept moves and never interacts with them.
            while (fills.size() + copied > config_.fs.slotCount)
                fills.erase(fills.begin());
            if (fills.empty())
                continue; // Plan untouched: nothing was committed.
            if (copied != plan.copied) {
                out.counters.copiesDisplaced += plan.copied - copied;
                plan.copied = copied;
                plan.consumed = copied;
                plan.resume = path[copied];
                resume_addrs.insert(layout.instAddr(plan.resume->func,
                                                    plan.resume->block,
                                                    plan.resume->index));
            }
        }
        plan.filled = static_cast<unsigned>(fills.size());
        out.counters.slotsFilled += fills.size();
        for (const CodeLocation &loc : fills) {
            const Addr addr =
                layout.instAddr(loc.func, loc.block, loc.index);
            moved_addrs.insert(addr);
            out.relaxedAddrs.insert(addr);
        }
        site_fills.emplace(key, std::move(fills));
    }

    // Forwarding pass: when the site branch's likely edge is the
    // target block's only CFG entry, the copied-prefix homes can never
    // execute -- the region's copies replace them on the only path in
    // and the resume point skips them -- so the homes are forwarded
    // into their Copy slots (classic branch target forwarding). The
    // committed stream is untouched: the copies already emit the same
    // addresses the homes would have.
    auto &site_forwards = chosen.forwards;
    auto &forwarded = chosen.forwarded;
    for (const auto &[key, pending] : seed.sites) {
        const SlotSite &plan = pending.site;
        if (plan.copied == 0)
            continue;
        // Sites are function-local: the target shares the branch's
        // function.
        const CodeLocation target = layout.locate(plan.origTargetAddr);
        if (target.block == plan.branchOrig.block)
            continue;
        const ir::Function &fn = prog.function(target.func);
        if (target.block == fn.entry())
            continue; // Entered by calls, not just the site branch.
        const ir::Instruction &term = fn.block(plan.branchOrig.block)
                                          .inst(plan.branchOrig.index);
        // Successor lists are deduplicated, so a degenerate
        // conditional with both edges on the target would masquerade
        // as a single entry.
        if (term.isConditional() && term.target == term.next)
            continue;
        const analysis::Cfg &cfg = analyses.cfg(target.func);
        std::size_t in_edges = 0;
        bool sole = true;
        for (BlockId p = 0;
             p < static_cast<BlockId>(cfg.numBlocks()) && sole; ++p) {
            for (BlockId s : cfg.successors(p)) {
                if (s != target.block)
                    continue;
                ++in_edges;
                if (p != plan.branchOrig.block)
                    sole = false;
            }
        }
        if (!sole || in_edges != 1)
            continue;
        // Two sites can only share a target block through two CFG
        // entries, but stay defensive: the forwarded copies must be
        // the block's unique image carrier.
        bool shared = false;
        for (const auto &[okey, other] : seed.sites) {
            if (okey == key)
                continue;
            const CodeLocation ot =
                layout.locate(other.site.origTargetAddr);
            if (ot.func == target.func && ot.block == target.block) {
                shared = true;
                break;
            }
        }
        if (shared)
            continue;
        const ir::BasicBlock &tb = fn.block(target.block);
        const std::span<const CodeLocation> path =
            seed.targetPath(pending);
        unsigned n = 0;
        while (n < plan.copied &&
               static_cast<std::size_t>(n) + 1 < tb.size()) {
            const CodeLocation &loc = path[n];
            if (loc.func != target.func || loc.block != target.block ||
                loc.index != n)
                break;
            const Addr addr =
                layout.instAddr(loc.func, loc.block, loc.index);
            if (moved_addrs.count(addr) || resume_addrs.count(addr) ||
                elided[loc.func].count({loc.block, loc.index}))
                break;
            ++n;
        }
        if (n == 0)
            continue;
        for (unsigned i = 0; i < n; ++i)
            forwarded[target.func].insert({target.block, i});
        site_forwards.emplace(key, n);
        out.counters.homesForwarded += n;
    }

    // Superblock pass: absorb hot side entrances by tail duplication.
    if (config_.level >= FsOptLevel::Superblock) {
        std::set<std::tuple<FuncId, BlockId, BlockId>> seen;
        std::vector<DupTail> candidates;
        for (const SideEntrance &e :
             findSideEntrances(profile_, result.traces)) {
            if (e.arcWeight == 0)
                continue;
            if (!seen.insert({e.func, e.pred, e.block}).second)
                continue;
            const ir::Function &fn = prog.function(e.func);
            const ir::BasicBlock &bb = fn.block(e.block);
            if (bb.size() > kDupMaxBlockInstrs) {
                ++out.counters.rejectedDups;
                continue;
            }
            const ir::Instruction &term = bb.terminator();
            if (!term.isConditional()) {
                ++out.counters.rejectedDups;
                continue;
            }
            const Addr term_addr = layout.instAddr(
                e.func, e.block,
                static_cast<std::uint32_t>(bb.size() - 1));
            const BranchCounts &counts =
                profile_.branchCounts(term_addr);
            if (counts.taken == 0 || counts.notTaken == 0) {
                // One-sided branches are already perfectly predicted;
                // a duplicate could only add code.
                ++out.counters.rejectedDups;
                continue;
            }
            const std::uint64_t block_weight =
                profile_.blockWeight(e.func, e.block);
            if (block_weight == 0 ||
                static_cast<double>(e.arcWeight) <
                    kDupMinArcFraction *
                        static_cast<double>(block_weight)) {
                ++out.counters.rejectedDups;
                continue;
            }
            const ir::BasicBlock &pb = fn.block(e.pred);
            const Addr pred_term_addr = layout.instAddr(
                e.func, e.pred,
                static_cast<std::uint32_t>(pb.size() - 1));
            const Addr block_start =
                layout.blockAddr(e.func, e.block);
            // A predecessor whose terminator is a slot site targeting
            // this block enters the site's region instead; the two
            // redirects would conflict.
            bool conflict = false;
            for (const auto &[key, pending] : seed.sites) {
                const SlotSite &plan = pending.site;
                if (plan.branchOrig.func == e.func &&
                    plan.branchOrig.block == e.pred &&
                    plan.origTargetAddr == block_start) {
                    conflict = true;
                    break;
                }
            }
            if (conflict) {
                ++out.counters.rejectedDups;
                continue;
            }
            if (config_.dupRequireGain) {
                // Profile-guided gate: a duplicate pays only when the
                // entry path's majority direction differs from the
                // remaining entries' -- the duplicate's own likely
                // bit then wins predictions the aggregate bit loses.
                const BranchCounts &via =
                    profile_.pathCounts(term_addr, pred_term_addr);
                const std::uint64_t rest_taken =
                    counts.taken - std::min(counts.taken, via.taken);
                const std::uint64_t rest_fall =
                    counts.notTaken -
                    std::min(counts.notTaken, via.notTaken);
                const std::uint64_t split =
                    std::max(via.taken, via.notTaken) +
                    std::max(rest_taken, rest_fall);
                if (split <= std::max(counts.taken, counts.notTaken)) {
                    ++out.counters.rejectedDups;
                    continue;
                }
            }
            DupTail dup;
            dup.func = e.func;
            dup.pred = e.pred;
            dup.block = e.block;
            dup.predTermAddr = pred_term_addr;
            dup.blockStartAddr = block_start;
            dup.termAddr = term_addr;
            dup.arcWeight = e.arcWeight;
            dup.length = bb.size();
            candidates.push_back(dup);
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const DupTail &a, const DupTail &b) {
                             return a.arcWeight > b.arcWeight;
                         });
        const double budget =
            config_.dupMaxGrowth *
            static_cast<double>(result.originalSize);
        std::size_t total = 0;
        for (DupTail &dup : candidates) {
            if (static_cast<double>(total + dup.length) > budget) {
                ++out.counters.rejectedDups;
                continue;
            }
            total += dup.length;
            ++out.counters.tailsDuplicated;
            out.counters.dupInstructions += dup.length;
            chosen.dups.push_back(dup);
        }
    }

    FsOptTelemetry &telemetry = fsOptTelemetry();
    telemetry.slotsFilled.add(out.counters.slotsFilled);
    telemetry.padsDropped.add(out.counters.padsDropped);
    telemetry.copiesTruncated.add(out.counters.copiesTruncated);
    telemetry.deadCopiesDropped.add(out.counters.deadCopiesDropped);
    telemetry.tailsDuplicated.add(out.counters.tailsDuplicated);
    telemetry.hoists.add(out.counters.hoistElisions);
    telemetry.homesForwarded.add(out.counters.homesForwarded);
}

FsOptResult
FsOptimizer::build() const
{
    FsOptResult out;
    out.level = config_.level;
    out.config = config_;

    const ir::Program &prog = profile_.program();
    const ir::Layout &layout = profile_.layout();
    FsResult &result = out.image;

    // The seed plan: the optimizer changes slot *content*, never the
    // traces, the reversals or which branches are sites. Level none
    // lays it out as it stands.
    FsPlan seed = planForwardSlots(profile_, config_.fs);
    result.originalSize = seed.originalSize;
    result.traces = std::move(seed.traces);
    result.reversed = std::move(seed.reversed);
    Refinements chosen(prog.numFunctions());
    if (config_.level >= FsOptLevel::Slots)
        refine(seed, out, chosen);

    // Materialise the image. Homes are skipped for moved, elided and
    // forwarded instructions; sites lay out [fills][copies][pads];
    // duplicates are appended after every trace.
    for (std::size_t t = 0; t < seed.base.size(); ++t) {
        for (std::size_t pos = 0; pos < seed.base[t].size(); ++pos) {
            const CodeLocation &loc = seed.base[t][pos];
            const Addr addr =
                layout.instAddr(loc.func, loc.block, loc.index);
            const std::pair<BlockId, std::uint32_t> at{loc.block,
                                                       loc.index};
            if (!chosen.elided[loc.func].count(at) &&
                !chosen.forwarded[loc.func].count(at) &&
                !chosen.moved.count(addr)) {
                result.homeIndex[addr] = result.slots.size();
                result.slots.push_back(
                    ImageSlot{ImageSlot::Kind::Home, loc,
                              SlotProvenance::Seed});
            }

            const auto site_it = seed.sites.find({t, pos});
            if (site_it == seed.sites.end())
                continue;
            SlotSite site = site_it->second.site;
            site.branchImageIndex = result.slots.size() - 1;

            const auto fills_it = chosen.fills.find({t, pos});
            if (fills_it != chosen.fills.end()) {
                for (const CodeLocation &fill : fills_it->second) {
                    const Addr fill_addr = layout.instAddr(
                        fill.func, fill.block, fill.index);
                    out.fills.push_back(FillRecord{
                        result.sites.size(), fill, fill_addr,
                        result.slots.size()});
                    result.homeIndex[fill_addr] = result.slots.size();
                    result.slots.push_back(
                        ImageSlot{ImageSlot::Kind::Fill, fill,
                                  SlotProvenance::SlotFill});
                }
            }

            const std::span<const CodeLocation> path =
                seed.targetPath(site_it->second);
            const auto fwd_it = chosen.forwards.find({t, pos});
            const unsigned fwd_n =
                fwd_it == chosen.forwards.end() ? 0 : fwd_it->second;
            for (unsigned c = 0; c < site.copied; ++c) {
                const CodeLocation &cloc = path[c];
                if (c < fwd_n) {
                    // The Copy slot carries the forwarded home: the
                    // block start (and prefix) stays resolvable for
                    // decode, and the site path is the only way in.
                    const Addr caddr = layout.instAddr(
                        cloc.func, cloc.block, cloc.index);
                    out.forwards.push_back(ForwardedHome{
                        result.sites.size(), cloc, caddr,
                        result.slots.size()});
                    result.homeIndex[caddr] = result.slots.size();
                }
                result.slots.push_back(
                    ImageSlot{ImageSlot::Kind::Copy, cloc,
                              SlotProvenance::Seed});
            }
            for (unsigned p = 0; p < site.padded; ++p)
                result.slots.push_back(ImageSlot{});

            result.sites.push_back(site);
        }
    }
    for (DupTail &dup : chosen.dups) {
        dup.imageStart = result.slots.size();
        const ir::BasicBlock &bb =
            prog.function(dup.func).block(dup.block);
        for (std::uint32_t i = 0; i < bb.size(); ++i) {
            result.slots.push_back(
                ImageSlot{ImageSlot::Kind::Dup,
                          CodeLocation{dup.func, dup.block, i},
                          SlotProvenance::Superblock});
        }
        out.dups.push_back(dup);
    }
    return out;
}

double
fsOptAccuracy(const ProgramProfile &profile, const FsOptResult &result,
              const trace::TraceView &view)
{
    // Conditionals in duplicated blocks are scored per entry path:
    // the previous branch event of the stream identifies the
    // predecessor block (every block transition is a terminator
    // execution), and an entry through a duplicated edge uses the
    // duplicate's own likely bit.
    std::unordered_map<Addr, std::unordered_set<Addr>> refined;
    for (const DupTail &dup : result.dups)
        refined[dup.termAddr].insert(dup.predTermAddr);

    struct Tally
    {
        std::uint64_t taken = 0;
        std::uint64_t fall = 0;
    };
    std::map<std::pair<Addr, Addr>, Tally> tallies;
    std::unordered_map<Addr, Addr> dominant;

    std::uint64_t total = 0;
    std::uint64_t fixed_correct = 0;
    Addr prev_pc = ir::kNoAddr;

    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    while (cursor.next(block)) {
        for (std::size_t i = 0; i < block.count; ++i) {
            const Addr pc = block.pc[i];
            ++total;
            if (!block.conditional(i)) {
                const Opcode op = block.opcode(i);
                if (op == Opcode::Jmp || op == Opcode::Call) {
                    // Static target: predicted taken to the encoded
                    // target, which is where control always goes.
                    ++fixed_correct;
                } else {
                    auto it = dominant.find(pc);
                    if (it == dominant.end()) {
                        it = dominant
                                 .emplace(pc, profile.branchCounts(pc)
                                                  .dominantTarget())
                                 .first;
                    }
                    if (it->second == block.nextPc[i])
                        ++fixed_correct;
                }
            } else {
                Addr context = ir::kNoAddr;
                const auto rit = refined.find(pc);
                if (rit != refined.end() && prev_pc != ir::kNoAddr &&
                    rit->second.count(prev_pc))
                    context = prev_pc;
                Tally &tally = tallies[{pc, context}];
                if (block.taken(i))
                    ++tally.taken;
                else
                    ++tally.fall;
            }
            prev_pc = pc;
        }
    }

    // Each static likely bit (per pc, and per duplicate instance) is
    // profiled from this same stream, so it predicts the majority
    // side of its own tally.
    std::uint64_t correct = fixed_correct;
    for (const auto &[key, tally] : tallies)
        correct += std::max(tally.taken, tally.fall);
    if (total == 0)
        return 0.0;
    return static_cast<double>(correct) / static_cast<double>(total);
}

std::optional<double>
fsOptAccuracyFromProfile(const ProgramProfile &profile,
                         const FsOptResult &result)
{
    const auto sites = profile.branchSites();
    if (!sites)
        return std::nullopt;
    std::unordered_map<Addr, std::unordered_set<Addr>> refined;
    for (const DupTail &dup : result.dups)
        refined[dup.termAddr].insert(dup.predTermAddr);

    std::uint64_t total = 0;
    std::uint64_t correct = 0;
    for (const BranchSite &site : *sites) {
        const BranchCounts &counts = *site.counts;
        const Addr pc = site.query.pc;
        total += counts.executions();
        if (!site.query.conditional) {
            correct += site.query.staticTarget != ir::kNoAddr
                           ? counts.executions()
                           : counts.nextCount(counts.dominantTarget());
            continue;
        }
        // Each redirecting predecessor's duplicate scores its own
        // tally; the original block scores the remainder.
        std::uint64_t taken = counts.taken;
        std::uint64_t fall = counts.notTaken;
        if (const auto it = refined.find(pc); it != refined.end()) {
            for (const Addr pred : it->second) {
                const BranchCounts &path = profile.pathCounts(pc, pred);
                correct += std::max(path.taken, path.notTaken);
                taken -= path.taken;
                fall -= path.notTaken;
            }
        }
        correct += std::max(taken, fall);
    }
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
}

} // namespace branchlab::profile
