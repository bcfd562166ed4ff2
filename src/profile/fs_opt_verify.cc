/**
 * @file
 * Static safety verification of Forward Semantic images
 * (verifyFsOptImage), the one verifier at every optimizer level,
 * level none included. It re-derives every proof the builder relied
 * on from fresh dataflow analyses of the program and checks the
 * *output* image against them. Nothing is trusted from the builder
 * beyond the records it claims: each fill, drop, forward, duplicate
 * and elision is re-proven from scratch, every violation is collected
 * (never first-failure-only), and each message carries an O-code plus
 * the provenance of the offending slot.
 *
 *  O1  image structure: slot kinds, each site's group laid out as
 *      [fills][copies][pads] inside the image after a Home slot
 *      holding a conditional terminator, and level gating: NO-OP pads
 *      only at level none (where copies and pads fill all k + l
 *      slots), fills and forwards from level slots, duplicates from
 *      superblock, elisions from hoist
 *  O2  fills: contiguity, liveness and def-use re-proof
 *  O3  windows: copy content, truncation at the first copied
 *      terminator (above level none), dead-drop re-proof, pads only
 *      once the target trace is exhausted, the resume point
 *  O4  no control transfer resolves into a slot region or duplicate
 *  O5  duplicates: content, CFG edge, predecessor terminator shape
 *  O6  elisions: dominance, identity and interference re-proof
 *  O7  accounting: homeIndex coverage and size arithmetic
 *  O8  interprocedural closure: every block-start address (function
 *      entries, call continuations, jump-table arms, branch targets)
 *      resolves to a Home outside all regions and duplicates -- or,
 *      for a forwarded block start, to its carrying Copy slot
 *  O9  branch target forwarding: each forwarded home is the copied
 *      prefix of a site whose likely edge is the target block's only
 *      CFG entry, re-proven from a fresh CFG
 *  O10 inside every trace, consecutive blocks follow the (possibly
 *      reversed) terminator's sequential successor, so the likely path
 *      falls through
 *  O11 only conditional branches are marked reversed
 *
 * The seed-invariant codes V1-V6 of earlier reports map onto these:
 * V1 (group shape) is O1, V2 (copy content) and V3 (pads, resume
 * point) are O3, V4 (trace order) is O10, V5 (home partition, size)
 * is O7 and V6 (reversal marks) is O11.
 */

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "analysis/analysis_cache.hh"
#include "analysis/operands.hh"
#include "ir/printer.hh"
#include "profile/fs_opt.hh"
#include "profile/fs_opt_internal.hh"
#include "support/strings.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::BlockId;
using ir::CodeLocation;
using ir::FuncId;
using ir::Reg;

using analysis::definedReg;
using analysis::usedRegs;

std::string
FsVerifyResult::message() const
{
    return joinStrings(errors, "\n");
}

FsVerifyResult
verifyFsOptImage(const ProgramProfile &profile,
                 const FsOptResult &result)
{
    const ir::Program &prog = profile.program();
    const ir::Layout &layout = profile.layout();
    const FsResult &image = result.image;
    const unsigned slot_count = result.config.fs.slotCount;
    // Level none is the paper's transform: its windows keep their NO-OP
    // pads and run on through copied terminators.
    const bool seed_level = result.level == FsOptLevel::None;

    FsVerifyResult out;
    const auto fail = [&out](const std::ostringstream &os) {
        out.errors.push_back(os.str());
    };
    const auto inst_at = [&prog](const CodeLocation &loc)
        -> const ir::Instruction & {
        return prog.function(loc.func).block(loc.block).inst(loc.index);
    };
    const auto slotAt = [&image](std::size_t index) -> const ImageSlot * {
        return index < image.slots.size() ? &image.slots[index] : nullptr;
    };

    // The verifier's own analyses, never shared with the builder: the
    // whole point is an independent derivation.
    analysis::AnalysisCache analyses(prog);

    // Rebuild the base content of each trace and each block's window
    // position, independently of the builder.
    std::vector<std::vector<CodeLocation>> base(image.traces.size());
    std::map<std::pair<FuncId, BlockId>,
             std::pair<std::size_t, std::size_t>>
        home;
    for (std::size_t t = 0; t < image.traces.size(); ++t) {
        for (BlockId b : image.traces[t].blocks) {
            home[{image.traces[t].func, b}] = {t, base[t].size()};
            const ir::BasicBlock &bb =
                prog.function(image.traces[t].func).block(b);
            for (std::uint32_t i = 0; i < bb.size(); ++i)
                base[t].push_back(CodeLocation{image.traces[t].func, b, i});
        }
    }

    // Every site's resume address (no pass may move or elide these),
    // and the set of image indices inside slot regions and duplicates.
    std::unordered_set<Addr> resume_addrs;
    for (const SlotSite &site : image.sites) {
        if (site.resume.has_value()) {
            resume_addrs.insert(layout.instAddr(site.resume->func,
                                                site.resume->block,
                                                site.resume->index));
        }
    }
    std::unordered_set<std::size_t> region_interior;
    for (const SlotSite &site : image.sites) {
        for (std::size_t k = 1;
             k <= site.filled + site.copied + site.padded; ++k)
            region_interior.insert(site.branchImageIndex + k);
    }
    std::unordered_set<std::size_t> dup_interior;
    for (const DupTail &dup : result.dups) {
        for (std::size_t k = 0; k < dup.length; ++k)
            dup_interior.insert(dup.imageStart + k);
    }
    std::unordered_set<std::size_t> fill_indices;
    for (const FillRecord &fr : result.fills)
        fill_indices.insert(fr.imageIndex);

    // Elided and moved addresses, as claimed; O2/O6 re-prove each.
    std::unordered_set<Addr> elided_addrs;
    std::vector<std::set<std::pair<BlockId, std::uint32_t>>>
        elided_positions(prog.numFunctions());
    for (const HoistElision &e : result.elisions) {
        elided_addrs.insert(e.addr);
        elided_positions[e.loc.func].insert({e.loc.block, e.loc.index});
    }
    std::unordered_set<Addr> moved_addrs;
    for (const FillRecord &fr : result.fills)
        moved_addrs.insert(fr.originAddr);

    // Forwarded homes, as claimed; O9 re-proves each.
    std::unordered_map<Addr, const ForwardedHome *> forwarded_addrs;
    std::unordered_set<std::size_t> fwd_indices;
    for (const ForwardedHome &fh : result.forwards) {
        forwarded_addrs.emplace(fh.addr, &fh);
        fwd_indices.insert(fh.imageIndex);
    }

    // O1: level gating and global slot-kind structure. Each record
    // kind exists only from the level whose pass emits it.
    if (result.level < FsOptLevel::Slots && !result.fills.empty()) {
        std::ostringstream os;
        os << "O1: " << result.fills.size() << " fills at level "
           << fsOptLevelName(result.level) << " [slot-fill]";
        fail(os);
    }
    if (result.level < FsOptLevel::Slots && !result.forwards.empty()) {
        std::ostringstream os;
        os << "O1: " << result.forwards.size() << " forwards at level "
           << fsOptLevelName(result.level) << " [seed]";
        fail(os);
    }
    if (result.level < FsOptLevel::Superblock && !result.dups.empty()) {
        std::ostringstream os;
        os << "O1: " << result.dups.size() << " duplicates at level "
           << fsOptLevelName(result.level) << " [superblock]";
        fail(os);
    }
    if (result.level < FsOptLevel::Hoist && !result.elisions.empty()) {
        std::ostringstream os;
        os << "O1: " << result.elisions.size() << " elisions at level "
           << fsOptLevelName(result.level) << " [hoist]";
        fail(os);
    }
    for (std::size_t i = 0; i < image.slots.size(); ++i) {
        const ImageSlot &slot = image.slots[i];
        if (slot.kind == ImageSlot::Kind::Pad &&
            !region_interior.count(i)) {
            std::ostringstream os;
            os << "O1: Pad slot at image index " << i
               << " outside every slot region ["
               << slotProvenanceName(slot.provenance) << "]";
            fail(os);
        }
        if (slot.kind == ImageSlot::Kind::Fill &&
            !fill_indices.count(i)) {
            std::ostringstream os;
            os << "O1: unrecorded Fill slot at image index " << i
               << " [" << slotProvenanceName(slot.provenance) << "]";
            fail(os);
        }
        if (slot.kind == ImageSlot::Kind::Dup && !dup_interior.count(i)) {
            std::ostringstream os;
            os << "O1: Dup slot at image index " << i
               << " outside every recorded duplicate ["
               << slotProvenanceName(slot.provenance) << "]";
            fail(os);
        }
    }

    // O1 + O3 per site: the branch, group layout, copy content, window
    // truncation and dead-drop re-proof, pads, resume point.
    for (const SlotSite &site : image.sites) {
        const std::string where = ir::formatLocation(prog, site.branchOrig);
        if (!inst_at(site.branchOrig).isConditional()) {
            // Slots mask conditional branches only (Figure 2): every
            // other control transfer resolves at decode or has no
            // compile-time target.
            std::ostringstream os;
            os << "O1: site at " << where
               << " is not a conditional terminator [seed]";
            fail(os);
        }
        if (seed_level && site.copied + site.padded != slot_count) {
            std::ostringstream os;
            os << "O1: site at " << where << " has " << site.copied
               << "+" << site.padded << " slots, expected " << slot_count
               << " [seed]";
            fail(os);
        }
        if (!seed_level && site.padded != 0) {
            std::ostringstream os;
            os << "O1: site at " << where << " kept " << site.padded
               << " pads [seed]";
            fail(os);
        }
        if (site.filled + site.copied > slot_count) {
            std::ostringstream os;
            os << "O1: site at " << where << " has " << site.filled
               << "+" << site.copied << " slots, over the " << slot_count
               << " budget [seed]";
            fail(os);
        }
        // The group occupies [branch + 1, branch + filled + copied +
        // padded].
        if (site.branchImageIndex + site.filled + site.copied +
                site.padded >=
            image.slots.size()) {
            std::ostringstream os;
            os << "O1: site slot group at " << where
               << " overruns the image [seed]";
            fail(os);
        }
        const ImageSlot *branch_slot = slotAt(site.branchImageIndex);
        if (branch_slot == nullptr ||
            branch_slot->kind != ImageSlot::Kind::Home ||
            !(branch_slot->orig == site.branchOrig)) {
            std::ostringstream os;
            os << "O1: site branch slot mismatch at " << where
               << " [seed]";
            fail(os);
        }
        for (unsigned k = 0; k < site.filled; ++k) {
            const ImageSlot *slot =
                slotAt(site.branchImageIndex + 1 + k);
            if (slot == nullptr ||
                slot->kind != ImageSlot::Kind::Fill) {
                std::ostringstream os;
                os << "O1: expected Fill slot " << k << " after "
                   << where;
                if (slot != nullptr) {
                    os << " [" << slotProvenanceName(slot->provenance)
                       << "]";
                }
                fail(os);
            }
        }
        for (unsigned p = 0; p < site.padded; ++p) {
            const ImageSlot *slot = slotAt(site.branchImageIndex + 1 +
                                           site.filled + site.copied + p);
            if (slot == nullptr)
                break;
            if (slot->kind != ImageSlot::Kind::Pad) {
                std::ostringstream os;
                os << "O1: expected Pad slot after copies at " << where
                   << " [" << slotProvenanceName(slot->provenance) << "]";
                fail(os);
            }
        }

        const CodeLocation target = layout.locate(site.origTargetAddr);
        const auto home_it = home.find({target.func, target.block});
        if (home_it == home.end()) {
            std::ostringstream os;
            os << "O3: site target " << ir::formatLocation(prog, target)
               << " not in any trace [seed]";
            fail(os);
            continue; // Window checks need the target trace.
        }
        const std::size_t ut = home_it->second.first;
        const std::size_t uoff = home_it->second.second + target.index;
        const std::size_t avail = base[ut].size() - uoff;

        // Re-derive the window: the region consumes min(slotCount,
        // avail) entries, truncated above level none at the first
        // terminator copy (copies past it never execute).
        std::size_t expected_consumed =
            std::min<std::size_t>(slot_count, avail);
        for (std::size_t c = 0; !seed_level && c < expected_consumed;
             ++c) {
            if (inst_at(base[ut][uoff + c]).isTerminator()) {
                expected_consumed = c + 1;
                break;
            }
        }
        if (site.consumed > expected_consumed) {
            std::ostringstream os;
            os << "O3: site at " << where << " consumed "
               << site.consumed << " window entries, truncation caps "
               << "the window at " << expected_consumed << " [seed]";
            fail(os);
        } else if (site.consumed < expected_consumed &&
                   (site.copied != site.consumed ||
                    site.filled + site.copied != slot_count)) {
            // A shorter window is only legitimate as fill
            // displacement: the freed copies were traded for fills
            // until the region is exactly full, and nothing was
            // dead-dropped on top (copied == consumed).
            std::ostringstream os;
            os << "O3: site at " << where << " consumed "
               << site.consumed << " of " << expected_consumed
               << " window entries without a slot-full fill "
               << "displacement [slot-fill]";
            fail(os);
        }
        if (site.copied > site.consumed) {
            std::ostringstream os;
            os << "O3: site at " << where << " copied " << site.copied
               << " > consumed " << site.consumed << " [seed]";
            fail(os);
        }
        if (site.padded > 0 && site.consumed < avail) {
            std::ostringstream os;
            os << "O3: pads at " << where
               << " although the target trace was not exhausted [seed]";
            fail(os);
        }

        for (unsigned c = 0; c < site.copied; ++c) {
            const ImageSlot *slot =
                slotAt(site.branchImageIndex + 1 + site.filled + c);
            if (slot == nullptr)
                break;
            if (slot->kind != ImageSlot::Kind::Copy) {
                std::ostringstream os;
                os << "O1: expected Copy slot " << c << " after "
                   << where << " ["
                   << slotProvenanceName(slot->provenance) << "]";
                fail(os);
                continue;
            }
            if (uoff + c >= base[ut].size() ||
                !(slot->orig == base[ut][uoff + c])) {
                std::ostringstream os;
                os << "O3: copy slot " << c << " after " << where
                   << " does not match the target path ["
                   << slotProvenanceName(slot->provenance) << "]";
                fail(os);
            }
        }

        // Resume point: the window advanced by 'consumed'.
        if (site.resume.has_value()) {
            if (uoff + site.consumed >= base[ut].size() ||
                !(*site.resume == base[ut][uoff + site.consumed])) {
                std::ostringstream os;
                os << "O3: resume point after " << where
                   << " is not the target path advanced by "
                   << site.consumed << " [seed]";
                fail(os);
            }
        } else if (uoff + site.consumed < base[ut].size()) {
            std::ostringstream os;
            os << "O3: missing resume point at " << where << " [seed]";
            fail(os);
        }

        // Dead-drop re-proof: window entries [copied, consumed) were
        // skipped from the region; each must be a speculable pure
        // write whose definition is dead at the resume point.
        for (std::size_t c = site.copied; c < site.consumed; ++c) {
            if (uoff + c >= base[ut].size())
                break;
            const CodeLocation &loc = base[ut][uoff + c];
            const ir::Instruction &inst = inst_at(loc);
            std::ostringstream os;
            os << "O3: dropped copy " << c << " after " << where
               << " (" << ir::formatLocation(prog, loc) << ") ";
            if (!fsSpeculablePure(inst)) {
                os << "is not a speculable pure write [seed]";
                fail(os);
                continue;
            }
            const Reg def = definedReg(inst);
            if (!site.resume.has_value()) {
                os << "has no resume point to prove deadness at [seed]";
                fail(os);
                continue;
            }
            const analysis::RegSet &live_at =
                analyses.liveness(loc.func).liveBeforeAt(
                    site.resume->block, site.resume->index);
            if (def != ir::kNoReg && def < live_at.size() &&
                live_at[def]) {
                os << "defines r" << def
                   << ", live at the resume point [seed]";
                fail(os);
            }
        }
    }

    // O2: fill re-proof. Group the records per site, then re-prove
    // each move: a filled instruction leaves its home above the
    // branch, so it must carry no register dependence on any
    // instruction that stays in place between its home and the
    // branch.
    std::map<std::size_t, std::vector<const FillRecord *>> fills_of;
    for (const FillRecord &fr : result.fills) {
        if (fr.site >= image.sites.size()) {
            std::ostringstream os;
            os << "O2: fill record references site " << fr.site
               << " of " << image.sites.size() << " [slot-fill]";
            fail(os);
            continue;
        }
        fills_of[fr.site].push_back(&fr);
    }
    for (auto &[site_idx, records] : fills_of) {
        const SlotSite &site = image.sites[site_idx];
        const std::string where = ir::formatLocation(prog, site.branchOrig);
        if (records.size() != site.filled) {
            std::ostringstream os;
            os << "O2: site at " << where << " claims " << site.filled
               << " fills but " << records.size()
               << " records exist [slot-fill]";
            fail(os);
        }
        std::sort(records.begin(), records.end(),
                  [](const FillRecord *a, const FillRecord *b) {
                      return a->origin.index < b->origin.index;
                  });
        const ir::Instruction &term = inst_at(site.branchOrig);
        const std::vector<Reg> term_uses = usedRegs(term);

        // The untaken side of a conditional site, after reversal.
        BlockId untaken = ir::kNoBlock;
        if (term.isConditional()) {
            const BlockId likely_block =
                layout.locate(site.origTargetAddr).block;
            untaken = term.target == likely_block ? term.next
                                                  : term.target;
        }

        std::set<std::uint32_t> moved_indices;
        for (const FillRecord *fr : records)
            moved_indices.insert(fr->origin.index);
        for (std::size_t k = 0; k < records.size(); ++k) {
            const FillRecord &fr = *records[k];
            std::ostringstream os;
            os << "O2: fill of " << ir::formatLocation(prog, fr.origin)
               << " into the site at " << where << " ";
            if (fr.origin.func != site.branchOrig.func ||
                fr.origin.block != site.branchOrig.block) {
                os << "moves across blocks [slot-fill]";
                fail(os);
                continue;
            }
            // Index 0 must keep its home (it is the block's entry
            // address), and an origin at or past the branch is
            // nonsense.
            if (fr.origin.index == 0 ||
                fr.origin.index >= site.branchOrig.index) {
                os << "originates outside (0, branch) (index "
                   << fr.origin.index << ") [slot-fill]";
                fail(os);
                continue;
            }
            if (k > 0 &&
                records[k - 1]->origin.index == fr.origin.index) {
                os << "duplicates the record at index "
                   << fr.origin.index << " [slot-fill]";
                fail(os);
                continue;
            }
            const ImageSlot *slot = slotAt(fr.imageIndex);
            if (slot == nullptr ||
                slot->kind != ImageSlot::Kind::Fill ||
                !(slot->orig == fr.origin) ||
                fr.imageIndex !=
                    site.branchImageIndex + 1 + k) {
                os << "does not occupy its Fill slot [slot-fill]";
                fail(os);
                continue;
            }
            const auto idx_it = image.homeIndex.find(fr.originAddr);
            if (idx_it == image.homeIndex.end() ||
                idx_it->second != fr.imageIndex) {
                os << "is not indexed at its Fill slot [slot-fill]";
                fail(os);
            }
            const ir::Instruction &inst = inst_at(fr.origin);
            if (!fsRegionMovable(inst)) {
                os << "is not region-movable [slot-fill]";
                fail(os);
                continue;
            }
            const Reg dst = definedReg(inst);
            if (std::find(term_uses.begin(), term_uses.end(), dst) !=
                term_uses.end()) {
                os << "defines r" << dst
                   << ", read by the site branch [slot-fill]";
                fail(os);
            }
            if (resume_addrs.count(fr.originAddr)) {
                os << "moves a resume point [slot-fill]";
                fail(os);
            }
            if (elided_addrs.count(fr.originAddr)) {
                os << "moves an elided instruction [slot-fill]";
                fail(os);
            }
            if (untaken != ir::kNoBlock && dst != ir::kNoReg) {
                const analysis::RegSet &live_in =
                    analyses.liveness(fr.origin.func)
                        .liveBeforeAt(untaken, 0);
                if (dst < live_in.size() && live_in[dst]) {
                    os << "clobbers r" << dst
                       << ", live into the untaken block [slot-fill]";
                    fail(os);
                }
            }
            // Reorder proof: the move drags the instruction below
            // every stayer between its home and the branch, so it
            // must not define a register a stayer reads or writes,
            // nor read a register a stayer writes. A moved load has
            // the extra obligation that it crosses no store, or the
            // loaded value could change between home and region.
            const std::vector<Reg> inst_uses = usedRegs(inst);
            const ir::BasicBlock &home_bb =
                prog.function(fr.origin.func).block(fr.origin.block);
            for (std::uint32_t s = fr.origin.index + 1;
                 s < site.branchOrig.index; ++s) {
                if (moved_indices.count(s))
                    continue;
                const ir::Instruction &stay = home_bb.inst(s);
                if (inst.op == ir::Opcode::Ld &&
                    stay.op == ir::Opcode::St) {
                    os << "moves a load past the store at "
                       << ir::formatLocation(
                              prog, CodeLocation{fr.origin.func,
                                                 fr.origin.block, s})
                       << " [slot-fill]";
                    fail(os);
                    break;
                }
                const Reg stay_def = definedReg(stay);
                const std::vector<Reg> stay_uses = usedRegs(stay);
                const bool hazard =
                    (dst != ir::kNoReg &&
                     (stay_def == dst ||
                      std::find(stay_uses.begin(), stay_uses.end(),
                                dst) != stay_uses.end())) ||
                    (stay_def != ir::kNoReg &&
                     std::find(inst_uses.begin(), inst_uses.end(),
                               stay_def) != inst_uses.end());
                if (hazard) {
                    os << "moves past the dependent instruction at "
                       << ir::formatLocation(
                              prog, CodeLocation{fr.origin.func,
                                                 fr.origin.block, s})
                       << " [slot-fill]";
                    fail(os);
                    break;
                }
            }
        }
    }

    // O5: duplicate re-proof.
    std::set<std::pair<BlockId, BlockId>> dup_edges;
    for (const DupTail &dup : result.dups) {
        if (dup.func >= prog.numFunctions() ||
            dup.block >=
                prog.function(dup.func).numBlocks() ||
            dup.pred >= prog.function(dup.func).numBlocks()) {
            std::ostringstream bad;
            bad << "O5: duplicate references bad block [superblock]";
            fail(bad);
            continue;
        }
        std::ostringstream os;
        os << "O5: duplicate of "
           << ir::formatLocation(prog, CodeLocation{dup.func, dup.block, 0})
           << " for predecessor block " << dup.pred << " ";
        const ir::Function &fn = prog.function(dup.func);
        const ir::BasicBlock &bb = fn.block(dup.block);
        if (!dup_edges.insert({dup.pred, dup.block}).second) {
            os << "is recorded twice [superblock]";
            fail(os);
            continue;
        }
        if (!analyses.cfg(dup.func).hasEdge(dup.pred, dup.block)) {
            os << "redirects a non-existent CFG edge [superblock]";
            fail(os);
            continue;
        }
        const ir::Instruction &pred_term = fn.block(dup.pred).terminator();
        if (!pred_term.isConditional() &&
            pred_term.op != ir::Opcode::Jmp) {
            os << "redirects a dynamically-resolved predecessor "
                  "[superblock]";
            fail(os);
            continue;
        }
        if (dup.length != bb.size()) {
            os << "copies " << dup.length << " of " << bb.size()
               << " instructions [superblock]";
            fail(os);
            continue;
        }
        if (dup.predTermAddr !=
                layout.instAddr(dup.func, dup.pred,
                                fn.block(dup.pred).size() - 1) ||
            dup.blockStartAddr != layout.blockAddr(dup.func, dup.block) ||
            dup.termAddr !=
                layout.instAddr(dup.func, dup.block, bb.size() - 1)) {
            os << "has inconsistent addresses [superblock]";
            fail(os);
            continue;
        }
        for (std::uint32_t i = 0; i < bb.size(); ++i) {
            const std::size_t idx = dup.imageStart + i;
            const ImageSlot *slot = slotAt(idx);
            if (slot == nullptr ||
                slot->kind != ImageSlot::Kind::Dup ||
                !(slot->orig ==
                  CodeLocation{dup.func, dup.block, i})) {
                std::ostringstream bad;
                bad << "O5: duplicate of "
                    << ir::formatLocation(
                           prog, CodeLocation{dup.func, dup.block, 0})
                    << " has wrong content at offset " << i;
                if (slot != nullptr) {
                    bad << " ["
                        << slotProvenanceName(slot->provenance) << "]";
                } else {
                    bad << " [superblock]";
                }
                fail(bad);
            }
        }
    }

    // O6: elision re-proof, against the full elided set (interference
    // scans must skip removed code, and removed code must never be a
    // value source).
    for (const HoistElision &e : result.elisions) {
        std::ostringstream os;
        os << "O6: elision of " << ir::formatLocation(prog, e.loc)
           << " against " << ir::formatLocation(prog, e.from) << " ";
        if (e.loc.func != e.from.func) {
            os << "crosses functions [hoist]";
            fail(os);
            continue;
        }
        const ir::Function &fn = prog.function(e.loc.func);
        const ir::BasicBlock &bb = fn.block(e.loc.block);
        if (e.loc.index == 0 || e.loc.index + 1 >= bb.size()) {
            os << "removes a block entry or terminator [hoist]";
            fail(os);
            continue;
        }
        if (elided_positions[e.from.func].count(
                {e.from.block, e.from.index})) {
            os << "sources from removed code [hoist]";
            fail(os);
            continue;
        }
        const ir::Instruction &inst = inst_at(e.loc);
        const ir::Instruction &src = inst_at(e.from);
        if (!sameInstruction(inst, src)) {
            os << "is not the identical instruction [hoist]";
            fail(os);
            continue;
        }
        if (!fsRegionMovable(inst)) {
            os << "is not region-movable [hoist]";
            fail(os);
            continue;
        }
        const Reg dst = definedReg(inst);
        std::vector<Reg> uses = usedRegs(inst);
        if (std::find(uses.begin(), uses.end(), dst) != uses.end()) {
            os << "is not idempotent (reads its definition) [hoist]";
            fail(os);
            continue;
        }
        if (resume_addrs.count(e.addr)) {
            os << "removes a resume point [hoist]";
            fail(os);
            continue;
        }
        const bool same_block = e.from.block == e.loc.block;
        if (same_block ? e.from.index >= e.loc.index
                       : !analyses.dominators(e.loc.func)
                              .dominates(e.from.block, e.loc.block)) {
            os << "has no dominating source [hoist]";
            fail(os);
            continue;
        }
        std::vector<Reg> regs = std::move(uses);
        regs.push_back(dst);
        if (fsHoistInterference(fn, analyses.cfg(e.loc.func),
                                analyses.reachability(e.loc.func),
                                elided_positions[e.loc.func],
                                e.from.block, e.from.index, e.loc.block,
                                e.loc.index, regs,
                                inst.op == ir::Opcode::Ld)) {
            os << "has an interfering definition or store on a "
                  "connecting path [hoist]";
            fail(os);
        }
    }

    // O4 + O7: homeIndex coverage and accounting. Every original
    // instruction except the elided ones has exactly one index entry;
    // entries point at a Home (or, for moved instructions, Fill) slot
    // holding that instruction; nothing resolves into a region
    // interior or duplicate except the recorded fills.
    std::size_t home_slots = 0;
    for (const ImageSlot &slot : image.slots) {
        if (slot.kind == ImageSlot::Kind::Home)
            ++home_slots;
    }
    const std::size_t expect_homes =
        image.originalSize - result.elisions.size() -
        result.fills.size() - result.forwards.size();
    if (home_slots != expect_homes) {
        std::ostringstream os;
        os << "O7: " << home_slots << " Home slots, accounting proves "
           << expect_homes << " [seed]";
        fail(os);
    }
    if (image.homeIndex.size() !=
        image.originalSize - result.elisions.size()) {
        std::ostringstream os;
        os << "O7: homeIndex has " << image.homeIndex.size()
           << " entries, expected "
           << image.originalSize - result.elisions.size() << " [seed]";
        fail(os);
    }
    std::size_t copies_total = 0;
    std::size_t pads_total = 0;
    for (const SlotSite &site : image.sites) {
        copies_total += site.copied;
        pads_total += site.padded;
    }
    std::size_t dup_total = 0;
    for (const DupTail &dup : result.dups)
        dup_total += dup.length;
    const std::size_t expect_size =
        image.originalSize - result.elisions.size() -
        result.forwards.size() + copies_total + pads_total + dup_total;
    if (image.expandedSize() != expect_size) {
        std::ostringstream os;
        os << "O7: expanded size " << image.expandedSize()
           << " != original " << image.originalSize << " - "
           << result.elisions.size() << " elisions - "
           << result.forwards.size() << " forwarded + " << copies_total
           << " copies + " << pads_total << " pads + " << dup_total
           << " duplicated [seed]";
        fail(os);
    }
    for (const auto &[addr, index] : image.homeIndex) {
        const CodeLocation loc = layout.locate(addr);
        const ImageSlot *slot = slotAt(index);
        const bool is_fwd = forwarded_addrs.count(addr) > 0;
        if (slot == nullptr || !(slot->orig == loc) ||
            (slot->kind != ImageSlot::Kind::Home &&
             slot->kind != ImageSlot::Kind::Fill &&
             !(is_fwd && slot->kind == ImageSlot::Kind::Copy))) {
            std::ostringstream os;
            os << "O7: homeIndex entry for "
               << ir::formatLocation(prog, loc)
               << " does not resolve to its instruction";
            if (slot != nullptr) {
                os << " [" << slotProvenanceName(slot->provenance)
                   << "]";
            }
            fail(os);
            continue;
        }
        if (slot->kind == ImageSlot::Kind::Fill &&
            !moved_addrs.count(addr)) {
            std::ostringstream os;
            os << "O7: unmoved instruction "
               << ir::formatLocation(prog, loc)
               << " is indexed at a Fill slot [slot-fill]";
            fail(os);
        }
        if (elided_addrs.count(addr)) {
            std::ostringstream os;
            os << "O7: elided instruction " << ir::formatLocation(prog, loc)
               << " still has a homeIndex entry [hoist]";
            fail(os);
        }
        if (dup_interior.count(index)) {
            std::ostringstream os;
            os << "O4: homeIndex entry for " << ir::formatLocation(prog, loc)
               << " resolves into a duplicate [superblock]";
            fail(os);
        }
        if (region_interior.count(index) && !fill_indices.count(index) &&
            !fwd_indices.count(index)) {
            std::ostringstream os;
            os << "O4: homeIndex entry for " << ir::formatLocation(prog, loc)
               << " resolves into a slot region";
            fail(os);
        }
    }

    // O8: interprocedural closure. Every block start -- function
    // entries, call continuations, jump-table arms, branch targets,
    // return paths -- must resolve to a Home slot outside all regions
    // and duplicates. Fills and elisions never touch index 0 of a
    // block; the only exception is a forwarded block start, whose
    // home lives in its site's Copy slot (O9 proves the site's likely
    // edge is the block's only entry).
    for (FuncId f = 0; f < prog.numFunctions(); ++f) {
        const ir::Function &fn = prog.function(f);
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            const Addr addr = layout.blockAddr(f, b);
            const auto it = image.homeIndex.find(addr);
            std::ostringstream os;
            os << "O8: block entry "
               << ir::formatLocation(prog, CodeLocation{f, b, 0}) << " ";
            if (it == image.homeIndex.end()) {
                os << "has no home in the image";
                fail(os);
                continue;
            }
            const bool is_fwd = forwarded_addrs.count(addr) > 0;
            const ImageSlot *slot = slotAt(it->second);
            const ImageSlot::Kind want = is_fwd ? ImageSlot::Kind::Copy
                                                : ImageSlot::Kind::Home;
            if (slot == nullptr || slot->kind != want) {
                os << "does not resolve to a "
                   << (is_fwd ? "Copy" : "Home") << " slot";
                if (slot != nullptr) {
                    os << " [" << slotProvenanceName(slot->provenance)
                       << "]";
                }
                fail(os);
                continue;
            }
            if (!is_fwd && (region_interior.count(it->second) ||
                            dup_interior.count(it->second))) {
                os << "resolves into a slot region or duplicate";
                fail(os);
            }
        }
    }

    // O9: branch target forwarding. Re-prove, from a fresh CFG, that
    // each forwarded home could only ever execute through its site's
    // region: the site's likely edge is the target block's sole CFG
    // entry, the forwarded instructions are the contiguous copied
    // prefix of that block (never its terminator), each one's Copy
    // slot carries it, and no other pass claims the position.
    std::map<std::size_t, std::vector<const ForwardedHome *>> fwd_by_site;
    for (const ForwardedHome &fh : result.forwards) {
        if (fh.site >= image.sites.size()) {
            std::ostringstream os;
            os << "O9: forwarded home " << ir::formatLocation(prog, fh.loc)
               << " names out-of-range site " << fh.site << " [seed]";
            fail(os);
            continue;
        }
        fwd_by_site[fh.site].push_back(&fh);
    }
    for (auto &[site_idx, records] : fwd_by_site) {
        const SlotSite &site = image.sites[site_idx];
        const std::string where = ir::formatLocation(prog, site.branchOrig);
        const CodeLocation target = layout.locate(site.origTargetAddr);
        const ir::Function &fn = prog.function(target.func);
        if (target.func != site.branchOrig.func ||
            target.block == site.branchOrig.block ||
            target.block == fn.entry()) {
            std::ostringstream os;
            os << "O9: site at " << where
               << " forwards a function entry, a self-loop or a "
                  "cross-function target [seed]";
            fail(os);
            continue;
        }
        const ir::Instruction &term =
            fn.block(site.branchOrig.block).inst(site.branchOrig.index);
        if (term.isConditional() && term.target == term.next) {
            std::ostringstream os;
            os << "O9: site at " << where
               << " forwards past a conditional with both edges on "
                  "the target [seed]";
            fail(os);
            continue;
        }
        const analysis::Cfg &cfg = analyses.cfg(target.func);
        std::size_t in_edges = 0;
        bool sole = true;
        for (BlockId p = 0; p < static_cast<BlockId>(cfg.numBlocks());
             ++p) {
            for (BlockId s : cfg.successors(p)) {
                if (s != target.block)
                    continue;
                ++in_edges;
                if (p != site.branchOrig.block)
                    sole = false;
            }
        }
        if (!sole || in_edges != 1) {
            std::ostringstream os;
            os << "O9: site at " << where << " forwards "
               << ir::formatLocation(prog, CodeLocation{target.func,
                                                 target.block, 0})
               << " which has " << in_edges
               << " CFG entries (need exactly its likely edge) [seed]";
            fail(os);
            continue;
        }
        bool shared = false;
        for (std::size_t o = 0; o < image.sites.size(); ++o) {
            if (o == site_idx)
                continue;
            const CodeLocation ot =
                layout.locate(image.sites[o].origTargetAddr);
            if (ot.func == target.func && ot.block == target.block)
                shared = true;
        }
        if (shared) {
            std::ostringstream os;
            os << "O9: site at " << where
               << " forwards a block another site also copies [seed]";
            fail(os);
            continue;
        }
        std::sort(records.begin(), records.end(),
                  [](const ForwardedHome *a, const ForwardedHome *b) {
                      return a->loc.index < b->loc.index;
                  });
        const ir::BasicBlock &tb = fn.block(target.block);
        for (std::size_t i = 0; i < records.size(); ++i) {
            const ForwardedHome &fh = *records[i];
            std::ostringstream os;
            os << "O9: forwarded home " << ir::formatLocation(prog, fh.loc)
               << " at site " << where << " ";
            if (fh.loc.func != target.func ||
                fh.loc.block != target.block ||
                fh.loc.index != static_cast<std::uint32_t>(i)) {
                os << "breaks the contiguous copied prefix [seed]";
                fail(os);
                continue;
            }
            if (i >= site.copied ||
                static_cast<std::size_t>(i) + 1 >= tb.size()) {
                os << "is not a copied non-terminator position [seed]";
                fail(os);
                continue;
            }
            if (fh.addr !=
                layout.instAddr(fh.loc.func, fh.loc.block, fh.loc.index)) {
                os << "records the wrong address [seed]";
                fail(os);
                continue;
            }
            const std::size_t expect_index =
                site.branchImageIndex + 1 + site.filled + i;
            const ImageSlot *slot = slotAt(fh.imageIndex);
            if (fh.imageIndex != expect_index || slot == nullptr ||
                slot->kind != ImageSlot::Kind::Copy ||
                !(slot->orig == fh.loc)) {
                os << "does not name its carrying Copy slot [seed]";
                fail(os);
                continue;
            }
            const auto hit = image.homeIndex.find(fh.addr);
            if (hit == image.homeIndex.end() ||
                hit->second != fh.imageIndex) {
                os << "is not indexed at its Copy slot [seed]";
                fail(os);
                continue;
            }
            if (moved_addrs.count(fh.addr) ||
                resume_addrs.count(fh.addr) ||
                elided_addrs.count(fh.addr)) {
                os << "is also claimed by a fill, resume or elision";
                fail(os);
            }
        }
    }

    // O10: consecutive trace blocks follow the effective likely path --
    // the terminator's sequential successor (analysis/cfg.hh), or for a
    // jump table any CFG edge out of the block.
    for (const Trace &trace : image.traces) {
        const ir::Function &fn = prog.function(trace.func);
        for (std::size_t j = 0; j + 1 < trace.blocks.size(); ++j) {
            const ir::BasicBlock &bb = fn.block(trace.blocks[j]);
            const ir::Instruction &term = bb.terminator();
            const BlockId next = trace.blocks[j + 1];
            const Addr term_addr =
                layout.blockAddr(trace.func, trace.blocks[j]) +
                bb.size() - 1;
            const BlockId seq = analysis::sequentialSuccessor(
                term, image.reversed.count(term_addr) != 0);
            const bool ok =
                seq != ir::kNoBlock
                    ? seq == next
                    : term.op == ir::Opcode::JTab &&
                          analyses.cfg(trace.func).hasEdge(trace.blocks[j],
                                                           next);
            if (!ok) {
                std::ostringstream os;
                os << "O10: trace in " << fn.name() << " connects block "
                   << trace.blocks[j] << " to " << next
                   << " without a likely fallthrough path [seed]";
                fail(os);
            }
        }
    }

    // O11: reversals only mark conditional terminators.
    for (const Addr addr : image.reversed) {
        const CodeLocation loc = layout.locate(addr);
        if (!inst_at(loc).isConditional()) {
            std::ostringstream os;
            os << "O11: reversed mark on non-conditional at "
               << ir::formatLocation(prog, loc) << " [seed]";
            fail(os);
        }
    }

    return out;
}

} // namespace branchlab::profile
