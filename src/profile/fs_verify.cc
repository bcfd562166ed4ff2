#include "profile/fs_verify.hh"

#include <map>
#include <sstream>

#include "analysis/analysis_cache.hh"
#include "ir/printer.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::BlockId;
using ir::CodeLocation;
using ir::FuncId;
using ir::Opcode;

namespace
{

/** Rebuild each trace's base content independently of the filler. */
std::vector<std::vector<CodeLocation>>
rebuildBase(const ir::Program &prog, const std::vector<Trace> &traces)
{
    std::vector<std::vector<CodeLocation>> base(traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
        for (BlockId b : traces[t].blocks) {
            const ir::BasicBlock &bb =
                prog.function(traces[t].func).block(b);
            for (std::uint32_t i = 0; i < bb.size(); ++i)
                base[t].push_back(CodeLocation{traces[t].func, b, i});
        }
    }
    return base;
}

} // namespace

std::string
FsVerifyResult::message() const
{
    return joinStrings(errors, "\n");
}

FsVerifyResult
verifyFsImage(const ProgramProfile &profile, const FsResult &image,
              unsigned slot_count)
{
    const ir::Program &prog = profile.program();
    const ir::Layout &layout = profile.layout();
    FsVerifyResult result;
    const auto fail = [&result](const std::ostringstream &os) {
        result.errors.push_back(os.str());
    };

    const auto base = rebuildBase(prog, image.traces);

    // Locate each block's trace and base offset.
    std::map<std::pair<FuncId, BlockId>, std::pair<std::size_t, std::size_t>>
        home;
    for (std::size_t t = 0; t < image.traces.size(); ++t) {
        std::size_t offset = 0;
        for (BlockId b : image.traces[t].blocks) {
            home[{image.traces[t].func, b}] = {t, offset};
            offset += prog.function(image.traces[t].func).block(b).size();
        }
    }

    // V1 + V2 + V3: per-site shape, copy contents, resume point. The
    // whole violation set is collected: every check that can still be
    // evaluated after an earlier failure runs (slot accesses are
    // bounds-guarded instead of trusting the site's counts), and every
    // message naming a slot carries the slot's provenance so a broken
    // image points at the pass that emitted it.
    for (const SlotSite &site : image.sites) {
        if (site.copied + site.padded != slot_count) {
            std::ostringstream os;
            os << "V1: site at " << ir::formatLocation(prog, site.branchOrig)
               << " has " << site.copied << "+" << site.padded
               << " slots, expected " << slot_count;
            fail(os);
        }
        // The group occupies [branch+1, branch+copied+padded].
        const std::size_t group = site.copied + site.padded;
        if (site.branchImageIndex + group >= image.slots.size()) {
            std::ostringstream os;
            os << "V1: site slot group overruns the image";
            fail(os);
        }
        const auto slotAt =
            [&image](std::size_t index) -> const ImageSlot * {
            return index < image.slots.size() ? &image.slots[index]
                                              : nullptr;
        };
        const ImageSlot *branch_slot = slotAt(site.branchImageIndex);
        if (branch_slot == nullptr ||
            branch_slot->kind != ImageSlot::Kind::Home ||
            !(branch_slot->orig == site.branchOrig)) {
            std::ostringstream os;
            os << "V1: site branch slot mismatch at "
               << ir::formatLocation(prog, site.branchOrig);
            if (branch_slot != nullptr) {
                os << " ["
                   << slotProvenanceName(branch_slot->provenance)
                   << "]";
            }
            fail(os);
        }

        const CodeLocation target = layout.locate(site.origTargetAddr);
        const auto home_it = home.find({target.func, target.block});
        if (home_it == home.end()) {
            std::ostringstream os;
            os << "V2: site target " << ir::formatLocation(prog, target)
               << " not in any trace";
            fail(os);
            continue; // Content and resume checks need the window.
        }
        const std::size_t ut = home_it->second.first;
        const std::size_t uoff = home_it->second.second + target.index;

        for (unsigned c = 0; c < site.copied; ++c) {
            const ImageSlot *slot =
                slotAt(site.branchImageIndex + 1 + c);
            if (slot == nullptr)
                break;
            if (slot->kind != ImageSlot::Kind::Copy) {
                std::ostringstream os;
                os << "V1: expected Copy slot " << c << " after "
                   << ir::formatLocation(prog, site.branchOrig) << " ["
                   << slotProvenanceName(slot->provenance) << "]";
                fail(os);
                continue;
            }
            if (uoff + c >= base[ut].size() ||
                !(slot->orig == base[ut][uoff + c])) {
                std::ostringstream os;
                os << "V2: copy slot " << c << " after "
                   << ir::formatLocation(prog, site.branchOrig)
                   << " does not match the target path ["
                   << slotProvenanceName(slot->provenance) << "]";
                fail(os);
            }
        }
        for (unsigned p = 0; p < site.padded; ++p) {
            const ImageSlot *slot =
                slotAt(site.branchImageIndex + 1 + site.copied + p);
            if (slot == nullptr)
                break;
            if (slot->kind != ImageSlot::Kind::Pad) {
                std::ostringstream os;
                os << "V1: expected Pad slot after copies at "
                   << ir::formatLocation(prog, site.branchOrig) << " ["
                   << slotProvenanceName(slot->provenance) << "]";
                fail(os);
            }
        }
        if (site.padded > 0 && uoff + site.copied != base[ut].size()) {
            std::ostringstream os;
            os << "V3: pads at " << ir::formatLocation(prog, site.branchOrig)
               << " although the target trace was not exhausted";
            fail(os);
        }
        if (site.resume.has_value()) {
            if (uoff + site.copied >= base[ut].size() ||
                !(*site.resume == base[ut][uoff + site.copied])) {
                std::ostringstream os;
                os << "V3: resume point after "
                   << ir::formatLocation(prog, site.branchOrig)
                   << " is not the target path advanced by "
                   << site.copied;
                fail(os);
            }
        } else if (uoff + site.copied < base[ut].size()) {
            std::ostringstream os;
            os << "V3: missing resume point at "
               << ir::formatLocation(prog, site.branchOrig);
            fail(os);
        }
    }

    // V4: consecutive trace blocks follow the effective likely path —
    // the terminator's sequential successor (analysis/cfg.hh), or for
    // a jump table any CFG edge out of the block.
    analysis::AnalysisCache analyses(prog);
    for (const Trace &trace : image.traces) {
        const ir::Function &fn = prog.function(trace.func);
        for (std::size_t j = 0; j + 1 < trace.blocks.size(); ++j) {
            const ir::BasicBlock &bb = fn.block(trace.blocks[j]);
            const ir::Instruction &term = bb.terminator();
            const BlockId next = trace.blocks[j + 1];
            const Addr term_addr =
                layout.blockAddr(trace.func, trace.blocks[j]) +
                bb.size() - 1;
            const bool reversed = image.reversed.count(term_addr) != 0;
            const BlockId seq =
                analysis::sequentialSuccessor(term, reversed);
            const bool ok =
                seq != ir::kNoBlock
                    ? seq == next
                    : term.op == Opcode::JTab &&
                          analyses.cfg(trace.func).hasEdge(trace.blocks[j],
                                                           next);
            if (!ok) {
                std::ostringstream os;
                os << "V4: trace in " << fn.name() << " connects block "
                   << trace.blocks[j] << " to " << next
                   << " without a likely fallthrough path";
                fail(os);
            }
        }
    }

    // V5: homes form a partition and sizes add up.
    std::size_t home_count = 0;
    for (const ImageSlot &slot : image.slots) {
        if (slot.kind == ImageSlot::Kind::Home)
            ++home_count;
    }
    if (home_count != image.originalSize) {
        std::ostringstream os;
        os << "V5: " << home_count << " home slots for "
           << image.originalSize << " original instructions";
        fail(os);
    }
    if (image.homeIndex.size() != image.originalSize) {
        std::ostringstream os;
        os << "V5: homeIndex has " << image.homeIndex.size()
           << " entries, expected " << image.originalSize;
        fail(os);
    }
    const std::size_t expected =
        image.originalSize + image.sites.size() * slot_count;
    if (image.expandedSize() != expected) {
        std::ostringstream os;
        os << "V5: expanded size " << image.expandedSize()
           << " != original " << image.originalSize << " + "
           << image.sites.size() << " sites * " << slot_count;
        fail(os);
    }

    // V6: reversals only mark conditional terminators.
    for (Addr addr : image.reversed) {
        const CodeLocation loc = layout.locate(addr);
        const ir::Instruction &inst =
            prog.function(loc.func).block(loc.block).inst(loc.index);
        if (!inst.isConditional()) {
            std::ostringstream os;
            os << "V6: reversed mark on non-conditional at "
               << ir::formatLocation(prog, loc);
            fail(os);
        }
    }

    return result;
}

void
printFsImage(std::ostream &os, const ProgramProfile &profile,
             const FsResult &image)
{
    const ir::Program &prog = profile.program();
    os << "Forward Semantic image of '" << prog.name() << "' ("
       << image.originalSize << " -> " << image.expandedSize()
       << " instructions, +"
       << static_cast<int>(image.codeSizeIncrease() * 10000.0) / 100.0
       << "%)\n";
    for (std::size_t i = 0; i < image.slots.size(); ++i) {
        const ImageSlot &slot = image.slots[i];
        os << "  " << i << ": ";
        switch (slot.kind) {
          case ImageSlot::Kind::Home: {
            const ir::Function &fn = prog.function(slot.orig.func);
            const ir::Instruction &inst =
                fn.block(slot.orig.block).inst(slot.orig.index);
            os << ir::formatInstruction(prog, fn, inst);
            if (slot.orig.index == 0) {
                os << "    ; " << fn.name() << "."
                   << fn.block(slot.orig.block).label();
            }
            break;
          }
          case ImageSlot::Kind::Copy: {
            const ir::Function &fn = prog.function(slot.orig.func);
            const ir::Instruction &inst =
                fn.block(slot.orig.block).inst(slot.orig.index);
            os << ir::formatInstruction(prog, fn, inst)
               << "    ; forward-slot copy";
            break;
          }
          case ImageSlot::Kind::Pad:
            os << "nop    ; forward-slot pad";
            break;
          case ImageSlot::Kind::Fill:
          case ImageSlot::Kind::Dup: {
            const ir::Function &fn = prog.function(slot.orig.func);
            const ir::Instruction &inst =
                fn.block(slot.orig.block).inst(slot.orig.index);
            os << ir::formatInstruction(prog, fn, inst) << "    ; "
               << slotProvenanceName(slot.provenance);
            break;
          }
        }
        os << "\n";
    }
}

} // namespace branchlab::profile
