#include "profile/forward_slots.hh"

#include <map>
#include <ostream>

#include "ir/printer.hh"
#include "support/logging.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::BlockId;
using ir::CodeLocation;
using ir::FuncId;
using ir::Opcode;

const char *
slotProvenanceName(SlotProvenance provenance)
{
    switch (provenance) {
      case SlotProvenance::Seed: return "seed";
      case SlotProvenance::SlotFill: return "slot-fill";
      case SlotProvenance::Superblock: return "superblock";
    }
    return "?";
}

double
FsResult::codeSizeIncrease() const
{
    if (originalSize == 0)
        return 0.0;
    return static_cast<double>(expandedSize() - originalSize) /
           static_cast<double>(originalSize);
}

double
FsPlan::codeSizeIncrease(unsigned slot_count) const
{
    if (originalSize == 0)
        return 0.0;
    return static_cast<double>(sites.size() * slot_count) /
           static_cast<double>(originalSize);
}

double
codeIncreaseFor(const ProgramProfile &profile, unsigned slot_count,
                double trace_threshold)
{
    FsConfig config;
    config.slotCount = slot_count;
    config.trace.minArcProbability = trace_threshold;
    return planForwardSlots(profile, config).codeSizeIncrease(slot_count);
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

FsPlan
planForwardSlots(const ProgramProfile &profile, const FsConfig &config)
{
    const ir::Program &prog = profile.program();
    const ir::Layout &layout = profile.layout();

    FsPlan plan;
    plan.originalSize = prog.staticSize();
    TraceSelector selector(profile, config.trace);
    plan.traces = selector.selectProgram();

    // Base content of each trace (home instructions, in order), and
    // where each block lives: its trace and its base offset there.
    plan.base.resize(plan.traces.size());
    std::map<std::pair<FuncId, BlockId>, std::pair<std::size_t, std::size_t>>
        block_home;
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        const Trace &trace = plan.traces[t];
        for (BlockId b : trace.blocks) {
            block_home[{trace.func, b}] = {t, plan.base[t].size()};
            const ir::BasicBlock &bb = prog.function(trace.func).block(b);
            for (std::uint32_t i = 0; i < bb.size(); ++i)
                plan.base[t].push_back(CodeLocation{trace.func, b, i});
        }
    }

    // A site at the branch @p term_loc whose likely path enters
    // @p target: the seed window copies the first slotCount
    // instructions of the target path and pads the rest.
    const auto add_site = [&](std::size_t t, const CodeLocation &term_loc,
                              BlockId target) {
        const auto home_it = block_home.find({term_loc.func, target});
        blab_assert(home_it != block_home.end(),
                    "slot-site target block missing from all traces");
        PendingSite pending;
        pending.targetTrace = home_it->second.first;
        pending.targetOffset = home_it->second.second;
        const std::span<const CodeLocation> path =
            plan.targetPath(pending);
        SlotSite &site = pending.site;
        site.branchOrig = term_loc;
        site.origTargetAddr = layout.blockAddr(term_loc.func, target);
        site.copied = static_cast<unsigned>(
            std::min<std::size_t>(config.slotCount, path.size()));
        site.padded = config.slotCount - site.copied;
        site.consumed = site.copied;
        if (site.copied < path.size())
            site.resume = path[site.copied];
        const std::size_t offset =
            block_home.at({term_loc.func, term_loc.block}).second +
            term_loc.index;
        plan.sites.emplace(std::make_pair(t, offset), pending);
    };

    // Alignment reversals and slot-site discovery.
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        const Trace &trace = plan.traces[t];
        const ir::Function &fn = prog.function(trace.func);
        for (std::size_t j = 0; j < trace.blocks.size(); ++j) {
            const BlockId b = trace.blocks[j];
            const ir::BasicBlock &bb = fn.block(b);
            const ir::Instruction &term = bb.terminator();
            const auto term_index =
                static_cast<std::uint32_t>(bb.size() - 1);
            const Addr term_addr =
                layout.blockAddr(trace.func, b) + term_index;
            const CodeLocation term_loc{trace.func, b, term_index};
            const bool is_last = j + 1 == trace.blocks.size();
            const BlockId next_in_trace =
                is_last ? ir::kNoBlock : trace.blocks[j + 1];

            switch (term.op) {
              case Opcode::Jmp:
                // The slot mechanism masks conditional branches
                // (Figure 2); a jump's target resolves at decode.
              case Opcode::Call:
                // The paper's filling algorithm is function-local: it
                // copies from trace[i]->next_trace, and a callee is
                // not a trace of this function's linearization. Calls
                // receive no slots (their targets resolve at decode).
              case Opcode::JTab:
              case Opcode::CallInd:
              case Opcode::Ret:
              case Opcode::Halt:
                break;
              default: {
                blab_assert(term.isConditional(), "bad terminator");
                const BranchCounts &counts =
                    profile.branchCounts(term_addr);
                if (!is_last) {
                    // In-trace transition: make the likely path fall
                    // through by reversing when the successor is the
                    // taken side.
                    if (term.target == next_in_trace &&
                        term.next != next_in_trace) {
                        plan.reversed.insert(term_addr);
                    }
                } else if (counts.taken != counts.notTaken) {
                    // Trace-ending executed conditional: ensure the
                    // majority side is the taken side, then reserve
                    // slots for it.
                    BlockId likely = term.target;
                    if (counts.notTaken > counts.taken) {
                        plan.reversed.insert(term_addr);
                        likely = term.next;
                    }
                    add_site(t, term_loc, likely);
                }
                break;
              }
            }
        }
    }
    return plan;
}

} // namespace branchlab::profile
