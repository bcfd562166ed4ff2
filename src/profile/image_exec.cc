#include "profile/image_exec.hh"

#include <sstream>

#include "support/logging.hh"
#include "trace/record.hh"
#include "vm/memory.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::BlockId;
using ir::CodeLocation;
using ir::FuncId;
using ir::Instruction;
using ir::kNoReg;
using ir::Opcode;
using ir::Reg;
using ir::Word;

std::size_t
ImageExecutor::homeOf(Addr addr) const
{
    const auto it = image_.homeIndex.find(addr);
    blab_assert(it != image_.homeIndex.end(),
                "image is missing a home slot");
    return it->second;
}

ImageExecutor::ImageExecutor(const ProgramProfile &profile,
                             const FsOptResult &opt)
    : prog_(profile.program()), layout_(profile.layout()),
      image_(opt.image)
{
    decodeImage();
    applyDuplicates(opt.dups);
}

void
ImageExecutor::decodeImage()
{
    std::unordered_map<std::size_t, const SlotSite *> site_at;
    for (const SlotSite &site : image_.sites)
        site_at[site.branchImageIndex] = &site;

    funcEntryHome_.reserve(prog_.numFunctions());
    for (FuncId f = 0; f < prog_.numFunctions(); ++f) {
        funcEntryHome_.push_back(
            homeOf(layout_.blockAddr(f, prog_.function(f).entry())));
    }

    decoded_.resize(image_.slots.size());
    for (std::size_t i = 0; i < image_.slots.size(); ++i) {
        const ImageSlot &slot = image_.slots[i];
        DecodedSlot &d = decoded_[i];
        if (slot.kind == ImageSlot::Kind::Pad)
            continue; // inst stays null: executing it is a fault
        const CodeLocation loc = slot.orig;
        const Instruction &inst =
            prog_.function(loc.func).block(loc.block).inst(loc.index);
        d.inst = &inst;
        d.addr = layout_.instAddr(loc.func, loc.block, loc.index);
        d.func = loc.func;
        switch (inst.op) {
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Ble:
          case Opcode::Bgt:
          case Opcode::Bge:
            d.takenAddr = layout_.blockAddr(loc.func, inst.target);
            d.takenHome = homeOf(d.takenAddr);
            d.fallAddr = layout_.blockAddr(loc.func, inst.next);
            d.fallHome = homeOf(d.fallAddr);
            break;
          case Opcode::Jmp:
            d.takenAddr = layout_.blockAddr(loc.func, inst.target);
            d.takenHome = homeOf(d.takenAddr);
            break;
          case Opcode::Call:
          case Opcode::CallInd:
            d.contHome =
                homeOf(layout_.blockAddr(loc.func, inst.next));
            break;
          default:
            break;
        }
        const auto site_it = site_at.find(i);
        if (site_it != site_at.end()) {
            const SlotSite &site = *site_it->second;
            d.site = &site;
            d.siteTargetBlock = layout_.locate(site.origTargetAddr).block;
            d.regionEnd = i + 1 + site.filled + site.copied;
            d.regionResume =
                site.resume.has_value()
                    ? homeOf(layout_.instAddr(site.resume->func,
                                              site.resume->block,
                                              site.resume->index))
                    : std::numeric_limits<std::size_t>::max();
        }
    }
}

void
ImageExecutor::applyDuplicates(const std::vector<DupTail> &dups)
{
    for (const DupTail &dup : dups) {
        DecodedSlot &d = decoded_[homeOf(dup.predTermAddr)];
        blab_assert(d.inst != nullptr && (d.inst->isConditional() ||
                                          d.inst->op == Opcode::Jmp),
                    "duplicate redirect on a non-redirectable branch");
        // A site's likely side enters the slot region instead; the
        // builder never duplicates for it, so only free sides are
        // overridden here.
        const bool likely_side =
            d.site != nullptr &&
            d.site->origTargetAddr == dup.blockStartAddr;
        if (d.takenAddr == dup.blockStartAddr && !likely_side)
            d.takenDup = dup.imageStart;
        if (d.inst->isConditional() &&
            d.fallAddr == dup.blockStartAddr && !likely_side) {
            d.fallDup = dup.imageStart;
        }
    }
}

ImageRunResult
ImageExecutor::run(const std::vector<std::vector<Word>> &inputs,
                   std::uint64_t max_instructions,
                   trace::TraceSink *sink) const
{
    ImageRunResult result;
    result.outputs.resize(8);

    const bool want_committed =
        sink == nullptr || sink->wantsInstructions();
    const bool want_insts = sink != nullptr && sink->wantsInstructions();

    vm::Memory memory;
    memory.reset(prog_.data());

    struct Frame
    {
        std::size_t regBase;
        Reg retDst;
        std::size_t returnIndex;
        FuncId func;
    };
    std::vector<Frame> frames;
    std::vector<Word> reg_stack;
    std::size_t input_cursor[8] = {};

    const auto fault = [&](const std::string &what, std::size_t at) {
        std::ostringstream os;
        os << "image execution fault at slot " << at << ": " << what;
        throw vm::ExecutionFault(os.str());
    };

    const auto push_frame = [&](FuncId callee,
                                const std::vector<Word> &args,
                                Reg ret_dst, std::size_t return_index) {
        const ir::Function &fn = prog_.function(callee);
        Frame frame;
        frame.regBase = reg_stack.size();
        frame.retDst = ret_dst;
        frame.returnIndex = return_index;
        frame.func = callee;
        reg_stack.resize(reg_stack.size() + fn.numRegs(), 0);
        for (std::size_t i = 0; i < args.size(); ++i)
            reg_stack[frame.regBase + i] = args[i];
        frames.push_back(frame);
        if (frames.size() > 10'000)
            fault("call stack overflow", 0);
    };

    const FuncId main_id = prog_.mainFunction();
    push_frame(main_id, {}, kNoReg,
               std::numeric_limits<std::size_t>::max());
    std::size_t pc = funcEntryHome_[main_id];

    // Active slot region (entered through a predicted-taken site).
    std::size_t region_end = 0;
    std::size_t region_resume = 0;
    bool in_region = false;

    const auto reg = [&](Reg r) -> Word & {
        return reg_stack[frames.back().regBase + r];
    };

    while (true) {
        if (result.instructions >= max_instructions) {
            result.reason = vm::StopReason::InstructionLimit;
            return result;
        }
        blab_assert(pc < decoded_.size(), "image PC out of range");
        const DecodedSlot &d = decoded_[pc];
        if (d.inst == nullptr)
            fault("executed a NO-OP pad (transform bug)", pc);
        const Instruction &inst = *d.inst;
        ++result.instructions;
        if (want_committed)
            result.committed.push_back(d.addr);
        if (want_insts)
            sink->onInstruction(trace::InstEvent{d.addr, inst.op});

        const auto rhs = [&]() -> Word {
            return inst.useImm ? inst.imm : reg(inst.src2);
        };

        // Where sequential flow continues from this slot.
        const auto advance = [&]() {
            ++pc;
            if (in_region && pc >= region_end) {
                pc = region_resume;
                in_region = false;
            }
        };

        // Redirect control to a home slot, leaving any region.
        const auto go_home = [&](std::size_t home) {
            pc = home;
            in_region = false;
        };

        switch (inst.op) {
          case Opcode::Add:
            reg(inst.dst) = static_cast<Word>(
                static_cast<std::uint64_t>(reg(inst.src1)) +
                static_cast<std::uint64_t>(rhs()));
            advance();
            break;
          case Opcode::Sub:
            reg(inst.dst) = static_cast<Word>(
                static_cast<std::uint64_t>(reg(inst.src1)) -
                static_cast<std::uint64_t>(rhs()));
            advance();
            break;
          case Opcode::Mul:
            reg(inst.dst) = static_cast<Word>(
                static_cast<std::uint64_t>(reg(inst.src1)) *
                static_cast<std::uint64_t>(rhs()));
            advance();
            break;
          case Opcode::Div: {
            const Word divisor = rhs();
            if (divisor == 0)
                fault("division by zero", pc);
            const Word dividend = reg(inst.src1);
            reg(inst.dst) = (dividend == INT64_MIN && divisor == -1)
                                ? INT64_MIN
                                : dividend / divisor;
            advance();
            break;
          }
          case Opcode::Rem: {
            const Word divisor = rhs();
            if (divisor == 0)
                fault("remainder by zero", pc);
            const Word dividend = reg(inst.src1);
            reg(inst.dst) = (dividend == INT64_MIN && divisor == -1)
                                ? 0
                                : dividend % divisor;
            advance();
            break;
          }
          case Opcode::And:
            reg(inst.dst) = reg(inst.src1) & rhs();
            advance();
            break;
          case Opcode::Or:
            reg(inst.dst) = reg(inst.src1) | rhs();
            advance();
            break;
          case Opcode::Xor:
            reg(inst.dst) = reg(inst.src1) ^ rhs();
            advance();
            break;
          case Opcode::Shl:
            reg(inst.dst) = static_cast<Word>(
                static_cast<std::uint64_t>(reg(inst.src1))
                << (rhs() & 63));
            advance();
            break;
          case Opcode::Shr:
            reg(inst.dst) = reg(inst.src1) >> (rhs() & 63);
            advance();
            break;
          case Opcode::Not:
            reg(inst.dst) = ~reg(inst.src1);
            advance();
            break;
          case Opcode::Neg:
            reg(inst.dst) = static_cast<Word>(
                0 - static_cast<std::uint64_t>(reg(inst.src1)));
            advance();
            break;
          case Opcode::Mov:
            reg(inst.dst) = reg(inst.src1);
            advance();
            break;
          case Opcode::Ldi:
            reg(inst.dst) = inst.imm;
            advance();
            break;
          case Opcode::Ld: {
            Word value = 0;
            if (!memory.tryRead(reg(inst.src1) + inst.imm, value))
                fault("load out of bounds", pc);
            reg(inst.dst) = value;
            advance();
            break;
          }
          case Opcode::St:
            if (!memory.tryWrite(reg(inst.src1) + inst.imm,
                                 reg(inst.src2))) {
                fault("store out of bounds", pc);
            }
            advance();
            break;
          case Opcode::Ldf:
            reg(inst.dst) = static_cast<Word>(inst.func);
            advance();
            break;
          case Opcode::In: {
            const auto chan = static_cast<std::size_t>(inst.imm);
            std::size_t &cursor = input_cursor[chan];
            if (chan < inputs.size() &&
                cursor < inputs[chan].size()) {
                reg(inst.dst) = inputs[chan][cursor++];
            } else {
                reg(inst.dst) = -1;
            }
            advance();
            break;
          }
          case Opcode::Out:
            result.outputs[static_cast<std::size_t>(inst.imm)]
                .push_back(reg(inst.src1));
            advance();
            break;
          case Opcode::Nop:
            advance();
            break;

          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Ble:
          case Opcode::Bgt:
          case Opcode::Bge: {
            const bool taken =
                ir::evalCondition(inst.op, reg(inst.src1), rhs());
            if (sink != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.addr;
                ev.op = inst.op;
                ev.conditional = true;
                ev.taken = taken;
                ev.targetKnown = true;
                ev.targetAddr = d.takenAddr;
                ev.fallthroughAddr = d.fallAddr;
                ev.nextPc = taken ? d.takenAddr : d.fallAddr;
                sink->onBranch(ev);
            }
            const BlockId dest = taken ? inst.target : inst.next;
            if (d.site != nullptr && dest == d.siteTargetBlock) {
                // The likely direction: fall into the forward slots
                // (fills first, then copies), resume at the advanced
                // target. An emptied region (every copy dropped)
                // resumes immediately.
                if (d.regionEnd > pc + 1) {
                    in_region = true;
                    region_end = d.regionEnd;
                    region_resume = d.regionResume;
                    ++pc;
                } else {
                    go_home(d.regionResume);
                }
                break;
            }
            const std::size_t dup =
                taken ? d.takenDup : d.fallDup;
            if (dup != DecodedSlot::kNoIndex) {
                go_home(dup);
                break;
            }
            go_home(taken ? d.takenHome : d.fallHome);
            break;
          }

          case Opcode::Jmp: {
            if (sink != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.addr;
                ev.op = inst.op;
                ev.taken = true;
                ev.targetKnown = true;
                ev.targetAddr = d.takenAddr;
                ev.fallthroughAddr = d.addr + 1;
                ev.nextPc = d.takenAddr;
                sink->onBranch(ev);
            }
            if (d.site != nullptr) {
                if (d.regionEnd > pc + 1) {
                    in_region = true;
                    region_end = d.regionEnd;
                    region_resume = d.regionResume;
                    ++pc;
                } else {
                    go_home(d.regionResume);
                }
                break;
            }
            if (d.takenDup != DecodedSlot::kNoIndex) {
                go_home(d.takenDup);
                break;
            }
            go_home(d.takenHome);
            break;
          }

          case Opcode::JTab: {
            const Word index = reg(inst.src1);
            if (index < 0 ||
                index >= static_cast<Word>(inst.table.size())) {
                fault("jump-table index out of range", pc);
            }
            const Addr target_addr = layout_.blockAddr(
                d.func,
                inst.table[static_cast<std::size_t>(index)]);
            if (sink != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.addr;
                ev.op = inst.op;
                ev.taken = true;
                ev.targetKnown = false;
                ev.targetAddr = target_addr;
                ev.fallthroughAddr = d.addr + 1;
                ev.nextPc = target_addr;
                sink->onBranch(ev);
            }
            go_home(homeOf(target_addr));
            break;
          }

          case Opcode::Call:
          case Opcode::CallInd: {
            FuncId callee = inst.func;
            if (inst.op == Opcode::CallInd) {
                const Word ref = reg(inst.src1);
                if (ref < 0 ||
                    ref >= static_cast<Word>(prog_.numFunctions())) {
                    fault("indirect call to bad function ref", pc);
                }
                callee = static_cast<FuncId>(ref);
            }
            std::vector<Word> args;
            args.reserve(inst.args.size());
            for (Reg a : inst.args)
                args.push_back(reg(a));
            if (args.size() != prog_.function(callee).numArgs())
                fault("argument count mismatch", pc);
            if (sink != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.addr;
                ev.op = inst.op;
                ev.taken = true;
                ev.targetKnown = inst.op == Opcode::Call;
                ev.targetAddr = layout_.funcEntry(callee);
                ev.fallthroughAddr = d.addr + 1;
                ev.nextPc = ev.targetAddr;
                sink->onBranch(ev);
            }
            push_frame(callee, args, inst.dst, d.contHome);
            pc = funcEntryHome_[callee];
            in_region = false;
            break;
          }

          case Opcode::Ret: {
            if (frames.size() == 1) {
                result.reason = vm::StopReason::MainReturned;
                return result;
            }
            const Word value =
                inst.src1 != kNoReg ? reg(inst.src1) : 0;
            const Frame finished = frames.back();
            frames.pop_back();
            reg_stack.resize(finished.regBase);
            if (finished.retDst != kNoReg)
                reg(finished.retDst) = value;
            pc = finished.returnIndex;
            in_region = false;
            if (sink != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.addr;
                ev.op = Opcode::Ret;
                ev.taken = true;
                ev.targetKnown = true;
                ev.targetAddr = decoded_[pc].addr;
                ev.fallthroughAddr = d.addr + 1;
                ev.nextPc = decoded_[pc].addr;
                sink->onBranch(ev);
            }
            break;
          }

          case Opcode::Halt:
            result.reason = vm::StopReason::Halted;
            return result;
        }
    }
}

std::string
checkImageEquivalence(const ProgramProfile &profile,
                      const FsOptResult &opt,
                      const std::vector<std::vector<Word>> &inputs)
{
    // Reference run on the original program.
    trace::InstRecorder recorder;
    vm::Machine machine(profile.program(), profile.layout());
    for (std::size_t chan = 0; chan < inputs.size(); ++chan)
        machine.setInput(static_cast<int>(chan), inputs[chan]);
    machine.setSink(&recorder);
    const vm::RunResult reference = machine.run();

    // Transformed-image run.
    const ImageRunResult transformed =
        ImageExecutor(profile, opt).run(inputs);

    std::ostringstream os;
    if (transformed.reason != reference.reason) {
        os << "stop reasons differ";
        return os.str();
    }
    // The committed streams, with the provably indifferent addresses
    // (moved fills, dropped dead copies, elisions) removed from both.
    const std::unordered_set<Addr> &relaxed = opt.relaxedAddrs;
    const auto filtered = [&relaxed](const std::vector<Addr> &stream) {
        std::vector<Addr> out;
        out.reserve(stream.size());
        for (Addr addr : stream) {
            if (!relaxed.count(addr))
                out.push_back(addr);
        }
        return out;
    };
    const std::vector<Addr> want = filtered(recorder.addrs());
    const std::vector<Addr> got = filtered(transformed.committed);
    const char *stream = relaxed.empty() ? "committed stream"
                                         : "filtered committed stream";
    if (got.size() != want.size()) {
        os << stream << " lengths differ: original " << want.size()
           << ", image " << got.size();
        return os.str();
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != want[i]) {
            os << stream << "s diverge at instruction " << i
               << ": original " << want[i] << ", image " << got[i];
            return os.str();
        }
    }
    for (int chan = 0; chan < 8; ++chan) {
        if (transformed.outputs[static_cast<std::size_t>(chan)] !=
            machine.output(chan)) {
            os << "outputs differ on channel " << chan;
            return os.str();
        }
    }
    return std::string();
}

} // namespace branchlab::profile
