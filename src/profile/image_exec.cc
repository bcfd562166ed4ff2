#include "profile/image_exec.hh"

#include <sstream>

#include "support/logging.hh"
#include "trace/record.hh"
#include "vm/datapath.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::kNoReg;
using ir::Opcode;
using ir::Word;

std::size_t
ImageExecutor::homeOf(std::uint32_t slot) const
{
    blab_assert(slot < home_.size() && home_[slot] != kNoIndex,
                "image is missing a home slot");
    return home_[slot];
}

ImageExecutor::ImageExecutor(const ProgramProfile &profile,
                             const FsOptResult &opt)
    : code_(profile.program(), profile.layout()),
      home_(code_.numSlots(), kNoIndex), slots_(opt.image.slots.size())
{
    const FsResult &image = opt.image;
    for (const auto &[addr, index] : image.homeIndex)
        home_[addr - ir::kCodeBase] = index;

    const ir::Layout &layout = profile.layout();
    const auto slot_of = [&layout](const ir::CodeLocation &loc) {
        return static_cast<std::uint32_t>(
            layout.instAddr(loc.func, loc.block, loc.index) - ir::kCodeBase);
    };
    for (std::size_t i = 0; i < image.slots.size(); ++i) {
        const ImageSlot &slot = image.slots[i];
        if (slot.kind != ImageSlot::Kind::Pad)
            slots_[i].inst = slot_of(slot.orig);
    }
    for (const SlotSite &site : image.sites) {
        Slot &s = slots_[site.branchImageIndex];
        s.site = &site;
        s.regionEnd = site.branchImageIndex + 1 + site.filled + site.copied;
        if (site.resume.has_value())
            s.regionResume = homeOf(slot_of(*site.resume));
    }
    for (const DupTail &dup : opt.dups) {
        Slot &s = slots_[homeOf(static_cast<std::uint32_t>(
            dup.predTermAddr - ir::kCodeBase))];
        const vm::DecodedInst *d =
            s.inst != kPad ? code_.slots() + s.inst : nullptr;
        blab_assert(d != nullptr && (ir::isConditionalBranch(d->op) ||
                                     d->op == Opcode::Jmp),
                    "duplicate redirect on a non-redirectable branch");
        // A site's likely side enters the slot region instead; the
        // builder never duplicates for it, so only free sides are
        // overridden here.
        if (s.site != nullptr && s.site->origTargetAddr == dup.blockStartAddr)
            continue;
        if (d->takenAddr == dup.blockStartAddr)
            s.takenDup = dup.imageStart;
        if (ir::isConditionalBranch(d->op) &&
            d->fallAddr == dup.blockStartAddr) {
            s.fallDup = dup.imageStart;
        }
    }
}

ImageRunResult
ImageExecutor::run(const std::vector<std::vector<Word>> &inputs,
                   trace::TraceSink *sink) const
{
    // The bounds of a default vm::Machine run.
    const vm::RunLimits limits;
    ImageRunResult result;
    const bool want_committed =
        sink == nullptr || sink->wantsInstructions();
    const bool want_insts = sink != nullptr && sink->wantsInstructions();

    vm::Memory memory;
    memory.reset(code_.program().data());
    vm::Channels channels;
    for (std::size_t chan = 0; chan < inputs.size(); ++chan)
        channels.setInput(chan, inputs[chan]);
    vm::CallStack stack;

    // The image slot executing.
    std::size_t pc = 0;
    const auto fault = [&pc](const std::string &what) {
        std::ostringstream os;
        os << "image execution fault at slot " << pc << ": " << what;
        throw vm::ExecutionFault(os.str());
    };

    const vm::DecodedInst *code = code_.slots();
    const vm::DecodedFunction &main_func =
        code_.func(code_.mainFunction());
    Word *regs =
        stack.push(main_func, {}, kNoReg, 0, limits.maxFrames, fault);
    pc = homeOf(main_func.entrySlot);

    // Active slot region (entered through a predicted-taken site).
    std::size_t region_end = 0;
    std::size_t region_resume = 0;
    bool in_region = false;

    // Redirect control to an image slot, leaving any region.
    const auto go_to = [&](std::size_t index) {
        pc = index;
        in_region = false;
    };
    // The likely direction of site branch @p s: fall into the forward
    // slots (fills first, then copies) and resume at the advanced
    // target. An emptied region (every copy dropped) resumes at once.
    const auto enter_region = [&](const Slot &s) {
        if (s.regionEnd > pc + 1) {
            in_region = true;
            region_end = s.regionEnd;
            region_resume = s.regionResume;
            ++pc;
        } else {
            go_to(s.regionResume);
        }
    };
    // Where a branch goes off the region path: the tail duplicate
    // @p dup when it has one, else the home of original slot @p slot.
    const auto redirect = [&](std::size_t dup, std::uint32_t slot) {
        go_to(dup != kNoIndex ? dup : homeOf(slot));
    };

    result.reason = [&] {
        while (true) {
            if (result.instructions >= limits.maxInstructions)
                return vm::StopReason::InstructionLimit;
            blab_assert(pc < slots_.size(), "image PC out of range");
            const Slot &s = slots_[pc];
            if (s.inst == kPad)
                fault("executed a NO-OP pad (transform bug)");
            const vm::DecodedInst &d = code[s.inst];
            ++result.instructions;
            if (want_committed)
                result.committed.push_back(d.pc);
            if (want_insts)
                sink->onInstruction(trace::InstEvent{d.pc, d.op});

            switch (d.op) {
              case Opcode::Beq:
              case Opcode::Bne:
              case Opcode::Blt:
              case Opcode::Ble:
              case Opcode::Bgt:
              case Opcode::Bge: {
                const bool taken = vm::taken(d.op, d, regs);
                if (sink != nullptr)
                    sink->onBranch(vm::conditionalEvent(d, taken));
                const Addr dest = taken ? d.takenAddr : d.fallAddr;
                if (s.site != nullptr && dest == s.site->origTargetAddr)
                    enter_region(s);
                else if (taken)
                    redirect(s.takenDup, d.takenSlot);
                else
                    redirect(s.fallDup, d.nextSlot);
                break;
              }
              case Opcode::Jmp:
                if (sink != nullptr)
                    sink->onBranch(vm::transferEvent(d, d.takenAddr));
                if (s.site != nullptr)
                    enter_region(s);
                else
                    redirect(s.takenDup, d.takenSlot);
                break;
              case Opcode::JTab: {
                const std::uint32_t target =
                    vm::jumpTableSlot(d, regs, code_, fault);
                if (sink != nullptr)
                    sink->onBranch(vm::transferEvent(d, code[target].pc));
                go_to(homeOf(target));
                break;
              }
              case Opcode::Call:
              case Opcode::CallInd: {
                const vm::DecodedFunction &callee =
                    code_.func(vm::callee(d, regs, code_, fault));
                if (sink != nullptr)
                    sink->onBranch(vm::transferEvent(d, callee.entryAddr));
                regs = stack.push(callee, d.inst->args, d.dst, d.nextSlot,
                                  limits.maxFrames, fault);
                go_to(homeOf(callee.entrySlot));
                break;
              }
              case Opcode::Ret: {
                if (stack.depth() == 1)
                    return vm::StopReason::MainReturned;
                const std::uint32_t resume = stack.pop(d);
                regs = stack.regs();
                if (sink != nullptr)
                    sink->onBranch(vm::transferEvent(d, code[resume].pc));
                go_to(homeOf(resume));
                break;
              }
              case Opcode::Halt:
                return vm::StopReason::Halted;
              default:
                vm::execute(d, regs, memory, channels, fault);
                ++pc;
                if (in_region && pc >= region_end)
                    go_to(region_resume);
                break;
            }
        }
    }();
    result.outputs = channels.takeOutputs();
    return result;
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
