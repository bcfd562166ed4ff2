#include "vm/machine.hh"

#include <sstream>

#include "obs/metrics.hh"
#include "support/logging.hh"

namespace branchlab::vm
{

using ir::Addr;
using ir::BlockId;
using ir::FuncId;
using ir::Instruction;
using ir::kNoBlock;
using ir::kNoReg;
using ir::Opcode;
using ir::Reg;
using ir::Word;

Machine::Machine(const ir::Program &program, const ir::Layout &layout)
    : ownedCode_(std::make_unique<PredecodedProgram>(program, layout)),
      code_(*ownedCode_), prog_(program), layout_(layout)
{
    reset();
}

Machine::Machine(const PredecodedProgram &code)
    : code_(code), prog_(code.program()), layout_(code.layout())
{
    // A machine sharing an existing predecoded image is the fast
    // path; the per-image decode itself is counted in predecode.cc.
    obs::Registry::global().counter("vm.predecode.reuses").add(1);
    reset();
}

void
Machine::setInput(int channel, std::vector<Word> words)
{
    blab_assert(channel >= 0 && channel < 8, "channel out of range");
    inputs_[channel] = std::move(words);
    inputCursor_[channel] = 0;
}

void
Machine::setInputBytes(int channel, const std::string &bytes)
{
    std::vector<Word> words;
    words.reserve(bytes.size());
    for (unsigned char c : bytes)
        words.push_back(static_cast<Word>(c));
    setInput(channel, std::move(words));
}

const std::vector<Word> &
Machine::output(int channel) const
{
    blab_assert(channel >= 0 && channel < 8, "channel out of range");
    return outputs_[channel];
}

std::string
Machine::outputBytes(int channel) const
{
    const std::vector<Word> &words = output(channel);
    std::string bytes;
    bytes.reserve(words.size());
    for (Word w : words)
        bytes.push_back(static_cast<char>(w & 0xff));
    return bytes;
}

void
Machine::reset()
{
    frames_.clear();
    regStack_.clear();
    memory_.reset(prog_.data());
    for (int c = 0; c < 8; ++c) {
        inputCursor_[c] = 0;
        outputs_[c].clear();
    }
}

void
Machine::flushBranches()
{
    if (pending_.size() != 0) {
        sink_->onBlock(pending_.block());
        pending_.clear();
    }
}

inline void
Machine::emit(const trace::BranchEvent &event)
{
    pending_.push(event);
    if (pending_.size() == flushAt_)
        flushBranches();
}

void
Machine::fault(const std::string &what, Addr pc)
{
    flushBranches();
    std::ostringstream os;
    os << "execution fault in '" << prog_.name() << "' at address " << pc
       << ": " << what;
    throw ExecutionFault(os.str());
}

void
Machine::pushFrame(FuncId func, const std::vector<Word> &args, Reg ret_dst,
                   const RunLimits &limits, Addr pc,
                   std::uint32_t resume_slot)
{
    if (frames_.size() >= limits.maxFrames)
        fault("call stack overflow", pc);
    const DecodedFunction &callee = code_.func(func);
    Frame frame;
    frame.regBase = regStack_.size();
    frame.retDst = ret_dst;
    frame.resumeSlot = resume_slot;
    regStack_.resize(regStack_.size() + callee.numRegs, 0);
    for (std::size_t i = 0; i < args.size(); ++i)
        regStack_[frame.regBase + i] = args[i];
    frames_.push_back(frame);
}

RunResult
Machine::run(const RunLimits &limits)
{
    RunResult result;
    const RunLimits lim = limits;

    // Telemetry is batched in `result` and flushed once per run --
    // on every return path and on faults -- never per instruction.
    struct TelemetryFlush
    {
        const RunResult &result;
        ~TelemetryFlush()
        {
            static obs::Counter &runs =
                obs::Registry::global().counter("vm.runs");
            static obs::Counter &instructions =
                obs::Registry::global().counter("vm.instructions");
            static obs::Counter &branches =
                obs::Registry::global().counter("vm.branches");
            runs.add(1);
            instructions.add(result.instructions);
            branches.add(result.branches);
        }
    } telemetry_flush{result};

    frames_.clear();
    regStack_.clear();
    const FuncId main_func = code_.mainFunction();
    pushFrame(main_func, {}, kNoReg, lim, 0, 0);

    const bool want_insts = sink_ != nullptr && sink_->wantsInstructions();
    flushAt_ = want_insts ? 1 : trace::kTraceBlockEvents;

    const DecodedInst *code = code_.slots();
    std::uint32_t ip = code_.func(main_func).entrySlot;
    std::size_t reg_base = frames_.back().regBase;

    // Scratch buffer for call arguments, reused across calls.
    std::vector<Word> arg_values;

    while (true) {
        const DecodedInst &d = code[ip];

        if (result.instructions >= lim.maxInstructions) {
            result.reason = StopReason::InstructionLimit;
            flushBranches();
            return result;
        }
        ++result.instructions;

        if (want_insts)
            sink_->onInstruction(trace::InstEvent{d.pc, d.op});

        // Frame-local register access.
        const auto reg = [&](Reg r) -> Word & {
            return regStack_[reg_base + r];
        };
        // Right-hand side of ALU/compare ops.
        const auto rhs = [&]() -> Word {
            return d.useImm ? d.imm : reg(d.src2);
        };

        switch (d.op) {
          case Opcode::Add:
            reg(d.dst) = static_cast<Word>(
                static_cast<std::uint64_t>(reg(d.src1)) +
                static_cast<std::uint64_t>(rhs()));
            break;
          case Opcode::Sub:
            reg(d.dst) = static_cast<Word>(
                static_cast<std::uint64_t>(reg(d.src1)) -
                static_cast<std::uint64_t>(rhs()));
            break;
          case Opcode::Mul:
            reg(d.dst) = static_cast<Word>(
                static_cast<std::uint64_t>(reg(d.src1)) *
                static_cast<std::uint64_t>(rhs()));
            break;
          case Opcode::Div: {
            const Word divisor = rhs();
            if (divisor == 0)
                fault("division by zero", d.pc);
            const Word dividend = reg(d.src1);
            if (dividend == INT64_MIN && divisor == -1)
                reg(d.dst) = INT64_MIN; // wrap, avoid UB
            else
                reg(d.dst) = dividend / divisor;
            break;
          }
          case Opcode::Rem: {
            const Word divisor = rhs();
            if (divisor == 0)
                fault("remainder by zero", d.pc);
            const Word dividend = reg(d.src1);
            if (dividend == INT64_MIN && divisor == -1)
                reg(d.dst) = 0;
            else
                reg(d.dst) = dividend % divisor;
            break;
          }
          case Opcode::And:
            reg(d.dst) = reg(d.src1) & rhs();
            break;
          case Opcode::Or:
            reg(d.dst) = reg(d.src1) | rhs();
            break;
          case Opcode::Xor:
            reg(d.dst) = reg(d.src1) ^ rhs();
            break;
          case Opcode::Shl:
            reg(d.dst) = static_cast<Word>(
                static_cast<std::uint64_t>(reg(d.src1))
                << (rhs() & 63));
            break;
          case Opcode::Shr:
            // C++20 defines signed right shift as arithmetic.
            reg(d.dst) = reg(d.src1) >> (rhs() & 63);
            break;
          case Opcode::Not:
            reg(d.dst) = ~reg(d.src1);
            break;
          case Opcode::Neg:
            reg(d.dst) = static_cast<Word>(
                0 - static_cast<std::uint64_t>(reg(d.src1)));
            break;
          case Opcode::Mov:
            reg(d.dst) = reg(d.src1);
            break;
          case Opcode::Ldi:
            reg(d.dst) = d.imm;
            break;
          case Opcode::Ld: {
            const Word addr = reg(d.src1) + d.imm;
            Word value = 0;
            if (!memory_.tryRead(addr, value)) {
                fault("load from bad address " + std::to_string(addr),
                      d.pc);
            }
            reg(d.dst) = value;
            break;
          }
          case Opcode::St: {
            const Word addr = reg(d.src1) + d.imm;
            if (!memory_.tryWrite(addr, reg(d.src2))) {
                fault("store to bad address " + std::to_string(addr),
                      d.pc);
            }
            break;
          }
          case Opcode::Ldf:
            reg(d.dst) = static_cast<Word>(d.func);
            break;
          case Opcode::In: {
            const auto chan = static_cast<std::size_t>(d.imm);
            std::size_t &cursor = inputCursor_[chan];
            if (cursor < inputs_[chan].size())
                reg(d.dst) = inputs_[chan][cursor++];
            else
                reg(d.dst) = -1;
            break;
          }
          case Opcode::Out:
            outputs_[static_cast<std::size_t>(d.imm)].push_back(
                reg(d.src1));
            break;
          case Opcode::Nop:
            break;

          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Ble:
          case Opcode::Bgt:
          case Opcode::Bge: {
            const bool taken =
                ir::evalCondition(d.op, reg(d.src1), rhs());
            ++result.branches;
            if (sink_ != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.pc;
                ev.op = d.op;
                ev.conditional = true;
                ev.taken = taken;
                ev.targetKnown = true;
                ev.targetAddr = d.takenAddr;
                ev.fallthroughAddr = d.fallAddr;
                ev.nextPc = taken ? d.takenAddr : d.fallAddr;
                emit(ev);
            }
            ip = taken ? d.takenSlot : d.nextSlot;
            continue;
          }

          case Opcode::Jmp: {
            ++result.branches;
            if (sink_ != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.pc;
                ev.op = d.op;
                ev.taken = true;
                ev.targetKnown = true;
                ev.targetAddr = d.takenAddr;
                ev.fallthroughAddr = d.pc + 1;
                ev.nextPc = d.takenAddr;
                emit(ev);
            }
            ip = d.takenSlot;
            continue;
          }

          case Opcode::JTab: {
            ++result.branches;
            const Word index = reg(d.src1);
            if (index < 0 ||
                index >= static_cast<Word>(d.inst->table.size())) {
                fault("jump-table index " + std::to_string(index) +
                          " out of range",
                      d.pc);
            }
            const BlockId target_block =
                d.inst->table[static_cast<std::size_t>(index)];
            const std::uint32_t target_slot =
                code_.blockSlot(d.func, target_block);
            if (sink_ != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.pc;
                ev.op = d.op;
                ev.taken = true;
                ev.targetKnown = false;
                ev.targetAddr = code[target_slot].pc;
                ev.fallthroughAddr = d.pc + 1;
                ev.nextPc = ev.targetAddr;
                emit(ev);
            }
            ip = target_slot;
            continue;
          }

          case Opcode::Call:
          case Opcode::CallInd: {
            ++result.branches;
            FuncId callee = d.func;
            std::uint32_t callee_slot = d.takenSlot;
            if (d.op == Opcode::CallInd) {
                const Word ref = reg(d.src1);
                if (ref < 0 ||
                    ref >= static_cast<Word>(prog_.numFunctions())) {
                    fault("indirect call to bad function ref " +
                              std::to_string(ref),
                          d.pc);
                }
                callee = static_cast<FuncId>(ref);
                callee_slot = code_.func(callee).entrySlot;
            }
            const DecodedFunction &callee_info = code_.func(callee);
            if (d.inst->args.size() != callee_info.numArgs)
                fault("argument count mismatch in indirect call", d.pc);
            if (sink_ != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.pc;
                ev.op = d.op;
                ev.taken = true;
                ev.targetKnown = d.op == Opcode::Call;
                ev.targetAddr = callee_info.entryAddr;
                ev.fallthroughAddr = d.pc + 1;
                ev.nextPc = callee_info.entryAddr;
                emit(ev);
            }
            arg_values.clear();
            for (Reg a : d.inst->args)
                arg_values.push_back(reg(a));
            // The caller resumes at the continuation block when the
            // callee returns.
            pushFrame(callee, arg_values, d.dst, lim, d.pc, d.nextSlot);
            reg_base = frames_.back().regBase;
            ip = callee_slot;
            continue;
          }

          case Opcode::Ret: {
            if (frames_.size() == 1) {
                // Returning from main ends the run; not a branch event
                // (there is no target to fetch).
                result.reason = StopReason::MainReturned;
                flushBranches();
                return result;
            }
            ++result.branches;
            const Word value = d.src1 != kNoReg ? reg(d.src1) : 0;
            const Frame finished = frames_.back();
            frames_.pop_back();
            regStack_.resize(finished.regBase);
            reg_base = frames_.back().regBase;
            if (finished.retDst != kNoReg)
                regStack_[reg_base + finished.retDst] = value;
            ip = finished.resumeSlot;
            if (sink_ != nullptr) {
                trace::BranchEvent ev;
                ev.pc = d.pc;
                ev.op = Opcode::Ret;
                ev.taken = true;
                // The return address is register-resident and readable
                // at decode: a known target (see DESIGN.md).
                ev.targetKnown = true;
                ev.targetAddr = code[ip].pc;
                ev.fallthroughAddr = d.pc + 1;
                ev.nextPc = code[ip].pc;
                emit(ev);
            }
            continue;
          }

          case Opcode::Halt:
            result.reason = StopReason::Halted;
            flushBranches();
            return result;
        }

        ++ip;
    }
}

} // namespace branchlab::vm
