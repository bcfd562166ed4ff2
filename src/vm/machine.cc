#include "vm/machine.hh"

#include <sstream>

#include "obs/metrics.hh"

namespace branchlab::vm
{

using ir::Addr;
using ir::kNoReg;
using ir::Opcode;
using ir::Word;

Machine::Machine(const ir::Program &program, const ir::Layout &layout)
    : ownedCode_(std::make_unique<PredecodedProgram>(program, layout)),
      code_(*ownedCode_), prog_(program)
{
    reset();
}

Machine::Machine(const PredecodedProgram &code)
    : code_(code), prog_(code.program())
{
    // A machine sharing an existing predecoded image is the fast
    // path; the per-image decode itself is counted in predecode.cc.
    obs::Registry::global().counter("vm.predecode.reuses").add(1);
    reset();
}

void
Machine::setInput(int channel, std::vector<Word> words)
{
    channels_.setInput(static_cast<std::size_t>(channel), std::move(words));
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
    return channels_.output(static_cast<std::size_t>(channel));
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
    stack_.clear();
    memory_.reset(prog_.data());
    channels_.rewind();
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

    const bool want_insts = sink_ != nullptr && sink_->wantsInstructions();
    flushAt_ = want_insts ? 1 : trace::kTraceBlockEvents;

    const DecodedInst *code = code_.slots();
    const DecodedFunction &main_func = code_.func(code_.mainFunction());
    stack_.clear();
    Word *regs = stack_.push(
        main_func, {}, kNoReg, 0, lim.maxFrames,
        [this](const std::string &what) { fault(what, 0); });
    std::uint32_t ip = main_func.entrySlot;

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

        // The helpers below capture neither ip nor regs, so both stay
        // in registers whether or not the helpers are inlined.
        const auto on_fault = [this, &d](const std::string &what) {
            fault(what, d.pc);
        };
        // A conditional branch: count it, trace it, return its slot.
        const auto conditional = [this, &d, &result](bool taken) {
            ++result.branches;
            if (sink_ != nullptr)
                emit(conditionalEvent(d, taken));
            return taken ? d.takenSlot : d.nextSlot;
        };
        // An unconditional transfer to flat slot @p to.
        const auto transfer = [this, &d, &result, code](std::uint32_t to) {
            ++result.branches;
            if (sink_ != nullptr)
                emit(transferEvent(d, code[to].pc));
            return to;
        };

        switch (d.op) {
          case Opcode::Add:
            execute<Opcode::Add>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Sub:
            execute<Opcode::Sub>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Mul:
            execute<Opcode::Mul>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Div:
            execute<Opcode::Div>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Rem:
            execute<Opcode::Rem>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::And:
            execute<Opcode::And>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Or:
            execute<Opcode::Or>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Xor:
            execute<Opcode::Xor>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Shl:
            execute<Opcode::Shl>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Shr:
            execute<Opcode::Shr>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Not:
            execute<Opcode::Not>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Neg:
            execute<Opcode::Neg>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Mov:
            execute<Opcode::Mov>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Ldi:
            execute<Opcode::Ldi>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Ld:
            execute<Opcode::Ld>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::St:
            execute<Opcode::St>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Ldf:
            execute<Opcode::Ldf>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::In:
            execute<Opcode::In>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Out:
            execute<Opcode::Out>(d, regs, memory_, channels_, on_fault);
            break;
          case Opcode::Nop:
            break;

          case Opcode::Beq:
            ip = conditional(taken(Opcode::Beq, d, regs));
            continue;
          case Opcode::Bne:
            ip = conditional(taken(Opcode::Bne, d, regs));
            continue;
          case Opcode::Blt:
            ip = conditional(taken(Opcode::Blt, d, regs));
            continue;
          case Opcode::Ble:
            ip = conditional(taken(Opcode::Ble, d, regs));
            continue;
          case Opcode::Bgt:
            ip = conditional(taken(Opcode::Bgt, d, regs));
            continue;
          case Opcode::Bge:
            ip = conditional(taken(Opcode::Bge, d, regs));
            continue;
          case Opcode::Jmp:
            ip = transfer(d.takenSlot);
            continue;
          // JTab and the calls count the branch before resolving its
          // target, so one that faults is counted too.
          case Opcode::JTab:
            ++result.branches;
            ip = jumpTableSlot(d, regs, code_, on_fault);
            if (sink_ != nullptr)
                emit(transferEvent(d, code[ip].pc));
            continue;
          case Opcode::Call:
          case Opcode::CallInd: {
            ++result.branches;
            const DecodedFunction &callee_func =
                code_.func(callee(d, regs, code_, on_fault));
            if (sink_ != nullptr)
                emit(transferEvent(d, callee_func.entryAddr));
            // The caller resumes at the continuation block when the
            // callee returns.
            regs = stack_.push(callee_func, d.inst->args, d.dst,
                               d.nextSlot, lim.maxFrames, on_fault);
            ip = callee_func.entrySlot;
            continue;
          }

          case Opcode::Ret: {
            if (stack_.depth() == 1) {
                // Returning from main ends the run; not a branch event
                // (there is no target to fetch).
                result.reason = StopReason::MainReturned;
                flushBranches();
                return result;
            }
            const std::uint32_t resume = stack_.pop(d);
            regs = stack_.regs();
            ip = transfer(resume);
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
