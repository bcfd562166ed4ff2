/**
 * @file
 * The IR virtual machine: executes a verified, laid-out program and
 * emits trace events for every branch (and optionally every
 * instruction).
 *
 * The machine is a fetch loop over a PredecodedProgram in layout
 * order; what each instruction does -- the ALU, memory, I/O, calls
 * and returns, and the event each branch emits -- is the datapath it
 * shares with the Forward Semantic image executor (vm/datapath.hh).
 *
 * Branch events reach the sink a block at a time: the machine fills
 * a trace::BlockBuffer and hands it to TraceSink::onBlock when it is
 * full and before run() returns or throws, so every executed branch
 * arrives, in order, whatever ends the run. A sink that wants
 * instructions gets each branch as a one-event block, before the
 * next onInstruction.
 *
 * This plays the role of the profiling runs in the paper: a benchmark
 * program is executed over its input suite and the resulting dynamic
 * branch stream drives the three prediction schemes.
 */

#ifndef BRANCHLAB_VM_MACHINE_HH
#define BRANCHLAB_VM_MACHINE_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/layout.hh"
#include "ir/program.hh"
#include "trace/event.hh"
#include "vm/datapath.hh"
#include "vm/memory.hh"
#include "vm/predecode.hh"

namespace branchlab::vm
{

/** Thrown when a program performs an illegal operation at run time
 *  (division by zero, out-of-range jump-table index, bad memory
 *  access, call-stack overflow). */
class ExecutionFault : public std::runtime_error
{
  public:
    explicit ExecutionFault(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Why a run stopped. */
enum class StopReason
{
    Halted,           ///< A Halt instruction executed.
    MainReturned,     ///< The entry function returned.
    InstructionLimit, ///< RunLimits::maxInstructions exceeded.
};

/** Knobs bounding one run. */
struct RunLimits
{
    std::uint64_t maxInstructions = 2'000'000'000ULL;
    /** Maximum call-stack depth before an ExecutionFault. */
    std::size_t maxFrames = 10'000;
};

/** Outcome of one run. */
struct RunResult
{
    StopReason reason = StopReason::Halted;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
};

/**
 * The virtual machine. One machine executes one program; reset state
 * between runs with reset(). Inputs are word streams on channels
 * 0..kMaxChannels-1; outputs accumulate per channel.
 *
 * The interpreter runs over a PredecodedProgram (a flat array of
 * pre-resolved instruction slots). Construct from a shared
 * PredecodedProgram when executing many inputs of the same program so
 * the decode cost is paid once per program, not once per machine.
 */
class Machine
{
  public:
    /**
     * @param program verified program (caller must run the verifier)
     * @param layout  address map built over @p program
     *
     * Predecodes the program privately; prefer the PredecodedProgram
     * constructor when several machines share one program.
     */
    Machine(const ir::Program &program, const ir::Layout &layout);

    /** Execute over an existing decoding (not owned; must outlive
     *  the machine). */
    explicit Machine(const PredecodedProgram &code);

    /** Replace the input stream of a channel (resets its cursor). */
    void setInput(int channel, std::vector<ir::Word> words);

    /** Convenience: set a channel's input from raw bytes, one word per
     *  byte (how the workloads feed text). */
    void setInputBytes(int channel, const std::string &bytes);

    /** Output accumulated on a channel so far. */
    const std::vector<ir::Word> &output(int channel) const;

    /** Output rendered as bytes (low 8 bits of each word). */
    std::string outputBytes(int channel) const;

    /** Attach the (single) trace sink; may be null. Use a FanoutSink
     *  to feed several consumers. */
    void setSink(trace::TraceSink *sink) { sink_ = sink; }

    /** Clear registers, memory, outputs, and input cursors (inputs
     *  themselves are kept and replay from the start). */
    void reset();

    /** Execute from main until halt/return/limit. */
    RunResult run(const RunLimits &limits = RunLimits{});

    Memory &memory() { return memory_; }
    const ir::Program &program() const { return prog_; }

  private:
    /** Flush the pending branches, then throw an ExecutionFault. */
    [[noreturn]] void fault(const std::string &what, ir::Addr pc);
    /** Buffer one branch event, handing the block on when full. */
    void emit(const trace::BranchEvent &event);
    /** Hand the pending branches (if any) to the sink. */
    void flushBranches();

    /** Owned decoding for the (program, layout) constructor. */
    std::unique_ptr<PredecodedProgram> ownedCode_;
    const PredecodedProgram &code_;
    const ir::Program &prog_;
    Memory memory_;
    Channels channels_;
    CallStack stack_;
    trace::TraceSink *sink_ = nullptr;
    /** Branches not yet handed to the sink: the one emit path. */
    trace::BlockBuffer<trace::kTraceBlockEvents> pending_;
    /** Block size this run hands on: a full block, or one event when
     *  the sink interleaves instructions. */
    std::size_t flushAt_ = trace::kTraceBlockEvents;
};

} // namespace branchlab::vm

#endif // BRANCHLAB_VM_MACHINE_HH
