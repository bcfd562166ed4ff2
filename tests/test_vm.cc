/**
 * @file
 * Unit tests for the virtual machine: ALU semantics (including the
 * signed-overflow and divide edge cases), memory, I/O, calls,
 * recursion, indirect control flow, run limits, faults, and the
 * trace events every branch kind emits.
 *
 * The ALU and fault cases also hold the other consumers of the opcode
 * semantics to the same values: ir::evalBinary / ir::evalUnary
 * themselves, ConstProp's folding, and the Forward Semantic image
 * executor running the program's level-none image.
 */

#include <gtest/gtest.h>

#include "analysis/constprop.hh"
#include "block_path.hh"
#include "helpers.hh"
#include "profile/fs_opt.hh"
#include "profile/image_exec.hh"

namespace branchlab::vm
{
namespace
{

using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;
using ir::Word;

/** Build a one-shot ALU program: out = a <op> b. */
ir::Program
aluProgram(Opcode op, Word a, Word b, bool imm_form)
{
    ir::Program prog("alu");
    IrBuilder builder(prog);
    builder.beginFunction("main");
    const Reg ra = builder.ldi(a);
    Reg result;
    if (imm_form) {
        result = builder.emitBinaryImm(op, ra, b);
    } else {
        const Reg rb = builder.ldi(b);
        result = builder.emitBinary(op, ra, rb);
    }
    builder.out(result, 1);
    builder.halt();
    builder.endFunction();
    return prog;
}

/** Run @p prog's level-none Forward Semantic image through the image
 *  executor. The profile is empty: the one-block programs these tests
 *  build have no branch to profile, and may fault. */
profile::ImageRunResult
runImage(const ir::Program &prog, const ir::Layout &layout)
{
    const profile::ProgramProfile profile(prog, layout);
    const profile::FsOptResult none =
        profile::FsOptimizer(profile, profile::FsOptConfig{}).build();
    return profile::ImageExecutor(profile, none).run({});
}

/** ConstProp's fact for the operand of each Out in @p prog's one-block
 *  main. */
std::vector<analysis::ConstVal>
foldedOuts(const ir::Program &prog)
{
    const ir::Function &main = prog.function(prog.mainFunction());
    const analysis::Cfg cfg(main);
    const analysis::ConstProp facts(cfg);
    const ir::BasicBlock &block = main.block(main.entry());
    std::vector<analysis::ConstVal> outs;
    for (std::size_t i = 0; i < block.size(); ++i) {
        if (block.inst(i).op == Opcode::Out) {
            outs.push_back(
                facts.atInstruction(main.entry(), i)[block.inst(i).src1]);
        }
    }
    return outs;
}

/** Channel 1 of one-block @p prog as the VM, the image executor and
 *  ConstProp each see it: expect @p expected from all three. */
void
expectEveryConsumerOutputs(const ir::Program &prog,
                           const std::vector<Word> &expected)
{
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    EXPECT_EQ(machine.run().reason, StopReason::Halted);
    EXPECT_EQ(machine.output(1), expected) << "VM";
    EXPECT_EQ(runImage(prog, layout).outputs[1], expected) << "FS image";
    std::vector<analysis::ConstVal> folded;
    for (const Word value : expected)
        folded.push_back(analysis::ConstVal::constant(value));
    EXPECT_EQ(foldedOuts(prog), folded) << "ConstProp";
}

/** A Div or Rem by zero faults on both interpreters, and ConstProp
 *  folds no value for it. */
void
expectEveryConsumerFaults(const ir::Program &prog)
{
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    EXPECT_THROW(machine.run(), ExecutionFault);
    EXPECT_THROW(runImage(prog, layout), ExecutionFault);
    EXPECT_EQ(foldedOuts(prog),
              std::vector<analysis::ConstVal>{
                  analysis::ConstVal::varying()});
}

struct AluCase
{
    Opcode op;
    Word a;
    Word b;
    Word expected;
};

class AluSemantics
    : public ::testing::TestWithParam<std::tuple<AluCase, bool>>
{
};

TEST_P(AluSemantics, RegisterAndImmediateFormsAgree)
{
    const auto &[c, imm_form] = GetParam();
    SCOPED_TRACE(ir::opcodeName(c.op) + " " + std::to_string(c.a) + ", " +
                 std::to_string(c.b));
    EXPECT_EQ(ir::evalBinary(c.op, c.a, c.b), c.expected);
    expectEveryConsumerOutputs(aluProgram(c.op, c.a, c.b, imm_form),
                               {c.expected});
}

const AluCase alu_cases[] = {
    {Opcode::Add, 2, 3, 5},
    {Opcode::Add, INT64_MAX, 1, INT64_MIN}, // wraparound, not UB
    {Opcode::Sub, 2, 5, -3},
    {Opcode::Sub, INT64_MIN, 1, INT64_MAX},
    {Opcode::Mul, -4, 6, -24},
    {Opcode::Div, 7, 2, 3},
    {Opcode::Div, -7, 2, -3}, // truncation toward zero
    {Opcode::Div, INT64_MIN, -1, INT64_MIN}, // defined wrap
    {Opcode::Rem, 7, 3, 1},
    {Opcode::Rem, -7, 3, -1},
    {Opcode::Rem, INT64_MIN, -1, 0},
    {Opcode::And, 0b1100, 0b1010, 0b1000},
    {Opcode::Or, 0b1100, 0b1010, 0b1110},
    {Opcode::Xor, 0b1100, 0b1010, 0b0110},
    {Opcode::Shl, 1, 8, 256},
    {Opcode::Shl, 1, 64, 1},      // shift amount masked to 0..63
    {Opcode::Shr, -8, 1, -4},     // arithmetic right shift
    {Opcode::Shr, 256, 4, 16},
    {Opcode::Mul, INT64_MIN, -1, INT64_MIN}, // wraparound, not UB
};

INSTANTIATE_TEST_SUITE_P(
    Cases, AluSemantics,
    ::testing::Combine(::testing::ValuesIn(alu_cases),
                       ::testing::Bool()));

TEST(VmAlu, UnaryOps)
{
    struct UnaryCase
    {
        Word x;
        Word notX;
        Word negX;
    };
    for (const UnaryCase c : {UnaryCase{5, ~Word{5}, -5},
                              UnaryCase{INT64_MIN, INT64_MAX, INT64_MIN}}) {
        SCOPED_TRACE(c.x);
        EXPECT_EQ(ir::evalUnary(Opcode::Not, c.x), c.notX);
        EXPECT_EQ(ir::evalUnary(Opcode::Neg, c.x), c.negX);
        EXPECT_EQ(ir::evalUnary(Opcode::Mov, c.x), c.x);
        ir::Program prog("unary");
        IrBuilder b(prog);
        b.beginFunction("main");
        const Reg x = b.ldi(c.x);
        b.out(b.bitNot(x), 1);
        b.out(b.neg(x), 1);
        b.out(b.mov(x), 1);
        b.halt();
        b.endFunction();
        expectEveryConsumerOutputs(prog, {c.notX, c.negX, c.x});
    }
}

TEST(VmFaults, DivideByZeroFaults)
{
    EXPECT_EQ(ir::evalBinary(Opcode::Div, 1, 0), std::nullopt);
    expectEveryConsumerFaults(aluProgram(Opcode::Div, 1, 0, false));
}

TEST(VmFaults, RemainderByZeroFaults)
{
    EXPECT_EQ(ir::evalBinary(Opcode::Rem, 1, 0), std::nullopt);
    expectEveryConsumerFaults(aluProgram(Opcode::Rem, 1, 0, true));
}

// ---------------------------------------------------------------------
// Memory.
// ---------------------------------------------------------------------

TEST(VmMemory, DataSegmentIsVisibleAndStoresPersist)
{
    ir::Program prog("mem");
    const Word table = prog.addData({10, 20, 30});
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg base = b.ldi(table);
    b.out(b.ld(base, 1), 1); // 20
    const Reg v = b.ldi(77);
    b.st(base, v, 2);
    b.out(b.ld(base, 2), 1); // 77
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    machine.run();
    EXPECT_EQ(machine.output(1)[0], 20);
    EXPECT_EQ(machine.output(1)[1], 77);
    EXPECT_EQ(machine.memory().read(table + 2), 77);
}

TEST(VmMemory, UnwrittenHeapReadsAsZero)
{
    ir::Program prog("heap");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg base = b.ldi(1000);
    b.out(b.ld(base, 0), 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    machine.run();
    EXPECT_EQ(machine.output(1).front(), 0);
}

TEST(VmMemory, NegativeAddressFaults)
{
    ir::Program prog("oob");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg base = b.ldi(-5);
    b.out(b.ld(base, 0), 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    EXPECT_THROW(machine.run(), ExecutionFault);
}

TEST(VmMemory, AddressOverflowFaults)
{
    // Base plus offset wraps rather than overflowing: a load at
    // INT64_MAX + 1 and a store at INT64_MIN - 1 are bad addresses on
    // both interpreters, and the VM names them.
    for (const bool store : {false, true}) {
        ir::Program prog("wrap");
        IrBuilder b(prog);
        b.beginFunction("main");
        if (store)
            b.st(b.ldi(INT64_MIN), b.ldi(7), -1);
        else
            b.out(b.ld(b.ldi(INT64_MAX), 1), 1);
        b.halt();
        b.endFunction();
        ir::verifyProgramOrDie(prog);
        const ir::Layout layout(prog);
        Machine machine(prog, layout);
        try {
            machine.run();
            ADD_FAILURE() << "no fault";
        } catch (const ExecutionFault &fault) {
            EXPECT_NE(std::string(fault.what())
                          .find(store ? "store to bad address "
                                        "9223372036854775807"
                                      : "load from bad address "
                                        "-9223372036854775808"),
                      std::string::npos)
                << fault.what();
        }
        EXPECT_THROW(runImage(prog, layout), ExecutionFault);
    }
}

TEST(VmMemory, BeyondCapacityFaults)
{
    Memory memory(16);
    Word value = 0;
    EXPECT_TRUE(memory.tryRead(15, value));
    EXPECT_FALSE(memory.tryRead(16, value));
    EXPECT_FALSE(memory.tryWrite(16, 1));
    EXPECT_TRUE(memory.tryWrite(15, 9));
    EXPECT_TRUE(memory.tryRead(15, value));
    EXPECT_EQ(value, 9);
}

// ---------------------------------------------------------------------
// I/O.
// ---------------------------------------------------------------------

TEST(VmIo, InputExhaustionYieldsMinusOne)
{
    ir::Program prog("io");
    IrBuilder b(prog);
    b.beginFunction("main");
    b.out(b.in(0), 1);
    b.out(b.in(0), 1);
    b.out(b.in(0), 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    machine.setInput(0, {42, 43});
    machine.run();
    EXPECT_EQ(machine.output(1),
              (std::vector<Word>{42, 43, -1}));
}

TEST(VmIo, ChannelsAreIndependent)
{
    ir::Program prog("chan");
    IrBuilder b(prog);
    b.beginFunction("main");
    b.out(b.in(2), 3);
    b.out(b.in(0), 3);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    machine.setInput(0, {1});
    machine.setInput(2, {2});
    machine.run();
    EXPECT_EQ(machine.output(3), (std::vector<Word>{2, 1}));
}

TEST(VmIo, ByteHelpersRoundTrip)
{
    ir::Program prog("bytes");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg c = b.newReg();
    b.whileLoop(
        [&] {
            b.movTo(c, b.in(0));
            return IrBuilder::cmpNei(c, -1);
        },
        [&] { b.out(c, 1); });
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    machine.setInputBytes(0, "hello");
    machine.run();
    EXPECT_EQ(machine.outputBytes(1), "hello");
}

TEST(VmIo, ResetReplaysInputsAndClearsOutputs)
{
    const ir::Program prog = test::buildCountdown(2);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    machine.run();
    EXPECT_EQ(machine.output(1).size(), 1u);
    machine.reset();
    EXPECT_TRUE(machine.output(1).empty());
    machine.run();
    EXPECT_EQ(machine.output(1).size(), 1u);
}

// ---------------------------------------------------------------------
// Calls, recursion, indirect control.
// ---------------------------------------------------------------------

TEST(VmCalls, FactorialComputes)
{
    const ir::Program prog = test::buildFactorial(10);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    machine.run();
    EXPECT_EQ(machine.output(1).front(), 3628800);
}

TEST(VmCalls, ArgumentsArriveInOrderAndReturnValueLands)
{
    ir::Program prog("args");
    IrBuilder b(prog);
    const ir::FuncId weigh = b.beginFunction("weigh", 3);
    {
        const Reg s1 = b.muli(b.arg(1), 10);
        const Reg s2 = b.muli(b.arg(2), 100);
        const Reg sum = b.add(b.arg(0), s1);
        b.ret(b.add(sum, s2));
    }
    b.endFunction();
    b.beginFunction("main");
    const Reg result =
        b.call(weigh, {b.ldi(1), b.ldi(2), b.ldi(3)});
    b.out(result, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    machine.run();
    EXPECT_EQ(machine.output(1).front(), 321);
}

TEST(VmCalls, MainReturnEndsTheRun)
{
    ir::Program prog("retmain");
    IrBuilder b(prog);
    b.beginFunction("main");
    b.ret();
    b.endFunction();
    const vm::RunResult result = test::runProgram(prog);
    EXPECT_EQ(result.reason, StopReason::MainReturned);
}

TEST(VmCalls, DeepRecursionHitsFrameLimit)
{
    ir::Program prog("deep");
    IrBuilder b(prog);
    const ir::FuncId self = b.declareFunction("spin", 1);
    b.beginDeclared(self);
    {
        const Reg x = b.arg(0);
        b.ret(b.call(self, {b.addi(x, 1)}));
    }
    b.endFunction();
    b.beginFunction("main");
    b.callVoid(self, {b.ldi(0)});
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    RunLimits limits;
    limits.maxFrames = 100;
    EXPECT_THROW(machine.run(limits), ExecutionFault);
}

TEST(VmIndirect, JumpTableSelectsBlock)
{
    ir::Program prog("jtab");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg selector = b.in(0);
    const ir::BlockId c0 = b.newBlock("case0");
    const ir::BlockId c1 = b.newBlock("case1");
    const ir::BlockId c2 = b.newBlock("case2");
    b.jumpTable(selector, {c0, c1, c2});
    for (int i = 0; i < 3; ++i) {
        b.setBlock(i == 0 ? c0 : i == 1 ? c1 : c2);
        b.out(b.ldi(100 + i), 1);
        b.halt();
    }
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    for (Word sel : {0, 1, 2}) {
        Machine machine(prog, layout);
        machine.setInput(0, {sel});
        machine.run();
        EXPECT_EQ(machine.output(1).front(), 100 + sel);
    }
    Machine machine(prog, layout);
    machine.setInput(0, {7});
    EXPECT_THROW(machine.run(), ExecutionFault);
}

TEST(VmIndirect, IndirectCallDispatches)
{
    ir::Program prog("callind");
    IrBuilder b(prog);
    const ir::FuncId doubler = b.beginFunction("doubler", 1);
    b.ret(b.muli(b.arg(0), 2));
    b.endFunction();
    const ir::FuncId tripler = b.beginFunction("tripler", 1);
    b.ret(b.muli(b.arg(0), 3));
    b.endFunction();
    b.beginFunction("main");
    const Reg which = b.in(0);
    const Reg fd = b.ldf(doubler);
    const Reg ft = b.ldf(tripler);
    const Reg fn = b.newReg();
    b.ifThenElse([&] { return IrBuilder::cmpEqi(which, 0); },
                 [&] { b.movTo(fn, fd); }, [&] { b.movTo(fn, ft); });
    b.out(b.callInd(fn, {b.ldi(7)}), 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    {
        Machine machine(prog, layout);
        machine.setInput(0, {0});
        machine.run();
        EXPECT_EQ(machine.output(1).front(), 14);
    }
    {
        Machine machine(prog, layout);
        machine.setInput(0, {1});
        machine.run();
        EXPECT_EQ(machine.output(1).front(), 21);
    }
}

TEST(VmIndirect, BadFunctionRefFaults)
{
    ir::Program prog("badref");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg fn = b.ldi(99);
    b.callInd(fn, {});
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    EXPECT_THROW(machine.run(), ExecutionFault);
}

// ---------------------------------------------------------------------
// Limits and counting.
// ---------------------------------------------------------------------

TEST(VmLimits, InstructionLimitStopsTheRun)
{
    ir::Program prog("spin");
    IrBuilder b(prog);
    b.beginFunction("main");
    const ir::BlockId head = b.newBlock("head");
    b.jmp(head);
    b.setBlock(head);
    b.nop();
    b.jmp(head);
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    Machine machine(prog, layout);
    RunLimits limits;
    limits.maxInstructions = 1000;
    const RunResult result = machine.run(limits);
    EXPECT_EQ(result.reason, StopReason::InstructionLimit);
    EXPECT_EQ(result.instructions, 1000u);
}

TEST(VmLimits, CountsMatchExpectedForCountdown)
{
    const ir::Program prog = test::buildCountdown(10);
    const vm::RunResult result = test::runProgram(prog);
    EXPECT_EQ(result.reason, StopReason::Halted);
    // Per iteration: add, sub, conditional branch. Plus setup jmp(s),
    // two ldi, out, halt. The branch count: 1 jmp + 10 conditionals.
    EXPECT_EQ(result.branches, 11u);
    EXPECT_EQ(result.instructions, 2 + 1 + 10 * 3 + 2);
}

// ---------------------------------------------------------------------
// Trace events.
// ---------------------------------------------------------------------

TEST(VmTrace, ConditionalEventsCarryOutcomeAndTargets)
{
    const ir::Program prog = test::buildCountdown(3);
    trace::BranchRecorder recorder;
    test::runProgram(prog, &recorder);
    // 1 jmp (doWhile entry) + 3 bottom-test conditionals.
    ASSERT_EQ(recorder.size(), 4u);
    const auto &events = recorder.events();
    EXPECT_EQ(events[0].op, ir::Opcode::Jmp);
    EXPECT_FALSE(events[0].conditional);
    EXPECT_TRUE(events[0].taken);
    EXPECT_TRUE(events[0].targetKnown);
    // Bottom tests: taken twice (i=2,1 left), then not-taken.
    EXPECT_TRUE(events[1].conditional);
    EXPECT_TRUE(events[1].taken);
    EXPECT_TRUE(events[2].taken);
    EXPECT_FALSE(events[3].taken);
    // Taken events land on the target; the final one falls through.
    EXPECT_EQ(events[1].nextPc, events[1].targetAddr);
    EXPECT_EQ(events[3].nextPc, events[3].fallthroughAddr);
    // Back edges are backward.
    EXPECT_TRUE(events[1].isBackward());
}

TEST(VmTrace, CallAndReturnEvents)
{
    const ir::Program prog = test::buildFactorial(2);
    trace::BranchRecorder recorder;
    test::runProgram(prog, &recorder);
    int calls = 0;
    int rets = 0;
    for (const trace::BranchEvent &event : recorder.events()) {
        if (event.op == ir::Opcode::Call) {
            ++calls;
            EXPECT_TRUE(event.targetKnown);
            EXPECT_TRUE(event.taken);
        }
        if (event.op == ir::Opcode::Ret) {
            ++rets;
            EXPECT_TRUE(event.targetKnown);
        }
    }
    // fact(2) -> fact(1): two calls from main/fact, two returns (the
    // return from main ends the run without an event).
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(rets, 2);
}

TEST(VmTrace, InstRecorderSeesEveryInstruction)
{
    const ir::Program prog = test::buildCountdown(2);
    trace::InstRecorder recorder;
    const vm::RunResult result = test::runProgram(prog, &recorder);
    EXPECT_EQ(recorder.addrs().size(), result.instructions);
    // The committed stream is strictly within the code segment.
    const ir::Layout layout(prog);
    for (ir::Addr addr : recorder.addrs())
        EXPECT_TRUE(layout.isCodeAddr(addr));
}

TEST(VmTrace, RunsAreDeterministic)
{
    const ir::Program prog = test::buildFactorial(6);
    trace::BranchRecorder first, second;
    test::runProgram(prog, &first);
    test::runProgram(prog, &second);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first.events()[i].pc, second.events()[i].pc);
        EXPECT_EQ(first.events()[i].nextPc, second.events()[i].nextPc);
        EXPECT_EQ(first.events()[i].taken, second.events()[i].taken);
    }
}

// ---------------------------------------------------------------------
// Block emission: every executed branch reaches the sink, in order,
// in blocks, whatever ends the run; the record pass's block consumers
// match the per-event references on each.
// ---------------------------------------------------------------------

/** buildCountdown(), then a division by zero once the loop is done. */
ir::Program
buildCountdownThenFault(Word n)
{
    ir::Program prog("countdown_fault");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg total = b.newReg();
    b.ldiTo(i, n);
    b.ldiTo(total, 0);
    b.doWhile(
        [&] {
            b.emitBinaryImmTo(Opcode::Add, total, total, 1);
            b.emitBinaryImmTo(Opcode::Sub, i, i, 1);
        },
        [&] { return IrBuilder::cmpGti(i, 0); });
    b.emitBinaryImmTo(Opcode::Div, total, total, 0);
    b.out(total, 1);
    b.halt();
    b.endFunction();
    return prog;
}

/** Run @p prog @p runs times into each sink, on fresh machines. */
test::SuiteRun
suiteOf(const ir::Program &prog, const ir::Layout &layout, unsigned runs,
        const RunLimits &limits = RunLimits{})
{
    return [&prog, &layout, runs, limits](trace::TraceSink &sink) {
        std::uint64_t instructions = 0;
        for (unsigned r = 0; r < runs; ++r) {
            Machine machine(prog, layout);
            machine.setSink(&sink);
            instructions += machine.run(limits).instructions;
        }
        return instructions;
    };
}

TEST(VmBlocks, StreamsAroundTheBlockSizeArriveWhole)
{
    // countdown(n) emits n + 1 branches: 511, 512, 513 and 1024
    // events, one run each and three runs that each end mid-block.
    for (const Word n : {510, 511, 512, 1023}) {
        SCOPED_TRACE(n);
        const ir::Program prog = test::buildCountdown(n);
        ir::verifyProgramOrDie(prog);
        const ir::Layout layout(prog);
        for (const unsigned runs : {1u, 3u}) {
            const std::size_t events = test::expectBlockPathMatchesPerEvent(
                prog, layout, runs, suiteOf(prog, layout, runs));
            EXPECT_EQ(events, runs * static_cast<std::size_t>(n + 1));
        }
        // The block stream equals the encoder fed a BranchRecorder's
        // events one at a time.
        trace::BranchRecorder recorder;
        trace::SoaRecorder blocks;
        trace::FanoutSink fanout;
        fanout.addSink(&recorder);
        fanout.addSink(&blocks);
        const RunResult result = test::runProgram(prog, &fanout);
        EXPECT_EQ(result.branches, recorder.size());
        test::expectSameColumns(
            blocks.trace(), trace::SoaTrace::fromEvents(recorder.events()));
    }
}

TEST(VmBlocks, AnEmptyRunHandsOnNothing)
{
    ir::Program prog("empty");
    IrBuilder b(prog);
    b.beginFunction("main");
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    EXPECT_EQ(test::expectBlockPathMatchesPerEvent(prog, layout, 2,
                                                   suiteOf(prog, layout, 2)),
              0u);
}

TEST(VmBlocks, BranchesBeforeAFaultStillArrive)
{
    // 600 branches (a full block and a partial one), then a division
    // by zero: the partial block reaches the sink before the throw.
    const ir::Program prog = buildCountdownThenFault(599);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    const test::SuiteRun run = [&](trace::TraceSink &sink) {
        Machine machine(prog, layout);
        machine.setSink(&sink);
        EXPECT_THROW(machine.run(), ExecutionFault);
        return std::uint64_t{0};
    };
    EXPECT_EQ(test::expectBlockPathMatchesPerEvent(prog, layout, 1, run),
              600u);
}

TEST(VmBlocks, TheInstructionLimitFlushesThePartialBlock)
{
    ir::Program prog("spin");
    IrBuilder b(prog);
    b.beginFunction("main");
    const ir::BlockId head = b.newBlock("head");
    b.jmp(head);
    b.setBlock(head);
    b.nop();
    b.jmp(head);
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    RunLimits limits;
    limits.maxInstructions = 2001; // 1001 jumps: one past two blocks
    trace::BranchRecorder recorder;
    Machine machine(prog, layout);
    machine.setSink(&recorder);
    const RunResult result = machine.run(limits);
    EXPECT_EQ(result.reason, StopReason::InstructionLimit);
    EXPECT_EQ(result.branches, 1001u);
    EXPECT_EQ(recorder.size(), 1001u);
    EXPECT_EQ(test::expectBlockPathMatchesPerEvent(
                  prog, layout, 1, suiteOf(prog, layout, 1, limits)),
              1001u);
}

/** Logs instructions and branches in the order they arrive. */
class InterleaveLog : public trace::TraceSink
{
  public:
    bool wantsInstructions() const override { return true; }

    void
    onInstruction(const trace::InstEvent &event) override
    {
        log.emplace_back(false, event.pc);
    }

    void
    onBranch(const trace::BranchEvent &event) override
    {
        log.emplace_back(true, event.pc);
    }

    /** (is a branch, pc) per call. */
    std::vector<std::pair<bool, ir::Addr>> log;
};

TEST(VmBlocks, InstructionTracingSeesEachBranchBeforeTheNextInstruction)
{
    const ir::Program prog = test::buildFactorial(6);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    InterleaveLog interleave;
    const RunResult result = test::runProgram(prog, &interleave);
    std::size_t branches = 0;
    for (std::size_t k = 0; k < interleave.log.size(); ++k) {
        if (!interleave.log[k].first)
            continue;
        ++branches;
        // The branch instruction itself came just before its event,
        // and the next call, if any, is the next instruction.
        ASSERT_GT(k, 0u);
        EXPECT_FALSE(interleave.log[k - 1].first);
        EXPECT_EQ(interleave.log[k - 1].second, interleave.log[k].second);
        if (k + 1 < interleave.log.size()) {
            EXPECT_FALSE(interleave.log[k + 1].first);
        }
    }
    EXPECT_EQ(branches, result.branches);
    EXPECT_EQ(interleave.log.size(), result.instructions + result.branches);

    // The block consumers behind an instruction-tracing fan-out get
    // one-event blocks and still build the same bytes.
    const test::SuiteRun run = [&](trace::TraceSink &sink) {
        InterleaveLog log;
        trace::FanoutSink fanout;
        fanout.addSink(&sink);
        fanout.addSink(&log);
        Machine machine(prog, layout);
        machine.setSink(&fanout);
        return machine.run().instructions;
    };
    EXPECT_EQ(test::expectBlockPathMatchesPerEvent(prog, layout, 1, run),
              result.branches);
}

TEST(VmPredecode, SharedDecodingMatchesOwnedDecoding)
{
    // One PredecodedProgram may serve many machines; the shared path
    // must trace and compute exactly like the per-machine decode.
    const ir::Program prog = test::buildFactorial(7);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    const PredecodedProgram code(prog, layout);

    trace::BranchRecorder owned_events, shared_events;
    Machine owned(prog, layout);
    owned.setSink(&owned_events);
    const RunResult owned_result = owned.run();

    Machine shared(code);
    shared.setSink(&shared_events);
    const RunResult shared_result = shared.run();

    EXPECT_EQ(shared_result.instructions, owned_result.instructions);
    EXPECT_EQ(shared_result.branches, owned_result.branches);
    EXPECT_EQ(shared.output(1), owned.output(1));
    ASSERT_EQ(shared_events.size(), owned_events.size());
    for (std::size_t i = 0; i < shared_events.size(); ++i) {
        EXPECT_EQ(shared_events.events()[i].pc,
                  owned_events.events()[i].pc);
        EXPECT_EQ(shared_events.events()[i].nextPc,
                  owned_events.events()[i].nextPc);
        EXPECT_EQ(shared_events.events()[i].targetAddr,
                  owned_events.events()[i].targetAddr);
        EXPECT_EQ(shared_events.events()[i].fallthroughAddr,
                  owned_events.events()[i].fallthroughAddr);
        EXPECT_EQ(shared_events.events()[i].taken,
                  owned_events.events()[i].taken);
    }

    // Two machines over the same decoding are fully independent.
    Machine again(code);
    EXPECT_EQ(again.run().instructions, owned_result.instructions);
}

TEST(VmPredecode, SlotsParallelTheLayout)
{
    const ir::Program prog = test::buildFactorial(3);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    const PredecodedProgram code(prog, layout);
    ASSERT_EQ(code.numSlots(), layout.totalSize());
    for (std::uint32_t i = 0; i < code.numSlots(); ++i)
        EXPECT_EQ(code.slots()[i].pc, ir::kCodeBase + i);
}

} // namespace
} // namespace branchlab::vm
