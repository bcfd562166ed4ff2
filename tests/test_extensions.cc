/**
 * @file
 * Tests for the extension modules: the delayed-branch-with-squashing
 * analysis (McFarling & Hennessy), the gshare future-baseline, and
 * the refined per-class cost model. (Trace files are trace-cache
 * entries; tests/test_trace_cache.cc covers them.)
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "pipeline/cycle_sim.hh"
#include "predict/cbtb.hh"
#include "predict/gshare.hh"
#include "profile/delay_fill.hh"
#include "support/logging.hh"
#include "trace/stats.hh"
#include "workloads/workload.hh"

namespace branchlab
{
namespace
{

using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;

// ---------------------------------------------------------------------
// Delay-slot filling.
// ---------------------------------------------------------------------

TEST(DelayFill, IndependentSuffixMoves)
{
    // add r2 <- ..., xor r3 <- ... then branch on r1: both movable.
    ir::Program prog("p");
    const ir::FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const ir::BlockId entry = fn.newBlock("entry");
    const ir::BlockId other = fn.newBlock("other");
    const Reg r1 = fn.newReg();
    const Reg r2 = fn.newReg();
    const Reg r3 = fn.newReg();
    fn.block(entry).append(ir::makeLdi(r1, 1));
    fn.block(entry).append(ir::makeBinaryImm(Opcode::Add, r2, r1, 5));
    fn.block(entry).append(ir::makeBinaryImm(Opcode::Xor, r3, r2, 3));
    fn.block(entry).append(
        ir::makeCondBranchImm(Opcode::Beq, r1, 0, other, other));
    fn.block(other).append(ir::makeHalt());

    EXPECT_EQ(profile::fillableFromAbove(fn.block(entry), 2), 2u);
    // ldi produces r1, the condition operand: the scan stops there.
    EXPECT_EQ(profile::fillableFromAbove(fn.block(entry), 4), 2u);
    EXPECT_EQ(profile::fillableFromAbove(fn.block(entry), 1), 1u);
}

TEST(DelayFill, ConditionProducerBlocksTheMove)
{
    // The instruction computing the branch operand cannot move.
    ir::Program prog("p");
    const ir::FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const ir::BlockId entry = fn.newBlock("entry");
    const ir::BlockId other = fn.newBlock("other");
    const Reg r1 = fn.newReg();
    const Reg r2 = fn.newReg();
    fn.block(entry).append(ir::makeLdi(r2, 4));
    fn.block(entry).append(ir::makeBinaryImm(Opcode::Add, r1, r2, 5));
    fn.block(entry).append(
        ir::makeCondBranchImm(Opcode::Beq, r1, 0, other, other));
    fn.block(other).append(ir::makeHalt());
    // add defines r1 (the condition): zero slots fillable.
    EXPECT_EQ(profile::fillableFromAbove(fn.block(entry), 2), 0u);
}

TEST(DelayFill, StoresAndOutputsMayMove)
{
    ir::Program prog("p");
    const ir::FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const ir::BlockId entry = fn.newBlock("entry");
    const ir::BlockId other = fn.newBlock("other");
    const Reg r1 = fn.newReg();
    const Reg r2 = fn.newReg();
    fn.block(entry).append(ir::makeLdi(r1, 1));
    fn.block(entry).append(ir::makeLdi(r2, 9));
    fn.block(entry).append(ir::makeSt(r2, r1, 0));
    fn.block(entry).append(ir::makeOut(r2, 1));
    fn.block(entry).append(
        ir::makeCondBranchImm(Opcode::Bne, r1, 0, other, other));
    fn.block(other).append(ir::makeHalt());
    // st and out write no registers; ldi r2 also movable; ldi r1 is
    // the condition producer and stops the scan.
    EXPECT_EQ(profile::fillableFromAbove(fn.block(entry), 8), 3u);
}

TEST(DelayFill, JumpsFillFreely)
{
    ir::Program prog("p");
    const ir::FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const ir::BlockId entry = fn.newBlock("entry");
    const ir::BlockId other = fn.newBlock("other");
    const Reg r1 = fn.newReg();
    fn.block(entry).append(ir::makeLdi(r1, 1));
    fn.block(entry).append(ir::makeBinaryImm(Opcode::Add, r1, r1, 1));
    fn.block(entry).append(ir::makeJmp(other));
    fn.block(other).append(ir::makeHalt());
    EXPECT_EQ(profile::fillableFromAbove(fn.block(entry), 2), 2u);
}

TEST(DelayFill, AnalysisCoversExecutedBranchesOnly)
{
    const ir::Program prog = test::buildFactorial(5);
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    profile::ProgramProfile profile(prog, layout);
    profile.noteRun();
    vm::Machine machine(prog, layout);
    machine.setSink(&profile);
    machine.run();

    const profile::DelayFillResult result =
        profile::analyzeDelaySlots(profile, 2);
    EXPECT_FALSE(result.sites.empty());
    for (const profile::DelaySite &site : result.sites) {
        EXPECT_GT(site.weight, 0u);
        EXPECT_EQ(site.fromAbove + site.fromTarget + site.nops, 2u);
        EXPECT_GE(site.predictProb, 0.0);
        EXPECT_LE(site.predictProb, 1.0);
    }
    // Rates are probabilities and decay with slot index.
    EXPECT_GE(result.aboveFillRate(0), result.aboveFillRate(1));
    EXPECT_LE(result.aboveFillRate(0), 1.0);
    // Cost is at least the branch's own cycle.
    EXPECT_GE(result.expectedBranchCost(), 1.0);
}

TEST(DelayFill, FirstSlotFillsMoreOftenThanSecondOnTheSuite)
{
    // McFarling & Hennessy: ~70% first slot, ~25% second. Check the
    // ordering (and sane bands) on one real benchmark.
    const ir::Program prog =
        workloads::findWorkload("compress").buildProgram();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    profile::ProgramProfile profile(prog, layout);
    profile.noteRun();
    Rng rng(3);
    const auto inputs =
        workloads::findWorkload("compress").makeInputs(rng, 1);
    vm::Machine machine(prog, layout);
    machine.setInput(0, inputs[0].channels[0]);
    machine.setSink(&profile);
    machine.run();

    const profile::DelayFillResult result =
        profile::analyzeDelaySlots(profile, 2);
    EXPECT_GT(result.aboveFillRate(0), result.aboveFillRate(1));
    EXPECT_GT(result.aboveFillRate(0), 0.2);
    EXPECT_LT(result.aboveFillRate(1), 0.8);
}

// ---------------------------------------------------------------------
// gshare.
// ---------------------------------------------------------------------

trace::BranchEvent
condAt(ir::Addr pc, bool taken)
{
    trace::BranchEvent event;
    event.pc = pc;
    event.op = ir::Opcode::Beq;
    event.conditional = true;
    event.taken = taken;
    event.targetKnown = true;
    event.targetAddr = pc + 64;
    event.fallthroughAddr = pc + 1;
    event.nextPc = taken ? event.targetAddr : event.fallthroughAddr;
    return event;
}

double
accuracyOver(predict::BranchPredictor &predictor,
             const std::vector<trace::BranchEvent> &events)
{
    predict::PredictionDriver driver(predictor);
    for (const trace::BranchEvent &event : events)
        driver.onBranch(event);
    return driver.stats().accuracy.ratio();
}

TEST(Gshare, LearnsABiasedBranch)
{
    predict::GsharePredictor gshare;
    // Warm-up misses once per distinct history pattern (~historyBits
    // of them); a longer stream amortises them away.
    std::vector<trace::BranchEvent> events(800, condAt(0x100, true));
    EXPECT_GT(accuracyOver(gshare, events), 0.95);
}

TEST(Gshare, LearnsAlternationWhereCountersCannot)
{
    // T,N,T,N...: a 2-bit counter is ~50% at best; history nails it.
    std::vector<trace::BranchEvent> events;
    for (int i = 0; i < 400; ++i)
        events.push_back(condAt(0x100, i % 2 == 0));

    predict::GsharePredictor gshare;
    const double gshare_acc = accuracyOver(gshare, events);
    predict::CounterBtb cbtb;
    const double cbtb_acc = accuracyOver(cbtb, events);
    EXPECT_GT(gshare_acc, 0.9);
    EXPECT_LT(cbtb_acc, 0.6);
}

TEST(Gshare, HistoryShiftsOnlyOnConditionals)
{
    predict::GsharePredictor gshare;
    const std::uint64_t before = gshare.history();
    trace::BranchEvent jmp;
    jmp.pc = 0x40;
    jmp.op = ir::Opcode::Jmp;
    jmp.conditional = false;
    jmp.taken = true;
    jmp.targetKnown = true;
    jmp.targetAddr = 0x80;
    jmp.nextPc = 0x80;
    const predict::BranchQuery query = predict::makeQuery(jmp);
    gshare.predict(query);
    gshare.update(query, jmp);
    EXPECT_EQ(gshare.history(), before);

    const trace::BranchEvent cond = condAt(0x100, true);
    const predict::BranchQuery cq = predict::makeQuery(cond);
    gshare.predict(cq);
    gshare.update(cq, cond);
    EXPECT_EQ(gshare.history() & 1, 1u);
}

TEST(Gshare, FlushForgets)
{
    predict::GsharePredictor gshare;
    for (int i = 0; i < 50; ++i) {
        const trace::BranchEvent event = condAt(0x100, true);
        const predict::BranchQuery query = predict::makeQuery(event);
        gshare.predict(query);
        gshare.update(query, event);
    }
    gshare.flush();
    EXPECT_EQ(gshare.history(), 0u);
    // Back to the weakly-not-taken default.
    EXPECT_FALSE(gshare.predict(predict::makeQuery(condAt(0x100, true)))
                     .taken);
}

TEST(Gshare, ConfigValidation)
{
    predict::GshareConfig config;
    config.historyBits = 0;
    EXPECT_THROW(predict::GsharePredictor{config}, LogicFailure);
}

// ---------------------------------------------------------------------
// Refined cost model.
// ---------------------------------------------------------------------

TEST(RefinedCost, CollapsesToThePaperModelWhenClassesAgree)
{
    pipeline::PipelineConfig config;
    config.k = 2;
    config.ell = 2;
    config.m = 3;
    // All branches conditional with accuracy a: refined == paper with
    // f_cond = 1.
    config.fCond = 1.0;
    for (double a : {0.7, 0.9, 0.99}) {
        EXPECT_NEAR(pipeline::refinedBranchCost(a, 1.0, 1.0, config),
                    pipeline::branchCost(a, config), 1e-12);
    }
}

TEST(RefinedCost, MatchesTheCycleSimulatorExactly)
{
    Rng rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        pipeline::PipelineConfig config;
        config.k = 1 + static_cast<unsigned>(rng.nextBelow(3));
        config.ell = 1 + static_cast<unsigned>(rng.nextBelow(3));
        config.m = 1 + static_cast<unsigned>(rng.nextBelow(3));

        std::vector<pipeline::StreamItem> stream;
        std::uint64_t cond = 0, cond_ok = 0, uncond = 0, uncond_ok = 0;
        for (int i = 0; i < 2000; ++i) {
            pipeline::StreamItem item;
            item.isBranch = rng.nextBool(0.3);
            if (item.isBranch) {
                item.conditional = rng.nextBool(0.7);
                item.predictedCorrect = rng.nextBool(0.85);
                if (item.conditional) {
                    ++cond;
                    cond_ok += item.predictedCorrect ? 1 : 0;
                } else {
                    ++uncond;
                    uncond_ok += item.predictedCorrect ? 1 : 0;
                }
            }
            stream.push_back(item);
        }
        if (cond == 0 || uncond == 0)
            continue;

        const double a_cond = static_cast<double>(cond_ok) /
                              static_cast<double>(cond);
        const double a_uncond = static_cast<double>(uncond_ok) /
                                static_cast<double>(uncond);
        const double f_cond = static_cast<double>(cond) /
                              static_cast<double>(cond + uncond);

        const pipeline::CyclePipeline sim(config);
        const pipeline::CycleResult result = sim.simulate(stream);
        EXPECT_NEAR(result.avgBranchCost(),
                    pipeline::refinedBranchCost(a_cond, a_uncond,
                                                f_cond, config),
                    1e-9);
    }
}

} // namespace
} // namespace branchlab
