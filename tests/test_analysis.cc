/**
 * @file
 * Unit tests for the analysis layer: CFG construction, dominators,
 * the generic dataflow solver (through liveness and definite
 * assignment), and constant propagation.
 */

#include <gtest/gtest.h>

#include "analysis/analysis_cache.hh"
#include "analysis/cfg.hh"
#include "analysis/constprop.hh"
#include "analysis/dominators.hh"
#include "analysis/liveness.hh"
#include "analysis/operands.hh"
#include "helpers.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"

using namespace branchlab;
using namespace branchlab::analysis;
using ir::BlockId;
using ir::FuncId;
using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;
using ir::Word;

namespace
{

/** entry -> (then | skip) -> end, plus an unreachable island. */
ir::Program
buildDiamond()
{
    ir::Program prog("diamond");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.ldi(7);
    const Reg y = b.newReg();
    b.ifThenElse([&] { return IrBuilder::cmpGti(x, 0); },
                 [&] { b.ldiTo(y, 1); }, [&] { b.ldiTo(y, 2); });
    b.out(y, 1);
    b.halt();
    b.endFunction();
    return prog;
}

/** Adds a block no edge reaches (sealed so the verifier accepts it). */
BlockId
addIsland(ir::Program &prog, FuncId f)
{
    ir::Function &fn = prog.function(f);
    const BlockId island = fn.newBlock("island");
    fn.block(island).append(ir::makeHalt());
    return island;
}

} // namespace

// ---------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------

TEST(Cfg, DiamondEdges)
{
    ir::Program prog = buildDiamond();
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);

    const BlockId entry = fn.entry();
    ASSERT_EQ(cfg.successors(entry).size(), 2u);
    const BlockId a = cfg.successors(entry)[0];
    const BlockId c = cfg.successors(entry)[1];
    EXPECT_TRUE(cfg.hasEdge(entry, a));
    EXPECT_TRUE(cfg.hasEdge(entry, c));
    EXPECT_FALSE(cfg.hasEdge(a, entry));

    // Both arms join; the join's predecessors are the two arms (or
    // their fallthrough chain), and every block is reachable.
    for (BlockId blk = 0; blk < fn.numBlocks(); ++blk)
        EXPECT_TRUE(cfg.isReachable(blk)) << fn.block(blk).label();
    EXPECT_EQ(cfg.reversePostOrder().size(), fn.numBlocks());
    EXPECT_EQ(cfg.reversePostOrder().front(), entry);
}

TEST(Cfg, UnreachableBlockIsMarkedAndAbsentFromRpo)
{
    ir::Program prog = buildDiamond();
    const BlockId island = addIsland(prog, 0);
    ir::verifyProgramOrDie(prog);
    const Cfg cfg(prog.function(0));

    EXPECT_FALSE(cfg.isReachable(island));
    for (BlockId blk : cfg.reversePostOrder())
        EXPECT_NE(blk, island);
    EXPECT_EQ(cfg.reversePostOrder().size(),
              prog.function(0).numBlocks() - 1);
}

TEST(Cfg, JumpTableArmsAreDeduplicated)
{
    ir::Program prog("jt");
    const FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const Reg idx = fn.newReg();
    const BlockId entry = fn.newBlock("entry");
    const BlockId a = fn.newBlock("a");
    const BlockId c = fn.newBlock("c");
    fn.block(entry).append(ir::makeLdi(idx, 0));
    fn.block(entry).append(ir::makeJTab(idx, {a, c, a, a}));
    fn.block(a).append(ir::makeHalt());
    fn.block(c).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);

    const Cfg cfg(fn);
    ASSERT_EQ(cfg.successors(entry).size(), 2u);
    EXPECT_EQ(cfg.successors(entry)[0], a);
    EXPECT_EQ(cfg.successors(entry)[1], c);
    EXPECT_EQ(cfg.predecessors(a), std::vector<BlockId>{entry});
}

TEST(Cfg, SequentialSuccessorFollowsTheUntakenPath)
{
    const auto cond = ir::makeCondBranchImm(Opcode::Beq, 0, 0, 3, 4);
    EXPECT_EQ(sequentialSuccessor(cond, false), 4u);
    EXPECT_EQ(sequentialSuccessor(cond, true), 3u);
    EXPECT_EQ(sequentialSuccessor(ir::makeJmp(9), false), 9u);
    EXPECT_EQ(sequentialSuccessor(ir::makeCall(0, {}, ir::kNoReg, 5),
                                  false),
              5u);
    EXPECT_EQ(sequentialSuccessor(ir::makeRet(), false), ir::kNoBlock);
    EXPECT_EQ(sequentialSuccessor(ir::makeHalt(), false), ir::kNoBlock);
    EXPECT_EQ(sequentialSuccessor(ir::makeJTab(0, {1, 2}), false),
              ir::kNoBlock);
}

// ---------------------------------------------------------------------
// Block reachability and the analysis cache
// ---------------------------------------------------------------------

TEST(AnalysisCache, ReachabilityPutsOnlyLoopBlocksOnACycle)
{
    ir::Program prog = test::buildCountdown(3);
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    AnalysisCache cache(prog);
    const std::vector<std::vector<bool>> &reach = cache.reachability(0);
    EXPECT_EQ(&cache.reachability(0), &reach); // built once
    EXPECT_EQ(reach, blockReachability(cache.cfg(0)));

    // The entry and the halting exit lie on no cycle; the loop does.
    std::size_t cyclic = 0;
    for (BlockId blk = 0; blk < fn.numBlocks(); ++blk) {
        const bool halts =
            fn.block(blk).terminator().op == Opcode::Halt;
        if (blk == fn.entry() || halts) {
            EXPECT_FALSE(reach[blk][blk]) << fn.block(blk).label();
        } else if (reach[blk][blk]) {
            ++cyclic;
        }
        EXPECT_EQ(reach[fn.entry()][blk], blk != fn.entry())
            << fn.block(blk).label();
    }
    EXPECT_GT(cyclic, 0u);
}

// ---------------------------------------------------------------------
// Dominators
// ---------------------------------------------------------------------

TEST(Dominators, DiamondJoinIsDominatedByTheEntryOnly)
{
    ir::Program prog = buildDiamond();
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const DominatorTree doms(cfg);

    const BlockId entry = fn.entry();
    EXPECT_EQ(doms.idom(entry), ir::kNoBlock);
    EXPECT_EQ(doms.depth(entry), 0u);

    const BlockId then_b = cfg.successors(entry)[0];
    const BlockId skip_b = cfg.successors(entry)[1];
    EXPECT_TRUE(doms.dominates(entry, then_b));
    EXPECT_TRUE(doms.dominates(entry, skip_b));
    EXPECT_FALSE(doms.dominates(then_b, skip_b));

    // The join block's idom is the entry: neither arm dominates it.
    ASSERT_EQ(cfg.successors(then_b).size(), 1u);
    const BlockId join = cfg.successors(then_b).back();
    BlockId walk = join;
    while (doms.idom(walk) != ir::kNoBlock &&
           cfg.predecessors(walk).size() < 2)
        walk = doms.idom(walk);
    EXPECT_TRUE(doms.dominates(entry, walk));
    EXPECT_TRUE(doms.dominates(join, join)); // reflexive
}

TEST(Dominators, LoopHeaderDominatesTheBody)
{
    ir::Program prog = test::buildCountdown(3);
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const DominatorTree doms(cfg);
    for (BlockId blk = 0; blk < fn.numBlocks(); ++blk)
        EXPECT_TRUE(doms.dominates(fn.entry(), blk));
}

TEST(Dominators, UnreachableBlocksDominateNothing)
{
    ir::Program prog = buildDiamond();
    const BlockId island = addIsland(prog, 0);
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const DominatorTree doms(cfg);
    EXPECT_EQ(doms.idom(island), ir::kNoBlock);
    EXPECT_FALSE(doms.dominates(island, fn.entry()));
    EXPECT_FALSE(doms.dominates(fn.entry(), island));
    EXPECT_TRUE(doms.dominates(island, island));
}

// ---------------------------------------------------------------------
// Liveness (exercises the backward solver direction)
// ---------------------------------------------------------------------

TEST(Liveness, LoopCarriedRegisterIsLiveAcrossTheBackEdge)
{
    // Regression for the solver's worklist seeding: the entry block's
    // OUT must see the loop's demand even though the entry is
    // processed last in backward order.
    ir::Program prog = test::buildCountdown(3);
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const Liveness live(cfg);

    // buildCountdown: r0 = i (loop counter), r1 = total. Both feed
    // the loop, so both are live out of the entry block.
    EXPECT_TRUE(live.liveOut(fn.entry())[0]);
    EXPECT_TRUE(live.liveOut(fn.entry())[1]);
    // Nothing is live into the entry: it defines everything it uses.
    for (Reg r = 0; r < fn.numRegs(); ++r)
        EXPECT_FALSE(live.liveIn(fn.entry())[r]) << "r" << r;
}

TEST(Liveness, LiveBeforeStepsBackwardThroughTheBlock)
{
    ir::Program prog("straight");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.ldi(4);
    const Reg y = b.addi(x, 1);
    b.out(y, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const Liveness live(cfg);

    // Before the add, x is live; before the ldi, nothing is.
    EXPECT_TRUE(live.liveBefore(fn.entry(), 1)[x]);
    EXPECT_FALSE(live.liveBefore(fn.entry(), 0)[x]);
    // After the add, only y matters.
    EXPECT_TRUE(live.liveBefore(fn.entry(), 2)[y]);
    EXPECT_FALSE(live.liveBefore(fn.entry(), 2)[x]);
}

TEST(Liveness, PerInstructionCacheMatchesTheReferenceWalk)
{
    // Differential: the cached per-instruction sets (liveBeforeAt /
    // liveAfterAt) must agree with the recomputing reference
    // (liveBefore) at every position, stitch to the block-level sets
    // at both ends, and chain across adjacent instructions.
    for (const ir::Program &prog :
         {test::buildCountdown(6), test::buildFactorial(5),
          buildDiamond()}) {
        ir::verifyProgramOrDie(prog);
        for (FuncId f = 0; f < prog.numFunctions(); ++f) {
            const ir::Function &fn = prog.function(f);
            const Cfg cfg(fn);
            const Liveness live(cfg);
            for (BlockId bId = 0; bId < fn.numBlocks(); ++bId) {
                const ir::BasicBlock &bb = fn.block(bId);
                ASSERT_GT(bb.size(), 0u);
                EXPECT_EQ(live.liveBeforeAt(bId, 0), live.liveIn(bId))
                    << prog.name() << " f" << f << " b" << bId;
                EXPECT_EQ(live.liveAfterAt(bId, bb.size() - 1),
                          live.liveOut(bId))
                    << prog.name() << " f" << f << " b" << bId;
                for (std::size_t i = 0; i < bb.size(); ++i) {
                    EXPECT_EQ(live.liveBeforeAt(bId, i),
                              live.liveBefore(bId, i))
                        << prog.name() << " f" << f << " b" << bId
                        << "[" << i << "]";
                    if (i + 1 < bb.size()) {
                        EXPECT_EQ(live.liveAfterAt(bId, i),
                                  live.liveBeforeAt(bId, i + 1))
                            << prog.name() << " f" << f << " b" << bId
                            << "[" << i << "]";
                    }
                }
            }
        }
    }
}

TEST(DefiniteAssignment, OneArmedWritesAreNotDefinite)
{
    ir::Program prog("half");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg x = b.ldi(1);
    const Reg y = b.newReg();
    b.ifThen([&] { return IrBuilder::cmpGti(x, 0); },
             [&] { b.ldiTo(y, 5); });
    b.out(y, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const DefiniteAssignment da(cfg);

    // Find the join block (the one holding the out/halt).
    BlockId join = ir::kNoBlock;
    for (BlockId blk = 0; blk < fn.numBlocks(); ++blk) {
        if (fn.block(blk).size() > 0 &&
            fn.block(blk).inst(0).op == Opcode::Out)
            join = blk;
    }
    ASSERT_NE(join, ir::kNoBlock);
    EXPECT_TRUE(da.assignedIn(join)[x]);
    EXPECT_FALSE(da.assignedIn(join)[y]);
}

TEST(DefiniteAssignment, ArgumentsStartAssigned)
{
    ir::Program prog = test::buildFactorial(3);
    ir::verifyProgramOrDie(prog);
    const FuncId fact = prog.findFunction("fact");
    const ir::Function &fn = prog.function(fact);
    const Cfg cfg(fn);
    const DefiniteAssignment da(cfg);
    EXPECT_TRUE(da.assignedIn(fn.entry())[0]); // the argument
}

// ---------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------

TEST(ConstProp, FoldsStraightLineArithmeticLikeTheVm)
{
    ir::Program prog("fold");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg a = b.ldi(6);
    const Reg c = b.muli(a, 7);             // 42
    const Reg d = b.addi(c, INT64_MAX);     // wraps like the VM
    const Reg e = b.newReg();
    b.emitBinaryImmTo(Opcode::Shl, e, d, 65); // shift amount masked
    b.out(e, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const ConstProp consts(cfg);

    const auto at_out = consts.atInstruction(fn.entry(), 4);
    ASSERT_TRUE(at_out[c].isConst());
    EXPECT_EQ(at_out[c].value, 42);
    ASSERT_TRUE(at_out[d].isConst());
    EXPECT_EQ(at_out[d].value,
              static_cast<Word>(static_cast<std::uint64_t>(42) +
                                static_cast<std::uint64_t>(INT64_MAX)));
    ASSERT_TRUE(at_out[e].isConst());
    // shl by 65&63 = 1, i.e. a wrapping doubling.
    EXPECT_EQ(at_out[e].value,
              static_cast<Word>(
                  static_cast<std::uint64_t>(at_out[d].value) * 2));

    // The same arithmetic on the VM agrees.
    const vm::RunResult run = test::runProgram(prog);
    EXPECT_EQ(run.reason, vm::StopReason::Halted);
}

TEST(ConstProp, DivisionByZeroAndLoadsAreVarying)
{
    ir::Program prog("vary");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg zero = b.ldi(0);
    const Reg one = b.ldi(1);
    const Reg q = b.newReg();
    b.emitBinaryTo(Opcode::Div, q, one, zero); // would fault
    const Reg m = b.ld(zero, 0);               // memory: unprovable
    b.out(m, 1);
    b.out(q, 1);
    b.halt();
    b.endFunction();
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const ConstProp consts(cfg);
    const auto vals = consts.atInstruction(fn.entry(), 6);
    EXPECT_EQ(vals[q].kind, ConstVal::Kind::Varying);
    EXPECT_EQ(vals[m].kind, ConstVal::Kind::Varying);
}

TEST(ConstProp, MergeOfDifferentConstantsIsVarying)
{
    ir::Program prog = buildDiamond(); // y = 1 or 2 by arm
    ir::verifyProgramOrDie(prog);
    const ir::Function &fn = prog.function(0);
    const Cfg cfg(fn);
    const ConstProp consts(cfg);

    for (BlockId blk = 0; blk < fn.numBlocks(); ++blk) {
        for (std::uint32_t i = 0; i < fn.block(blk).size(); ++i) {
            if (fn.block(blk).inst(i).op != Opcode::Out)
                continue;
            const Reg y = fn.block(blk).inst(i).src1;
            EXPECT_EQ(consts.atInstruction(blk, i)[y].kind,
                      ConstVal::Kind::Varying);
        }
    }
}

TEST(ConstProp, ConstantConditionValueOnBranchesAndTables)
{
    ir::Program prog("cc");
    const FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const Reg x = fn.newReg();
    const BlockId entry = fn.newBlock("entry");
    const BlockId mid = fn.newBlock("mid");
    const BlockId other = fn.newBlock("other");
    const BlockId done = fn.newBlock("done");
    fn.block(entry).append(ir::makeLdi(x, 3));
    fn.block(entry).append(
        ir::makeCondBranchImm(Opcode::Bgt, x, 0, mid, other));
    fn.block(mid).append(ir::makeJTab(x, {done, done, other, done}));
    fn.block(other).append(ir::makeHalt());
    fn.block(done).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);
    const Cfg cfg(fn);
    const ConstProp consts(cfg);

    // Branch: 3 > 0 is always taken.
    const auto branch_val = consts.constantConditionValue(entry, 1);
    ASSERT_TRUE(branch_val.has_value());
    EXPECT_EQ(*branch_val, 1);
    // Jump table: the index is always 3.
    const auto index_val = consts.constantConditionValue(mid, 0);
    ASSERT_TRUE(index_val.has_value());
    EXPECT_EQ(*index_val, 3);
}

TEST(ConstProp, EntryStateIsVaryingNotZero)
{
    // The VM zero-fills registers, but the analysis must not lean on
    // that: a never-written register reads as Varying, so no
    // constant-condition diagnostic fires for r-uninitialised tests.
    ir::Program prog("uninit");
    const FuncId f = prog.newFunction("main", 0);
    ir::Function &fn = prog.function(f);
    const Reg x = fn.newReg();
    const BlockId entry = fn.newBlock("entry");
    const BlockId a = fn.newBlock("a");
    const BlockId c = fn.newBlock("c");
    fn.block(entry).append(
        ir::makeCondBranchImm(Opcode::Beq, x, 0, a, c));
    fn.block(a).append(ir::makeHalt());
    fn.block(c).append(ir::makeHalt());
    ir::verifyProgramOrDie(prog);
    const Cfg cfg(fn);
    const ConstProp consts(cfg);
    EXPECT_FALSE(consts.constantConditionValue(entry, 0).has_value());
}

// ---------------------------------------------------------------------
// Operand enumeration
// ---------------------------------------------------------------------

TEST(Operands, SingleDefPerInstruction)
{
    const auto add = ir::makeBinary(Opcode::Add, 2, 0, 1);
    EXPECT_EQ(definedReg(add), 2);
    EXPECT_EQ(usedRegs(add), (std::vector<Reg>{0, 1}));
    EXPECT_TRUE(isPureRegWrite(add));

    const auto st = ir::makeSt(0, 1, 0);
    EXPECT_EQ(definedReg(st), ir::kNoReg);
    EXPECT_FALSE(isPureRegWrite(st));

    const auto call = ir::makeCall(0, {3, 4}, 5, 1);
    EXPECT_EQ(definedReg(call), 5);
    EXPECT_EQ(usedRegs(call), (std::vector<Reg>{3, 4}));
    EXPECT_FALSE(isPureRegWrite(call));
}

TEST(Operands, BlockRefsKeepDuplicateTableArms)
{
    const auto jtab = ir::makeJTab(0, {1, 2, 1});
    const auto refs = blockRefs(jtab);
    ASSERT_EQ(refs.size(), 3u);
    EXPECT_EQ(refs[0].block, 1u);
    EXPECT_EQ(refs[1].block, 2u);
    EXPECT_EQ(refs[2].block, 1u);
}
