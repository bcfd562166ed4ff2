#include "ir/verifier.hh"

#include "analysis/operands.hh"
#include "ir/printer.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace branchlab::ir
{

namespace
{

/** Collects errors with a per-instruction context prefix. */
class Checker
{
  public:
    explicit Checker(const Program &program) : prog_(program) {}

    std::vector<std::string> takeErrors() { return std::move(errors_); }

    void
    run()
    {
        if (prog_.numFunctions() == 0) {
            addError("program has no functions");
            return;
        }
        bool has_main = false;
        for (FuncId f = 0; f < prog_.numFunctions(); ++f) {
            if (prog_.function(f).name() == "main") {
                has_main = true;
                if (prog_.function(f).numArgs() != 0)
                    addError("main function must take no arguments");
            }
        }
        if (!has_main)
            addError("program has no 'main' function");
        for (FuncId f = 0; f < prog_.numFunctions(); ++f)
            checkFunction(prog_.function(f));
    }

  private:
    void
    addError(const std::string &text)
    {
        errors_.push_back(context_.empty() ? text : context_ + ": " + text);
    }

    void
    checkFunction(const Function &func)
    {
        if (func.numBlocks() == 0) {
            context_ = func.name();
            addError("function has no blocks");
            context_.clear();
            return;
        }
        for (const BasicBlock &block : func.blocks()) {
            for (std::size_t i = 0; i < block.size(); ++i) {
                context_ = formatLocation(func, block.id(), i);
                checkInst(func, block, i);
            }
            context_ = func.name() + "." + block.label();
            if (!block.isSealed())
                addError("block lacks a terminator");
            context_.clear();
        }
    }

    void
    checkReg(const Function &func, Reg reg, const char *role)
    {
        if (reg == kNoReg) {
            addError(std::string("missing ") + role + " register");
        } else if (reg >= func.numRegs()) {
            addError(std::string(role) + " register r" +
                     std::to_string(reg) + " out of range (numRegs=" +
                     std::to_string(func.numRegs()) + ")");
        }
    }

    void
    checkBlockRef(const Function &func, BlockId block, const char *role)
    {
        if (block == kNoBlock) {
            addError(std::string("missing ") + role + " block");
        } else if (block >= func.numBlocks()) {
            addError(std::string(role) + " block " +
                     std::to_string(block) + " out of range");
        }
    }

    void
    checkFuncRef(FuncId func, const char *role)
    {
        if (func == kNoFunc) {
            addError(std::string("missing ") + role + " function");
        } else if (func >= prog_.numFunctions()) {
            addError(std::string(role) + " function " +
                     std::to_string(func) + " out of range");
        }
    }

    void
    checkChannel(Word channel)
    {
        if (channel < 0 || channel >= kMaxChannels) {
            addError("I/O channel " + std::to_string(channel) +
                     " out of range");
        }
    }

    /**
     * Per-instruction checks, driven by the canonical operand
     * enumeration (analysis/operands.hh). Opcode-specific facts the
     * enumeration cannot express — function references, call arity,
     * table emptiness, I/O channels — are checked here at their
     * historical positions so diagnostics stay byte-identical.
     */
    void
    checkInst(const Function &func, const BasicBlock &block,
              std::size_t index)
    {
        const Instruction &inst = block.inst(index);
        const bool is_last = index + 1 == block.size();

        if (inst.isTerminator() && !is_last) {
            addError("terminator '" + opcodeName(inst.op) +
                     "' in the middle of a block");
            return;
        }

        if (inst.op == Opcode::Call) {
            checkFuncRef(inst.func, "callee");
            if (inst.func < prog_.numFunctions() &&
                inst.args.size() !=
                    prog_.function(inst.func).numArgs()) {
                addError("call passes " +
                         std::to_string(inst.args.size()) +
                         " args, callee expects " +
                         std::to_string(
                             prog_.function(inst.func).numArgs()));
            }
        }

        for (const analysis::RegOperand &op :
             analysis::regOperands(inst))
            checkReg(func, op.reg, op.role);

        if (inst.op == Opcode::Ldf)
            checkFuncRef(inst.func, "referenced");
        if (inst.op == Opcode::JTab && inst.table.empty())
            addError("empty jump table");

        for (const analysis::BlockRef &ref : analysis::blockRefs(inst))
            checkBlockRef(func, ref.block, ref.role);

        if (inst.op == Opcode::In || inst.op == Opcode::Out)
            checkChannel(inst.imm);
    }

    const Program &prog_;
    std::vector<std::string> errors_;
    std::string context_;
};

} // namespace

std::string
VerifyResult::message() const
{
    return joinStrings(errors, "\n");
}

VerifyResult
verifyProgram(const Program &program)
{
    Checker checker(program);
    checker.run();
    return VerifyResult{checker.takeErrors()};
}

void
verifyProgramOrDie(const Program &program)
{
    const VerifyResult result = verifyProgram(program);
    if (!result.ok()) {
        blab_fatal("program '", program.name(), "' failed verification:\n",
                   result.message());
    }
}

} // namespace branchlab::ir
