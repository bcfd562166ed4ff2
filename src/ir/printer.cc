#include "ir/printer.hh"

#include <sstream>

#include "support/logging.hh"

namespace branchlab::ir
{

namespace
{

std::string
regName(Reg reg)
{
    if (reg == kNoReg)
        return "_";
    return "r" + std::to_string(reg);
}

std::string
blockLabel(const Function &func, BlockId block)
{
    if (block == kNoBlock)
        return "<none>";
    if (block >= func.numBlocks())
        return "<bad:" + std::to_string(block) + ">";
    return func.block(block).label();
}

} // namespace

std::string
formatLocation(const Function &func, BlockId block, std::size_t index)
{
    std::ostringstream os;
    os << func.name() << "." << func.block(block).label() << "[" << index
       << "]";
    return os.str();
}

std::string
formatLocation(const Program &program, const CodeLocation &loc)
{
    return formatLocation(program.function(loc.func), loc.block, loc.index);
}

std::string
formatInstruction(const Program &program, const Function &func,
                  const Instruction &inst)
{
    std::ostringstream os;
    os << opcodeName(inst.op);

    const auto rhs = [&]() -> std::string {
        return inst.useImm ? "#" + std::to_string(inst.imm)
                           : regName(inst.src2);
    };

    if (isBinaryAlu(inst.op)) {
        os << " " << regName(inst.dst) << ", " << regName(inst.src1)
           << ", " << rhs();
    } else if (isUnaryAlu(inst.op)) {
        os << " " << regName(inst.dst) << ", " << regName(inst.src1);
    } else if (inst.op == Opcode::Ldi) {
        os << " " << regName(inst.dst) << ", #" << inst.imm;
    } else if (inst.op == Opcode::Ld) {
        os << " " << regName(inst.dst) << ", [" << regName(inst.src1)
           << "+" << inst.imm << "]";
    } else if (inst.op == Opcode::St) {
        os << " [" << regName(inst.src1) << "+" << inst.imm << "], "
           << regName(inst.src2);
    } else if (inst.op == Opcode::Ldf) {
        os << " " << regName(inst.dst) << ", @"
           << program.function(inst.func).name();
    } else if (inst.op == Opcode::In) {
        os << " " << regName(inst.dst) << ", ch" << inst.imm;
    } else if (inst.op == Opcode::Out) {
        os << " " << regName(inst.src1) << ", ch" << inst.imm;
    } else if (inst.op == Opcode::Nop) {
        // Just the mnemonic.
    } else if (inst.isConditional()) {
        os << " " << regName(inst.src1) << ", " << rhs() << " -> "
           << blockLabel(func, inst.target) << " | "
           << blockLabel(func, inst.next);
    } else if (inst.op == Opcode::Jmp) {
        os << " -> " << blockLabel(func, inst.target);
    } else if (inst.op == Opcode::JTab) {
        os << " [" << regName(inst.src1) << "] -> {";
        for (std::size_t i = 0; i < inst.table.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << blockLabel(func, inst.table[i]);
        }
        os << "}";
    } else if (inst.op == Opcode::Call || inst.op == Opcode::CallInd) {
        os << " ";
        if (inst.dst != kNoReg)
            os << regName(inst.dst) << " = ";
        if (inst.op == Opcode::Call)
            os << "@" << program.function(inst.func).name();
        else
            os << "(" << regName(inst.src1) << ")";
        os << "(";
        for (std::size_t i = 0; i < inst.args.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << regName(inst.args[i]);
        }
        os << ") then " << blockLabel(func, inst.next);
    } else if (inst.op == Opcode::Ret) {
        if (inst.src1 != kNoReg)
            os << " " << regName(inst.src1);
    } else if (inst.op == Opcode::Halt) {
        // Just the mnemonic.
    } else {
        blab_panic("unhandled opcode in printer");
    }
    return os.str();
}

void
printFunction(std::ostream &os, const Program &program,
              const Function &func)
{
    os << "func " << func.name() << "(" << func.numArgs() << " args, "
       << func.numRegs() << " regs):\n";
    for (const BasicBlock &block : func.blocks()) {
        os << "  " << block.label() << ":\n";
        for (const Instruction &inst : block.instructions())
            os << "    " << formatInstruction(program, func, inst) << "\n";
    }
}

void
printProgram(std::ostream &os, const Program &program)
{
    os << "program " << program.name() << " (data "
       << program.dataSize() << " words)\n";
    for (FuncId f = 0; f < program.numFunctions(); ++f)
        printFunction(os, program, program.function(f));
}

void
printProgramWithAddrs(std::ostream &os, const Program &program,
                      const Layout &layout)
{
    os << "program " << program.name() << "\n";
    for (FuncId f = 0; f < program.numFunctions(); ++f) {
        const Function &func = program.function(f);
        os << "func " << func.name() << ":\n";
        for (const BasicBlock &block : func.blocks()) {
            os << "  " << block.label() << ":\n";
            for (std::size_t i = 0; i < block.size(); ++i) {
                os << "    " << layout.instAddr(f, block.id(), i) << ": "
                   << formatInstruction(program, func, block.inst(i))
                   << "\n";
            }
        }
    }
}

} // namespace branchlab::ir
