#include "ir/opcode.hh"

#include <array>

#include "support/logging.hh"

namespace branchlab::ir
{

namespace
{

const std::array<std::string, kNumOpcodes> opcode_names = {
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr",
    "not", "neg", "mov",
    "ldi", "ld", "st", "ldf",
    "in", "out",
    "nop",
    "beq", "bne", "blt", "ble", "bgt", "bge",
    "jmp", "jtab", "call", "callind", "ret", "halt",
};

} // namespace

const std::string &
opcodeName(Opcode op)
{
    const auto index = static_cast<std::size_t>(op);
    blab_assert(index < opcode_names.size(), "bad opcode ", index);
    return opcode_names[index];
}

void
badOpcode(const char *what, Opcode op)
{
    blab_panic(what, " on ", opcodeName(op));
}

} // namespace branchlab::ir
