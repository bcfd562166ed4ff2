/**
 * @file
 * IR opcode set, static opcode traits, and the semantics of every ALU
 * opcode and branch comparison (evalBinary, evalUnary, evalCondition):
 * the one definition the VM's datapath (which the Forward Semantic
 * image executor shares) and constant propagation compute with.
 *
 * The control-transfer taxonomy mirrors the paper's Table 2:
 *  - conditional branches (comparison folded in, per the paper's
 *    pipeline model in section 2.1);
 *  - unconditional branches with *known* targets (direct jumps, calls,
 *    and returns -- a return's target is the link address, readable at
 *    decode when the register file is accessed);
 *  - unconditional branches with *unknown* targets (jumps through
 *    run-time data: switch tables and indirect calls, as used by cccp).
 */

#ifndef BRANCHLAB_IR_OPCODE_HH
#define BRANCHLAB_IR_OPCODE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "ir/types.hh"

namespace branchlab::ir
{

/** Every operation the IR virtual machine can execute. */
enum class Opcode : std::uint8_t
{
    // Arithmetic / logic (dst, src1, src2-or-imm).
    Add,
    Sub,
    Mul,
    Div,   ///< Signed division; divide-by-zero is a VM fault.
    Rem,   ///< Signed remainder; divide-by-zero is a VM fault.
    And,
    Or,
    Xor,
    Shl,   ///< Logical shift left (shift amount masked to 0..63).
    Shr,   ///< Arithmetic shift right (shift amount masked to 0..63).

    // Unary (dst, src1).
    Not,   ///< Bitwise complement.
    Neg,   ///< Two's-complement negation.
    Mov,   ///< Register copy.

    // Constants and memory.
    Ldi,   ///< dst <- imm.
    Ld,    ///< dst <- mem[src1 + imm].
    St,    ///< mem[src1 + imm] <- src2.
    Ldf,   ///< dst <- function reference (for indirect calls).

    // I/O (word streams, one per channel).
    In,    ///< dst <- next word of input channel imm (-1 at end).
    Out,   ///< append src1 to output channel imm.

    Nop,   ///< No operation; fills forward slots.

    // Terminators: conditional branches (src1 ? src2-or-imm).
    Beq,
    Bne,
    Blt,
    Ble,
    Bgt,
    Bge,

    // Terminators: unconditional control transfers.
    Jmp,     ///< Direct jump to a block (known target).
    JTab,    ///< Jump through a table indexed by src1 (unknown target).
    Call,    ///< Direct call (known target); continues at 'next'.
    CallInd, ///< Call through a function ref in src1 (unknown target).
    Ret,     ///< Return to caller's continuation (known target).
    Halt,    ///< Stop the machine (not a branch).
};

/** Number of distinct opcodes (for iteration in tests). */
inline constexpr int kNumOpcodes = static_cast<int>(Opcode::Halt) + 1;

/** Mnemonic, e.g. "beq". */
const std::string &opcodeName(Opcode op);

/** Panic: @p what does not apply to @p op. */
[[noreturn]] void badOpcode(const char *what, Opcode op);

/** True for the two-source arithmetic/logic opcodes (Add..Shr). */
constexpr bool
isBinaryAlu(Opcode op)
{
    return op >= Opcode::Add && op <= Opcode::Shr;
}

/** True for Not/Neg/Mov. */
constexpr bool
isUnaryAlu(Opcode op)
{
    return op == Opcode::Not || op == Opcode::Neg || op == Opcode::Mov;
}

/** True when the opcode must terminate a basic block. */
constexpr bool
isTerminator(Opcode op)
{
    return op >= Opcode::Beq;
}

/** True when executing the opcode is a branch event for the
 *  prediction schemes (all terminators except Halt). */
constexpr bool
isBranch(Opcode op)
{
    return isTerminator(op) && op != Opcode::Halt;
}

/** True for Beq..Bge. */
constexpr bool
isConditionalBranch(Opcode op)
{
    return op >= Opcode::Beq && op <= Opcode::Bge;
}

/** True for unconditional branches (branch but not conditional). */
constexpr bool
isUnconditionalBranch(Opcode op)
{
    return isBranch(op) && !isConditionalBranch(op);
}

/**
 * True when the branch target is statically encoded or readable at the
 * decode stage (direct jumps/calls and returns); false for jumps and
 * calls through run-time data. Meaningful only for branches.
 */
constexpr bool
hasKnownTarget(Opcode op)
{
    if (!isBranch(op))
        badOpcode("hasKnownTarget", op);
    // Conditional branches always encode their taken target.
    return op != Opcode::JTab && op != Opcode::CallInd;
}

/** Evaluate a conditional-branch comparison. */
constexpr bool
evalCondition(Opcode op, Word lhs, Word rhs)
{
    switch (op) {
      case Opcode::Beq:
        return lhs == rhs;
      case Opcode::Bne:
        return lhs != rhs;
      case Opcode::Blt:
        return lhs < rhs;
      case Opcode::Ble:
        return lhs <= rhs;
      case Opcode::Bgt:
        return lhs > rhs;
      case Opcode::Bge:
        return lhs >= rhs;
      default:
        badOpcode("evalCondition", op);
    }
}

/**
 * The result of a two-source ALU opcode (Add..Shr), the one definition
 * the VM, the FS image executor and constant folding share: wrapping
 * two's-complement arithmetic, shift amounts masked to 0..63, an
 * arithmetic right shift, and INT64_MIN / -1 wrapping to INT64_MIN
 * (remainder 0). nullopt for Div and Rem by zero, which fault.
 */
constexpr std::optional<Word>
evalBinary(Opcode op, Word lhs, Word rhs)
{
    const auto u = [](Word w) { return static_cast<std::uint64_t>(w); };
    switch (op) {
      case Opcode::Add:
        return static_cast<Word>(u(lhs) + u(rhs));
      case Opcode::Sub:
        return static_cast<Word>(u(lhs) - u(rhs));
      case Opcode::Mul:
        return static_cast<Word>(u(lhs) * u(rhs));
      case Opcode::Div:
        if (rhs == 0)
            return std::nullopt;
        if (lhs == INT64_MIN && rhs == -1)
            return INT64_MIN;
        return lhs / rhs;
      case Opcode::Rem:
        if (rhs == 0)
            return std::nullopt;
        if (lhs == INT64_MIN && rhs == -1)
            return Word{0};
        return lhs % rhs;
      case Opcode::And:
        return lhs & rhs;
      case Opcode::Or:
        return lhs | rhs;
      case Opcode::Xor:
        return lhs ^ rhs;
      case Opcode::Shl:
        return static_cast<Word>(u(lhs) << (rhs & 63));
      case Opcode::Shr:
        return lhs >> (rhs & 63); // arithmetic in C++20
      default:
        badOpcode("evalBinary", op);
    }
}

/** The result of a one-source ALU opcode: Not, Neg (wrapping) or Mov. */
constexpr Word
evalUnary(Opcode op, Word src)
{
    switch (op) {
      case Opcode::Not:
        return ~src;
      case Opcode::Neg:
        return static_cast<Word>(0 - static_cast<std::uint64_t>(src));
      case Opcode::Mov:
        return src;
      default:
        badOpcode("evalUnary", op);
    }
}

} // namespace branchlab::ir

#endif // BRANCHLAB_IR_OPCODE_HH
