/**
 * @file
 * Forward constant propagation over virtual registers.
 *
 * The per-register lattice is Unknown (meet identity: no path has
 * assigned the register yet) > Const(v) > Varying. Transfer folds
 * through the opcode semantics the VM executes (ir::evalBinary,
 * ir::evalUnary), so a folded value is the value the VM computes;
 * anything the analysis cannot prove — loads, input, call results, a
 * division whose divisor may be zero — drops to Varying. Function
 * arguments and registers the entry inherits start Varying: the lint
 * must not reason from the VM's implicit zero fill.
 *
 * Drives the constant-condition and jump-table diagnostics.
 */

#ifndef BRANCHLAB_ANALYSIS_CONSTPROP_HH
#define BRANCHLAB_ANALYSIS_CONSTPROP_HH

#include <optional>

#include "analysis/cfg.hh"

namespace branchlab::analysis
{

/** Lattice value of one register. */
struct ConstVal
{
    enum class Kind
    {
        Unknown, ///< No assignment seen on any path yet (top).
        Const,   ///< Every path assigns the same known value.
        Varying, ///< Paths disagree or the value is unprovable.
    };

    Kind kind = Kind::Unknown;
    ir::Word value = 0;

    bool isConst() const { return kind == Kind::Const; }
    bool operator==(const ConstVal &) const = default;

    static ConstVal unknown() { return ConstVal{}; }
    static ConstVal constant(ir::Word v)
    {
        return ConstVal{Kind::Const, v};
    }
    static ConstVal varying()
    {
        return ConstVal{Kind::Varying, 0};
    }
};

class ConstProp
{
  public:
    explicit ConstProp(const Cfg &cfg);

    /** Register values just before instruction @p index of @p block. */
    std::vector<ConstVal> atInstruction(ir::BlockId block,
                                        std::size_t index) const;

    /**
     * The compare operands of a conditional branch or the index of a
     * jump table at (block, index), when statically constant:
     * evaluates the instruction's register operands against the facts
     * there. Returns nullopt unless every operand is Const.
     */
    std::optional<ir::Word> constantConditionValue(ir::BlockId block,
                                                   std::size_t index) const;

  private:
    const Cfg &cfg_;
    std::vector<std::vector<ConstVal>> in_;
};

} // namespace branchlab::analysis

#endif // BRANCHLAB_ANALYSIS_CONSTPROP_HH
