/**
 * @file
 * Register bit-vector dataflow analyses:
 *
 *  - Liveness (backward, may): which virtual registers hold a value
 *    some future use may read. Drives the dead-store lint and the
 *    Forward Semantic clobber check.
 *  - DefiniteAssignment (forward, must): which registers have been
 *    written on *every* path from the entry. A use outside the set is
 *    a use-before-def (the VM zero-fills registers, so such code
 *    silently reads 0).
 */

#ifndef BRANCHLAB_ANALYSIS_LIVENESS_HH
#define BRANCHLAB_ANALYSIS_LIVENESS_HH

#include "analysis/cfg.hh"

namespace branchlab::analysis
{

/** Dense register set, indexed by ir::Reg. */
using RegSet = std::vector<bool>;

class Liveness
{
  public:
    explicit Liveness(const Cfg &cfg);

    const RegSet &liveIn(ir::BlockId block) const { return in_[block]; }
    const RegSet &liveOut(ir::BlockId block) const { return out_[block]; }

    /** Registers live just before instruction @p index of @p block.
     *  Recomputed from liveOut() on every call; kept as the reference
     *  implementation the cached accessors are differential-tested
     *  against. */
    RegSet liveBefore(ir::BlockId block, std::size_t index) const;

    /**
     * Registers live just before instruction @p index of @p block,
     * served from the per-instruction cache built in the constructor.
     * `liveBeforeAt(b, 0) == liveIn(b)`.
     */
    const RegSet &liveBeforeAt(ir::BlockId block,
                               std::size_t index) const
    {
        return perInst_[block][index];
    }

    /**
     * Registers live immediately after instruction @p index of
     * @p block executes (its live-out set). The slot-filling and
     * image-verification passes key their clobber proofs on this:
     * a speculated definition is safe exactly when the defined
     * register is absent from the live-out set along the path that
     * did not ask for the speculation.
     * `liveAfterAt(b, size-1) == liveOut(b)`.
     */
    const RegSet &liveAfterAt(ir::BlockId block,
                              std::size_t index) const
    {
        return perInst_[block][index + 1];
    }

  private:
    const Cfg &cfg_;
    std::vector<RegSet> in_;
    std::vector<RegSet> out_;
    /** perInst_[b][i] = live before inst i; perInst_[b][size] =
     *  liveOut(b). Built eagerly (one backward scan per block). */
    std::vector<std::vector<RegSet>> perInst_;
};

class DefiniteAssignment
{
  public:
    explicit DefiniteAssignment(const Cfg &cfg);

    /** Registers definitely assigned at entry to @p block. Function
     *  arguments count as assigned from the function entry. */
    const RegSet &assignedIn(ir::BlockId block) const
    {
        return in_[block];
    }

  private:
    const Cfg &cfg_;
    std::vector<RegSet> in_;
};

} // namespace branchlab::analysis

#endif // BRANCHLAB_ANALYSIS_LIVENESS_HH
