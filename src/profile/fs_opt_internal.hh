/**
 * @file
 * Proof helpers shared by the FS optimizer (fs_opt.cc) and its safety
 * verifier (fs_opt_verify.cc). Builder and verifier must reason from
 * the same definitions of "speculable", "identical" and "interferes";
 * a divergence here would let the builder emit what the verifier then
 * rejects (or worse, the reverse), so both link against this single
 * implementation and the adversarial tests corrupt images specifically
 * to exercise each predicate. Block reachability is a plain CFG query
 * (analysis::blockReachability, memoised by analysis::AnalysisCache).
 */

#ifndef BRANCHLAB_PROFILE_FS_OPT_INTERNAL_HH
#define BRANCHLAB_PROFILE_FS_OPT_INTERNAL_HH

#include <set>
#include <utility>

#include "analysis/cfg.hh"

namespace branchlab::profile
{

/**
 * True when @p inst may execute speculatively (in a slot region, a
 * duplicate, or hoisted past a branch): a pure register write that can
 * neither fault (Div/Rem) nor touch memory or the I/O streams.
 */
bool fsSpeculablePure(const ir::Instruction &inst);

/**
 * True when the slot filler may move @p inst into a region at all: a
 * speculable pure write, or a load. The region is not speculative --
 * it executes exactly when the branch commits to its likely side --
 * so a load keeps its value as long as no instruction it moves past
 * can write memory; the fill pass proves that separately (no store
 * may sit between the load's home and the branch -- St is the only
 * non-terminator that writes memory).
 */
bool fsRegionMovable(const ir::Instruction &inst);

/**
 * The hoist pass's identity test: @p a and @p b compute the same value
 * from the same operands (opcode, registers, immediate and callee all
 * equal), so a dominating @p a may stand in for @p b.
 */
bool sameInstruction(const ir::Instruction &a, const ir::Instruction &b);

/**
 * True when some instruction on a path from source position (d, j) to
 * use position (b, i) defines any register in @p regs. Scans the
 * straight-line segments after the source and before the use, plus
 * every block that can lie on a d -> b path (including cyclic returns
 * through d or b themselves); positions in @p elided are skipped (they
 * no longer execute), as are the source and use positions themselves.
 * With @p mem_barrier set (a load is being elided against a dominating
 * identical load), any store on a connecting path also interferes:
 * the loaded value is only provably unchanged across memory-silent
 * code.
 */
bool fsHoistInterference(
    const ir::Function &fn, const analysis::Cfg &cfg,
    const std::vector<std::vector<bool>> &reach,
    const std::set<std::pair<ir::BlockId, std::uint32_t>> &elided,
    ir::BlockId d, std::size_t j, ir::BlockId b, std::size_t i,
    const std::vector<ir::Reg> &regs, bool mem_barrier);

} // namespace branchlab::profile

#endif // BRANCHLAB_PROFILE_FS_OPT_INTERNAL_HH
