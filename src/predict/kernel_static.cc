/**
 * @file
 * Stateless replay kernels: the four static predictors and the
 * Forward Semantic (profile) scheme.
 */

#include <algorithm>

#include "predict/replay_kernels.hh"

namespace branchlab::predict
{

StaticKernel::StaticKernel(StaticKind kind) : kind_(kind)
{
    // The default OpcodeBias table (static_predictors.cc): equality
    // tests skip, ordered tests that guard back-edges retake.
    // Unmapped opcodes read false, matching the reference's map miss.
    bias_[static_cast<std::size_t>(ir::Opcode::Bne)] = true;
    bias_[static_cast<std::size_t>(ir::Opcode::Blt)] = true;
    bias_[static_cast<std::size_t>(ir::Opcode::Ble)] = true;
}

KernelReplayResult
StaticKernel::result() const
{
    KernelReplayResult out;
    out.stats = acc_.toStats();
    return out;
}

FsKernel::FsKernel(const LikelyMap &map, ir::Addr max_pc)
{
    // Size the flat tables to cover both the stream's pcs and every
    // profiled branch (the profile normally comes from the same
    // program, but don't assume it).
    ir::Addr limit = max_pc;
    for (const auto &[pc, info] : map) {
        (void)info;
        if (pc != ir::kNoAddr && pc > limit)
            limit = pc;
    }
    const std::size_t size = static_cast<std::size_t>(limit) + 1;
    table_.assign(size, Slot{});
    for (const auto &[pc, info] : map) {
        if (pc == ir::kNoAddr)
            continue;
        Slot &slot = table_[static_cast<std::size_t>(pc)];
        slot.present = 1;
        slot.likelyTaken = info.likelyTaken ? 1 : 0;
        slot.dominantTarget = info.dominantTarget;
    }
}

KernelReplayResult
FsKernel::result() const
{
    KernelReplayResult out;
    out.stats = acc_.toStats();
    return out;
}

} // namespace branchlab::predict
