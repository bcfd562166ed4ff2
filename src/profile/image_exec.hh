/**
 * @file
 * Execution of a Forward Semantic image -- the strongest check of the
 * transformation: run the *transformed* code, forward slots and all,
 * and require that its committed instruction stream (by original
 * identity) and its outputs equal the original program's.
 *
 * Semantics of the transformed machine:
 *  - home instructions execute in image order (blocks of a trace are
 *    contiguous);
 *  - a predicted-taken slot-site branch that is taken falls into its
 *    slot region: the copied target-path instructions execute from
 *    the slots while the (patched) target is fetched, and control
 *    resumes at the advanced target -- the paper's alternate-PC
 *    mechanism (Figure 2's "locations 3 and 4 ... execute using an
 *    alternate program counter register");
 *  - any other resolved branch redirects to its destination block's
 *    home position (a mispredict squashes and refetches; the cost is
 *    modelled elsewhere, the committed stream is what we check here);
 *  - copied branches inside slot regions keep their own original
 *    destinations (the absorbed unlikely branch of Figure 2);
 *  - NO-OP pads sit after a copied trace tail that ends in a
 *    terminator, so they never commit.
 *
 * The executor predecodes the image once at construction: every slot
 * resolves its original instruction, layout address, branch-target
 * homes, and slot-site bookkeeping up front, so the run loop touches
 * one flat array instead of chasing the function/block/instruction
 * triple per executed instruction.
 */

#ifndef BRANCHLAB_PROFILE_IMAGE_EXEC_HH
#define BRANCHLAB_PROFILE_IMAGE_EXEC_HH

#include <limits>

#include "profile/fs_opt.hh"
#include "vm/machine.hh"

namespace branchlab::profile
{

/** Outcome of an image execution. */
struct ImageRunResult
{
    vm::StopReason reason = vm::StopReason::Halted;
    /** Committed instructions (pads excluded). */
    std::uint64_t instructions = 0;
    /**
     * Original-layout addresses of the committed stream. Only
     * materialised when run() has no sink or the sink wants
     * instructions; empty for pure branch-recording runs.
     */
    std::vector<ir::Addr> committed;
    /** Per-channel outputs. */
    std::vector<std::vector<ir::Word>> outputs;
};

/**
 * Execute a Forward Semantic image. Inputs arrive per channel, as on
 * the vm::Machine. Faults raise vm::ExecutionFault.
 */
class ImageExecutor
{
  public:
    /**
     * Execute the image of @p opt at any level (fs_opt.hh). Above
     * level none the region model extends: Fill slots execute first
     * inside a region (before the copies), a region may be empty
     * (every copy dropped -- control goes straight to the advanced
     * resume point), and branches whose destination block was
     * tail-duplicated for them redirect into their duplicate instead
     * of the home (site-region entry takes precedence on the likely
     * side). Elided instructions have no home and never execute.
     */
    ImageExecutor(const ProgramProfile &profile,
                  const FsOptResult &opt);

    /**
     * Run from main's entry with the given channel inputs.
     *
     * When a sink is attached it receives the *transformed* program's
     * trace with original-identity addresses: a BranchEvent per
     * executed branch and, when the sink wants them, an InstEvent per
     * committed instruction. The committed vector is only filled when
     * sink is null or sink->wantsInstructions() -- a pure
     * branch-recording run never materialises it.
     */
    ImageRunResult
    run(const std::vector<std::vector<ir::Word>> &inputs,
        std::uint64_t max_instructions = 100'000'000ULL,
        trace::TraceSink *sink = nullptr) const;

  private:
    /** Per-image-slot predecoded facts. */
    struct DecodedSlot
    {
        /** Original instruction; nullptr for NO-OP pads. */
        const ir::Instruction *inst = nullptr;
        /** Original-layout address of the slot's instruction. */
        ir::Addr addr = ir::kNoAddr;
        /** Owning function of the original instruction. */
        ir::FuncId func = ir::kNoFunc;
        /** Conditional/Jmp taken-target address and home slot. */
        ir::Addr takenAddr = ir::kNoAddr;
        std::size_t takenHome = 0;
        /** Conditional fallthrough block address and home slot. */
        ir::Addr fallAddr = ir::kNoAddr;
        std::size_t fallHome = 0;
        /** Call continuation home slot. */
        std::size_t contHome = 0;
        /** Slot-site bookkeeping (nullptr when not a site). */
        const SlotSite *site = nullptr;
        ir::BlockId siteTargetBlock = ir::kNoBlock;
        std::size_t regionEnd = 0;
        std::size_t regionResume = 0;
        /** Tail-duplicate redirects for this branch's destinations
         *  (kNoIndex when the side keeps its home target). */
        static constexpr std::size_t kNoIndex =
            std::numeric_limits<std::size_t>::max();
        std::size_t takenDup = kNoIndex;
        std::size_t fallDup = kNoIndex;
    };

    std::size_t homeOf(ir::Addr addr) const;
    void decodeImage();
    void applyDuplicates(const std::vector<DupTail> &dups);

    const ir::Program &prog_;
    const ir::Layout &layout_;
    const FsResult &image_;
    /** Predecoded image, parallel to image_.slots. */
    std::vector<DecodedSlot> decoded_;
    /** Home slot of each function's entry instruction. */
    std::vector<std::size_t> funcEntryHome_;
};

/**
 * Run the original program and the image of @p opt over the same
 * inputs and compare stop reasons, committed streams and outputs. The
 * streams are compared with the result's relaxedAddrs (moved fills,
 * dropped dead copies, hoist elisions) filtered from both sides --
 * those addresses execute on provably indifferent paths only -- so the
 * check is exact at level none, where there are none.
 * @return empty string on equivalence, else a diagnostic.
 */
std::string
checkImageEquivalence(const ProgramProfile &profile,
                      const FsOptResult &opt,
                      const std::vector<std::vector<ir::Word>> &inputs);

} // namespace branchlab::profile

#endif // BRANCHLAB_PROFILE_IMAGE_EXEC_HH
