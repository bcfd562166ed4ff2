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
 * The executor is a fetch policy and nothing else: it decides which
 * image slot runs next (homes, slot regions and their resume points,
 * tail-duplicate redirects, NO-OP pads), and each slot executes its
 * original instruction, predecoded by a vm::PredecodedProgram, on the
 * datapath the VM runs (vm/datapath.hh): the same ALU, memory, I/O,
 * call stack, faults and branch events.
 */

#ifndef BRANCHLAB_PROFILE_IMAGE_EXEC_HH
#define BRANCHLAB_PROFILE_IMAGE_EXEC_HH

#include <limits>

#include "profile/fs_opt.hh"
#include "vm/machine.hh"
#include "vm/predecode.hh"

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
     * branch-recording run never materialises it. The run is bounded
     * as a default vm::Machine run is (vm::RunLimits).
     */
    ImageRunResult run(const std::vector<std::vector<ir::Word>> &inputs,
                       trace::TraceSink *sink = nullptr) const;

  private:
    static constexpr std::size_t kNoIndex =
        std::numeric_limits<std::size_t>::max();
    static constexpr std::uint32_t kPad =
        std::numeric_limits<std::uint32_t>::max();

    /** What fetching needs to know about one image slot. */
    struct Slot
    {
        /** Flat slot of the slot's original instruction in code_;
         *  kPad for NO-OP pads. */
        std::uint32_t inst = kPad;
        /** The slot site this branch heads (nullptr when none), the
         *  end of its slot region and the home the region resumes at
         *  (kNoIndex when the window consumed the whole trace). */
        const SlotSite *site = nullptr;
        std::size_t regionEnd = 0;
        std::size_t regionResume = kNoIndex;
        /** Tail-duplicate redirects for this branch's destinations
         *  (kNoIndex when the side keeps its home target). */
        std::size_t takenDup = kNoIndex;
        std::size_t fallDup = kNoIndex;
    };

    /** The home of the original instruction at flat slot @p slot;
     *  panics when the image has none. */
    std::size_t homeOf(std::uint32_t slot) const;

    vm::PredecodedProgram code_;
    /** Image index of each original instruction's home, by flat slot
     *  (kNoIndex for elided instructions). */
    std::vector<std::size_t> home_;
    /** Parallel to the image's slots. */
    std::vector<Slot> slots_;
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
