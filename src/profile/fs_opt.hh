/**
 * @file
 * The analysis-driven Forward Semantic optimizer: what IMPACT-style
 * trace scheduling does to the paper's FS transform when a real
 * dataflow framework (src/analysis/) is available. Four cumulative
 * levels, selected with --fs-opt:
 *
 *  - none:       the seed transform: the plan of forward_slots.hh
 *                with every window as planned (copies, NO-OP pads).
 *  - slots:      liveness-aware slot groups. Copies past the first
 *                redirecting copy are structurally unreachable in the
 *                executor region model and are truncated; NO-OP pads
 *                are dropped; trailing copies whose definitions are
 *                provably dead at the region's resume point (per-
 *                instruction liveness) are elided from the region;
 *                real instructions are moved from in front of the slot
 *                branch into the freed slot space whenever liveness
 *                and def-use prove the move safe (the moved definition
 *                is dead on the untaken path and unused by the
 *                branch); and when the site branch's likely edge is
 *                the target block's only CFG entry, the copied-prefix
 *                homes are structurally unreachable and forwarded into
 *                their Copy slots (classic branch target forwarding).
 *  - superblock: plus tail duplication. Side entrances into traces
 *                (trace_select.hh) are absorbed by duplicating the
 *                side-entered block for its hot off-trace predecessor,
 *                giving each duplicate its own likely bit -- branch
 *                prediction becomes path-sensitive, which is never
 *                worse and often better than one shared bit.
 *  - hoist:      plus dominator-based redundancy elision across trace
 *                boundaries: an instruction identical to one in a
 *                dominating block, with no interfering definition of
 *                its operands on any connecting path, is removed from
 *                its home (the dominating computation already produced
 *                the value), shrinking the image.
 *
 * Every level starts from the seed plan (planForwardSlots in
 * forward_slots.hh) and ends in one materialiser: the optimizer
 * changes slot content, never the traces, the reversals or which
 * branches are sites.
 *
 * Every emitted image must pass verifyFsOptImage (fs_opt_verify.cc),
 * the one FS image verifier: it re-runs liveness/def-use over the
 * *output* image and re-proves each transformation from scratch,
 * runs every check at every level (level none included) and reports
 * all violations with slot provenance. Its only level rules are the
 * transform's own: NO-OP pads exist only at level none, windows
 * truncate at a copied terminator only above it, and each record
 * kind exists only from the level whose pass emits it.
 * Committed-stream equivalence is checked modulo the removed/moved
 * addresses (checkImageEquivalence in image_exec.hh), exactly at
 * level none, where none are.
 */

#ifndef BRANCHLAB_PROFILE_FS_OPT_HH
#define BRANCHLAB_PROFILE_FS_OPT_HH

#include <string>
#include <string_view>
#include <vector>

#include "profile/forward_slots.hh"
#include "trace/view.hh"

namespace branchlab::profile
{

/** Optimizer levels, cumulative in the listed order. */
enum class FsOptLevel
{
    None,
    Slots,
    Superblock,
    Hoist,
};

/** "none", "slots", "superblock" or "hoist". */
const char *fsOptLevelName(FsOptLevel level);

/** Parse a level name; fatal on anything unknown. */
FsOptLevel parseFsOptLevel(std::string_view name);

/** All levels, in cumulative order (for sweeps and CLI "all"). */
const std::vector<FsOptLevel> &allFsOptLevels();

/** Optimizer parameters on top of the seed FsConfig. */
struct FsOptConfig
{
    FsConfig fs;
    FsOptLevel level = FsOptLevel::None;
    /** Ceiling on total duplicated instructions, as a fraction of the
     *  original static size. */
    double dupMaxGrowth = 0.05;
    /** Require a duplicate's path-conditioned tally to beat the
     *  aggregate likely bit (profile-guided: the profile's pathCounts
     *  must show the entry path flips the majority direction). Off,
     *  every hot-enough side entrance is duplicated. */
    bool dupRequireGain = true;
};

/** One instruction moved into a slot group by the liveness-aware
 *  filler. */
struct FillRecord
{
    /** Index into FsResult::sites of the receiving site. */
    std::size_t site = 0;
    /** Original location of the moved instruction. */
    ir::CodeLocation origin{};
    ir::Addr originAddr = ir::kNoAddr;
    /** Image index of the Fill slot. */
    std::size_t imageIndex = 0;
};

/** One target-block home elided by branch target forwarding: the
 *  owning site's likely edge is the block's only CFG entry, so the
 *  region's Copy slot is the only position where the instruction can
 *  ever execute -- the home is dead image weight. */
struct ForwardedHome
{
    /** Index into FsResult::sites of the owning site. */
    std::size_t site = 0;
    /** Original location of the forwarded instruction (the copied
     *  prefix of the site's likely target block). */
    ir::CodeLocation loc{};
    ir::Addr addr = ir::kNoAddr;
    /** Image index of the Copy slot that now carries the home. */
    std::size_t imageIndex = 0;
};

/** One tail-duplicated block copy. */
struct DupTail
{
    ir::FuncId func = ir::kNoFunc;
    /** The off-trace predecessor the duplicate serves. */
    ir::BlockId pred = ir::kNoBlock;
    /** The duplicated (side-entered) block. */
    ir::BlockId block = ir::kNoBlock;
    /** Address of the predecessor's terminator (the branch whose
     *  edge is redirected into the duplicate). */
    ir::Addr predTermAddr = ir::kNoAddr;
    /** Original start address of the duplicated block. */
    ir::Addr blockStartAddr = ir::kNoAddr;
    /** Address of the duplicated block's terminator. */
    ir::Addr termAddr = ir::kNoAddr;
    /** Profiled weight of the pred -> block arc. */
    std::uint64_t arcWeight = 0;
    /** Image span of the duplicate. */
    std::size_t imageStart = 0;
    std::size_t length = 0;
};

/** One home instruction removed by dominator-based elision. */
struct HoistElision
{
    /** The elided instruction. */
    ir::CodeLocation loc{};
    ir::Addr addr = ir::kNoAddr;
    /** The dominating identical instruction that supplies the value. */
    ir::CodeLocation from{};
    ir::Addr fromAddr = ir::kNoAddr;
};

/** fs_opt.* telemetry, also kept on the result for tests/benches. */
struct FsOptCounters
{
    std::uint64_t padsDropped = 0;
    std::uint64_t copiesTruncated = 0;
    std::uint64_t deadCopiesDropped = 0;
    std::uint64_t copiesDisplaced = 0;
    std::uint64_t homesForwarded = 0;
    std::uint64_t slotsFilled = 0;
    std::uint64_t tailsDuplicated = 0;
    std::uint64_t dupInstructions = 0;
    std::uint64_t hoistElisions = 0;
    std::uint64_t rejectedFills = 0;
    std::uint64_t rejectedDups = 0;
    std::uint64_t rejectedHoists = 0;
};

/** An optimized FS image plus the evidence for each transformation. */
struct FsOptResult
{
    FsOptLevel level = FsOptLevel::None;
    FsOptConfig config{};
    FsResult image;
    std::vector<FillRecord> fills;
    std::vector<ForwardedHome> forwards;
    std::vector<DupTail> dups;
    std::vector<HoistElision> elisions;
    FsOptCounters counters{};
    /**
     * Addresses whose committed-stream occurrences differ from the
     * original program by construction: moved fills (execute after
     * their branch, taken path only), dropped dead copies (skipped on
     * region passes) and hoist elisions (never execute). Equivalence
     * checks compare streams with these filtered from both sides;
     * outputs and memory effects remain exact (only pure register
     * writes are ever moved or removed).
     */
    std::unordered_set<ir::Addr> relaxedAddrs;

    double codeSizeIncrease() const
    {
        return image.codeSizeIncrease();
    }
};

/**
 * Build an FS image, the one builder at every level. Level none lays
 * the seed plan out as it stands: each site's copies, then its NO-OP
 * pads.
 */
class FsOptimizer
{
  public:
    FsOptimizer(const ProgramProfile &profile,
                const FsOptConfig &config = FsOptConfig{});

    FsOptResult build() const;

  private:
    /** What the passes above level none chose to drop, move, forward
     *  and duplicate. */
    struct Refinements;

    /** Run the passes of level slots and up: refine @p seed's windows
     *  in place and record their choices in @p chosen. */
    void refine(FsPlan &seed, FsOptResult &out,
                Refinements &chosen) const;

    const ProgramProfile &profile_;
    FsOptConfig config_;
};

/**
 * FS prediction accuracy of an optimized image, walking a recorded
 * stream and scoring each event as the FS replay kernel does (likely
 * bit, dominant target of an indirect transfer, always-correct direct
 * jumps/calls), but conditionals in tail-duplicated blocks per entry
 * path: the duplicate carries its own likely bit. Equal to the FS
 * kernel at levels none and slots; the reference for the row form.
 */
double fsOptAccuracy(const ProgramProfile &profile,
                     const FsOptResult &result,
                     const trace::TraceView &view);

/** fsOptAccuracy from @p profile's rows instead of a walk of the
 *  stream it was folded from (core::scoreClosedForm's contract);
 *  nullopt when the profile tallies a pc that holds no branch. */
std::optional<double>
fsOptAccuracyFromProfile(const ProgramProfile &profile,
                         const FsOptResult &result);

/** Every violated invariant of one image, each tagged with its O-code. */
struct FsVerifyResult
{
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }

    /** All diagnostics joined with newlines (empty when ok). */
    std::string message() const;
};

/**
 * Static safety verification of an FS image at any level: re-derives
 * the traces' layout, every window and every proof the optimizer
 * relied on from fresh liveness/def-use/dominator analyses of the
 * program, checks the image's structure against them, and closes the
 * interprocedural home/target map (call entries, continuations and
 * returns must resolve to homes, never into a slot region or
 * duplicate). Collects *all* violations; each message is tagged with
 * an O-code and the provenance of the offending slot.
 */
FsVerifyResult verifyFsOptImage(const ProgramProfile &profile,
                                const FsOptResult &result);

} // namespace branchlab::profile

#endif // BRANCHLAB_PROFILE_FS_OPT_HH
