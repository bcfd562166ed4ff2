/**
 * @file
 * The Forward Semantic code transformation (paper section 2.2):
 *
 *  1. select traces from the profile;
 *  2. align each trace: reverse conditional branches whose likely
 *     direction is the taken side so the likely path falls through
 *     inside traces, and so trace-ending conditionals take their
 *     likely side ("all conditional branches that are predicted taken
 *     are placed at the end of these traces");
 *  3. lay traces out (hottest first) and reserve k + l forward slots
 *     after every likely-taken trace-ending conditional branch;
 *  4. fill each slot group with the first k + l instructions of the
 *     branch's target path (the target trace's content), padding with
 *     NO-OPs when the target trace is shorter, and advance the branch
 *     target past the copied prefix (the paper's target_addr
 *     adjustment).
 *
 * The slot mechanism masks conditional branches (Figure 2): jumps and
 * calls resolve their targets at decode, and returns, jump tables and
 * indirect calls have no compile-time target, so none of them receives
 * slots or contributes code growth; see DESIGN.md for how their
 * prediction accuracy is modelled.
 *
 * The copy window reads the target trace's *base* content (home
 * instructions, before slot insertion), which makes the result
 * independent of fill order; the paper's lightest-first ordering is
 * therefore immaterial here and noted in EXPERIMENTS.md.
 *
 * Steps 1-3 and each site's unrefined window form one plan
 * (planForwardSlots). The FS optimizer (fs_opt.hh) is the one builder
 * of images: at level none it materialises the plan as it stands
 * (copies plus NO-OP pads), and higher levels refine the same plan's
 * windows first, so no level disagrees on traces, reversals or which
 * branches are sites. Table 5 needs no image at all: every site
 * reserves exactly k + l slots, so the plan's site count prices the
 * code growth of every k + l. printFsImage renders a built image as
 * the Figure 2 listing.
 */

#ifndef BRANCHLAB_PROFILE_FORWARD_SLOTS_HH
#define BRANCHLAB_PROFILE_FORWARD_SLOTS_HH

#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "profile/trace_select.hh"

namespace branchlab::profile
{

/** Forward Semantic parameters. */
struct FsConfig
{
    /** Number of forward slots per predicted-taken branch (k + l). */
    unsigned slotCount = 2;
    TraceSelectConfig trace;
};

/** Which transformation pass emitted an image slot. */
enum class SlotProvenance
{
    Seed,       ///< The paper's base transform (trace layout + slots).
    SlotFill,   ///< Liveness-proven move of a real instruction into
                ///< former NO-OP padding (fs_opt level >= slots).
    Superblock, ///< Tail-duplicated block copy (level >= superblock).
};

const char *slotProvenanceName(SlotProvenance provenance);

/** One position of the transformed linear image. */
struct ImageSlot
{
    enum class Kind
    {
        Home, ///< A block's own instruction, at its (single) home.
        Copy, ///< A forward-slot copy of a target-path instruction.
        Pad,  ///< NO-OP padding in a partially filled slot group.
        Fill, ///< A real instruction moved into former padding by the
              ///< liveness-aware slot filler; executes inside the slot
              ///< region on the predicted path only.
        Dup,  ///< A tail-duplicated copy of a side-entered block.
    };

    Kind kind = Kind::Pad;
    /** Original identity (valid for every kind except Pad). */
    ir::CodeLocation orig{};
    /** The pass that emitted this slot. */
    SlotProvenance provenance = SlotProvenance::Seed;
};

/** One predicted-taken branch that received forward slots. */
struct SlotSite
{
    /** Image index of the branch instruction. */
    std::size_t branchImageIndex = 0;
    /** Original location of the branch. */
    ir::CodeLocation branchOrig{};
    /** Non-pad slots (instructions actually copied). */
    unsigned copied = 0;
    /** NO-OP pads appended after the copies. */
    unsigned padded = 0;
    /** Instructions moved in front of the copies by the liveness-
     *  aware slot filler (always 0 in the seed transform). */
    unsigned filled = 0;
    /** Target-window instructions the region covers: the resume point
     *  is the window advanced by this many entries. The seed transform
     *  keeps consumed == copied; the optimizer may drop provably dead
     *  copies while still skipping them on the region path. */
    unsigned consumed = 0;
    /** Original-layout address of the likely-path target. */
    ir::Addr origTargetAddr = ir::kNoAddr;
    /** Where control resumes after the slots: the target path
     *  advanced by 'copied' instructions (nullopt when the copied
     *  window consumed the entire target trace). */
    std::optional<ir::CodeLocation> resume;
};

/** Result of the transformation. */
struct FsResult
{
    /** The final linear image. */
    std::vector<ImageSlot> slots;
    std::vector<SlotSite> sites;
    /** Traces in layout order (function by function, hottest first).*/
    std::vector<Trace> traces;
    /** Image index of each original instruction's home, keyed by its
     *  original layout address. */
    std::unordered_map<ir::Addr, std::size_t> homeIndex;
    /** Original terminator addresses whose condition was reversed. */
    std::unordered_set<ir::Addr> reversed;
    /** Static size before transformation (instructions). */
    std::size_t originalSize = 0;

    std::size_t expandedSize() const { return slots.size(); }

    /** Table 5's metric: (expanded - original) / original. */
    double codeSizeIncrease() const;
};

/** Print @p image as an addressed listing (the paper's Figure 2). */
void printFsImage(std::ostream &os, const ProgramProfile &profile,
                  const FsResult &image);

/** A slot site of the seed plan, pending materialisation. */
struct PendingSite
{
    /** The site with the seed window: copied + padded == slotCount,
     *  consumed == copied, resume after the copies (branchImageIndex
     *  is set when the image is laid out). */
    SlotSite site;
    /** Where the target path starts: the target block's trace and
     *  its offset in that trace's base content. */
    std::size_t targetTrace = 0;
    std::size_t targetOffset = 0;
};

/**
 * Steps 1-3 of the transform, everything but the image: the traces,
 * the alignment reversals, each trace's base content (home
 * instructions, in order) and every slot site with its unrefined
 * target window. The optimizer (fs_opt.hh) materialises it as it
 * stands at level none and refines each window first above it.
 */
struct FsPlan
{
    /** Static size before transformation (instructions). */
    std::size_t originalSize = 0;
    /** Traces in layout order (function by function, hottest first).*/
    std::vector<Trace> traces;
    /** Original terminator addresses whose condition is reversed. */
    std::unordered_set<ir::Addr> reversed;
    /** Base content of each trace. */
    std::vector<std::vector<ir::CodeLocation>> base;
    /** Sites keyed by (trace, offset of the branch in base content). */
    std::map<std::pair<std::size_t, std::size_t>, PendingSite> sites;

    /** The target path of @p site: its target trace's base content
     *  from the target block on. */
    std::span<const ir::CodeLocation>
    targetPath(const PendingSite &site) const
    {
        return std::span<const ir::CodeLocation>(base[site.targetTrace])
            .subspan(site.targetOffset);
    }

    /** Table 5's metric at @p slot_count slots per site: the seed
     *  image's (expanded - original) / original. Every site reserves
     *  exactly slot_count slots (the verifier's O1 and O7) and neither
     *  the traces nor the sites depend on the slot count, so one plan
     *  prices every k + l. */
    double codeSizeIncrease(unsigned slot_count) const;
};

/** Plan the transform of one profiled program. */
FsPlan planForwardSlots(const ProgramProfile &profile,
                        const FsConfig &config);

/**
 * Table 5's metric for one (slot count, trace threshold) design point:
 * plan the transform and return the seed image's relative code-size
 * increase, without materialising the image.
 */
double codeIncreaseFor(const ProgramProfile &profile, unsigned slot_count,
                       double trace_threshold);

} // namespace branchlab::profile

#endif // BRANCHLAB_PROFILE_FORWARD_SLOTS_HH
