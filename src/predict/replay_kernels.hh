/**
 * @file
 * Monomorphized replay kernels: one class per scheme family, each
 * replaying a recorded stream with zero virtual dispatch in the inner
 * loop. Kernels consume only a trace::TraceView (trace/view.hh), so
 * one code path serves both owned SoaTrace streams (through
 * TraceView::of) and mmap'd cache entries -- they share one encoded
 * form, and the view's cursor hands the walk block pointers straight
 * into its bit-plane and opcode sections.
 *
 * walkKernels() is the one loop that feeds kernels: it decodes each
 * cursor block into KernelEvents once and steps every kernel it is
 * given through the block, one virtual call per kernel and block;
 * the per-event loop stays inside each kernel's stepBlock.
 *
 * The virtual-dispatch path (PredictionDriver over BranchPredictor)
 * stays the authoritative reference; every kernel here replicates
 * each buffer touch of its scheme's predict()/update() sequence that
 * can affect replacement order. Touches that provably cannot (the
 * update-path re-find of a way the predict-phase find just stamped
 * most recent, with nothing in between) are elided. Kernel
 * results are bit-identical to the virtual engine, predictor-internal
 * tables included; differential tests enforce this, see
 * tests/test_replay_kernel.cc.
 *
 * The BTB-backed kernels use the flat pc-indexed tag index
 * (FlatTagIndex): the traces our programs emit live in small dense
 * address spaces, so one vector load replaces a hash lookup. The
 * engine (core/replay_kernel.hh) only gives a pc-indexed kernel a
 * trace whose maxPc is below kMaxKernelPc, keeping the flat tables
 * bounded; everything else takes the virtual path.
 *
 * Each kernel accumulates stats in plain integers (KernelStats) and
 * folds them into PredictorStats at the end -- the per-event path
 * never touches a Ratio or an atomic.
 */

#ifndef BRANCHLAB_PREDICT_REPLAY_KERNELS_HH
#define BRANCHLAB_PREDICT_REPLAY_KERNELS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "predict/assoc_buffer.hh"
#include "predict/cbtb.hh"
#include "predict/predictor.hh"
#include "predict/profile_predictor.hh"
#include "trace/view.hh"

namespace branchlab::predict
{

/** Kernels (and their flat tables) are only eligible for traces whose
 *  branch pcs stay below this bound. */
inline constexpr ir::Addr kMaxKernelPc = 1u << 20;

/** What one kernel replay yields -- mirrors core::ReplayResult
 *  without depending on the core layer. */
struct KernelReplayResult
{
    PredictorStats stats;
    double missRatio = 0.0;
    bool hasMissRatio = false;
};

/** The static per-event view every kernel consumes: the decoded
 *  block fields plus the precomputed makeQuery() staticTarget. */
struct KernelEvent
{
    ir::Addr pc = ir::kNoAddr;
    ir::Addr nextPc = ir::kNoAddr;
    ir::Addr targetAddr = ir::kNoAddr;
    ir::Addr staticTarget = ir::kNoAddr;
    ir::Opcode op = ir::Opcode::Jmp;
    bool conditional = false;
    bool taken = false;
};

/** Materialise the kernel view of block element @p i. */
inline KernelEvent
kernelEventFrom(const trace::TraceBlock &block, std::size_t i)
{
    KernelEvent e;
    e.pc = block.pc[i];
    e.nextPc = block.nextPc[i];
    e.targetAddr = block.targetAddr[i];
    e.op = block.opcode(i);
    e.conditional = block.conditional(i);
    e.taken = block.taken(i);
    // makeQuery(): only conditionals, direct jumps, and direct calls
    // carry a statically encoded target.
    const bool has_static = e.conditional ||
                            e.op == ir::Opcode::Jmp ||
                            e.op == ir::Opcode::Call;
    e.staticTarget = has_static ? e.targetAddr : ir::kNoAddr;
    return e;
}

/**
 * Strip-mine width of walkKernels(): events are materialised into a
 * block this long, then each kernel runs a tight loop over the block
 * while it is still L1-resident, so N kernels share one pass of
 * column decoding instead of paying it N times. 512 events x ~40
 * bytes keeps the block around 20 KiB.
 */
inline constexpr std::size_t kKernelBlockEvents = 512;

// Kernel strip-mining and the view cursor share one block width, so a
// cursor block maps 1:1 onto a kernel block.
static_assert(kKernelBlockEvents == trace::kTraceBlockEvents);

/** Materialise a cursor block into kernel events. */
inline void
fillKernelBlock(const trace::TraceBlock &block, KernelEvent *events)
{
    for (std::size_t i = 0; i < block.count; ++i)
        events[i] = kernelEventFrom(block, i);
}

/** PredictionDriver::isCorrect over the kernel view. */
inline bool
kernelCorrect(bool predicted_taken, ir::Addr predicted_target,
              const KernelEvent &e)
{
    if (!predicted_taken)
        return !e.taken;
    return e.taken && predicted_target == e.nextPc;
}

/** Plain-integer accumulator for the four PredictorStats ratios. */
struct KernelStats
{
    std::uint64_t events = 0;
    std::uint64_t correct = 0;
    std::uint64_t conditional = 0;
    std::uint64_t conditionalCorrect = 0;
    std::uint64_t predictedTaken = 0;

    void
    record(bool is_conditional, bool predicted_taken, bool is_correct)
    {
        ++events;
        correct += is_correct ? 1 : 0;
        if (is_conditional) {
            ++conditional;
            conditionalCorrect += is_correct ? 1 : 0;
        }
        predictedTaken += predicted_taken ? 1 : 0;
    }

    PredictorStats
    toStats() const
    {
        PredictorStats stats;
        stats.accuracy.add(correct, events);
        stats.conditionalAccuracy.add(conditionalCorrect, conditional);
        stats.unconditionalAccuracy.add(correct - conditionalCorrect,
                                        events - conditional);
        stats.predictedTaken.add(predictedTaken, events);
        return stats;
    }
};

/** A BTB scheme's result from its stats and buffer lookups: the miss
 *  ratio is the share of lookups that missed (SbtbKernel,
 *  CbtbKernel, and core's per-pc scorer). */
KernelReplayResult btbResult(const KernelStats &acc,
                             std::uint64_t lookups, std::uint64_t hits);

/** A kernel as walkKernels() drives it: one virtual stepBlock call
 *  per block, the per-event loop monomorphized inside it. */
class ReplayKernel
{
  public:
    ReplayKernel() = default;
    virtual ~ReplayKernel() = default;

    ReplayKernel(const ReplayKernel &) = delete;
    ReplayKernel &operator=(const ReplayKernel &) = delete;

    /** Step a whole block of materialised events. */
    virtual void stepBlock(const KernelEvent *events,
                           std::size_t count) = 0;

    virtual KernelReplayResult result() const = 0;
};

/**
 * The one loop that feeds kernels: walk @p view block by block
 * (zero-copy when the view is mapped), materialise each block into
 * kernel events once, and step every kernel through it in order. The
 * kernels are independent state machines, so block-major order gives
 * each the same event sequence as a walk of its own. Read each
 * kernel's result() afterwards.
 */
void walkKernels(const trace::TraceView &view,
                 const std::vector<ReplayKernel *> &kernels);

/** The SBTB (SimpleBtb) as a monomorphized kernel. */
class SbtbKernel final : public ReplayKernel
{
  public:
    explicit SbtbKernel(const BufferConfig &config);
    /** Folds predict.sbtb.lookups/.hits, like ~SimpleBtb(). */
    ~SbtbKernel() override;

    void
    step(const KernelEvent &e)
    {
        // predict(): hit => taken with the stored target.
        Entry *entry = buffer_.find(e.pc);
        ++lookups_;
        const bool predicted_taken = entry != nullptr;
        ir::Addr target = ir::kNoAddr;
        if (predicted_taken) {
            ++lookupHits_;
            target = entry->target;
        }
        acc_.record(e.conditional, predicted_taken,
                    kernelCorrect(predicted_taken, target, e));
        // update(): the virtual path re-finds here, but nothing
        // touched the buffer since the predict-phase find, so the
        // re-find's LRU touch hits a way already at the recency tail
        // -- a provable no-op for replacement order. Reuse the
        // pointer; the differential tests hold the tables
        // bit-identical.
        if (e.taken) {
            if (entry == nullptr)
                entry = &buffer_.insert(e.pc);
            entry->target = e.nextPc;
        } else if (entry != nullptr) {
            buffer_.erase(e.pc);
        }
    }

    void
    stepBlock(const KernelEvent *events, std::size_t count) override
    {
        for (std::size_t i = 0; i < count; ++i)
            step(events[i]);
    }

    KernelReplayResult result() const override;

    ir::Addr
    targetOf(ir::Addr pc) const
    {
        const Entry *entry = buffer_.peek(pc);
        return entry == nullptr ? ir::kNoAddr : entry->target;
    }

    std::size_t occupancy() const { return buffer_.occupancy(); }

  private:
    struct Entry
    {
        ir::Addr target = ir::kNoAddr;
    };

    AssociativeBuffer<Entry, FlatTagIndex> buffer_;
    KernelStats acc_;
    std::uint64_t lookups_ = 0;
    std::uint64_t lookupHits_ = 0;
};

/** The CBTB (CounterBtb) as a monomorphized kernel. stepBlock
 *  further specialises the inner loop per counter width (1..4 bits). */
class CbtbKernel final : public ReplayKernel
{
  public:
    CbtbKernel(const BufferConfig &buffer,
               const CounterConfig &counter);
    /** Folds predict.cbtb.lookups/.hits, like ~CounterBtb(). */
    ~CbtbKernel() override;

    /** Monomorphized per counter width: the saturation ceiling is a
     *  compile-time constant per block. */
    void
    stepBlock(const KernelEvent *events, std::size_t count) override
    {
        switch (maxCount_) {
          case 1:
            stepBlockImpl<1>(events, count);
            break;
          case 3:
            stepBlockImpl<3>(events, count);
            break;
          case 7:
            stepBlockImpl<7>(events, count);
            break;
          case 15:
            stepBlockImpl<15>(events, count);
            break;
          default:
            stepBlockImpl<0>(events, count);
            break;
        }
    }

    KernelReplayResult result() const override;

    ir::Addr
    targetOf(ir::Addr pc) const
    {
        const Entry *entry = buffer_.peek(pc);
        return entry == nullptr ? ir::kNoAddr : entry->target;
    }

    int
    counterOf(ir::Addr pc) const
    {
        const Entry *entry = buffer_.peek(pc);
        return entry == nullptr ? -1
                                : static_cast<int>(entry->counter);
    }

    std::size_t occupancy() const { return buffer_.occupancy(); }

  private:
    struct Entry
    {
        ir::Addr target = ir::kNoAddr;
        unsigned counter = 0;
    };

    /** @tparam MaxCount saturation ceiling as a compile-time constant;
     *  0 selects the run-time maxCount_ (generic fallback). */
    template <unsigned MaxCount>
    void
    stepImpl(const KernelEvent &e)
    {
        const unsigned max_count =
            MaxCount == 0 ? maxCount_ : MaxCount;
        // predict(): hit predicts taken iff counter >= threshold.
        Entry *entry = buffer_.find(e.pc);
        ++lookups_;
        bool predicted_taken = false;
        ir::Addr target = ir::kNoAddr;
        if (entry != nullptr) {
            ++lookupHits_;
            if (entry->counter >= counter_.threshold) {
                predicted_taken = true;
                target = entry->target;
            }
        }
        acc_.record(e.conditional, predicted_taken,
                    kernelCorrect(predicted_taken, target, e));
        // update(): the virtual path re-finds before adjusting, but
        // the predict-phase find already moved the way to the
        // recency tail and nothing intervened, so the re-find cannot
        // reorder anything -- reuse the pointer.
        if (entry == nullptr) {
            entry = &buffer_.insert(e.pc);
            entry->counter = e.taken ? counter_.threshold
                                     : counter_.threshold - 1;
        } else if (e.taken) {
            if (entry->counter < max_count)
                ++entry->counter;
        } else {
            if (entry->counter > 0)
                --entry->counter;
        }
        entry->target = e.targetAddr;
    }

    template <unsigned MaxCount>
    void
    stepBlockImpl(const KernelEvent *events, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            stepImpl<MaxCount>(events[i]);
    }

    AssociativeBuffer<Entry, FlatTagIndex> buffer_;
    CounterConfig counter_;
    unsigned maxCount_;
    KernelStats acc_;
    std::uint64_t lookups_ = 0;
    std::uint64_t lookupHits_ = 0;
};

/** Which stateless scheme a StaticKernel implements. */
enum class StaticKind
{
    AlwaysTaken,
    AlwaysNotTaken,
    BackwardTaken,
    OpcodeBias,
};

/** The four static predictors as one kernel, monomorphized per kind
 *  inside stepBlock. Only the default OpcodeBias table is supported --
 *  custom bias maps take the virtual fallback. */
class StaticKernel final : public ReplayKernel
{
  public:
    explicit StaticKernel(StaticKind kind);

    /** Monomorphized per kind. */
    void
    stepBlock(const KernelEvent *events, std::size_t count) override
    {
        switch (kind_) {
          case StaticKind::AlwaysTaken:
            stepBlockImpl<StaticKind::AlwaysTaken>(events, count);
            break;
          case StaticKind::AlwaysNotTaken:
            stepBlockImpl<StaticKind::AlwaysNotTaken>(events, count);
            break;
          case StaticKind::BackwardTaken:
            stepBlockImpl<StaticKind::BackwardTaken>(events, count);
            break;
          case StaticKind::OpcodeBias:
            stepBlockImpl<StaticKind::OpcodeBias>(events, count);
            break;
        }
    }

    KernelReplayResult result() const override;

  private:
    template <StaticKind Kind>
    void
    stepBlockImpl(const KernelEvent *events, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            stepImpl<Kind>(events[i]);
    }

    template <StaticKind Kind>
    void
    stepImpl(const KernelEvent &e)
    {
        bool predicted_taken = false;
        ir::Addr target = ir::kNoAddr;
        if constexpr (Kind == StaticKind::AlwaysTaken) {
            predicted_taken = true;
            target = e.staticTarget;
        } else if constexpr (Kind == StaticKind::AlwaysNotTaken) {
            // Sequential fetch, always.
        } else if constexpr (Kind == StaticKind::BackwardTaken) {
            if (e.staticTarget != ir::kNoAddr &&
                (!e.conditional || e.staticTarget < e.pc)) {
                predicted_taken = true;
                target = e.staticTarget;
            }
        } else { // OpcodeBias
            if (!e.conditional) {
                if (e.staticTarget != ir::kNoAddr) {
                    predicted_taken = true;
                    target = e.staticTarget;
                }
            } else if (bias_[static_cast<std::size_t>(e.op)]) {
                predicted_taken = true;
                target = e.staticTarget;
            }
        }
        acc_.record(e.conditional, predicted_taken,
                    kernelCorrect(predicted_taken, target, e));
    }

    StaticKind kind_;
    /** Default OpcodeBias table; false for unmapped opcodes, exactly
     *  like the reference's map miss. */
    std::array<bool, static_cast<std::size_t>(ir::kNumOpcodes)>
        bias_{};
    KernelStats acc_;
};

/** The Forward Semantic scheme (ProfilePredictor) over flat
 *  pc-indexed likely/dominant tables. */
class FsKernel final : public ReplayKernel
{
  public:
    /** @p max_pc bounds the flat tables (the stream's maxPc). */
    FsKernel(const LikelyMap &map, ir::Addr max_pc);

    void
    step(const KernelEvent &e)
    {
        bool predicted_taken = false;
        ir::Addr target = ir::kNoAddr;
        if (!e.conditional && e.staticTarget != ir::kNoAddr) {
            predicted_taken = true;
            target = e.staticTarget;
        } else if (e.pc < table_.size() &&
                   table_[static_cast<std::size_t>(e.pc)].present) {
            const Slot &slot = table_[static_cast<std::size_t>(e.pc)];
            if (e.conditional) {
                if (slot.likelyTaken) {
                    predicted_taken = true;
                    target = e.staticTarget;
                }
            } else {
                predicted_taken = true;
                target = slot.dominantTarget;
            }
        }
        acc_.record(e.conditional, predicted_taken,
                    kernelCorrect(predicted_taken, target, e));
    }

    void
    stepBlock(const KernelEvent *events, std::size_t count) override
    {
        for (std::size_t i = 0; i < count; ++i)
            step(events[i]);
    }

    KernelReplayResult result() const override;

  private:
    /** One profiled branch, packed so a prediction is one load. */
    struct Slot
    {
        std::uint8_t present = 0;
        std::uint8_t likelyTaken = 0;
        ir::Addr dominantTarget = ir::kNoAddr;
    };

    std::vector<Slot> table_;
    KernelStats acc_;
};

/** One sweep grid point for core::replayBatch. */
struct BtbBatchPoint
{
    BufferConfig btb;
    CounterConfig counter;
};

/** Both hardware schemes' results at one grid point. */
struct BtbBatchCell
{
    KernelReplayResult sbtb;
    KernelReplayResult cbtb;
};

} // namespace branchlab::predict

#endif // BRANCHLAB_PREDICT_REPLAY_KERNELS_HH
