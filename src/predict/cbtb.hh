/**
 * @file
 * The Counter-based Branch Target Buffer (paper section 2.2).
 *
 * Every executed branch is eligible for residence. Each entry carries
 * an n-bit saturating up/down counter C and a stored target. A new
 * entry starts at threshold T when the branch was taken, T-1 when it
 * was not. C increments on taken, decrements on not-taken, saturating
 * at 0 and 2^n - 1. A hit predicts taken iff C >= T; a miss predicts
 * not-taken. The paper evaluates n = 2, T = 2, 256 entries, fully
 * associative, LRU.
 */

#ifndef BRANCHLAB_PREDICT_CBTB_HH
#define BRANCHLAB_PREDICT_CBTB_HH

#include "predict/assoc_buffer.hh"
#include "predict/predictor.hh"

namespace branchlab::predict
{

/** Counter parameters for the CBTB. */
struct CounterConfig
{
    unsigned bits = 2;
    unsigned threshold = 2;

    bool operator==(const CounterConfig &) const = default;
};

/** The saturation ceiling 2^bits - 1 of a valid counter config:
 *  1-16 bits and a threshold within 1..ceiling (fatal otherwise). */
unsigned counterCeiling(const CounterConfig &counter);

class CounterBtb : public BranchPredictor
{
  public:
    explicit CounterBtb(const BufferConfig &buffer = BufferConfig{},
                        const CounterConfig &counter = CounterConfig{});
    /** Folds predict.cbtb.lookups/.hits into the global registry. */
    ~CounterBtb() override;

    std::string name() const override;

    Prediction predict(const BranchQuery &query) override;
    void update(const BranchQuery &query,
                const trace::BranchEvent &outcome) override;
    void flush() override;

    /** The paper's rho_CBTB: fraction of branch lookups that missed. */
    bool hasMissRatio() const override { return true; }
    double missRatio() const override { return lookups_.complement(); }
    std::uint64_t lookups() const { return lookups_.total(); }
    std::uint64_t hits() const { return lookups_.hits(); }

    std::size_t occupancy() const { return buffer_.occupancy(); }

    /** Counter value for a resident branch, or -1 (tests). */
    int counterOf(ir::Addr pc) const;

    /** Stored target for a resident branch, or kNoAddr (tests). */
    ir::Addr
    targetOf(ir::Addr pc) const
    {
        const Entry *entry = buffer_.peek(pc);
        return entry == nullptr ? ir::kNoAddr : entry->target;
    }

  private:
    struct Entry
    {
        ir::Addr target = ir::kNoAddr;
        unsigned counter = 0;
    };

    AssociativeBuffer<Entry> buffer_;
    CounterConfig counter_;
    unsigned maxCount_;
    Ratio lookups_;
};

} // namespace branchlab::predict

#endif // BRANCHLAB_PREDICT_CBTB_HH
