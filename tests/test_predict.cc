/**
 * @file
 * Unit tests for the prediction schemes: the associative buffer, the
 * SBTB/CBTB (exactly the paper's section 2.2 rules), the static
 * baselines, the Forward Semantic predictor, the context-switch
 * wrapper, and the correctness scoring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "predict/assoc_buffer.hh"
#include "predict/cbtb.hh"
#include "predict/flushing.hh"
#include "predict/profile_predictor.hh"
#include "predict/replay_kernels.hh"
#include "predict/sbtb.hh"
#include "predict/static_predictors.hh"
#include "support/logging.hh"

namespace branchlab::predict
{
namespace
{

using trace::BranchEvent;

/** A conditional-branch event at @p pc with static target pc+100. */
BranchEvent
condEvent(ir::Addr pc, bool taken)
{
    BranchEvent event;
    event.pc = pc;
    event.op = ir::Opcode::Beq;
    event.conditional = true;
    event.taken = taken;
    event.targetKnown = true;
    event.targetAddr = pc + 100;
    event.fallthroughAddr = pc + 1;
    event.nextPc = taken ? event.targetAddr : event.fallthroughAddr;
    return event;
}

/** A backward conditional (loop-style) event. */
BranchEvent
backwardEvent(ir::Addr pc, bool taken)
{
    BranchEvent event = condEvent(pc, taken);
    event.targetAddr = pc - 50;
    event.nextPc = taken ? event.targetAddr : event.fallthroughAddr;
    return event;
}

/** A return-style event: unconditional, known, dynamic target. */
BranchEvent
retEvent(ir::Addr pc, ir::Addr target)
{
    BranchEvent event;
    event.pc = pc;
    event.op = ir::Opcode::Ret;
    event.conditional = false;
    event.taken = true;
    event.targetKnown = true;
    event.targetAddr = target;
    event.fallthroughAddr = pc + 1;
    event.nextPc = target;
    return event;
}

/** Drive predict+update once; returns the prediction. */
Prediction
step(BranchPredictor &predictor, const BranchEvent &event)
{
    const BranchQuery query = makeQuery(event);
    const Prediction prediction = predictor.predict(query);
    predictor.update(query, event);
    return prediction;
}

// ---------------------------------------------------------------------
// AssociativeBuffer.
// ---------------------------------------------------------------------

struct Payload
{
    int value = 0;
};

TEST(AssocBuffer, InsertFindErase)
{
    AssociativeBuffer<Payload> buffer(BufferConfig{4, 0,
                                                   ReplacementPolicy::Lru,
                                                   1});
    EXPECT_EQ(buffer.find(10), nullptr);
    buffer.insert(10).value = 7;
    ASSERT_NE(buffer.find(10), nullptr);
    EXPECT_EQ(buffer.find(10)->value, 7);
    buffer.erase(10);
    EXPECT_EQ(buffer.find(10), nullptr);
    EXPECT_EQ(buffer.occupancy(), 0u);
}

TEST(AssocBuffer, LruEvictsLeastRecentlyTouched)
{
    AssociativeBuffer<Payload> buffer(BufferConfig{2, 0,
                                                   ReplacementPolicy::Lru,
                                                   1});
    buffer.insert(1).value = 1;
    buffer.insert(2).value = 2;
    // Touch 1 so 2 becomes the LRU victim.
    ASSERT_NE(buffer.find(1), nullptr);
    buffer.insert(3).value = 3;
    EXPECT_NE(buffer.find(1), nullptr);
    EXPECT_EQ(buffer.find(2), nullptr);
    EXPECT_NE(buffer.find(3), nullptr);
}

TEST(AssocBuffer, FifoEvictsOldestInsertion)
{
    AssociativeBuffer<Payload> buffer(
        BufferConfig{2, 0, ReplacementPolicy::Fifo, 1});
    buffer.insert(1);
    buffer.insert(2);
    buffer.find(1); // touching must NOT save 1 under FIFO
    buffer.insert(3);
    EXPECT_EQ(buffer.find(1), nullptr);
    EXPECT_NE(buffer.find(2), nullptr);
}

TEST(AssocBuffer, RandomPolicyStaysWithinSet)
{
    AssociativeBuffer<Payload> buffer(
        BufferConfig{4, 0, ReplacementPolicy::Random, 42});
    for (ir::Addr tag = 0; tag < 100; ++tag)
        buffer.insert(tag * 8 + 1);
    EXPECT_EQ(buffer.occupancy(), 4u);
}

TEST(AssocBuffer, SetMappingConfinesConflicts)
{
    // Direct-mapped, 4 sets: tags 0 and 4 collide, 1 does not.
    AssociativeBuffer<Payload> buffer(
        BufferConfig{4, 1, ReplacementPolicy::Lru, 1});
    buffer.insert(0);
    buffer.insert(1);
    buffer.insert(4); // evicts tag 0 (same set), not tag 1
    EXPECT_EQ(buffer.find(0), nullptr);
    EXPECT_NE(buffer.find(1), nullptr);
    EXPECT_NE(buffer.find(4), nullptr);
}

TEST(AssocBuffer, FlushInvalidatesEverything)
{
    AssociativeBuffer<Payload> buffer(BufferConfig{});
    for (ir::Addr tag = 0; tag < 20; ++tag)
        buffer.insert(tag);
    EXPECT_EQ(buffer.occupancy(), 20u);
    buffer.flush();
    EXPECT_EQ(buffer.occupancy(), 0u);
    EXPECT_EQ(buffer.find(5), nullptr);
}

TEST(AssocBuffer, OccupancyNeverExceedsCapacity)
{
    for (std::size_t assoc : {0u, 1u, 2u, 4u}) {
        AssociativeBuffer<Payload> buffer(
            BufferConfig{8, assoc, ReplacementPolicy::Lru, 1});
        for (ir::Addr tag = 0; tag < 1000; ++tag) {
            buffer.insert(tag);
            EXPECT_LE(buffer.occupancy(), 8u);
        }
    }
}

TEST(AssocBuffer, DoubleInsertIsRejected)
{
    AssociativeBuffer<Payload> buffer(BufferConfig{});
    buffer.insert(5);
    EXPECT_THROW(buffer.insert(5), LogicFailure);
}

TEST(AssocBuffer, GeometryIsValidated)
{
    BufferConfig bad;
    bad.entries = 6;
    bad.associativity = 4; // 6 % 4 != 0
    EXPECT_THROW(AssociativeBuffer<Payload>{bad}, LogicFailure);
}

/**
 * The reference the buffer is held to: the seed's linear scan, which
 * models the hardware directly. A set is `assoc` consecutive ways; a
 * lookup scans them for the tag; an insert fills the lowest invalid
 * way, or on a full set evicts the least `lastUse` (LRU), the least
 * `inserted` (FIFO), or way `Rng(seed).nextBelow(assoc)` (Random).
 */
class ModelBuffer
{
  public:
    explicit ModelBuffer(const BufferConfig &config)
        : policy_(config.policy),
          assoc_(config.associativity == 0 ? config.entries
                                           : config.associativity),
          sets_(config.entries / assoc_), ways_(config.entries),
          rng_(config.seed)
    {}

    Payload *
    find(ir::Addr tag)
    {
        Way *way = wayOf(tag);
        if (way == nullptr)
            return nullptr;
        way->lastUse = ++tick_;
        return &way->entry;
    }

    const Payload *
    peek(ir::Addr tag)
    {
        const Way *way = wayOf(tag);
        return way == nullptr ? nullptr : &way->entry;
    }

    Payload &
    insert(ir::Addr tag)
    {
        Way *base = &ways_[(tag % sets_) * assoc_];
        Way *victim = std::find_if(base, base + assoc_,
                                   [](const Way &way) { return !way.valid; });
        if (victim == base + assoc_)
            victim = pickVictim(base);
        ++tick_;
        *victim = Way{true, tag, tick_, tick_, Payload{}};
        return victim->entry;
    }

    void
    erase(ir::Addr tag)
    {
        if (Way *way = wayOf(tag))
            way->valid = false;
    }

    void
    flush()
    {
        for (Way &way : ways_)
            way.valid = false;
    }

    std::size_t
    occupancy() const
    {
        return static_cast<std::size_t>(std::count_if(
            ways_.begin(), ways_.end(),
            [](const Way &way) { return way.valid; }));
    }

  private:
    struct Way
    {
        bool valid = false;
        ir::Addr tag = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t inserted = 0;
        Payload entry;
    };

    Way *
    wayOf(ir::Addr tag)
    {
        Way *base = &ways_[(tag % sets_) * assoc_];
        for (std::size_t w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].tag == tag)
                return &base[w];
        }
        return nullptr;
    }

    Way *
    pickVictim(Way *base)
    {
        switch (policy_) {
          case ReplacementPolicy::Lru:
            return std::min_element(base, base + assoc_,
                                    [](const Way &a, const Way &b) {
                                        return a.lastUse < b.lastUse;
                                    });
          case ReplacementPolicy::Fifo:
            return std::min_element(base, base + assoc_,
                                    [](const Way &a, const Way &b) {
                                        return a.inserted < b.inserted;
                                    });
          case ReplacementPolicy::Random:
            return base + rng_.nextBelow(assoc_);
        }
        return nullptr;
    }

    ReplacementPolicy policy_;
    std::size_t assoc_;
    std::size_t sets_;
    std::vector<Way> ways_;
    Rng rng_;
    std::uint64_t tick_ = 0;
};

/** Replacement must not depend on the index policy: every test of
 *  this suite runs over both. */
template <typename Index>
class AssocBufferIndex : public ::testing::Test
{
  protected:
    using Buffer = AssociativeBuffer<Payload, Index>;
};

struct IndexPolicyNames
{
    template <typename Index>
    static std::string
    GetName(int)
    {
        return std::is_same_v<Index, HashTagIndex> ? "Hash" : "Flat";
    }
};

using IndexPolicies = ::testing::Types<HashTagIndex, FlatTagIndex>;
TYPED_TEST_SUITE(AssocBufferIndex, IndexPolicies, IndexPolicyNames);

TYPED_TEST(AssocBufferIndex, FifoVictimIgnoresTouches)
{
    typename TestFixture::Buffer buffer(
        BufferConfig{3, 0, ReplacementPolicy::Fifo, 1});
    buffer.insert(1);
    buffer.insert(2);
    buffer.insert(3);
    // Touch the oldest two; FIFO must still evict in insertion order.
    buffer.find(1);
    buffer.find(2);
    buffer.insert(4); // evicts 1
    EXPECT_EQ(buffer.find(1), nullptr);
    buffer.insert(5); // evicts 2 despite the recent touch
    EXPECT_EQ(buffer.find(2), nullptr);
    EXPECT_NE(buffer.find(3), nullptr);
    EXPECT_NE(buffer.find(4), nullptr);
    EXPECT_NE(buffer.find(5), nullptr);
}

TYPED_TEST(AssocBufferIndex, FifoEraseThenInsertMovesToNewest)
{
    typename TestFixture::Buffer buffer(
        BufferConfig{2, 0, ReplacementPolicy::Fifo, 1});
    buffer.insert(1);
    buffer.insert(2);
    buffer.erase(1);
    buffer.insert(1); // re-inserted: now the NEWEST entry
    buffer.insert(3); // must evict 2, the oldest surviving insertion
    EXPECT_EQ(buffer.find(2), nullptr);
    EXPECT_NE(buffer.find(1), nullptr);
    EXPECT_NE(buffer.find(3), nullptr);
}

TYPED_TEST(AssocBufferIndex, EraseThenInsertReusesTheFreeWay)
{
    typename TestFixture::Buffer buffer(
        BufferConfig{2, 0, ReplacementPolicy::Lru, 1});
    buffer.insert(10).value = 1;
    buffer.insert(20).value = 2;
    buffer.erase(10);
    EXPECT_EQ(buffer.occupancy(), 1u);
    // The freed way must absorb the insert -- no eviction of 20 --
    // and the payload must come back default-constructed.
    Payload &fresh = buffer.insert(30);
    EXPECT_EQ(fresh.value, 0);
    EXPECT_EQ(buffer.occupancy(), 2u);
    EXPECT_NE(buffer.find(20), nullptr);
    EXPECT_NE(buffer.find(30), nullptr);
    // And the erased tag is re-insertable afterwards (evicting LRU).
    buffer.find(30);
    buffer.insert(10);
    EXPECT_EQ(buffer.find(20), nullptr);
    EXPECT_NE(buffer.find(10), nullptr);
}

TYPED_TEST(AssocBufferIndex, RandomVictimStaysResidentElsewhere)
{
    typename TestFixture::Buffer buffer(
        BufferConfig{4, 0, ReplacementPolicy::Random, 42});
    for (ir::Addr tag = 0; tag < 100; ++tag)
        buffer.insert(tag * 8 + 1);
    EXPECT_EQ(buffer.occupancy(), 4u);
    // The four survivors are findable, everything else is gone.
    std::size_t resident = 0;
    for (ir::Addr tag = 0; tag < 100; ++tag)
        resident += buffer.peek(tag * 8 + 1) != nullptr ? 1 : 0;
    EXPECT_EQ(resident, 4u);
}

/** The buffer must agree with the model on a randomized trace of
 *  find/insert/erase/flush, for every policy and geometry. */
TYPED_TEST(AssocBufferIndex, AgreesWithTheModelOnRandomizedTraces)
{
    const std::vector<std::pair<std::size_t, std::size_t>> geometries =
        {{256, 0}, {64, 0}, {64, 16}, {32, 4}};
    for (const auto &[entries, assoc] : geometries) {
        for (ReplacementPolicy policy :
             {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
              ReplacementPolicy::Random}) {
            const BufferConfig config{entries, assoc, policy, 7};
            ModelBuffer model(config);
            typename TestFixture::Buffer buffer(config);
            // A working set of 3x capacity keeps evictions frequent.
            Rng rng(0xabcdef ^ entries ^ (assoc << 8) ^
                    static_cast<std::uint64_t>(policy));
            for (int op = 0; op < 20000; ++op) {
                const ir::Addr tag = rng.nextBelow(3 * entries);
                const std::uint64_t kind = rng.nextBelow(100);
                if (kind < 70) { // find, insert on miss (BTB shape)
                    Payload *a = model.find(tag);
                    Payload *b = buffer.find(tag);
                    ASSERT_EQ(a == nullptr, b == nullptr)
                        << "op " << op << " tag " << tag;
                    if (a == nullptr) {
                        model.insert(tag).value = op;
                        buffer.insert(tag).value = op;
                    } else {
                        ASSERT_EQ(a->value, b->value);
                    }
                } else if (kind < 95) {
                    model.erase(tag);
                    buffer.erase(tag);
                } else if (kind < 96) {
                    model.flush();
                    buffer.flush();
                } else {
                    const Payload *a = model.peek(tag);
                    const Payload *b = buffer.peek(tag);
                    ASSERT_EQ(a == nullptr, b == nullptr);
                    if (a != nullptr) {
                        ASSERT_EQ(a->value, b->value);
                    }
                }
                ASSERT_EQ(model.occupancy(), buffer.occupancy());
            }
        }
    }
}

TYPED_TEST(AssocBufferIndex, PicksTheModelsVictimsExhaustively)
{
    // Occupancy equality alone would not catch a divergent victim
    // choice (or a Random draw that names a different way), so this
    // test audits the full resident content -- every tag in the
    // working-set domain, presence and payload -- across every
    // policy x geometry combination, including the degenerate ones
    // (direct-mapped, two-way, tiny fully-assoc) and a set count
    // that is not a power of two.
    const std::vector<std::pair<std::size_t, std::size_t>> geometries =
        {{2, 1},  {4, 1},  {4, 2},  {4, 0},  {8, 2},  {8, 4}, {8, 0},
         {16, 1}, {16, 4}, {16, 8}, {16, 0}, {32, 8}, {12, 4}};
    for (const auto &[entries, assoc] : geometries) {
        for (ReplacementPolicy policy :
             {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
              ReplacementPolicy::Random}) {
            const BufferConfig config{entries, assoc, policy, 11};
            ModelBuffer model(config);
            typename TestFixture::Buffer buffer(config);

            const std::size_t domain = 4 * entries;
            Rng rng(0x5eed ^ (entries << 16) ^ (assoc << 8) ^
                    static_cast<std::uint64_t>(policy));
            for (int op = 0; op < 4000; ++op) {
                const ir::Addr tag = rng.nextBelow(domain);
                const std::uint64_t kind = rng.nextBelow(100);
                if (kind < 60) { // insert-on-miss (BTB shape)
                    Payload *a = model.find(tag);
                    Payload *b = buffer.find(tag);
                    ASSERT_EQ(a == nullptr, b == nullptr)
                        << entries << "/" << assoc << " op " << op;
                    if (a == nullptr) {
                        model.insert(tag).value = op;
                        buffer.insert(tag).value = op;
                    }
                } else if (kind < 90) {
                    // Erase-heavy: punches holes so the Random
                    // policy's free-slot bookkeeping (the ascending
                    // free list vs the first-invalid scan) is
                    // exercised constantly, not just at warm-up.
                    model.erase(tag);
                    buffer.erase(tag);
                } else if (kind < 92) {
                    model.flush();
                    buffer.flush();
                } else {
                    // Overwrite-or-insert: refreshes recency on
                    // hits, forces an eviction decision on misses
                    // into full sets.
                    Payload *a = model.find(tag);
                    Payload *b = buffer.find(tag);
                    ASSERT_EQ(a == nullptr, b == nullptr)
                        << entries << "/" << assoc << " op " << op;
                    if (a == nullptr) {
                        model.insert(tag).value = -op;
                        buffer.insert(tag).value = -op;
                    } else {
                        a->value = -op;
                        b->value = -op;
                    }
                }

                // Full-content audit every 256 ops and at the end:
                // identical victims leave identical residents.
                if (op % 256 == 255 || op == 3999) {
                    for (ir::Addr probe = 0; probe < domain; ++probe) {
                        const Payload *a = model.peek(probe);
                        const Payload *b = buffer.peek(probe);
                        ASSERT_EQ(a == nullptr, b == nullptr)
                            << entries << "/" << assoc << " policy "
                            << policyName(policy) << " op " << op
                            << " tag " << probe;
                        if (a != nullptr) {
                            ASSERT_EQ(a->value, b->value);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// SBTB (paper rules).
// ---------------------------------------------------------------------

TEST(Sbtb, MissPredictsNotTaken)
{
    SimpleBtb sbtb;
    const Prediction prediction = step(sbtb, condEvent(0x100, true));
    EXPECT_FALSE(prediction.taken);
}

TEST(Sbtb, OnlyTakenBranchesAreRemembered)
{
    SimpleBtb sbtb;
    step(sbtb, condEvent(0x100, false)); // not taken: not inserted
    EXPECT_EQ(sbtb.occupancy(), 0u);
    step(sbtb, condEvent(0x100, true)); // taken: inserted
    EXPECT_EQ(sbtb.occupancy(), 1u);
}

TEST(Sbtb, HitPredictsTakenWithStoredTarget)
{
    SimpleBtb sbtb;
    step(sbtb, condEvent(0x100, true));
    const Prediction prediction = step(sbtb, condEvent(0x100, true));
    EXPECT_TRUE(prediction.taken);
    EXPECT_EQ(prediction.target, condEvent(0x100, true).targetAddr);
}

TEST(Sbtb, EntryDeletedWhenPredictedTakenFallsThrough)
{
    // The paper: "If a branch instruction is predicted taken, but when
    // executed it does not branch to a new location, the
    // corresponding entry in the SBTB is deleted."
    SimpleBtb sbtb;
    step(sbtb, condEvent(0x100, true));
    EXPECT_EQ(sbtb.occupancy(), 1u);
    step(sbtb, condEvent(0x100, false));
    EXPECT_EQ(sbtb.occupancy(), 0u);
    EXPECT_FALSE(step(sbtb, condEvent(0x100, true)).taken);
}

TEST(Sbtb, TracksLatestDynamicTarget)
{
    SimpleBtb sbtb;
    step(sbtb, retEvent(0x200, 0x500));
    const Prediction first = step(sbtb, retEvent(0x200, 0x600));
    // Predicted the stale target: direction right, fetch wrong.
    EXPECT_TRUE(first.taken);
    EXPECT_EQ(first.target, 0x500u);
    const Prediction second = step(sbtb, retEvent(0x200, 0x600));
    EXPECT_EQ(second.target, 0x600u);
}

TEST(Sbtb, MissRatioCountsLookups)
{
    SimpleBtb sbtb;
    step(sbtb, condEvent(0x100, true));  // miss
    step(sbtb, condEvent(0x100, true));  // hit
    step(sbtb, condEvent(0x200, false)); // miss
    EXPECT_EQ(sbtb.lookups(), 3u);
    EXPECT_EQ(sbtb.hits(), 1u);
    EXPECT_NEAR(sbtb.missRatio(), 2.0 / 3.0, 1e-12);
}

TEST(Sbtb, FlushForgetsEverything)
{
    SimpleBtb sbtb;
    step(sbtb, condEvent(0x100, true));
    sbtb.flush();
    EXPECT_FALSE(step(sbtb, condEvent(0x100, true)).taken);
}

TEST(Sbtb, AnEntryEvictedBeforeADeletionStaysEvicted)
{
    // Conditionals A, B and C taken, then C falls through, then A
    // taken again, fully associative under LRU. At 2 entries C's
    // insertion evicts A before C's deletion frees a way, so A misses;
    // an LRU stack with C removed would put A at depth 2 and call it a
    // hit. At 3 entries nothing is evicted and A hits. Presence at a
    // size needs each entry's deepest stack position since its last
    // insertion, and a one-walk SBTB kernel must match this.
    const ir::Addr a = 0x100;
    const std::vector<BranchEvent> events = {
        condEvent(a, true), condEvent(0x200, true), condEvent(0x300, true),
        condEvent(0x300, false), condEvent(a, true)};
    for (const std::size_t entries : {std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE(entries);
        const bool a_hits = entries == 3;
        BufferConfig config;
        config.entries = entries;
        config.associativity = 0;

        SimpleBtb sbtb(config);
        SbtbKernel kernel(config);
        for (std::size_t i = 0; i + 1 < events.size(); ++i) {
            step(sbtb, events[i]);
            const trace::BlockBuffer<1> one(events[i]);
            kernel.step(kernelEventFrom(one.block(), 0));
        }
        EXPECT_EQ(kernel.targetOf(a) != ir::kNoAddr, a_hits);
        EXPECT_EQ(step(sbtb, events.back()).taken, a_hits);
        const trace::BlockBuffer<1> last(events.back());
        kernel.step(kernelEventFrom(last.block(), 0));

        // C's fall-through lookup hits either way; A's only at 3.
        EXPECT_EQ(sbtb.lookups(), 5u);
        EXPECT_EQ(sbtb.hits(), a_hits ? 2u : 1u);
        const KernelReplayResult result = kernel.result();
        EXPECT_EQ(result.missRatio, sbtb.missRatio());
        // Only A's second execution can be predicted right.
        EXPECT_EQ(result.stats.accuracy.hits(), a_hits ? 1u : 0u);
        EXPECT_EQ(sbtb.missRatio(), a_hits ? 3.0 / 5.0 : 4.0 / 5.0);
    }
}

// ---------------------------------------------------------------------
// CBTB (paper rules).
// ---------------------------------------------------------------------

TEST(Cbtb, NewEntryStartsAtThresholdWhenTaken)
{
    CounterBtb cbtb;
    step(cbtb, condEvent(0x100, true));
    EXPECT_EQ(cbtb.counterOf(0x100), 2); // T = 2
    // Counter >= T: predicted taken.
    EXPECT_TRUE(step(cbtb, condEvent(0x100, true)).taken);
}

TEST(Cbtb, NewEntryStartsBelowThresholdWhenNotTaken)
{
    CounterBtb cbtb;
    step(cbtb, condEvent(0x100, false));
    EXPECT_EQ(cbtb.counterOf(0x100), 1); // T - 1
    EXPECT_FALSE(step(cbtb, condEvent(0x100, false)).taken);
}

TEST(Cbtb, CounterSaturatesAtBothEnds)
{
    CounterBtb cbtb;
    for (int i = 0; i < 10; ++i)
        step(cbtb, condEvent(0x100, true));
    EXPECT_EQ(cbtb.counterOf(0x100), 3); // 2^2 - 1
    for (int i = 0; i < 10; ++i)
        step(cbtb, condEvent(0x100, false));
    EXPECT_EQ(cbtb.counterOf(0x100), 0);
}

TEST(Cbtb, HysteresisNeedsTwoFlipsFromSaturation)
{
    CounterBtb cbtb;
    for (int i = 0; i < 4; ++i)
        step(cbtb, condEvent(0x100, true)); // saturate to 3
    step(cbtb, condEvent(0x100, false));    // 3 -> 2
    EXPECT_TRUE(step(cbtb, condEvent(0x100, false)).taken); // 2 >= T
    // Counter now 1: prediction flips.
    EXPECT_FALSE(step(cbtb, condEvent(0x100, true)).taken);
}

TEST(Cbtb, AllBranchesAreEligibleUnlikeSbtb)
{
    CounterBtb cbtb;
    step(cbtb, condEvent(0x100, false));
    EXPECT_EQ(cbtb.occupancy(), 1u);
}

TEST(Cbtb, WiderCounterAndThresholdAreConfigurable)
{
    CounterBtb cbtb(BufferConfig{}, CounterConfig{3, 4});
    step(cbtb, condEvent(0x100, true)); // counter = 4 = T
    EXPECT_TRUE(step(cbtb, condEvent(0x100, true)).taken);
    for (int i = 0; i < 10; ++i)
        step(cbtb, condEvent(0x100, true));
    EXPECT_EQ(cbtb.counterOf(0x100), 7);
}

TEST(Cbtb, InvalidCounterConfigRejected)
{
    EXPECT_THROW(CounterBtb(BufferConfig{}, CounterConfig{2, 4}),
                 LogicFailure);
    EXPECT_THROW(CounterBtb(BufferConfig{}, CounterConfig{0, 1}),
                 LogicFailure);
}

TEST(Cbtb, MissRatioFarBelowSbtbOnNotTakenStream)
{
    // Not-taken-dominant stream over few sites: CBTB retains entries,
    // SBTB keeps missing (the Table 3 rho gap).
    SimpleBtb sbtb;
    CounterBtb cbtb;
    for (int i = 0; i < 100; ++i) {
        const BranchEvent event = condEvent(0x100 + (i % 4), i % 5 == 0);
        step(sbtb, event);
        step(cbtb, event);
    }
    EXPECT_GT(sbtb.missRatio(), 10.0 * cbtb.missRatio());
}

// ---------------------------------------------------------------------
// Static predictors.
// ---------------------------------------------------------------------

TEST(StaticPredictors, AlwaysTakenAndNotTaken)
{
    AlwaysTaken taken;
    AlwaysNotTaken not_taken;
    const BranchEvent event = condEvent(0x100, true);
    EXPECT_TRUE(step(taken, event).taken);
    EXPECT_EQ(step(taken, event).target, event.targetAddr);
    EXPECT_FALSE(step(not_taken, event).taken);
}

TEST(StaticPredictors, BtfntFollowsDirection)
{
    BackwardTaken btfnt;
    EXPECT_TRUE(step(btfnt, backwardEvent(0x100, true)).taken);
    EXPECT_FALSE(step(btfnt, condEvent(0x100, true)).taken);
    // Unconditional with static target: taken.
    BranchEvent jmp;
    jmp.pc = 0x100;
    jmp.op = ir::Opcode::Jmp;
    jmp.conditional = false;
    jmp.taken = true;
    jmp.targetKnown = true;
    jmp.targetAddr = 0x300;
    jmp.nextPc = 0x300;
    EXPECT_TRUE(step(btfnt, jmp).taken);
    // Unknown-target: falls back to not-taken.
    BranchEvent jtab = jmp;
    jtab.op = ir::Opcode::JTab;
    jtab.targetKnown = false;
    EXPECT_FALSE(step(btfnt, jtab).taken);
}

TEST(StaticPredictors, OpcodeBiasUsesTable)
{
    OpcodeBias bias(std::map<ir::Opcode, bool>{{ir::Opcode::Beq, true}});
    BranchEvent beq = condEvent(0x100, true);
    EXPECT_TRUE(step(bias, beq).taken);
    BranchEvent bne = beq;
    bne.op = ir::Opcode::Bne;
    EXPECT_FALSE(step(bias, bne).taken);
}

// ---------------------------------------------------------------------
// ProfilePredictor (Forward Semantic).
// ---------------------------------------------------------------------

TEST(ProfilePredictor, FollowsLikelyBit)
{
    LikelyMap map;
    map[0x100] = LikelyInfo{true, 0x200};
    map[0x110] = LikelyInfo{false, 0x111};
    ProfilePredictor fs(map);
    EXPECT_TRUE(step(fs, condEvent(0x100, true)).taken);
    EXPECT_FALSE(step(fs, condEvent(0x110, false)).taken);
}

TEST(ProfilePredictor, ColdBranchesPredictNotTaken)
{
    ProfilePredictor fs(LikelyMap{});
    EXPECT_FALSE(step(fs, condEvent(0x100, true)).taken);
    EXPECT_EQ(fs.coldBranches(), 1u);
}

TEST(ProfilePredictor, DirectUnconditionalsAlwaysCorrect)
{
    ProfilePredictor fs(LikelyMap{});
    BranchEvent jmp;
    jmp.pc = 0x100;
    jmp.op = ir::Opcode::Jmp;
    jmp.conditional = false;
    jmp.taken = true;
    jmp.targetKnown = true;
    jmp.targetAddr = 0x400;
    jmp.nextPc = 0x400;
    const Prediction prediction = step(fs, jmp);
    EXPECT_TRUE(PredictionDriver::isCorrect(prediction, jmp));
}

TEST(ProfilePredictor, ReturnsUseDominantTarget)
{
    LikelyMap map;
    map[0x200] = LikelyInfo{true, 0x500};
    ProfilePredictor fs(map);
    const Prediction prediction = step(fs, retEvent(0x200, 0x500));
    EXPECT_TRUE(prediction.taken);
    EXPECT_EQ(prediction.target, 0x500u);
    EXPECT_TRUE(
        PredictionDriver::isCorrect(prediction, retEvent(0x200, 0x500)));
    EXPECT_FALSE(
        PredictionDriver::isCorrect(prediction, retEvent(0x200, 0x600)));
}

TEST(ProfilePredictor, FlushChangesNothing)
{
    LikelyMap map;
    map[0x100] = LikelyInfo{true, 0x200};
    ProfilePredictor fs(map);
    const Prediction before = step(fs, condEvent(0x100, true));
    fs.flush();
    const Prediction after = step(fs, condEvent(0x100, true));
    EXPECT_EQ(before.taken, after.taken);
    EXPECT_EQ(before.target, after.target);
}

// ---------------------------------------------------------------------
// FlushingPredictor.
// ---------------------------------------------------------------------

TEST(FlushingPredictor, FlushesEveryInterval)
{
    SimpleBtb sbtb;
    FlushingPredictor flushed(sbtb, 3);
    for (int i = 0; i < 10; ++i)
        step(flushed, condEvent(0x100, true));
    EXPECT_EQ(flushed.flushCount(), 3u);
}

TEST(FlushingPredictor, DegradesABtbButNotFs)
{
    // A perfectly periodic taken branch: the SBTB alone predicts it
    // after warm-up; flushing every branch keeps it cold.
    SimpleBtb plain;
    SimpleBtb wrapped_inner;
    FlushingPredictor wrapped(wrapped_inner, 1);
    PredictorStats plain_stats, wrapped_stats;
    PredictionDriver plain_driver(plain);
    PredictionDriver wrapped_driver(wrapped);
    for (int i = 0; i < 50; ++i) {
        plain_driver.onBranch(condEvent(0x100, true));
        wrapped_driver.onBranch(condEvent(0x100, true));
    }
    EXPECT_GT(plain_driver.stats().accuracy.ratio(),
              wrapped_driver.stats().accuracy.ratio());
    EXPECT_EQ(wrapped_driver.stats().accuracy.ratio(), 0.0);
}

// ---------------------------------------------------------------------
// Scoring.
// ---------------------------------------------------------------------

TEST(Scoring, IsCorrectMatrix)
{
    const BranchEvent taken = condEvent(0x100, true);
    const BranchEvent fell = condEvent(0x100, false);

    // Not-taken prediction.
    EXPECT_TRUE(PredictionDriver::isCorrect({false, ir::kNoAddr}, fell));
    EXPECT_FALSE(PredictionDriver::isCorrect({false, ir::kNoAddr},
                                             taken));
    // Taken with the right target.
    EXPECT_TRUE(PredictionDriver::isCorrect({true, taken.targetAddr},
                                            taken));
    // Taken with a stale target: misfetch.
    EXPECT_FALSE(PredictionDriver::isCorrect({true, taken.targetAddr + 4},
                                             taken));
    // Taken prediction on a fall-through.
    EXPECT_FALSE(PredictionDriver::isCorrect({true, taken.targetAddr},
                                             fell));
    // Taken prediction without a target never streams correctly.
    EXPECT_FALSE(PredictionDriver::isCorrect({true, ir::kNoAddr},
                                             taken));
}

TEST(Scoring, DriverAccumulatesPerKindStats)
{
    AlwaysNotTaken predictor;
    PredictionDriver driver(predictor);
    driver.onBranch(condEvent(1, false)); // correct
    driver.onBranch(condEvent(2, true));  // wrong
    BranchEvent jmp;
    jmp.pc = 3;
    jmp.op = ir::Opcode::Jmp;
    jmp.conditional = false;
    jmp.taken = true;
    jmp.targetKnown = true;
    jmp.targetAddr = 100;
    jmp.nextPc = 100;
    driver.onBranch(jmp); // wrong (unconditional never falls through)
    const PredictorStats &stats = driver.stats();
    EXPECT_EQ(stats.accuracy.total(), 3u);
    EXPECT_EQ(stats.accuracy.hits(), 1u);
    EXPECT_EQ(stats.conditionalAccuracy.total(), 2u);
    EXPECT_EQ(stats.unconditionalAccuracy.total(), 1u);
    EXPECT_EQ(stats.unconditionalAccuracy.hits(), 0u);
    EXPECT_EQ(stats.predictedTaken.hits(), 0u);
}

TEST(Scoring, MakeQueryStripsDynamicTargets)
{
    // Returns and indirect jumps must not leak their dynamic target
    // into the static query.
    const BranchQuery ret_query = makeQuery(retEvent(0x200, 0x500));
    EXPECT_EQ(ret_query.staticTarget, ir::kNoAddr);
    EXPECT_TRUE(ret_query.targetKnown);

    BranchEvent jtab;
    jtab.pc = 0x300;
    jtab.op = ir::Opcode::JTab;
    jtab.conditional = false;
    jtab.taken = true;
    jtab.targetKnown = false;
    jtab.targetAddr = 0x999;
    jtab.nextPc = 0x999;
    const BranchQuery jtab_query = makeQuery(jtab);
    EXPECT_EQ(jtab_query.staticTarget, ir::kNoAddr);
    EXPECT_FALSE(jtab_query.targetKnown);

    const BranchQuery cond_query = makeQuery(condEvent(0x100, false));
    EXPECT_EQ(cond_query.staticTarget, condEvent(0x100, false).targetAddr);
}

} // namespace
} // namespace branchlab::predict
