/**
 * @file
 * A set-associative tagged buffer, the hardware substrate shared by
 * the SBTB and CBTB (and usable for any address-tagged structure).
 *
 * The paper's buffers are 256-entry fully associative with LRU
 * replacement; geometry and policy are parameterised here so the
 * ablation benches can sweep them.
 *
 * Every geometry keeps one bookkeeping. A lookup finds a tag's way
 * through a tag -> way index, the way real BTBs index with tag bits
 * rather than scan the ways of a set, so it costs the same at 256
 * ways as at one. An insert fills its set's next free way from a
 * per-set free list, and a full set names its victim by scanning its
 * ways for the oldest use stamp (LRU) or insertion stamp (FIFO), or
 * by drawing a random way. Under Random the free list is kept
 * ascending, so a tag lands in the set's lowest invalid way and every
 * draw names the way a first-invalid-way fill would have put there.
 * Evictions pay O(assoc), but they are rare next to finds, the replay
 * kernels' hottest operation: one index lookup and one stamp store.
 *
 * Two index policies, picked by what the caller knows of its tags:
 * the replay kernels (predict/replay_kernels.hh) use FlatTagIndex,
 * because the engine only gives them streams whose max pc is below
 * kMaxKernelPc; the virtual predictors (SimpleBtb, CounterBtb,
 * gshare's target buffer) see any address and use HashTagIndex. An
 * index is a pure point-lookup structure, never consulted for the
 * victim, so the two cannot differ in replacement behaviour;
 * tests/test_predict.cc holds both to a linear-scan model of the
 * rules above.
 *
 * Telemetry: each buffer tallies finds/hits/LRU-touches/inserts/
 * evictions/erases/flushes in plain per-instance integers (zero cost
 * on the per-event path) and folds them into the global registry on
 * destruction under `predict.buffer.<indexed|flat>.<metric>`, one
 * family per index policy.
 */

#ifndef BRANCHLAB_PREDICT_ASSOC_BUFFER_HH
#define BRANCHLAB_PREDICT_ASSOC_BUFFER_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/types.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace branchlab::predict
{

/** Victim-selection policy on a full set. */
enum class ReplacementPolicy
{
    Lru,    ///< Evict the least recently touched way.
    Fifo,   ///< Evict the oldest-inserted way.
    Random, ///< Evict a uniformly random way.
};

/** Lowercase policy name ("lru" / "fifo" / "random"). */
inline const char *
policyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru:
        return "lru";
      case ReplacementPolicy::Fifo:
        return "fifo";
      case ReplacementPolicy::Random:
        return "random";
    }
    blab_panic("unreachable replacement policy");
}

/** Parse a policy name as printed by policyName(); fatal on others. */
inline ReplacementPolicy
parsePolicy(const std::string &name)
{
    if (name == "lru")
        return ReplacementPolicy::Lru;
    if (name == "fifo")
        return ReplacementPolicy::Fifo;
    if (name == "random")
        return ReplacementPolicy::Random;
    blab_fatal("unknown replacement policy '", name,
               "' (expected lru, fifo, or random)");
}

/** Geometry + policy of an associative buffer. */
struct BufferConfig
{
    /** Total entries; must be a positive multiple of associativity. */
    std::size_t entries = 256;
    /** Ways per set; 0 means fully associative. */
    std::size_t associativity = 0;
    ReplacementPolicy policy = ReplacementPolicy::Lru;
    /** Seed for the Random policy. */
    std::uint64_t seed = 1;

    bool operator==(const BufferConfig &) const = default;
};

/**
 * The sets a BufferConfig describes: ways per set, the set count, and
 * the set a tag maps to. The one set-index function, shared by
 * AssociativeBuffer and by core's per-pc scorer, which must ask
 * exactly which tags compete for a set.
 */
class BufferGeometry
{
  public:
    explicit BufferGeometry(const BufferConfig &config)
    {
        blab_assert(config.entries > 0, "buffer needs entries");
        ways_ = config.associativity == 0 ? config.entries
                                          : config.associativity;
        blab_assert(config.entries % ways_ == 0,
                    "entries must be a multiple of associativity");
        sets_ = config.entries / ways_;
        setsPow2_ = (sets_ & (sets_ - 1)) == 0;
        setMask_ = sets_ - 1;
    }

    std::size_t ways() const { return ways_; }
    std::size_t sets() const { return sets_; }

    std::size_t
    setOf(ir::Addr tag) const
    {
        // Power-of-two set counts (every geometry the paper and the
        // benches sweep, including the fully-associative single set)
        // reduce the modulo to a mask; the division only survives for
        // exotic set counts.
        return setsPow2_ ? static_cast<std::size_t>(tag) & setMask_
                         : static_cast<std::size_t>(tag) % sets_;
    }

  private:
    std::size_t ways_ = 0;
    std::size_t sets_ = 0;
    std::size_t setMask_ = 0;
    bool setsPow2_ = false;
};

/** "No way" sentinel shared by the buffer and its index policies. */
inline constexpr std::uint32_t kInvalidWay = 0xffffffffu;

/**
 * Tag -> way index backed by a hash map: memory grows with the
 * resident tags, never with the largest one, so it serves any 64-bit
 * address space. The virtual predictors' index.
 */
class HashTagIndex
{
  public:
    static constexpr const char *kTelemetryName = "indexed";

    void reserve(std::size_t n) { map_.reserve(n); }

    std::uint32_t
    lookup(ir::Addr tag) const
    {
        const auto it = map_.find(tag);
        return it == map_.end() ? kInvalidWay : it->second;
    }

    void set(ir::Addr tag, std::uint32_t way) { map_[tag] = way; }
    void erase(ir::Addr tag) { map_.erase(tag); }
    void clear() { map_.clear(); }

  private:
    std::unordered_map<ir::Addr, std::uint32_t> map_;
};

/**
 * Tag -> way index backed by a flat vector keyed directly by the tag:
 * one load per lookup, no hashing. Memory is proportional to the
 * largest tag ever inserted, so only callers that bound their tags
 * may use it: the replay kernels, which the engine gives only streams
 * whose max pc is below kMaxKernelPc.
 */
class FlatTagIndex
{
  public:
    static constexpr const char *kTelemetryName = "flat";

    void reserve(std::size_t n) { slots_.reserve(n); }

    std::uint32_t
    lookup(ir::Addr tag) const
    {
        return tag < slots_.size() ? slots_[static_cast<std::size_t>(
                                         tag)]
                                   : kInvalidWay;
    }

    void
    set(ir::Addr tag, std::uint32_t way)
    {
        if (tag >= slots_.size())
            slots_.resize(static_cast<std::size_t>(tag) + 1,
                          kInvalidWay);
        slots_[static_cast<std::size_t>(tag)] = way;
    }

    void
    erase(ir::Addr tag)
    {
        if (tag < slots_.size())
            slots_[static_cast<std::size_t>(tag)] = kInvalidWay;
    }

    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), kInvalidWay);
    }

  private:
    std::vector<std::uint32_t> slots_;
};

/**
 * The buffer. @tparam Entry is the payload stored per tag (e.g. a
 * target address, or target + counter for the CBTB). @tparam
 * IndexPolicy is the tag -> way index; see HashTagIndex /
 * FlatTagIndex.
 */
template <typename Entry, typename IndexPolicy = HashTagIndex>
class AssociativeBuffer
{
  public:
    explicit AssociativeBuffer(const BufferConfig &config)
        : config_(config), geometry_(config), rng_(config.seed)
    {
        ways_.assign(config.entries, Way{});
        index_.reserve(config.entries);
        freeHead_.assign(geometry_.sets(), kInvalidWay);
        resetFreeLists();
    }

    ~AssociativeBuffer() { flushTelemetry(); }

    /**
     * Look up a tag; touches LRU state on hit.
     * @return pointer to the payload, or nullptr on miss.
     */
    Entry *
    find(ir::Addr tag)
    {
        ++counts_.finds;
        const std::uint32_t idx = index_.lookup(tag);
        if (idx == kInvalidWay)
            return nullptr;
        Way &way = ways_[idx];
        ++counts_.hits;
        ++counts_.touches;
        way.lastUse = ++tick_;
        return &way.entry;
    }

    /** Look up without touching replacement state (for inspection). */
    const Entry *
    peek(ir::Addr tag) const
    {
        const std::uint32_t idx = index_.lookup(tag);
        return idx == kInvalidWay ? nullptr : &ways_[idx].entry;
    }

    /**
     * Insert a tag (which must not be resident), evicting a victim by
     * the configured policy when the set is full.
     * @return reference to the fresh (default-constructed) payload.
     */
    Entry &
    insert(ir::Addr tag)
    {
        blab_assert(index_.lookup(tag) == kInvalidWay,
                    "insert of already-resident tag");
        ++counts_.inserts;
        const std::size_t set = setOf(tag);
        std::uint32_t idx = popFree(set);
        if (idx == kInvalidWay) {
            idx = pickVictim(set);
            index_.erase(ways_[idx].tag);
            ++counts_.evictions;
        }
        Way &way = ways_[idx];
        way.valid = true;
        way.tag = tag;
        way.entry = Entry{};
        way.lastUse = ++tick_;
        way.inserted = tick_;
        index_.set(tag, idx);
        return way.entry;
    }

    /** Remove a tag if resident (the SBTB's delete-on-fallthrough). */
    void
    erase(ir::Addr tag)
    {
        const std::uint32_t idx = index_.lookup(tag);
        if (idx == kInvalidWay)
            return;
        ++counts_.erases;
        ways_[idx].valid = false;
        pushFree(setOf(tag), idx);
        index_.erase(tag);
    }

    /** Invalidate everything (context switch). */
    void
    flush()
    {
        ++counts_.flushes;
        for (Way &way : ways_)
            way.valid = false;
        index_.clear();
        resetFreeLists();
    }

    /** Number of valid entries (for tests). */
    std::size_t
    occupancy() const
    {
        std::size_t count = 0;
        for (const Way &way : ways_)
            count += way.valid ? 1 : 0;
        return count;
    }

    const BufferConfig &config() const { return config_; }

  private:
    struct Way
    {
        bool valid = false;
        /** Next way of the set's free list (invalid ways only). */
        std::uint32_t nextFree = kInvalidWay;
        ir::Addr tag = ir::kNoAddr;
        std::uint64_t lastUse = 0;
        std::uint64_t inserted = 0;
        Entry entry{};
    };

    std::size_t setOf(ir::Addr tag) const { return geometry_.setOf(tag); }

    /** The victim in a full @p set: a random way, or the way with the
     *  oldest use (LRU) or insertion (FIFO) stamp. Stamps are unique,
     *  so the oldest is too. */
    std::uint32_t
    pickVictim(std::size_t set)
    {
        const std::size_t ways = geometry_.ways();
        const std::size_t base = set * ways;
        if (config_.policy == ReplacementPolicy::Random)
            return static_cast<std::uint32_t>(base + rng_.nextBelow(ways));
        const bool lru = config_.policy == ReplacementPolicy::Lru;
        std::size_t victim = base;
        for (std::size_t w = 1; w < ways; ++w) {
            const Way &way = ways_[base + w];
            const Way &best = ways_[victim];
            if (lru ? way.lastUse < best.lastUse
                    : way.inserted < best.inserted)
                victim = base + w;
        }
        return static_cast<std::uint32_t>(victim);
    }

    void
    pushFree(std::size_t set, std::uint32_t idx)
    {
        if (config_.policy != ReplacementPolicy::Random ||
            freeHead_[set] == kInvalidWay || idx < freeHead_[set]) {
            ways_[idx].nextFree = freeHead_[set];
            freeHead_[set] = idx;
            return;
        }
        // Random victims are drawn by slot, so a tag must land in the
        // slot a first-invalid-way fill would give it: keep this free
        // list ascending. (LRU and FIFO pick victims by stamp, not
        // slot, so they keep the O(1) stack above.)
        std::uint32_t prev = freeHead_[set];
        while (ways_[prev].nextFree != kInvalidWay &&
               ways_[prev].nextFree < idx)
            prev = ways_[prev].nextFree;
        ways_[idx].nextFree = ways_[prev].nextFree;
        ways_[prev].nextFree = idx;
    }

    std::uint32_t
    popFree(std::size_t set)
    {
        const std::uint32_t idx = freeHead_[set];
        if (idx != kInvalidWay) {
            freeHead_[set] = ways_[idx].nextFree;
            ways_[idx].nextFree = kInvalidWay;
        }
        return idx;
    }

    void
    resetFreeLists()
    {
        const std::size_t ways = geometry_.ways();
        for (std::size_t set = 0; set < geometry_.sets(); ++set) {
            freeHead_[set] = kInvalidWay;
            // Push in reverse so ways pop in ascending slot order.
            for (std::size_t w = ways; w-- > 0;)
                pushFree(set, static_cast<std::uint32_t>(set * ways + w));
        }
    }

    /**
     * Per-instance event tallies, plain integers so the hot path never
     * touches a shared atomic; folded into the registry once, on
     * destruction. Buffers are owned by a single replay worker, so no
     * synchronisation is needed until the flush.
     */
    struct LocalCounts
    {
        std::uint64_t finds = 0;
        std::uint64_t hits = 0;
        std::uint64_t touches = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;
        std::uint64_t erases = 0;
        std::uint64_t flushes = 0;
    };

    void
    flushTelemetry()
    {
        if (!obs::enabled()) {
            counts_ = LocalCounts{};
            return;
        }
        auto &reg = obs::Registry::global();
        const std::string prefix = std::string("predict.buffer.") +
                                   IndexPolicy::kTelemetryName + ".";
        reg.counter(prefix + "finds").add(counts_.finds);
        reg.counter(prefix + "hits").add(counts_.hits);
        reg.counter(prefix + "lru_touches").add(counts_.touches);
        reg.counter(prefix + "inserts").add(counts_.inserts);
        reg.counter(prefix + "evictions").add(counts_.evictions);
        reg.counter(prefix + "erases").add(counts_.erases);
        reg.counter(prefix + "flushes").add(counts_.flushes);
        counts_ = LocalCounts{};
    }

    BufferConfig config_;
    BufferGeometry geometry_;
    LocalCounts counts_;
    std::uint64_t tick_ = 0;
    std::vector<Way> ways_;
    IndexPolicy index_;
    /** Per set, the first way of its free list. */
    std::vector<std::uint32_t> freeHead_;
    Rng rng_;
};

} // namespace branchlab::predict

#endif // BRANCHLAB_PREDICT_ASSOC_BUFFER_HH
