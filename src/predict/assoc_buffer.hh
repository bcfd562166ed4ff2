/**
 * @file
 * A set-associative tagged buffer, the hardware substrate shared by
 * the SBTB and CBTB (and usable for any address-tagged structure).
 *
 * The paper's buffers are 256-entry fully associative with LRU
 * replacement; geometry and policy are parameterised here so the
 * ablation benches can sweep them.
 *
 * Two lookup strategies are provided. The linear strategy scans the
 * ways of a set, which models the hardware directly and is fastest
 * for the small sets the geometry ablation sweeps. The indexed
 * strategy keeps a tag -> way hash index plus intrusive per-set
 * recency/FIFO lists, making find/insert/erase O(1) -- essential for
 * the paper's 256-way fully-associative geometry, where a linear scan
 * pays up to 256 comparisons for every one of millions of branch
 * events. Real BTBs resolve a lookup by indexing with (hashed) tag
 * bits rather than scanning, so the indexed strategy is also the more
 * faithful model. Both strategies implement identical replacement
 * semantics; tests replay randomized traces through both and demand
 * bit-identical behaviour.
 *
 * Telemetry: each buffer tallies finds/hits/LRU-touches/inserts/
 * evictions/erases/flushes in plain per-instance integers (zero cost
 * on the per-event path) and folds them into the global registry on
 * destruction under `predict.buffer.<linear|indexed>.<metric>`, so
 * the two lookup strategies are accounted separately.
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

/** How lookups locate a tag within its set. */
enum class LookupStrategy
{
    Auto,    ///< Indexed for wide sets, linear for narrow ones.
    Linear,  ///< Always scan the ways of the set.
    Indexed, ///< Always use the tag -> way hash index.
};

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
    /** Lookup implementation (behaviourally identical either way). */
    LookupStrategy lookup = LookupStrategy::Auto;

    bool operator==(const BufferConfig &) const = default;
};

/** "No way" sentinel shared by the buffer and its index policies. */
inline constexpr std::uint32_t kInvalidWay = 0xffffffffu;

/**
 * Tag -> way index backed by a hash map: works for any 64-bit address
 * space. The default policy, and the one the `indexed` lookup
 * strategy's telemetry has always been accounted under.
 */
class HashTagIndex
{
  public:
    static constexpr const char *kTelemetryName = "indexed";
    /** Keep the intrusive recency lists (O(1) eviction). */
    static constexpr bool kTimestampReplacement = false;

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
 * one load per lookup, no hashing. Only sensible when tags live in a
 * small dense address space (the replay kernels guarantee this by
 * checking the trace's maxPc before choosing it); memory is
 * proportional to the largest tag ever inserted.
 *
 * Both policies are pure point-lookup structures -- never iterated,
 * never consulted for victim choice -- so swapping them cannot change
 * replacement behaviour.
 */
class FlatTagIndex
{
  public:
    static constexpr const char *kTelemetryName = "flat";
    /**
     * Replacement state is the per-way timestamps alone: an LRU touch
     * is one store (no list splice on the per-event path), and the
     * victim on a full set is found by scanning the set for the
     * minimum stamp -- the same rule the linear strategy uses, and
     * provably the same way the recency list's head would name
     * (timestamps are unique and monotonic). Eviction goes from O(1)
     * to O(assoc), but evictions are rare while finds are the replay
     * kernels' hottest operation.
     */
    static constexpr bool kTimestampReplacement = true;

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
 * IndexPolicy is the tag -> way structure the indexed lookup strategy
 * uses; see HashTagIndex / FlatTagIndex.
 */
template <typename Entry, typename IndexPolicy = HashTagIndex>
class AssociativeBuffer
{
  public:
    explicit AssociativeBuffer(const BufferConfig &config)
        : config_(config), rng_(config.seed)
    {
        blab_assert(config.entries > 0, "buffer needs entries");
        const std::size_t assoc = config.associativity == 0
                                      ? config.entries
                                      : config.associativity;
        blab_assert(config.entries % assoc == 0,
                    "entries must be a multiple of associativity");
        assoc_ = assoc;
        numSets_ = config.entries / assoc;
        setsPow2_ = (numSets_ & (numSets_ - 1)) == 0;
        setMask_ = numSets_ - 1;
        ways_.assign(config.entries, Way{});
        indexed_ = config.lookup == LookupStrategy::Indexed ||
                   (config.lookup == LookupStrategy::Auto &&
                    assoc_ >= kAutoIndexAssociativity);
        if (indexed_) {
            index_.reserve(config.entries);
            if constexpr (!IndexPolicy::kTimestampReplacement) {
                validHead_.assign(numSets_, kNullWay);
                validTail_.assign(numSets_, kNullWay);
            }
            freeHead_.assign(numSets_, kNullWay);
            resetFreeLists();
        }
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
        if (indexed_) {
            const std::uint32_t idx = index_.lookup(tag);
            if (idx == kNullWay)
                return nullptr;
            Way &way = ways_[idx];
            ++counts_.hits;
            ++counts_.touches;
            way.lastUse = ++tick_;
            if constexpr (!IndexPolicy::kTimestampReplacement) {
                if (config_.policy == ReplacementPolicy::Lru)
                    moveToTail(setOf(tag), idx);
            }
            return &way.entry;
        }
        Way *way = findWayLinear(tag);
        if (way == nullptr)
            return nullptr;
        ++counts_.hits;
        ++counts_.touches;
        way->lastUse = ++tick_;
        return &way->entry;
    }

    /** Look up without touching replacement state (for inspection). */
    const Entry *
    peek(ir::Addr tag) const
    {
        if (indexed_) {
            const std::uint32_t idx = index_.lookup(tag);
            return idx == kNullWay ? nullptr : &ways_[idx].entry;
        }
        const std::size_t set = setOf(tag);
        for (std::size_t w = 0; w < assoc_; ++w) {
            const Way &way = ways_[set * assoc_ + w];
            if (way.valid && way.tag == tag)
                return &way.entry;
        }
        return nullptr;
    }

    /**
     * Insert a tag (which must not be resident), evicting a victim by
     * the configured policy when the set is full.
     * @return reference to the fresh (default-constructed) payload.
     */
    Entry &
    insert(ir::Addr tag)
    {
        return indexed_ ? insertIndexed(tag) : insertLinear(tag);
    }

    /** Remove a tag if resident (the SBTB's delete-on-fallthrough). */
    void
    erase(ir::Addr tag)
    {
        if (indexed_) {
            const std::uint32_t idx = index_.lookup(tag);
            if (idx == kNullWay)
                return;
            ++counts_.erases;
            const std::size_t set = setOf(tag);
            if constexpr (!IndexPolicy::kTimestampReplacement)
                unlinkValid(set, idx);
            ways_[idx].valid = false;
            pushFree(set, idx);
            index_.erase(tag);
            return;
        }
        Way *way = findWayLinear(tag);
        if (way != nullptr) {
            ++counts_.erases;
            way->valid = false;
        }
    }

    /** Invalidate everything (context switch). */
    void
    flush()
    {
        ++counts_.flushes;
        for (Way &way : ways_)
            way.valid = false;
        if (indexed_) {
            index_.clear();
            if constexpr (!IndexPolicy::kTimestampReplacement) {
                validHead_.assign(numSets_, kNullWay);
                validTail_.assign(numSets_, kNullWay);
            }
            resetFreeLists();
        }
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

    /** True when the tag -> way hash index is active. */
    bool indexed() const { return indexed_; }

    const BufferConfig &config() const { return config_; }

  private:
    static constexpr std::uint32_t kNullWay = kInvalidWay;
    /** Auto mode switches to the index at this set width. */
    static constexpr std::size_t kAutoIndexAssociativity = 16;

    struct Way
    {
        bool valid = false;
        ir::Addr tag = ir::kNoAddr;
        std::uint64_t lastUse = 0;
        std::uint64_t inserted = 0;
        /** Intrusive links for the indexed strategy: the per-set valid
         *  list (recency/FIFO order) or the per-set free list. */
        std::uint32_t prevWay = kNullWay;
        std::uint32_t nextWay = kNullWay;
        Entry entry{};
    };

    std::size_t
    setOf(ir::Addr tag) const
    {
        // Power-of-two set counts (every geometry the paper and the
        // benches sweep, including the fully-associative single set)
        // reduce the modulo to a mask; the division only survives for
        // exotic set counts.
        return setsPow2_ ? static_cast<std::size_t>(tag) & setMask_
                         : static_cast<std::size_t>(tag) % numSets_;
    }

    Way *
    findWayLinear(ir::Addr tag)
    {
        const std::size_t set = setOf(tag);
        for (std::size_t w = 0; w < assoc_; ++w) {
            Way &way = ways_[set * assoc_ + w];
            if (way.valid && way.tag == tag)
                return &way;
        }
        return nullptr;
    }

    // ---- Linear strategy (scan-based, models the hardware). ----

    Entry &
    insertLinear(ir::Addr tag)
    {
        blab_assert(findWayLinear(tag) == nullptr,
                    "insert of already-resident tag");
        ++counts_.inserts;
        const std::size_t set = setOf(tag);
        Way *victim = nullptr;
        for (std::size_t w = 0; w < assoc_; ++w) {
            Way &way = ways_[set * assoc_ + w];
            if (!way.valid) {
                victim = &way;
                break;
            }
        }
        if (victim == nullptr) {
            victim = pickVictimLinear(set);
            ++counts_.evictions;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->entry = Entry{};
        victim->lastUse = ++tick_;
        victim->inserted = tick_;
        return victim->entry;
    }

    Way *
    pickVictimLinear(std::size_t set)
    {
        Way *base = &ways_[set * assoc_];
        switch (config_.policy) {
          case ReplacementPolicy::Lru: {
            Way *victim = base;
            for (std::size_t w = 1; w < assoc_; ++w) {
                if (base[w].lastUse < victim->lastUse)
                    victim = &base[w];
            }
            return victim;
          }
          case ReplacementPolicy::Fifo: {
            Way *victim = base;
            for (std::size_t w = 1; w < assoc_; ++w) {
                if (base[w].inserted < victim->inserted)
                    victim = &base[w];
            }
            return victim;
          }
          case ReplacementPolicy::Random:
            return &base[rng_.nextBelow(assoc_)];
        }
        blab_panic("unreachable replacement policy");
    }

    // ---- Indexed strategy (hash index + intrusive lists). ----
    //
    // Per set, valid ways form a doubly-linked list ordered oldest to
    // newest: insertion appends at the tail, an LRU hit moves the way
    // back to the tail, and FIFO never reorders. The head is therefore
    // exactly the way the linear strategy's timestamp scan would pick,
    // and the Random policy draws the identical rng sequence because
    // the free list is empty precisely when the seed code found no
    // invalid way.

    Entry &
    insertIndexed(ir::Addr tag)
    {
        blab_assert(index_.lookup(tag) == kNullWay,
                    "insert of already-resident tag");
        ++counts_.inserts;
        const std::size_t set = setOf(tag);
        std::uint32_t idx = popFree(set);
        if (idx == kNullWay) {
            idx = IndexPolicy::kTimestampReplacement
                      ? pickVictimTimestamp(set)
                      : pickVictimIndexed(set);
            index_.erase(ways_[idx].tag);
            if constexpr (!IndexPolicy::kTimestampReplacement)
                unlinkValid(set, idx);
            ++counts_.evictions;
        }
        Way &way = ways_[idx];
        way.valid = true;
        way.tag = tag;
        way.entry = Entry{};
        way.lastUse = ++tick_;
        way.inserted = tick_;
        if constexpr (!IndexPolicy::kTimestampReplacement)
            appendValid(set, idx);
        index_.set(tag, idx);
        return way.entry;
    }

    std::uint32_t
    pickVictimIndexed(std::size_t set)
    {
        if (config_.policy == ReplacementPolicy::Random) {
            // The set is full, so any way in it is a valid victim.
            return static_cast<std::uint32_t>(set * assoc_ +
                                              rng_.nextBelow(assoc_));
        }
        return validHead_[set]; // LRU / FIFO: the oldest way
    }

    /** Victim by timestamp scan (timestamp-replacement policies):
     *  the unique minimum stamp names exactly the way the recency
     *  list's head would. */
    std::uint32_t
    pickVictimTimestamp(std::size_t set)
    {
        const std::size_t base = set * assoc_;
        if (config_.policy == ReplacementPolicy::Random) {
            return static_cast<std::uint32_t>(base +
                                              rng_.nextBelow(assoc_));
        }
        const bool lru = config_.policy == ReplacementPolicy::Lru;
        std::size_t victim = base;
        for (std::size_t w = 1; w < assoc_; ++w) {
            const Way &way = ways_[base + w];
            const Way &best = ways_[victim];
            if (lru ? way.lastUse < best.lastUse
                    : way.inserted < best.inserted)
                victim = base + w;
        }
        return static_cast<std::uint32_t>(victim);
    }

    void
    appendValid(std::size_t set, std::uint32_t idx)
    {
        Way &way = ways_[idx];
        way.prevWay = validTail_[set];
        way.nextWay = kNullWay;
        if (validTail_[set] != kNullWay)
            ways_[validTail_[set]].nextWay = idx;
        else
            validHead_[set] = idx;
        validTail_[set] = idx;
    }

    void
    unlinkValid(std::size_t set, std::uint32_t idx)
    {
        Way &way = ways_[idx];
        if (way.prevWay != kNullWay)
            ways_[way.prevWay].nextWay = way.nextWay;
        else
            validHead_[set] = way.nextWay;
        if (way.nextWay != kNullWay)
            ways_[way.nextWay].prevWay = way.prevWay;
        else
            validTail_[set] = way.prevWay;
        way.prevWay = kNullWay;
        way.nextWay = kNullWay;
    }

    void
    moveToTail(std::size_t set, std::uint32_t idx)
    {
        if (validTail_[set] == idx)
            return;
        unlinkValid(set, idx);
        appendValid(set, idx);
    }

    void
    pushFree(std::size_t set, std::uint32_t idx)
    {
        ways_[idx].prevWay = kNullWay;
        if (config_.policy != ReplacementPolicy::Random ||
            freeHead_[set] == kNullWay || idx < freeHead_[set]) {
            ways_[idx].nextWay = freeHead_[set];
            freeHead_[set] = idx;
            return;
        }
        // Random victims are drawn by physical slot, so the slot ->
        // tag mapping must mirror the linear strategy's
        // first-invalid-slot placement: keep this free list sorted
        // ascending. (LRU/FIFO pick victims by logical age, so they
        // keep the O(1) stack above.)
        std::uint32_t prev = freeHead_[set];
        while (ways_[prev].nextWay != kNullWay &&
               ways_[prev].nextWay < idx)
            prev = ways_[prev].nextWay;
        ways_[idx].nextWay = ways_[prev].nextWay;
        ways_[prev].nextWay = idx;
    }

    std::uint32_t
    popFree(std::size_t set)
    {
        const std::uint32_t idx = freeHead_[set];
        if (idx != kNullWay) {
            freeHead_[set] = ways_[idx].nextWay;
            ways_[idx].nextWay = kNullWay;
        }
        return idx;
    }

    void
    resetFreeLists()
    {
        for (std::size_t set = 0; set < numSets_; ++set) {
            freeHead_[set] = kNullWay;
            // Push in reverse so ways pop in ascending slot order,
            // mirroring the linear strategy's first-invalid scan.
            for (std::size_t w = assoc_; w-- > 0;) {
                pushFree(set,
                         static_cast<std::uint32_t>(set * assoc_ + w));
            }
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
        const std::string prefix =
            indexed_ ? std::string("predict.buffer.") +
                           IndexPolicy::kTelemetryName + "."
                     : "predict.buffer.linear.";
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
    LocalCounts counts_;
    std::size_t assoc_ = 0;
    std::size_t numSets_ = 0;
    std::size_t setMask_ = 0;
    bool setsPow2_ = false;
    std::uint64_t tick_ = 0;
    bool indexed_ = false;
    std::vector<Way> ways_;
    IndexPolicy index_;
    std::vector<std::uint32_t> validHead_;
    std::vector<std::uint32_t> validTail_;
    std::vector<std::uint32_t> freeHead_;
    Rng rng_;
};

} // namespace branchlab::predict

#endif // BRANCHLAB_PREDICT_ASSOC_BUFFER_HH
