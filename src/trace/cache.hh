/**
 * @file
 * Persistent trace cache: record a workload's branch stream once,
 * store it on disk keyed by a content hash of everything that
 * determines it, and skip the VM record pass entirely on later runs.
 *
 * Entries live at `<dir>/<hh>/<name>-<hash16>.bltc` in a
 * store::Directory (store/store.hh), which owns the cache's lifecycle:
 * sharding, the durable publish, the LRU touch, stale-temp reclaim and
 * the byte cap. Each file is a BLTC sectioned entry
 * (trace/format.hh): the recorded stream's columns, its run and
 * instruction counts, and one record derived from the stream, the
 * record pass's full per-branch and per-path profile that the Forward
 * Semantic's trace selection and slot filling read, laid out for
 * mmap. A warm load walks the stream neither to decode it nor to
 * re-profile it -- it maps the file, validates it (header and section
 * checksums, section bounds, opcode range, content hash, feature
 * bits, and the profile rows against the event count), and hands
 * replay a zero-copy TraceView over the mapping (trace/view.hh) and
 * the profiler its restored rows. What else a consumer reads is
 * derived from those at map time: the likely map of the
 * profiled-static scheme from the profile's branch rows, and the
 * TraceStats counters from the header's instruction count and the
 * stream's bit-planes. Entries without the profile section
 * (synthetic ones) still map, profile-less and with no likely rows;
 * core::recordWorkload re-records them. Entries of any other format
 * version -- the retired v1, v2 and v3 included -- are refused as
 * foreign and re-recorded.
 *
 * The same entry is the standalone trace file of `branchlab record`
 * and `branchlab replay`: writeEntryFile() is the one durable writer,
 * and mapEntryFile() the one reader.
 *
 * There is one encoded form of a stream, owned or mapped: a cold
 * record's SoaTrace holds exactly the entry's stream sections
 * (trace/soa.hh), so store() writes those bytes verbatim, and a warm
 * hit maps the same bytes back. Cold and warm replay walk the same
 * form through the same TraceView.
 *
 * Invalidation is purely content-addressed: the key hashes the
 * program IR (printed with addresses), the data segment, the layout
 * footprint, the input suite, and the VM configuration (seed, runs,
 * instruction limit, format schema). Any change produces a different
 * hash, so a stale entry can never be served -- it is simply never
 * looked up again, and `load` additionally verifies the hash stored
 * inside the file. Corrupt or unreadable entries soft-fail (warn and
 * re-record); entries of another format version or carrying feature
 * bits this reader does not implement are refused the same way
 * (without the corruption warning -- they are foreign, not broken).
 * Nothing in the load path can abort a run.
 *
 * Writes are atomic and durable: writeEntryFile() streams the entry
 * through an EntryWriter into store::publish(). An optional byte cap
 * (constructor argument, `--trace-cache-max-bytes`, or
 * BRANCHLAB_TRACE_CACHE_MAX_BYTES) bounds the directory: after each
 * store a capped cache reclaims stale temps and never evicts an entry
 * its process mapped or stored (one process-wide set, since every
 * record builds its own TraceCache). A new entry that does not fit
 * beside those is removed at once and evicts nothing (a refusal);
 * any other store evicts least-recently-used untouched entries (loads
 * touch their entry). So a suite that cycles through more than the
 * cap keeps hitting a stable set, and a long-lived process refuses
 * new stores once what it touched fills the cap. 0 means unbounded;
 * an unbounded cache never walks its directory.
 *
 * Besides the functional TraceCacheCounters below, the cache reports
 * telemetry to obs::Registry::global(): `trace_cache.hits`,
 * `.misses`, `.stores`, `.refusals` (new entries the cap removed),
 * `.corrupt_entries` (unreadable, undecodable, or hash-mismatched
 * entries), `.map_failures` (entries that could not be mapped and
 * validated -- the corrupt ones plus foreign refusals),
 * `.bytes_mapped`, `.bytes_written`, and the store
 * lifecycle's `.tmp_evicted` (temp files removed after failed
 * stores), `.tmp_reclaimed` (stale temps of killed runs), `.evictions`
 * and `.bytes_evicted`.
 */

#ifndef BRANCHLAB_TRACE_CACHE_HH
#define BRANCHLAB_TRACE_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/store.hh"
#include "trace/event.hh"
#include "trace/mmap.hh"
#include "trace/soa.hh"
#include "trace/stats.hh"
#include "trace/view.hh"

namespace branchlab::trace
{

/** Streaming FNV-1a 64-bit hasher for cache keys. */
class ContentHasher
{
  public:
    ContentHasher &u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>((value >> (8 * i)) & 0xff));
        return *this;
    }

    ContentHasher &bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i)
            byte(p[i]);
        return *this;
    }

    ContentHasher &str(std::string_view s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::uint64_t digest() const { return hash_; }

  private:
    void byte(unsigned char b)
    {
        hash_ ^= b;
        hash_ *= 0x100000001b3ULL;
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ULL; // FNV offset basis
};

/** One profiled branch site's compiled-in prediction
 *  (predict-layer agnostic), derived from its profile row. */
struct CachedLikely
{
    ir::Addr pc = ir::kNoAddr;
    ir::Addr dominantTarget = ir::kNoAddr;
    bool likelyTaken = false;

    bool operator==(const CachedLikely &) const = default;
};

/**
 * One persisted profile tally (the plain-data form of a
 * profile::BranchCounts): the executions of the branch at `pc` or,
 * in CachedProfile::paths, only those whose preceding branch event
 * was at `prevPc`.
 */
struct CachedProfileRow
{
    ir::Addr pc = ir::kNoAddr;
    /** The context branch (kNoAddr in CachedProfile::branches). */
    ir::Addr prevPc = ir::kNoAddr;
    std::uint64_t taken = 0;
    std::uint64_t notTaken = 0;
    /** Dynamic next-PC distribution: ascending addresses, every count
     *  nonzero. */
    std::vector<std::pair<ir::Addr, std::uint64_t>> next;

    bool operator==(const CachedProfileRow &) const = default;
};

/**
 * A profile::ProgramProfile's complete tallies as canonical plain
 * data (ProgramProfile::exportRows): rows sorted by pc, or by
 * (pc, prevPc) for paths, so equal profiles export equal rows and
 * persist as equal bytes.
 */
struct CachedProfile
{
    std::vector<CachedProfileRow> branches;
    std::vector<CachedProfileRow> paths;
    /** The last folded event's pc, under which the next event would
     *  be tallied (kNoAddr when nothing was folded). */
    ir::Addr lastPc = ir::kNoAddr;

    bool operator==(const CachedProfile &) const = default;
};

/**
 * A validated, mapped entry: the mapping plus resolved section
 * pointers. Immutable and self-contained -- consumers share it by
 * shared_ptr, and the stream stays readable even if the cache file is
 * evicted (the mapping pins the pages). All validation (bounds,
 * checksums, opcode range, hash, feature bits) happened before this
 * object existed, so views over it may treat decode errors as fatal.
 */
struct MappedEntry
{
    std::unique_ptr<MappedFile> file;
    std::uint64_t featureBits = 0;
    std::uint64_t eventCount = 0;
    ir::Addr maxPc = 0;
    const std::uint8_t *ops = nullptr;
    const std::uint8_t *condPlane = nullptr;
    const std::uint8_t *takenPlane = nullptr;
    const std::uint8_t *targetKnownPlane = nullptr;
    const std::uint8_t *anomalyPlane = nullptr;
    const std::uint8_t *deltas = nullptr;
    std::size_t deltasLen = 0;
    const std::uint8_t *anomalyDeltas = nullptr;
    std::size_t anomalyDeltasLen = 0;

    /** A zero-copy view of the mapped stream. */
    TraceView
    view() const
    {
        return TraceView::mapped(
            ops, condPlane, takenPlane, targetKnownPlane, anomalyPlane,
            deltas, deltasLen, anomalyDeltas, anomalyDeltasLen,
            static_cast<std::size_t>(eventCount), maxPc);
    }
};

/**
 * Everything a warm run needs in place of the VM record pass. The
 * stream's sections are held in exactly one of two places:
 *
 *  - `mapped` non-null (every hit): in the mapping, `stream` empty;
 *  - `mapped` null: in the owning SoaTrace `stream` (a cold record
 *    on its way to store()).
 *
 * Either way traceView() gives replay the same decoding view.
 */
struct CachedWorkload
{
    std::uint64_t contentHash = 0;
    /** Number of profiling runs the stream covers. */
    std::uint32_t runs = 0;
    /** Table 1/2's counters. The writer stores only `instructions`;
     *  mapEntryFile() derives the branch counts from the stream's
     *  cond, taken and target-known planes. */
    TraceCounters stats;
    /** The likely map, pc-sorted: mapEntryFile() derives one row per
     *  profile branch row (empty without a profile). The writer
     *  ignores it. */
    std::vector<CachedLikely> likely;
    /** The record pass's full profile (the profile section). Absent
     *  from synthetic entries; store() then writes none. */
    std::optional<CachedProfile> profile;
    /** The owning stream (empty when `mapped` is set); store() writes
     *  its columns verbatim. */
    SoaTrace stream;
    /** The zero-copy mapped stream (warm hits). */
    std::shared_ptr<const MappedEntry> mapped;

    TraceView
    traceView() const
    {
        return mapped ? mapped->view() : TraceView::of(stream);
    }

    std::uint64_t
    eventCount() const
    {
        return mapped ? mapped->eventCount : stream.size();
    }
};

/** Why mapEntryFile refused an entry. */
enum class MapFailure
{
    None,
    /** Unreadable, malformed, checksum- or hash-mismatched. */
    Corrupt,
    /** Another format version, or feature bits this reader does not
     *  implement. */
    Foreign,
};

/**
 * Map and fully validate one entry file, zero-copy. On success fills
 * @p out, its `likely` rows and `stats` derived from what the entry
 * holds (see CachedWorkload), and returns true. On failure returns
 * false with a diagnostic in @p error and the classification in
 * @p failure; never warns, never aborts, and never leaves a mapping
 * behind. The embedded
 * content hash must equal @p expected_hash, the lookup key; a
 * standalone trace file has none and passes std::nullopt, so it is
 * held to the hash its own (checksummed) header declares. Cache
 * consumers go through TraceCache::load.
 */
bool mapEntryFile(const std::string &path,
                  std::optional<std::uint64_t> expected_hash,
                  CachedWorkload &out, std::string &error,
                  MapFailure &failure);

/**
 * Write @p workload (its owning `stream`) as a complete entry at
 * @p path through store::publish(): atomically and durably, into an
 * existing directory. The stream's encoded columns are the entry's
 * sections and are written verbatim. On failure returns false with a
 * diagnostic in @p error and leaves @p path as it was. On success
 * @p bytes_written is the entry's size.
 */
bool writeEntryFile(const std::string &path,
                    const CachedWorkload &workload,
                    std::uint64_t &bytes_written, std::string &error);

/** The profile section's bytes for @p profile (trace/format.hh
 *  documents the layout; exposed so validation tests can plant
 *  well-formed but inconsistent sections). */
std::string encodeProfileSection(const CachedProfile &profile);

/** Hit/miss/store totals across all caches in the process. */
struct TraceCacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
};

TraceCacheCounters traceCacheCounters();
void resetTraceCacheCounters();

/**
 * A cache directory. Default-constructed (or empty-dir) caches are
 * disabled: load always misses and store is a no-op, so callers can
 * consult one unconditionally.
 */
class TraceCache
{
  public:
    TraceCache() = default;
    explicit TraceCache(std::string dir, std::uint64_t max_bytes = 0);

    /** The environment variable that caps the cache (see
     *  store::resolveMaxBytes). */
    static constexpr const char *kMaxBytesEnv =
        "BRANCHLAB_TRACE_CACHE_MAX_BYTES";

    /**
     * Pick the cache directory: @p configured if non-empty, else the
     * BRANCHLAB_TRACE_CACHE environment variable, else "" (disabled).
     */
    static std::string resolveDir(const std::string &configured);

    bool enabled() const { return dir_.enabled(); }
    const std::string &dir() const { return dir_.root(); }
    std::uint64_t maxBytes() const { return dir_.maxBytes(); }

    /** Path of the entry for @p name under @p content_hash (sharded;
     *  see the file comment). */
    std::string entryPath(const std::string &name,
                          std::uint64_t content_hash) const;

    /**
     * Look up @p name / @p content_hash. On a hit, fill @p out and
     * return true (the entry arrives mapped, zero-copy). Misses,
     * corrupt entries, hash mismatches, and foreign entries return
     * false (corruption warns; a mismatch is treated as corruption --
     * the filename already encodes the hash).
     */
    bool load(const std::string &name, std::uint64_t content_hash,
              CachedWorkload &out) const;

    /**
     * Persist @p workload (its owning `stream`) as the entry for
     * @p name, written as writeEntryFile() writes it, creating the
     * shard directory if needed. Failures warn and leave the cache
     * unchanged. A capped cache then removes the new entry again when
     * it does not fit maxBytes() beside the entries this process
     * mapped or stored (`trace_cache.refusals`), and otherwise evicts
     * LRU entries the process never touched until the cache fits.
     */
    void store(const std::string &name,
               const CachedWorkload &workload) const;

  private:
    store::Directory dir_;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_CACHE_HH
