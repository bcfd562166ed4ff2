/**
 * @file
 * The sweep resume journal: a segmented, content-addressed store of
 * completed grid points, on the trace cache's lifecycle
 * (store::Directory, store/store.hh).
 *
 *  - Completed points accumulate in a pending tail and are sealed
 *    into BLSG *segments* (many records per file) named by their
 *    content hash, `<dir>/<hh>/seg-<hash16>.blsg`.
 *  - Every segment carries a feature-bit-versioned header and a
 *    checksum64 per record; resume `mmap`s each segment once,
 *    validates it, and serves every point lookup from the in-memory
 *    index -- no per-point file I/O.
 *  - A seal is one store::publish(): a crash leaves either nothing or
 *    a complete segment (plus at most the unsealed in-memory tail,
 *    which the resumed run simply re-evaluates). A failed seal warns;
 *    its points stay resumable from memory for the rest of the run.
 *  - Validation failures are classified exactly like trace/cache.*:
 *    **Foreign** (a version or feature bit this reader does not know;
 *    quiet counter, clean re-evaluate) vs **Corrupt** (actual damage;
 *    warning + counter). A corrupt record abandons the rest of its
 *    segment but keeps the verified prefix.
 *  - `--sweep-journal-max-bytes` / BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES
 *    cap the store; eviction is LRU by mtime, ties broken by path, and
 *    never touches a segment sealed by this run.
 *  - Stale `*.tmp-<pid>-<seq>` files from killed runs are reclaimed
 *    on open and by every capped flush.
 *  - The retired v1 format (one unchecksummed `point-<key16>.blsj`
 *    file per point) is never read: its points simply re-evaluate,
 *    which is correct because the journal only holds derivable
 *    results. Stale `.blsj` files still count towards the byte cap,
 *    so a capped journal drains them.
 *
 * Telemetry: sweep.journal.{stores, segments, corrupt, foreign,
 * bytes_mapped} and the store lifecycle's sweep.journal.{evictions,
 * bytes_evicted, tmp_reclaimed, tmp_evicted}.
 */

#ifndef BRANCHLAB_CORE_SWEEP_JOURNAL_HH
#define BRANCHLAB_CORE_SWEEP_JOURNAL_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/store.hh"

namespace branchlab::trace
{
class MappedFile;
}

namespace branchlab::core
{

/** Everything measured for one workload at one grid point. */
struct SweepCell
{
    double sbtbAccuracy = 0.0;
    double sbtbMissRatio = 0.0;
    double cbtbAccuracy = 0.0;
    double cbtbMissRatio = 0.0;
    double fsAccuracy = 0.0;
    /** Table 5's relative code-size increase at the point's
     *  (fsSlots, traceThreshold). */
    double codeIncrease = 0.0;

    bool operator==(const SweepCell &) const = default;
};

/** Bump when the cell encoding or cell semantics change; old entries
 *  then classify as Foreign and simply re-evaluate. v2 added the FS
 *  optimizer level to the point key. */
inline constexpr std::uint64_t kJournalSchemaVersion = 2;

/** Segment container version: the layout of the BLSG header and
 *  record framing. Orthogonal to the schema above (which covers what
 *  a cell means). */
inline constexpr std::uint32_t kJournalSegmentVersion = 1;

/** Feature bits this reader understands. None are defined yet; a
 *  future writer that sets one marks its segments as requiring that
 *  feature, and this reader refuses them as Foreign (never as
 *  corrupt). */
inline constexpr std::uint64_t kJournalKnownFeatureBits = 0;

inline constexpr std::size_t kJournalSegmentHeaderBytes = 64;
/** Bytes per encoded cell (6 little-endian doubles). */
inline constexpr std::size_t kJournalCellBytes = 48;
/** Per-record framing: key(8) + cellCount(4) + pad(4) ... crc(8). */
inline constexpr std::size_t kJournalRecordOverheadBytes = 24;

/**
 * The resume journal. Default-constructed (empty-dir) journals are
 * disabled no-ops. `store()` is thread-safe (the sweep's worker
 * threads journal points concurrently); `open()`, `load()` and
 * `flush()` are serialized by the same lock.
 */
class SweepJournal
{
  public:
    SweepJournal();
    explicit SweepJournal(std::string dir, std::uint64_t maxBytes = 0);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** The environment variable that caps the journal (see
     *  store::resolveMaxBytes). */
    static constexpr const char *kMaxBytesEnv =
        "BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES";

    bool enabled() const { return dir_.enabled(); }
    const std::string &dir() const { return dir_.root(); }
    std::uint64_t maxBytes() const { return dir_.maxBytes(); }

    /**
     * Bring the journal up: scan the directory (reclaiming stale temp
     * files left by killed runs), then map and validate every segment
     * and build the key index. Idempotent; load() and store() call it
     * lazily.
     */
    void open();

    /** Load the cells stored under @p key from the points this run
     *  stored or the mapped segment index. False on miss; damaged or
     *  foreign segments were already refused by open(). */
    bool load(std::uint64_t key, std::vector<SweepCell> &cells);

    /** Buffer @p cells under @p key; segments seal automatically when
     *  the pending tail grows past the flush threshold and on
     *  flush()/destruction. Thread-safe. */
    void store(std::uint64_t key, const std::vector<SweepCell> &cells);

    /** Seal the pending tail (store::publish) and enforce the byte
     *  cap. Called by runSweep() after the grid completes and by the
     *  destructor. */
    void flush();

    /** Mapped-segment observability for tests and the perf
     *  harness. */
    std::size_t mappedSegments() const;
    std::size_t indexedRecords() const;

  private:
    struct Segment;

    void ensureOpenLocked();
    void indexSegmentLocked(std::size_t segment_index);
    void sealLocked();

    mutable std::mutex mutex_;
    store::Directory dir_;
    bool opened_ = false;

    /** A record inside a mapped segment: a borrowed pointer to its
     *  cell bytes (kept alive by segments_). */
    struct IndexEntry
    {
        std::size_t segment = 0;
        const std::uint8_t *cells = nullptr;
        std::uint32_t count = 0;
    };

    std::vector<Segment> segments_;
    std::unordered_map<std::uint64_t, IndexEntry> index_;
    /** Points stored by this run (pending or already sealed): owned
     *  copies, so a load never re-reads what this process wrote. */
    std::unordered_map<std::uint64_t, std::vector<SweepCell>> owned_;
    /** Encoded records awaiting their segment. */
    std::string pendingRecords_;
    std::uint32_t pendingCount_ = 0;
    /** Segments sealed by this run -- never evicted by this run. */
    std::vector<std::string> sealedPaths_;
};

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_SWEEP_JOURNAL_HH
