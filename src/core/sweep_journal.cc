#include "core/sweep_journal.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "support/logging.hh"
#include "trace/format.hh"
#include "trace/mmap.hh"

namespace branchlab::core
{

namespace
{

constexpr char kSegmentMagic[4] = {'B', 'L', 'S', 'G'};

/** Seal thresholds: large enough that a multi-thousand-point sweep
 *  produces a handful of segments, small enough that a long-running
 *  sweep publishes durable progress well before it finishes. */
constexpr std::uint32_t kSealRecordThreshold = 1024;
constexpr std::size_t kSealByteThreshold = std::size_t{1} << 20;

/** A record can cover at most this many workloads; anything larger in
 *  a segment is framing damage, not data. */
constexpr std::uint32_t kMaxCellsPerRecord = 4096;

/** Temp files older than this are orphans of a killed run. Fifteen
 *  minutes is far beyond any single store, and young temps may belong
 *  to a live concurrent sweep sharing the journal. */
constexpr std::chrono::minutes kTempGracePeriod{15};

// Same role as the trace cache's sequence: the temp suffix is
// <pid>-<sequence>, so no two in-flight writers -- threads or
// processes -- ever share a temp file.
std::atomic<std::uint64_t> g_tmpSequence{0};

// Fsync failure is environmental (a filesystem without fsync) and
// would otherwise warn once per sealed segment; latch it.
std::atomic<bool> g_fsyncWarned{false};

struct JournalTelemetry
{
    obs::Counter &stores =
        obs::Registry::global().counter("sweep.journal.stores");
    obs::Counter &segments =
        obs::Registry::global().counter("sweep.journal.segments");
    obs::Counter &corrupt =
        obs::Registry::global().counter("sweep.journal.corrupt");
    obs::Counter &foreign =
        obs::Registry::global().counter("sweep.journal.foreign");
    obs::Counter &evictions =
        obs::Registry::global().counter("sweep.journal.evictions");
    obs::Counter &bytesMapped =
        obs::Registry::global().counter("sweep.journal.bytes_mapped");
    obs::Counter &bytesEvicted =
        obs::Registry::global().counter("sweep.journal.bytes_evicted");
    obs::Counter &tmpReclaimed =
        obs::Registry::global().counter("sweep.journal.tmp_reclaimed");
};

JournalTelemetry &
journalTelemetry()
{
    static JournalTelemetry *telemetry = new JournalTelemetry;
    return *telemetry;
}

void
putU32(std::string &out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

void
putF64(std::string &out, double value)
{
    putU64(out, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t
loadU64Le(const std::uint8_t *p)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return value;
}

std::uint32_t
loadU32Le(const std::uint8_t *p)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return value;
}

double
loadF64Le(const std::uint8_t *p)
{
    return std::bit_cast<double>(loadU64Le(p));
}

std::string
hash16(std::uint64_t value)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

void
appendCell(std::string &out, const SweepCell &cell)
{
    putF64(out, cell.sbtbAccuracy);
    putF64(out, cell.sbtbMissRatio);
    putF64(out, cell.cbtbAccuracy);
    putF64(out, cell.cbtbMissRatio);
    putF64(out, cell.fsAccuracy);
    putF64(out, cell.codeIncrease);
}

SweepCell
decodeCell(const std::uint8_t *p)
{
    SweepCell cell;
    cell.sbtbAccuracy = loadF64Le(p);
    cell.sbtbMissRatio = loadF64Le(p + 8);
    cell.cbtbAccuracy = loadF64Le(p + 16);
    cell.cbtbMissRatio = loadF64Le(p + 24);
    cell.fsAccuracy = loadF64Le(p + 32);
    cell.codeIncrease = loadF64Le(p + 40);
    return cell;
}

/** Durability helper, the trace cache's: open + fsync + close. */
bool
syncFd(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

/** Fsync with the process-wide warn-once latch. @return true when
 *  the caller may publish (sync succeeded, or the environment cannot
 *  sync and we already said so). */
bool
syncForPublish(const std::string &path)
{
    if (syncFd(path))
        return true;
    if (!g_fsyncWarned.exchange(true)) {
        blab_warn("cannot fsync sweep journal file '", path,
                  "'; journal durability is degraded on this "
                  "filesystem (further fsync failures are silent)");
    }
    return false;
}

std::string
tempName(const std::string &path)
{
    return path + ".tmp-" +
           std::to_string(static_cast<long>(::getpid())) + "-" +
           std::to_string(g_tmpSequence.fetch_add(
               1, std::memory_order_relaxed));
}

/** Write + fsync + rename + directory fsync. @return true when the
 *  complete file is visible under @p path. */
bool
publishAtomically(const std::string &path, const std::string &data,
                  const char *what)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
        blab_warn("cannot create sweep journal directory '",
                  parent.string(), "': ", ec.message());
        return false;
    }
    const std::string tmp = tempName(path);
    {
        std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
        if (!file) {
            blab_warn("cannot write ", what, " '", tmp, "'");
            return false;
        }
        file.write(data.data(),
                   static_cast<std::streamsize>(data.size()));
        if (!file) {
            blab_warn(what, " write failed for '", tmp, "'");
            file.close();
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    // Durability before visibility: the bytes reach the disk before
    // the rename can publish the name, and the directory entry is
    // synced after. A crash leaves either nothing or the complete
    // file. On a filesystem that cannot fsync we still publish (the
    // record checksums catch a torn segment on the next open).
    syncForPublish(tmp);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        blab_warn(what, " rename failed for '", path, "': ",
                  ec.message());
        std::filesystem::remove(tmp, ec);
        return false;
    }
    syncForPublish(parent.string());
    return true;
}

} // namespace

struct SweepJournal::Segment
{
    std::string path;
    std::unique_ptr<trace::MappedFile> file;
};

SweepJournal::SweepJournal() = default;

SweepJournal::SweepJournal(std::string dir, std::uint64_t maxBytes)
    : dir_(std::move(dir)), maxBytes_(maxBytes)
{}

SweepJournal::~SweepJournal()
{
    flush();
}

std::uint64_t
SweepJournal::resolveMaxBytes(std::uint64_t configured)
{
    if (configured != 0)
        return configured;
    if (const char *env =
            std::getenv("BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES")) {
        char *end = nullptr;
        const unsigned long long parsed = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0')
            return parsed;
        blab_warn("ignoring unparsable "
                  "BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES='",
                  env, "'");
    }
    return 0;
}

std::size_t
SweepJournal::mappedSegments() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return segments_.size();
}

std::size_t
SweepJournal::indexedRecords() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

void
SweepJournal::open()
{
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    ensureOpenLocked();
}

void
SweepJournal::ensureOpenLocked()
{
    if (opened_ || !enabled())
        return;
    opened_ = true;
    std::error_code ec;
    if (!std::filesystem::exists(dir_, ec))
        return;
    reclaimStaleTempsLocked();
    mapSegmentsLocked();
}

void
SweepJournal::reclaimStaleTempsLocked()
{
    std::error_code ec;
    const auto now = std::filesystem::file_time_type::clock::now();
    std::vector<std::filesystem::path> stale;
    for (std::filesystem::recursive_directory_iterator
             it(dir_,
                std::filesystem::directory_options::
                    skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().filename().string().find(".tmp-") ==
            std::string::npos)
            continue;
        std::error_code file_ec;
        if (!it->is_regular_file(file_ec) || file_ec)
            continue;
        const auto mtime = it->last_write_time(file_ec);
        if (file_ec)
            continue;
        // A young temp may belong to a live writer sharing this
        // journal; only orphans past the grace period are reclaimed.
        if (now - mtime < kTempGracePeriod)
            continue;
        stale.push_back(it->path());
    }
    for (const std::filesystem::path &path : stale) {
        std::error_code remove_ec;
        if (std::filesystem::remove(path, remove_ec) && !remove_ec) {
            journalTelemetry().tmpReclaimed.add(1);
            blab_inform("sweep journal reclaimed stale temp '",
                        path.string(), "'");
        }
    }
}

void
SweepJournal::mapSegmentsLocked()
{
    std::error_code ec;
    std::vector<std::string> paths;
    for (std::filesystem::recursive_directory_iterator
             it(dir_,
                std::filesystem::directory_options::
                    skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() != ".blsg")
            continue;
        std::error_code file_ec;
        if (!it->is_regular_file(file_ec) || file_ec)
            continue;
        paths.push_back(it->path().string());
    }
    // Deterministic mapping order (and therefore a deterministic
    // index when keys collide across segments).
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths) {
        std::string error;
        std::unique_ptr<trace::MappedFile> file =
            trace::MappedFile::open(path, error);
        if (!file) {
            journalTelemetry().corrupt.add(1);
            blab_warn("corrupt sweep journal segment '", path, "' (",
                      error, "); affected points re-evaluate");
            continue;
        }
        journalTelemetry().bytesMapped.add(file->size());
        segments_.push_back(Segment{path, std::move(file)});
        indexSegmentLocked(segments_.size() - 1);
    }
}

void
SweepJournal::indexSegmentLocked(std::size_t segment_index)
{
    const Segment &segment = segments_[segment_index];
    const std::uint8_t *data = segment.file->data();
    const std::size_t size = segment.file->size();
    const std::string &path = segment.path;

    const auto corrupt = [&](const std::string &why) {
        journalTelemetry().corrupt.add(1);
        blab_warn("corrupt sweep journal segment '", path, "' (", why,
                  "); affected points re-evaluate");
    };
    const auto foreign = [&](const std::string &why) {
        journalTelemetry().foreign.add(1);
        blab_inform("sweep journal segment '", path,
                    "' was written by a different build (", why,
                    "); affected points re-evaluate");
    };

    if (size < kJournalSegmentHeaderBytes) {
        corrupt("truncated header");
        return;
    }
    if (std::memcmp(data, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
        corrupt("bad magic");
        return;
    }
    // Order matters: a future container version may lay the header
    // out differently, so the version classifies before any other
    // field is trusted; unknown feature bits and schemas are likewise
    // Foreign, never corrupt.
    const std::uint32_t version = loadU32Le(data + 4);
    if (version != kJournalSegmentVersion) {
        foreign("segment version " + std::to_string(version));
        return;
    }
    const std::uint64_t feature_bits = loadU64Le(data + 8);
    if ((feature_bits & ~kJournalKnownFeatureBits) != 0) {
        std::ostringstream os;
        os << "unknown feature bits 0x" << std::hex
           << (feature_bits & ~kJournalKnownFeatureBits);
        foreign(os.str());
        return;
    }
    const std::uint64_t schema = loadU64Le(data + 16);
    if (schema != kJournalSchemaVersion) {
        foreign("cell schema " + std::to_string(schema));
        return;
    }
    const std::uint32_t record_count = loadU32Le(data + 24);
    const std::uint64_t records_length = loadU64Le(data + 32);

    // A truncated segment still yields its verified prefix: walk to
    // whichever comes first, the declared end or the file's.
    const std::size_t end = std::min(
        size, kJournalSegmentHeaderBytes +
                  static_cast<std::size_t>(std::min(
                      records_length,
                      static_cast<std::uint64_t>(
                          size - kJournalSegmentHeaderBytes))));
    std::size_t pos = kJournalSegmentHeaderBytes;
    std::uint32_t decoded = 0;
    for (; decoded < record_count; ++decoded) {
        if (pos + 16 > end)
            break;
        const std::uint64_t key = loadU64Le(data + pos);
        const std::uint32_t cell_count = loadU32Le(data + pos + 8);
        if (cell_count == 0 || cell_count > kMaxCellsPerRecord)
            break;
        const std::size_t record_bytes =
            kJournalRecordOverheadBytes +
            static_cast<std::size_t>(cell_count) * kJournalCellBytes;
        if (pos + record_bytes > end)
            break;
        const std::size_t summed = record_bytes - 8;
        if (trace::checksum64(data + pos, summed) !=
            loadU64Le(data + pos + summed))
            break;
        index_[key] =
            IndexEntry{segment_index, data + pos + 16, cell_count};
        pos += record_bytes;
    }
    if (decoded != record_count ||
        records_length !=
            static_cast<std::uint64_t>(
                pos - kJournalSegmentHeaderBytes) ||
        kJournalSegmentHeaderBytes + records_length != size) {
        corrupt("record " + std::to_string(decoded) + " of " +
                std::to_string(record_count) +
                " failed validation; keeping the verified prefix");
    }
}

bool
SweepJournal::load(std::uint64_t key, std::vector<SweepCell> &cells)
{
    if (!enabled())
        return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    ensureOpenLocked();

    // Points this run stored (sealed or still pending).
    const auto owned = owned_.find(key);
    if (owned != owned_.end()) {
        cells = owned->second;
        return true;
    }

    const auto it = index_.find(key);
    if (it != index_.end()) {
        cells.clear();
        cells.reserve(it->second.count);
        for (std::uint32_t c = 0; c < it->second.count; ++c)
            cells.push_back(
                decodeCell(it->second.cells + c * kJournalCellBytes));
        // LRU touch: resuming from a segment makes it recently used.
        std::error_code ec;
        std::filesystem::last_write_time(
            segments_[it->second.segment].path,
            std::filesystem::file_time_type::clock::now(), ec);
        return true;
    }
    return false;
}

void
SweepJournal::store(std::uint64_t key,
                    const std::vector<SweepCell> &cells)
{
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    ensureOpenLocked();
    putU64(pendingRecords_, key);
    putU32(pendingRecords_,
           static_cast<std::uint32_t>(cells.size()));
    putU32(pendingRecords_, 0); // pad: cells stay 8-byte aligned
    const std::size_t record_start =
        pendingRecords_.size() - 16;
    for (const SweepCell &cell : cells)
        appendCell(pendingRecords_, cell);
    putU64(pendingRecords_,
           trace::checksum64(pendingRecords_.data() + record_start,
                             pendingRecords_.size() - record_start));
    ++pendingCount_;
    owned_[key] = cells;
    journalTelemetry().stores.add(1);
    if (pendingCount_ >= kSealRecordThreshold ||
        pendingRecords_.size() >= kSealByteThreshold)
        sealLocked();
}

void
SweepJournal::sealLocked()
{
    if (pendingCount_ == 0)
        return;
    std::string segment;
    segment.reserve(kJournalSegmentHeaderBytes +
                    pendingRecords_.size());
    segment.append(kSegmentMagic, sizeof(kSegmentMagic));
    putU32(segment, kJournalSegmentVersion);
    putU64(segment, 0); // feature bits: none defined yet
    putU64(segment, kJournalSchemaVersion);
    putU32(segment, pendingCount_);
    putU32(segment, 0); // reserved
    putU64(segment, pendingRecords_.size());
    while (segment.size() < kJournalSegmentHeaderBytes)
        segment.push_back(0);
    segment += pendingRecords_;

    // Content-hash naming, like the trace cache: the shard is the
    // first two hex digits, and re-sealing identical content is an
    // idempotent overwrite.
    const std::uint64_t content_hash =
        trace::checksum64(segment.data(), segment.size());
    const std::string name = hash16(content_hash);
    const std::string path =
        (std::filesystem::path(dir_) / name.substr(0, 2) /
         ("seg-" + name + ".blsg"))
            .string();
    if (publishAtomically(path, segment, "sweep journal segment")) {
        journalTelemetry().segments.add(1);
        sealedPaths_.push_back(
            std::filesystem::path(path).lexically_normal().string());
        blab_inform("sweep journal sealed '", path, "' (",
                    pendingCount_, " points, ", segment.size(),
                    " bytes)");
    }
    // Either way the records are consumed: on failure the points stay
    // resumable from owned_ within this run and re-evaluate after it.
    pendingRecords_.clear();
    pendingCount_ = 0;
}

void
SweepJournal::flush()
{
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    sealLocked();
    enforceByteCapLocked();
}

void
SweepJournal::enforceByteCapLocked()
{
    if (maxBytes_ == 0)
        return;
    struct Row
    {
        std::filesystem::path path;
        std::uint64_t size = 0;
        std::uint64_t records = 1;
        std::filesystem::file_time_type mtime;
    };
    std::vector<Row> rows;
    std::uint64_t total = 0;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator
             it(dir_,
                std::filesystem::directory_options::
                    skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        // Stale point files of the retired v1 format still count, so
        // a capped journal drains them.
        const std::filesystem::path &path = it->path();
        const bool segment = path.extension() == ".blsg";
        if (!segment && path.extension() != ".blsj")
            continue;
        std::error_code file_ec;
        if (!it->is_regular_file(file_ec) || file_ec)
            continue;
        Row row;
        row.path = path;
        row.size = it->file_size(file_ec);
        if (file_ec)
            continue;
        row.mtime = it->last_write_time(file_ec);
        if (file_ec)
            continue;
        if (segment && row.size >= kJournalSegmentHeaderBytes) {
            // Cost awareness needs the record count; the header is
            // cheap to peek and damage only skews the tie-break.
            std::ifstream header(path, std::ios::binary);
            std::uint8_t head[28] = {};
            if (header.read(reinterpret_cast<char *>(head), 28))
                row.records = std::max<std::uint64_t>(
                    1, loadU32Le(head + 24));
        }
        total += row.size;
        rows.push_back(std::move(row));
    }
    if (total <= maxBytes_)
        return;
    // LRU by mtime; among equally stale files the cost-aware
    // tie-break evicts the cheapest-to-recompute first (fewest
    // journalled points per byte).
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  const double a_density =
                      static_cast<double>(a.records) /
                      static_cast<double>(std::max<std::uint64_t>(
                          1, a.size));
                  const double b_density =
                      static_cast<double>(b.records) /
                      static_cast<double>(std::max<std::uint64_t>(
                          1, b.size));
                  return a_density < b_density;
              });
    for (const Row &row : rows) {
        if (total <= maxBytes_)
            break;
        // Never evict what this run just sealed -- even a cap
        // smaller than one segment must leave the newest usable.
        const std::string normal =
            row.path.lexically_normal().string();
        if (std::find(sealedPaths_.begin(), sealedPaths_.end(),
                      normal) != sealedPaths_.end())
            continue;
        std::error_code remove_ec;
        if (std::filesystem::remove(row.path, remove_ec) &&
            !remove_ec) {
            total -= row.size;
            journalTelemetry().evictions.add(1);
            journalTelemetry().bytesEvicted.add(row.size);
            blab_inform("sweep journal evicted '", row.path.string(),
                        "' (", row.size, " bytes, ", row.records,
                        " points)");
        }
    }
}

} // namespace branchlab::core
