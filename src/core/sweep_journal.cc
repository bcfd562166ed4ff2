#include "core/sweep_journal.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "obs/metrics.hh"
#include "support/bytes.hh"
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
    obs::Counter &bytesMapped =
        obs::Registry::global().counter("sweep.journal.bytes_mapped");
};

JournalTelemetry &
journalTelemetry()
{
    static JournalTelemetry *telemetry = new JournalTelemetry;
    return *telemetry;
}

/** Segments (`.blsg`), plus the retired v1 point files (`.blsj`):
 *  never read, but counted and evicted by the byte cap, so a capped
 *  journal drains them. */
const store::Kind &
journalKind()
{
    static const store::Kind *kind = new store::Kind(
        "sweep journal", "sweep.journal", {".blsg", ".blsj"});
    return *kind;
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
    cell.sbtbAccuracy = loadF64(p);
    cell.sbtbMissRatio = loadF64(p + 8);
    cell.cbtbAccuracy = loadF64(p + 16);
    cell.cbtbMissRatio = loadF64(p + 24);
    cell.fsAccuracy = loadF64(p + 32);
    cell.codeIncrease = loadF64(p + 40);
    return cell;
}

} // namespace

struct SweepJournal::Segment
{
    std::string path;
    std::unique_ptr<trace::MappedFile> file;
};

SweepJournal::SweepJournal() = default;

SweepJournal::SweepJournal(std::string dir, std::uint64_t maxBytes)
    : dir_(std::move(dir), maxBytes, journalKind())
{}

SweepJournal::~SweepJournal()
{
    flush();
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
    // The scan's sorted order makes the mapping order, and therefore
    // the index when keys collide across segments, deterministic.
    for (const std::string &path : dir_.scan()) {
        if (std::filesystem::path(path).extension() != ".blsg")
            continue;
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
    const std::uint32_t version = loadU32(data + 4);
    if (version != kJournalSegmentVersion) {
        foreign("segment version " + std::to_string(version));
        return;
    }
    const std::uint64_t feature_bits = loadU64(data + 8);
    if ((feature_bits & ~kJournalKnownFeatureBits) != 0) {
        std::ostringstream os;
        os << "unknown feature bits 0x" << std::hex
           << (feature_bits & ~kJournalKnownFeatureBits);
        foreign(os.str());
        return;
    }
    const std::uint64_t schema = loadU64(data + 16);
    if (schema != kJournalSchemaVersion) {
        foreign("cell schema " + std::to_string(schema));
        return;
    }
    const std::uint32_t record_count = loadU32(data + 24);
    const std::uint64_t records_length = loadU64(data + 32);

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
        const std::uint64_t key = loadU64(data + pos);
        const std::uint32_t cell_count = loadU32(data + pos + 8);
        if (cell_count == 0 || cell_count > kMaxCellsPerRecord)
            break;
        const std::size_t record_bytes =
            kJournalRecordOverheadBytes +
            static_cast<std::size_t>(cell_count) * kJournalCellBytes;
        if (pos + record_bytes > end)
            break;
        const std::size_t summed = record_bytes - 8;
        if (trace::checksum64(data + pos, summed) !=
            loadU64(data + pos + summed))
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
        dir_.touch(segments_[it->second.segment].path);
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

    // Content-hash naming, like the trace cache: re-sealing identical
    // content is an idempotent overwrite.
    const std::string path = dir_.path(
        "seg", trace::checksum64(segment.data(), segment.size()), ".blsg");
    std::string error;
    const bool sealed = dir_.put(
        path,
        [&segment](std::ostream &out, std::string &) {
            out << segment;
            return true;
        },
        error);
    if (sealed) {
        journalTelemetry().segments.add(1);
        sealedPaths_.push_back(path);
        blab_inform("sweep journal sealed '", path, "' (",
                    pendingCount_, " points, ", segment.size(),
                    " bytes)");
    } else {
        blab_warn("cannot seal sweep journal segment '", path, "' (",
                  error, "); its points re-evaluate after this run");
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
    // Never evict what this run sealed -- even a cap smaller than one
    // segment must leave the newest usable.
    dir_.enforceCap(sealedPaths_);
}

} // namespace branchlab::core
