#include "trace/cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "support/logging.hh"
#include "trace/format.hh"

namespace branchlab::trace
{

namespace
{

// Functional counters (traceCacheCounters(): perf_engine's warm-run
// check and the CI determinism step depend on them), kept separate
// from telemetry so disabling telemetry cannot break them.
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_stores{0};

// Distinguishes concurrent stores of the same entry within one
// process: the temp suffix is <pid>-<sequence>, so no two in-flight
// writers -- threads or processes -- ever share a temp file.
std::atomic<std::uint64_t> g_tmpSequence{0};

/** Telemetry handles (see obs/metrics.hh for the naming scheme). */
struct CacheTelemetry
{
    obs::Counter &hits =
        obs::Registry::global().counter("trace_cache.hits");
    obs::Counter &misses =
        obs::Registry::global().counter("trace_cache.misses");
    obs::Counter &stores =
        obs::Registry::global().counter("trace_cache.stores");
    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &mapFailures =
        obs::Registry::global().counter("trace_cache.map_failures");
    obs::Counter &bytesMapped =
        obs::Registry::global().counter("trace_cache.bytes_mapped");
    obs::Counter &bytesWritten =
        obs::Registry::global().counter("trace_cache.bytes_written");
    obs::Counter &tmpEvicted =
        obs::Registry::global().counter("trace_cache.tmp_evicted");
    obs::Counter &evictions =
        obs::Registry::global().counter("trace_cache.evictions");
    obs::Counter &bytesEvicted =
        obs::Registry::global().counter("trace_cache.bytes_evicted");
};

CacheTelemetry &
cacheTelemetry()
{
    static CacheTelemetry *telemetry = new CacheTelemetry;
    return *telemetry;
}

void
putU64(std::string &out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

bool
getU64(std::string_view in, std::size_t &pos, std::uint64_t &value)
{
    if (pos + 8 > in.size())
        return false;
    value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(in[pos + i]))
                 << (8 * i);
    }
    pos += 8;
    return true;
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

std::string
hash16(std::uint64_t content_hash)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << content_hash;
    return os.str();
}

std::string
entryFileName(const std::string &name, std::uint64_t content_hash)
{
    return name + '-' + hash16(content_hash) + ".bltc";
}

const char *
sectionName(std::size_t s)
{
    static const char *const kNames[kKnownSectionCount] = {
        "likely",        "ops",          "cond-plane",
        "taken-plane",   "tknown-plane", "anomaly-plane",
        "deltas",        "anomaly-deltas", "profile"};
    return kNames[s];
}

void
putProfileRow(std::string &out, const CachedProfileRow &row)
{
    putU64(out, row.pc);
    putU64(out, row.prevPc);
    putU64(out, row.taken);
    putU64(out, row.notTaken);
    putU64(out, row.next.size());
    for (const auto &[addr, count] : row.next) {
        putU64(out, addr);
        putU64(out, count);
    }
}

/** Fixed bytes of one profile row before its next-PC pairs. */
constexpr std::size_t kProfileRowBytes = 5 * 8;

/** Parse the profile row at @p pos, checking its own shape: next-PC
 *  addresses strictly ascending, counts nonzero and summing to the
 *  row's executions. @return empty string on success, else a
 *  diagnostic. */
std::string
readProfileRow(std::string_view in, std::size_t &pos,
               CachedProfileRow &row)
{
    std::uint64_t next_count = 0;
    if (!getU64(in, pos, row.pc) || !getU64(in, pos, row.prevPc) ||
        !getU64(in, pos, row.taken) || !getU64(in, pos, row.notTaken) ||
        !getU64(in, pos, next_count))
        return "truncated profile row";
    if (next_count > (in.size() - pos) / 16)
        return "implausible profile next count";
    row.next.resize(static_cast<std::size_t>(next_count));
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < row.next.size(); ++i) {
        auto &[addr, count] = row.next[i];
        getU64(in, pos, addr);
        getU64(in, pos, count);
        if (i != 0 && addr <= row.next[i - 1].first)
            return "profile next pcs out of order";
        if (count == 0 || __builtin_add_overflow(sum, count, &sum))
            return "bad profile next count";
    }
    std::uint64_t executions = 0;
    if (__builtin_add_overflow(row.taken, row.notTaken, &executions) ||
        sum != executions)
        return "profile next-counts do not sum to executions";
    if (executions == 0)
        return "profile row never executed";
    return "";
}

/** Index of the branch row for @p pc in pc-sorted @p rows, or
 *  rows.size() when there is none. */
std::size_t
findBranchRow(const std::vector<CachedProfileRow> &rows, ir::Addr pc)
{
    const auto it = std::lower_bound(
        rows.begin(), rows.end(), pc,
        [](const CachedProfileRow &row, ir::Addr key) {
            return row.pc < key;
        });
    return it != rows.end() && it->pc == pc
               ? static_cast<std::size_t>(it - rows.begin())
               : rows.size();
}

/**
 * Parse the profile section and validate it against the rest of the
 * entry (the rules are listed in trace/format.hh). Runs after every
 * checksum matched, so a failure here means a writer produced a
 * self-inconsistent entry. @return empty string on success, else a
 * diagnostic.
 */
std::string
decodeProfileSection(std::string_view in, const EntryHeader &header,
                     const std::vector<CachedLikely> &likely,
                     CachedProfile &out)
{
    std::size_t pos = 0;
    std::uint64_t branch_rows = 0;
    std::uint64_t path_rows = 0;
    if (!getU64(in, pos, branch_rows) || !getU64(in, pos, path_rows) ||
        !getU64(in, pos, out.lastPc))
        return "truncated profile section";
    const std::size_t row_capacity = (in.size() - pos) / kProfileRowBytes;
    if (branch_rows > row_capacity ||
        path_rows > row_capacity - branch_rows)
        return "implausible profile row count";

    out.branches.resize(static_cast<std::size_t>(branch_rows));
    std::uint64_t executions = 0;
    bool wrapped = false;
    for (std::size_t i = 0; i < out.branches.size(); ++i) {
        CachedProfileRow &row = out.branches[i];
        std::string error = readProfileRow(in, pos, row);
        if (!error.empty())
            return error;
        if (row.prevPc != ir::kNoAddr)
            return "profile branch row carries a context";
        if (i != 0 && row.pc <= out.branches[i - 1].pc)
            return "profile branch rows out of order";
        if (row.pc > header.maxPc)
            return "profile pc above max pc";
        // readProfileRow made sure taken + notTaken cannot wrap.
        wrapped |= __builtin_add_overflow(
            executions, row.taken + row.notTaken, &executions);
    }
    if (wrapped || executions != header.eventCount)
        return "profile executions do not sum to the event count";

    if (out.branches.size() != likely.size())
        return "profile disagrees with the likely section";
    for (std::size_t i = 0; i < likely.size(); ++i) {
        const CachedProfileRow &row = out.branches[i];
        // BranchCounts::dominantTarget: the first (lowest-address)
        // next pc with the highest count.
        ir::Addr dominant = ir::kNoAddr;
        std::uint64_t best = 0;
        for (const auto &[addr, count] : row.next) {
            if (count > best) {
                dominant = addr;
                best = count;
            }
        }
        if (row.pc != likely[i].pc ||
            (row.taken > row.notTaken) != likely[i].likelyTaken ||
            dominant != likely[i].dominantTarget)
            return "profile disagrees with the likely section";
    }

    out.paths.resize(static_cast<std::size_t>(path_rows));
    std::uint64_t path_executions = 0;
    std::size_t branch = 0;
    std::uint64_t branch_paths = 0; // path executions of `branch`
    for (std::size_t i = 0; i < out.paths.size(); ++i) {
        CachedProfileRow &row = out.paths[i];
        std::string error = readProfileRow(in, pos, row);
        if (!error.empty())
            return error;
        if (i != 0 && std::pair(row.pc, row.prevPc) <=
                          std::pair(out.paths[i - 1].pc,
                                    out.paths[i - 1].prevPc))
            return "profile path rows out of order";
        if (row.pc > header.maxPc || row.prevPc > header.maxPc)
            return "profile pc above max pc";
        // Paths arrive in pc order: walk the branch rows alongside.
        if (branch < out.branches.size() &&
            out.branches[branch].pc != row.pc) {
            branch_paths = 0;
            while (branch < out.branches.size() &&
                   out.branches[branch].pc < row.pc)
                ++branch;
        }
        if (branch == out.branches.size() ||
            out.branches[branch].pc != row.pc ||
            findBranchRow(out.branches, row.prevPc) ==
                out.branches.size())
            return "profile path of an unprofiled branch";
        // Branch executions sum to the event count, so neither sum
        // below can wrap once this bound holds.
        const CachedProfileRow &owner = out.branches[branch];
        const std::uint64_t row_executions = row.taken + row.notTaken;
        if (row_executions >
            owner.taken + owner.notTaken - branch_paths)
            return "profile paths exceed their branch's executions";
        branch_paths += row_executions;
        path_executions += row_executions;
    }
    if (path_executions !=
        (header.eventCount == 0 ? 0 : header.eventCount - 1))
        return "profile path executions do not match the event count";
    if (header.eventCount == 0
            ? out.lastPc != ir::kNoAddr
            : findBranchRow(out.branches, out.lastPc) ==
                  out.branches.size())
        return "profile last pc is not a profiled branch";
    if (pos != in.size())
        return "trailing bytes in profile section";
    return "";
}

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

} // namespace

std::string
encodeProfileSection(const CachedProfile &profile)
{
    std::string out;
    putU64(out, profile.branches.size());
    putU64(out, profile.paths.size());
    putU64(out, profile.lastPc);
    for (const CachedProfileRow &row : profile.branches)
        putProfileRow(out, row);
    for (const CachedProfileRow &row : profile.paths)
        putProfileRow(out, row);
    return out;
}

bool
mapEntryFile(const std::string &path,
             std::optional<std::uint64_t> expected_hash,
             CachedWorkload &out, std::string &error,
             MapFailure &failure)
{
    failure = MapFailure::Corrupt;
    std::unique_ptr<MappedFile> file = MappedFile::open(path, error);
    if (!file)
        return false;
    const std::uint8_t *data = file->data();
    const std::size_t size = file->size();
    if (size < kEntryHeaderBytes) {
        error = "truncated header";
        return false;
    }
    if (std::memcmp(data, kEntryMagic, sizeof(kEntryMagic)) != 0) {
        error = "bad magic";
        return false;
    }
    // Another version is foreign, never corrupt -- retired ones
    // included: an entry only holds what a record pass derives, so
    // the cache re-records instead of reading an older layout. The
    // header checksum is verified next, before any other field.
    const std::uint32_t version = loadU32Le(data + sizeof(kEntryMagic));
    if (version != kEntryVersion) {
        failure = MapFailure::Foreign;
        error = "format version " + std::to_string(version) +
                " (this reader speaks " + std::to_string(kEntryVersion) +
                ")";
        return false;
    }

    EntryHeader header;
    error = decodeEntryHeader(data, size, header);
    if (!error.empty())
        return false;
    if ((header.featureBits & ~kKnownFeatureBits) != 0) {
        failure = MapFailure::Foreign;
        std::ostringstream os;
        os << "unknown feature bits 0x" << std::hex
           << (header.featureBits & ~kKnownFeatureBits);
        error = os.str();
        return false;
    }
    if (header.eventCount > size) {
        error = "implausible event count";
        return false;
    }
    if (header.likelyCount > size / kLikelyRecordBytes) {
        error = "implausible likely-map count";
        return false;
    }

    const std::uint64_t plane_bytes = (header.eventCount + 7) / 8;
    const std::uint64_t expected_length[kKnownSectionCount] = {
        header.likelyCount * kLikelyRecordBytes, // likely
        header.eventCount,                       // ops
        plane_bytes,                             // cond plane
        plane_bytes,                             // taken plane
        plane_bytes,                             // target-known plane
        plane_bytes,                             // anomaly plane
        0,                                       // deltas: any
        0,                                       // anomaly deltas: any
        0,                                       // profile: any
    };
    const std::size_t sections =
        std::min<std::size_t>(header.sectionCount, kKnownSectionCount);
    for (std::size_t s = 0; s < sections; ++s) {
        const SectionRecord &section = header.sections[s];
        if (section.offset % kSectionAlign != 0) {
            error = std::string("misaligned section ") +
                    sectionName(s);
            return false;
        }
        if (section.offset > size ||
            section.length > size - section.offset) {
            error =
                std::string("section ") + sectionName(s) +
                " out of bounds";
            return false;
        }
        if (s < static_cast<std::size_t>(EntrySection::Deltas) &&
            section.length != expected_length[s]) {
            error = std::string("section ") + sectionName(s) +
                    " has wrong length (" +
                    std::to_string(section.length) + ", expected " +
                    std::to_string(expected_length[s]) + ")";
            return false;
        }
        // Every section is verified up front, so the mapped replay
        // path can never hit torn bytes (or SIGBUS on a truncation)
        // later.
        if (checksum64(data + section.offset, section.length) !=
            section.checksum) {
            error = std::string("checksum mismatch in section ") +
                    sectionName(s);
            return false;
        }
    }
    if (expected_hash && header.contentHash != *expected_hash) {
        error = "mismatched content hash";
        return false;
    }

    const std::uint8_t *ops =
        data + header.section(EntrySection::Ops).offset;
    for (std::uint64_t i = 0; i < header.eventCount; ++i) {
        if (ops[i] >= ir::kNumOpcodes) {
            error = "bad opcode " + std::to_string(ops[i]);
            return false;
        }
    }

    std::vector<CachedLikely> likely_rows;
    likely_rows.reserve(static_cast<std::size_t>(header.likelyCount));
    const std::uint8_t *likely =
        data + header.section(EntrySection::Likely).offset;
    for (std::uint64_t i = 0; i < header.likelyCount; ++i) {
        CachedLikely entry;
        entry.pc = loadU64Le(likely);
        entry.dominantTarget = loadU64Le(likely + 8);
        entry.likelyTaken = likely[16] != 0;
        likely_rows.push_back(entry);
        likely += kLikelyRecordBytes;
    }
    std::optional<CachedProfile> profile;
    if (header.has(EntrySection::Profile)) {
        const SectionRecord &section =
            header.section(EntrySection::Profile);
        error = decodeProfileSection(
            std::string_view(
                reinterpret_cast<const char *>(data + section.offset),
                static_cast<std::size_t>(section.length)),
            header, likely_rows, profile.emplace());
        if (!error.empty())
            return false;
    }

    out.contentHash = header.contentHash;
    out.runs = header.runs;
    out.stats = header.stats;
    out.likely = std::move(likely_rows);
    out.profile = std::move(profile);
    out.stream.clear();

    auto mapped = std::make_shared<MappedEntry>();
    mapped->featureBits = header.featureBits;
    mapped->eventCount = header.eventCount;
    mapped->maxPc = header.maxPc;
    mapped->ops = ops;
    mapped->condPlane =
        data + header.section(EntrySection::CondPlane).offset;
    mapped->takenPlane =
        data + header.section(EntrySection::TakenPlane).offset;
    mapped->targetKnownPlane =
        data + header.section(EntrySection::TargetKnownPlane).offset;
    mapped->anomalyPlane =
        data + header.section(EntrySection::AnomalyPlane).offset;
    mapped->deltas =
        data + header.section(EntrySection::Deltas).offset;
    mapped->deltasLen = static_cast<std::size_t>(
        header.section(EntrySection::Deltas).length);
    mapped->anomalyDeltas =
        data + header.section(EntrySection::AnomalyDeltas).offset;
    mapped->anomalyDeltasLen = static_cast<std::size_t>(
        header.section(EntrySection::AnomalyDeltas).length);
    mapped->file = std::move(file);
    out.mapped = std::move(mapped);
    failure = MapFailure::None;
    return true;
}

bool
writeEntryFile(const std::string &path, const CachedWorkload &workload,
               std::uint64_t &bytes_written, std::string &error)
{
    blab_assert(!workload.mapped,
                "writeEntryFile() expects an owning stream, not a "
                "mapped hit");
    // Unique temp name per in-flight write: the pid separates
    // processes and the process-wide atomic sequence separates
    // threads, so two threads writing the same entry concurrently can
    // never clobber each other's temp file mid-write. The rename into
    // place is atomic either way (last writer wins with a complete
    // entry).
    const std::string tmp =
        path + ".tmp-" + std::to_string(static_cast<long>(::getpid())) +
        "-" +
        std::to_string(
            g_tmpSequence.fetch_add(1, std::memory_order_relaxed));
    const SoaTrace &stream = workload.stream;
    bool written = false;
    {
        EntryWriter writer(tmp);
        if (!writer.ok()) {
            error = "cannot create '" + tmp + "'";
            return false;
        }
        writer.setMeta(workload.contentHash, workload.runs,
                       workload.stats, stream.size(), stream.maxPc(),
                       workload.likely.size());
        std::string likely_bytes;
        likely_bytes.reserve(kLikelyRecordBytes *
                             workload.likely.size());
        for (const CachedLikely &entry : workload.likely) {
            putU64(likely_bytes, entry.pc);
            putU64(likely_bytes, entry.dominantTarget);
            likely_bytes.push_back(entry.likelyTaken ? 1 : 0);
        }
        writer.writeSection(EntrySection::Likely, likely_bytes.data(),
                            likely_bytes.size());
        // The stream already holds the entry's stream sections: write
        // them verbatim.
        const std::pair<EntrySection, const std::vector<std::uint8_t> *>
            columns[] = {
                {EntrySection::Ops, &stream.ops()},
                {EntrySection::CondPlane, &stream.conditionalPlane()},
                {EntrySection::TakenPlane, &stream.takenPlane()},
                {EntrySection::TargetKnownPlane,
                 &stream.targetKnownPlane()},
                {EntrySection::AnomalyPlane, &stream.anomalyPlane()},
                {EntrySection::Deltas, &stream.deltas()},
                {EntrySection::AnomalyDeltas, &stream.anomalyDeltas()}};
        for (const auto &[section, column] : columns)
            writer.writeSection(section, column->data(), column->size());
        if (workload.profile) {
            const std::string profile =
                encodeProfileSection(*workload.profile);
            writer.writeSection(EntrySection::Profile, profile.data(),
                                profile.size());
        }
        if (writer.finish(error)) {
            bytes_written = writer.bytesWritten();
            written = true;
        }
    }
    // Durability before visibility: the entry's bytes reach the disk
    // before the rename can publish its name, and the directory entry
    // itself is synced after. A crash leaves either the old entry or
    // the complete new one.
    if (written && !syncFd(tmp)) {
        error = "cannot sync '" + tmp + "'";
        written = false;
    }
    std::error_code ec;
    if (written) {
        std::filesystem::rename(tmp, path, ec);
        if (ec)
            error = "cannot publish: " + ec.message();
        written = !ec;
    }
    if (!written) {
        std::filesystem::remove(tmp, ec);
        cacheTelemetry().tmpEvicted.add(1);
        return false;
    }
    // Best-effort: the entry is already complete under its name.
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    syncFd(dir.empty() ? "." : dir.string());
    return true;
}

TraceCacheCounters
traceCacheCounters()
{
    return {g_hits.load(), g_misses.load(), g_stores.load()};
}

void
resetTraceCacheCounters()
{
    g_hits.store(0);
    g_misses.store(0);
    g_stores.store(0);
}

std::string
TraceCache::resolveDir(const std::string &configured)
{
    if (!configured.empty())
        return configured;
    if (const char *env = std::getenv("BRANCHLAB_TRACE_CACHE"))
        return env;
    return "";
}

std::uint64_t
TraceCache::resolveMaxBytes(std::uint64_t configured)
{
    if (configured != 0)
        return configured;
    if (const char *env =
            std::getenv("BRANCHLAB_TRACE_CACHE_MAX_BYTES")) {
        char *end = nullptr;
        const unsigned long long parsed = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0')
            return parsed;
        blab_warn("ignoring unparsable "
                  "BRANCHLAB_TRACE_CACHE_MAX_BYTES='",
                  env, "'");
    }
    return 0;
}

std::string
TraceCache::entryPath(const std::string &name,
                      std::uint64_t content_hash) const
{
    const std::string file = entryFileName(name, content_hash);
    return (std::filesystem::path(dir_) / file.substr(file.size() - 21,
                                                      2) /
            file)
        .string();
}

bool
TraceCache::load(const std::string &name, std::uint64_t content_hash,
                 CachedWorkload &out) const
{
    if (!enabled())
        return false;
    const std::string path = entryPath(name, content_hash);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        ++g_misses;
        cacheTelemetry().misses.add(1);
        blab_inform("trace cache miss: ", name);
        return false;
    }
    CachedWorkload loaded;
    std::string error;
    MapFailure failure = MapFailure::None;
    if (!mapEntryFile(path, content_hash, loaded, error, failure)) {
        ++g_misses;
        cacheTelemetry().misses.add(1);
        cacheTelemetry().mapFailures.add(1);
        if (failure == MapFailure::Foreign) {
            // Foreign, not broken: refuse quietly and re-record.
            blab_inform("trace cache entry '", path,
                        "' was written by another format (", error,
                        "); re-recording");
        } else {
            cacheTelemetry().corrupt.add(1);
            blab_warn("trace cache entry '", path, "' is corrupt (",
                      error, "); re-recording");
        }
        return false;
    }
    out = std::move(loaded);
    cacheTelemetry().bytesMapped.add(out.mapped->file->size());
    // LRU touch: a hit makes the entry recently used.
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
    ++g_hits;
    cacheTelemetry().hits.add(1);
    blab_inform("trace cache hit: ", name, " (", out.eventCount(),
                " events, mapped)");
    return true;
}

void
TraceCache::store(const std::string &name,
                  const CachedWorkload &workload) const
{
    if (!enabled())
        return;
    const std::string path = entryPath(name, workload.contentHash);
    const std::filesystem::path shard_dir =
        std::filesystem::path(path).parent_path();
    std::error_code ec;
    std::filesystem::create_directories(shard_dir, ec);
    if (ec) {
        blab_warn("cannot create trace cache directory '",
                  shard_dir.string(), "': ", ec.message());
        return;
    }
    std::uint64_t entry_size = 0;
    std::string error;
    if (!writeEntryFile(path, workload, entry_size, error)) {
        blab_warn("cannot store trace cache entry '", path, "' (", error,
                  ")");
        return;
    }
    ++g_stores;
    cacheTelemetry().stores.add(1);
    cacheTelemetry().bytesWritten.add(entry_size);
    blab_inform("trace cache store: ", name, " (",
                workload.stream.size(), " events)");
    enforceByteCap(path);
}

void
TraceCache::enforceByteCap(const std::string &just_stored) const
{
    if (maxBytes_ == 0)
        return;
    struct Row
    {
        std::filesystem::path path;
        std::uint64_t size = 0;
        std::filesystem::file_time_type mtime;
    };
    std::vector<Row> rows;
    std::uint64_t total = 0;
    std::error_code ec;
    const std::filesystem::path stored =
        std::filesystem::path(just_stored).lexically_normal();
    for (std::filesystem::recursive_directory_iterator
             it(dir_,
                std::filesystem::directory_options::
                    skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() != ".bltc")
            continue;
        std::error_code file_ec;
        if (!it->is_regular_file(file_ec) || file_ec)
            continue;
        Row row;
        row.path = it->path();
        row.size = it->file_size(file_ec);
        if (file_ec)
            continue;
        row.mtime = it->last_write_time(file_ec);
        if (file_ec)
            continue;
        total += row.size;
        rows.push_back(std::move(row));
    }
    if (total <= maxBytes_)
        return;
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  return a.mtime < b.mtime;
              });
    for (const Row &row : rows) {
        if (total <= maxBytes_)
            break;
        // Never evict what this store just published -- even a cap
        // smaller than one entry must leave the newest usable.
        if (row.path.lexically_normal() == stored)
            continue;
        std::error_code remove_ec;
        if (std::filesystem::remove(row.path, remove_ec) &&
            !remove_ec) {
            total -= row.size;
            cacheTelemetry().evictions.add(1);
            cacheTelemetry().bytesEvicted.add(row.size);
            blab_inform("trace cache evicted '", row.path.string(),
                        "' (", row.size, " bytes)");
        }
    }
}

} // namespace branchlab::trace
