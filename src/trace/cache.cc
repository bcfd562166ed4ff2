#include "trace/cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>

#include "obs/metrics.hh"
#include "support/bytes.hh"
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
    obs::Counter &refusals =
        obs::Registry::global().counter("trace_cache.refusals");
};

CacheTelemetry &
cacheTelemetry()
{
    static CacheTelemetry *telemetry = new CacheTelemetry;
    return *telemetry;
}

/** The entries this process mapped or stored, which a capped cache
 *  never evicts. Process-wide, because every core::recordWorkload
 *  builds its own TraceCache. */
struct TouchedEntries
{
    std::mutex mutex;
    std::set<std::string> paths;

    void
    add(const std::string &path)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        paths.insert(path);
    }

    std::vector<std::string>
    snapshot()
    {
        const std::lock_guard<std::mutex> lock(mutex);
        return {paths.begin(), paths.end()};
    }
};

TouchedEntries &
touchedEntries()
{
    static TouchedEntries *touched = new TouchedEntries;
    return *touched;
}

const store::Kind &
cacheKind()
{
    static const store::Kind *kind =
        new store::Kind("trace cache", "trace_cache", {".bltc"});
    return *kind;
}

const char *
sectionName(std::size_t s)
{
    static const char *const kNames[kKnownSectionCount] = {
        "ops",           "cond-plane",   "taken-plane",
        "tknown-plane",  "anomaly-plane", "deltas",
        "anomaly-deltas", "profile"};
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

/** Parse the next profile row from @p in, checking its own shape:
 *  next-PC addresses strictly ascending, counts nonzero and summing to
 *  the row's executions. @return empty string on success, else a
 *  diagnostic. */
std::string
readProfileRow(ByteReader &in, CachedProfileRow &row)
{
    std::uint64_t next_count = 0;
    if (!in.u64(row.pc) || !in.u64(row.prevPc) || !in.u64(row.taken) ||
        !in.u64(row.notTaken) || !in.u64(next_count))
        return "truncated profile row";
    if (next_count > in.remaining() / 16)
        return "implausible profile next count";
    row.next.resize(static_cast<std::size_t>(next_count));
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < row.next.size(); ++i) {
        auto &[addr, count] = row.next[i];
        in.u64(addr);
        in.u64(count);
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
decodeProfileSection(std::string_view section, const EntryHeader &header,
                     CachedProfile &out)
{
    ByteReader in(section);
    std::uint64_t branch_rows = 0;
    std::uint64_t path_rows = 0;
    if (!in.u64(branch_rows) || !in.u64(path_rows) || !in.u64(out.lastPc))
        return "truncated profile section";
    const std::size_t row_capacity = in.remaining() / kProfileRowBytes;
    if (branch_rows > row_capacity ||
        path_rows > row_capacity - branch_rows)
        return "implausible profile row count";

    out.branches.resize(static_cast<std::size_t>(branch_rows));
    std::uint64_t executions = 0;
    bool wrapped = false;
    for (std::size_t i = 0; i < out.branches.size(); ++i) {
        CachedProfileRow &row = out.branches[i];
        std::string error = readProfileRow(in, row);
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

    out.paths.resize(static_cast<std::size_t>(path_rows));
    std::uint64_t path_executions = 0;
    std::size_t branch = 0;
    std::uint64_t branch_paths = 0; // path executions of `branch`
    for (std::size_t i = 0; i < out.paths.size(); ++i) {
        CachedProfileRow &row = out.paths[i];
        std::string error = readProfileRow(in, row);
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
    if (!in.exhausted())
        return "trailing bytes in profile section";
    return "";
}

/** The likely records of @p profile's branch rows, by the rule
 *  ProgramProfile::buildLikelyMap applies: likely taken when taken
 *  beats not-taken, and the dominant target is the first
 *  (lowest-address) next pc with the highest count. */
std::vector<CachedLikely>
likelyRows(const CachedProfile &profile)
{
    std::vector<CachedLikely> rows;
    rows.reserve(profile.branches.size());
    for (const CachedProfileRow &row : profile.branches) {
        CachedLikely likely{row.pc, ir::kNoAddr, row.taken > row.notTaken};
        std::uint64_t best = 0;
        for (const auto &[addr, count] : row.next) {
            if (count > best) {
                likely.dominantTarget = addr;
                best = count;
            }
        }
        rows.push_back(likely);
    }
    return rows;
}

/** Table 1/2's counters of @p entry's stream: @p instructions from
 *  the header, the branch counts from one pass over the cond, taken
 *  and target-known planes. */
TraceCounters
planeCounters(const MappedEntry &entry, std::uint64_t instructions)
{
    TraceStats stats;
    stats.addInstructions(instructions);
    const auto events = static_cast<std::size_t>(entry.eventCount);
    for (std::size_t base = 0; base < events; base += kTraceBlockEvents) {
        TraceBlock block;
        block.base = base;
        block.count = std::min(kTraceBlockEvents, events - base);
        block.condPlane = entry.condPlane + base / 8;
        block.takenPlane = entry.takenPlane + base / 8;
        block.targetKnownPlane = entry.targetKnownPlane + base / 8;
        stats.onBlock(block);
    }
    return stats.counters();
}

/** The store::Writer of @p workload's entry; it sets @p bytes_written
 *  to the entry's size. */
store::Writer
entryWriter(const CachedWorkload &workload, std::uint64_t &bytes_written)
{
    blab_assert(!workload.mapped,
                "writeEntryFile() expects an owning stream, not a "
                "mapped hit");
    return [&workload, &bytes_written](std::ostream &out,
                                       std::string &error) {
        const SoaTrace &stream = workload.stream;
        EntryWriter writer(out);
        writer.setMeta(workload.contentHash, workload.runs,
                       workload.stats.instructions, stream.size(),
                       stream.maxPc());
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
        if (!writer.finish(error))
            return false;
        bytes_written = writer.bytesWritten();
        return true;
    };
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
    const std::uint32_t version = loadU32(data + sizeof(kEntryMagic));
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

    const std::uint64_t plane_bytes = (header.eventCount + 7) / 8;
    const std::uint64_t expected_length[kKnownSectionCount] = {
        header.eventCount, // ops
        plane_bytes,       // cond plane
        plane_bytes,       // taken plane
        plane_bytes,       // target-known plane
        plane_bytes,       // anomaly plane
        0,                 // deltas: any
        0,                 // anomaly deltas: any
        0,                 // profile: any
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

    std::optional<CachedProfile> profile;
    if (header.has(EntrySection::Profile)) {
        const SectionRecord &section =
            header.section(EntrySection::Profile);
        error = decodeProfileSection(
            std::string_view(
                reinterpret_cast<const char *>(data + section.offset),
                static_cast<std::size_t>(section.length)),
            header, profile.emplace());
        if (!error.empty())
            return false;
    }

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

    out.contentHash = header.contentHash;
    out.runs = header.runs;
    out.stats = planeCounters(*mapped, header.instructions);
    out.likely = profile ? likelyRows(*profile) : std::vector<CachedLikely>{};
    out.profile = std::move(profile);
    out.stream.clear();
    out.mapped = std::move(mapped);
    failure = MapFailure::None;
    return true;
}

bool
writeEntryFile(const std::string &path, const CachedWorkload &workload,
               std::uint64_t &bytes_written, std::string &error)
{
    return store::publish(path, entryWriter(workload, bytes_written),
                          error);
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

TraceCache::TraceCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir), max_bytes, cacheKind())
{}

std::string
TraceCache::entryPath(const std::string &name,
                      std::uint64_t content_hash) const
{
    return dir_.path(name, content_hash, ".bltc");
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
    // LRU touch: a hit makes the entry recently used, and the cap
    // never evicts it in this process.
    dir_.touch(path);
    touchedEntries().add(path);
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
    std::uint64_t entry_size = 0;
    std::string error;
    if (!dir_.put(path, entryWriter(workload, entry_size), error)) {
        blab_warn("cannot store trace cache entry '", path, "' (", error,
                  ")");
        return;
    }
    cacheTelemetry().bytesWritten.add(entry_size);
    // Refuse before evicting: an entry that does not fit beside the
    // ones this process holds would only evict what the next lookup
    // needs.
    if (!dir_.enforceCap(touchedEntries().snapshot(), path)) {
        cacheTelemetry().refusals.add(1);
        blab_inform("trace cache refused: ", name, " (", entry_size,
                    " bytes do not fit the cap beside the entries this "
                    "process holds)");
        return;
    }
    touchedEntries().add(path);
    ++g_stores;
    cacheTelemetry().stores.add(1);
    blab_inform("trace cache store: ", name, " (",
                workload.stream.size(), " events)");
}

} // namespace branchlab::trace
