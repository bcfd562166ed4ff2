/**
 * @file
 * Tests for the persistent trace cache: round trips, corruption and
 * hash-mismatch handling (no crash, no silent stale reuse), directory
 * resolution, and warm-path bit-identity through recordWorkload and
 * the experiment runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/runner.hh"
#include "core/sweep.hh"
#include "helpers.hh"
#include "obs/metrics.hh"
#include "predict/cbtb.hh"
#include "predict/profile_predictor.hh"
#include "predict/sbtb.hh"
#include "predict/static_predictors.hh"
#include "profile/forward_slots.hh"
#include "profile/fs_opt.hh"
#include "profile/profile.hh"
#include "trace/cache.hh"
#include "trace/format.hh"
#include "workloads/corpus.hh"

namespace branchlab::trace
{
namespace
{

/** Fresh throwaway cache directory per test. */
std::string
makeCacheDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "blab_cache_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The counters mapEntryFile reports for an entry holding @p stream
 *  and @p instructions: Table 1/2's branch counts tallied event by
 *  event. */
TraceCounters
streamCounters(const SoaTrace &stream, std::uint64_t instructions)
{
    TraceStats stats;
    stats.addInstructions(instructions);
    for (const BranchEvent &event : stream.toEvents())
        stats.onBranch(event);
    return stats.counters();
}

/** A stream-only entry (no profile section, so no likely rows). */
CachedWorkload
makeWorkload()
{
    const ir::Program prog = test::buildFactorial(5);
    BranchRecorder recorder;
    test::runProgram(prog, &recorder);

    CachedWorkload workload;
    workload.contentHash = 0x1234abcd5678ef01ULL;
    workload.runs = 3;
    workload.stream = SoaTrace::fromEvents(recorder.takeEvents());
    workload.stats = streamCounters(workload.stream, 1000);
    return workload;
}

/** A stream the VM never emits: next pcs that are neither the
 *  target nor the fall-through (one of them kNoAddr, the extreme
 *  delta), and transfers whose target is unknown (kNoAddr). */
SoaTrace
makeOddStream()
{
    std::vector<BranchEvent> events;
    BranchEvent taken;
    taken.pc = 0x1000;
    taken.op = ir::Opcode::Beq;
    taken.conditional = true;
    taken.targetAddr = 0x1010;
    taken.fallthroughAddr = 0x1001;
    taken.nextPc = taken.targetAddr;
    events.push_back(taken);
    BranchEvent odd = taken;
    odd.pc = 0x1004;
    odd.taken = false;
    odd.fallthroughAddr = 0x1005;
    odd.nextPc = 0x9999; // neither target nor fall-through
    events.push_back(odd);
    BranchEvent unknown;
    unknown.pc = 0x2000;
    unknown.op = ir::Opcode::JTab;
    unknown.targetKnown = false;
    unknown.targetAddr = ir::kNoAddr;
    unknown.fallthroughAddr = 0x2001;
    unknown.nextPc = 0x1000;
    events.push_back(unknown);
    BranchEvent far = unknown;
    far.pc = 0x2004;
    far.fallthroughAddr = 0x2005;
    far.nextPc = ir::kNoAddr;
    events.push_back(far);
    return SoaTrace::fromEvents(events);
}

/** Write @p bytes at byte @p offset of @p path. */
void
writeAt(const std::string &path, std::streamoff offset,
        const std::string &bytes)
{
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(offset);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** @p value as @p width little-endian bytes, the header's encoding. */
std::string
littleEndian(std::uint64_t value, int width = 8)
{
    std::string out;
    for (int i = 0; i < width; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    return out;
}

/** Recompute the header checksum of the entry at @p path, as a writer
 *  does after filling in the header it means to publish. */
void
resealHeader(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string bytes(std::istreambuf_iterator<char>(in), {});
    std::uint32_t sections = 0; // header bytes 28..31, little-endian
    std::memcpy(&sections, bytes.data() + 28, sizeof(sections));
    const std::uint64_t at = headerChecksumOffset(sections);
    writeAt(path, static_cast<std::streamoff>(at),
            littleEndian(checksum64(bytes.data(), at)));
}

TEST(TraceCache, DisabledCacheNeverHitsAndStoresNothing)
{
    const TraceCache cache;
    EXPECT_FALSE(cache.enabled());
    CachedWorkload out;
    EXPECT_FALSE(cache.load("anything", 42, out));
    cache.store("anything", makeWorkload()); // must be a no-op
}

/** Store @p stored in @p cache, load it back and require every field
 *  and every event to match bit for bit. */
void
expectStoreLoadRoundTrip(const TraceCache &cache,
                         const CachedWorkload &stored)
{
    cache.store("fact", stored);
    CachedWorkload loaded;
    ASSERT_TRUE(cache.load("fact", stored.contentHash, loaded));
    EXPECT_EQ(loaded.contentHash, stored.contentHash);
    EXPECT_EQ(loaded.runs, stored.runs);
    // The entry keeps the instruction count; the branch counts come
    // from its planes, and a stream-only entry has no likely rows.
    EXPECT_EQ(loaded.stats,
              streamCounters(stored.stream, stored.stats.instructions));
    EXPECT_TRUE(loaded.likely.empty());
    // A hit arrives zero-copy mapped, the owning stream empty.
    ASSERT_NE(loaded.mapped, nullptr);
    EXPECT_EQ(loaded.stream.size(), 0u);
    ASSERT_EQ(loaded.eventCount(), stored.stream.size());
    EXPECT_EQ(loaded.traceView().maxPc(), stored.stream.maxPc());
    const std::vector<BranchEvent> decoded =
        materializeView(loaded.traceView()).toEvents();
    const std::vector<BranchEvent> expected = stored.stream.toEvents();
    ASSERT_EQ(decoded.size(), expected.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        const BranchEvent &a = decoded[i];
        const BranchEvent &b = expected[i];
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.nextPc, b.nextPc);
        EXPECT_EQ(a.targetAddr, b.targetAddr);
        EXPECT_EQ(a.fallthroughAddr, b.fallthroughAddr);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.conditional, b.conditional);
        EXPECT_EQ(a.taken, b.taken);
        EXPECT_EQ(a.targetKnown, b.targetKnown);
    }
}

TEST(TraceCache, StoreThenLoadRoundTripsBitExactly)
{
    const std::string dir = makeCacheDir("roundtrip");
    expectStoreLoadRoundTrip(TraceCache(dir), makeWorkload());
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, EmptyStreamRoundTripsBitExactly)
{
    const std::string dir = makeCacheDir("roundtrip_empty");
    CachedWorkload empty = makeWorkload();
    empty.stream = SoaTrace();
    expectStoreLoadRoundTrip(TraceCache(dir), empty);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, AnomalousNextPcsAndUnknownTargetsRoundTripBitExactly)
{
    const std::string dir = makeCacheDir("roundtrip_odd");
    CachedWorkload odd = makeWorkload();
    odd.stream = makeOddStream();
    ASSERT_FALSE(odd.stream.anomalyDeltas().empty());
    expectStoreLoadRoundTrip(TraceCache(dir), odd);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, CountersTrackHitsMissesAndStores)
{
    const std::string dir = makeCacheDir("counters");
    const TraceCache cache(dir);
    resetTraceCacheCounters();

    const CachedWorkload stored = makeWorkload();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    cache.store("fact", stored);
    EXPECT_TRUE(cache.load("fact", stored.contentHash, out));

    const TraceCacheCounters counters = traceCacheCounters();
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.stores, 1u);
    EXPECT_EQ(counters.hits, 1u);
    resetTraceCacheCounters();
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, CorruptEntryIsRejectedWithoutCrashing)
{
    const std::string dir = makeCacheDir("corrupt");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);

    // Overwrite the entry with garbage: load must warn and miss, so
    // the caller re-records instead of crashing or using stale data.
    const std::string path = cache.entryPath("fact", stored.contentHash);
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << "BLTC this is not a cache entry";
    }
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_GE(warningCount(), 1u);

    // Truncation mid-payload is also a soft miss.
    const CachedWorkload fresh = makeWorkload();
    cache.store("fact", fresh);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 7);
    EXPECT_FALSE(cache.load("fact", fresh.contentHash, out));
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, ConcurrentStoresOfOneKeyLeaveOneDecodableEntry)
{
    // Regression: temp files were named "<entry>.tmp", so two threads
    // storing the same key concurrently interleaved writes into one
    // file and could publish a torn entry. Temp names now carry a
    // <pid>-<sequence> suffix; hammer one key from many threads and
    // demand the surviving entry decodes cleanly.
    const std::string dir = makeCacheDir("hammer");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();

    constexpr int kThreads = 8;
    constexpr int kStoresPerThread = 16;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &stored] {
            for (int i = 0; i < kStoresPerThread; ++i)
                cache.store("fact", stored);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    CachedWorkload loaded;
    ASSERT_TRUE(cache.load("fact", stored.contentHash, loaded));
    EXPECT_EQ(loaded.contentHash, stored.contentHash);
    EXPECT_EQ(loaded.stats, stored.stats);
    EXPECT_EQ(loaded.likely, stored.likely);
    ASSERT_EQ(loaded.eventCount(), stored.stream.size());

    // Every rename succeeded, so no temp files may survive: the tree
    // (entries live in shard subdirectories) holds exactly the one
    // published entry.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        ++files;
        EXPECT_EQ(entry.path().extension(), ".bltc")
            << entry.path() << " left behind";
    }
    EXPECT_EQ(files, 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, TruncatedEntryCountsAsCorruptTelemetry)
{
    const std::string dir = makeCacheDir("trunc_telemetry");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::uint64_t before = corrupt.value();
    const std::uint64_t failures_before = map_failures.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    EXPECT_EQ(map_failures.value(), failures_before + 1);
    EXPECT_GE(warningCount(), 1u);

    // A fresh store overwrites the corpse and the entry serves again
    // without bumping the corruption count.
    cache.store("fact", stored);
    EXPECT_TRUE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, BitFlippedEntryCountsAsCorruptTelemetry)
{
    const std::string dir = makeCacheDir("flip_telemetry");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    // Flip one bit of the embedded content hash (bytes 16..23 of the
    // header, after magic + version + feature bits): the header
    // checksum must reject the entry as corrupt.
    {
        std::fstream file(
            path, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(file.good());
        file.seekg(16);
        char byte = 0;
        file.get(byte);
        byte = static_cast<char>(byte ^ 0x40);
        file.seekp(16);
        file.put(byte);
    }

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    const std::uint64_t before = corrupt.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

/** Flip file byte @p offset through XOR @p mask. */
void
patchByte(const std::string &path, std::streamoff offset,
          unsigned char mask)
{
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekg(offset);
    char byte = 0;
    file.get(byte);
    byte = static_cast<char>(byte ^ mask);
    file.seekp(offset);
    file.put(byte);
}

TEST(TraceCache, UnknownFeatureBitsRefuseWithoutCorruptionWarning)
{
    const std::string dir = makeCacheDir("foreign");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    // Set an undefined feature bit (header bytes 8..15) and seal the
    // header, as a future writer that implements the bit would: the
    // entry is intact but foreign, so the load must refuse it -- as a
    // foreign entry, not a corrupt one.
    patchByte(path, 8, 0x10);
    resealHeader(path);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::uint64_t corrupt_before = corrupt.value();
    const std::uint64_t failures_before = map_failures.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(map_failures.value(), failures_before + 1);
    EXPECT_EQ(corrupt.value(), corrupt_before);
    EXPECT_EQ(warningCount(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, BadSectionLengthIsRejectedAsCorrupt)
{
    const std::string dir = makeCacheDir("badlen");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    // Blow up the Ops section's recorded length (section-table row 0,
    // 8 bytes into the {offset, length, checksum} record) under a
    // resealed header: the section no longer fits the file, so
    // mapping must reject the entry instead of reading out of bounds.
    const std::streamoff ops_length_at =
        static_cast<std::streamoff>(kEntryHeaderBytes) + 8;
    patchByte(path, ops_length_at + 6, 0x7f);
    resealHeader(path);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::uint64_t corrupt_before = corrupt.value();
    const std::uint64_t failures_before = map_failures.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), corrupt_before + 1);
    EXPECT_EQ(map_failures.value(), failures_before + 1);
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, SectionChecksumMismatchIsRejectedAsCorrupt)
{
    const std::string dir = makeCacheDir("badsum");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    // Flip a payload byte inside the first section (sections start on
    // kSectionAlign boundaries right after the header): the section
    // table still parses, but the checksum sweep must catch the flip.
    patchByte(path, static_cast<std::streamoff>(kSectionAlign) + 1,
              0x01);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::uint64_t corrupt_before = corrupt.value();
    const std::uint64_t failures_before = map_failures.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), corrupt_before + 1);
    EXPECT_EQ(map_failures.value(), failures_before + 1);
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, MapEntryFileClassifiesCorruptVersusForeign)
{
    const std::string dir = makeCacheDir("classify");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    CachedWorkload out;
    std::string error;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::None);
    ASSERT_NE(out.mapped, nullptr);
    EXPECT_EQ(out.eventCount(), stored.stream.size());

    // Foreign: an intact entry with an undefined feature bit, sealed
    // by the writer that set it.
    patchByte(path, 8, 0x01);
    resealHeader(path);
    out = CachedWorkload{};
    EXPECT_FALSE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Foreign);
    patchByte(path, 8, 0x01); // restore
    resealHeader(path);

    // Foreign: every other format version, the retired v1, v2 and v3
    // included.
    for (const std::uint32_t version : {1u, 2u, 3u, kEntryVersion + 1}) {
        writeAt(path, 4, littleEndian(version, 4));
        out = CachedWorkload{};
        EXPECT_FALSE(
            mapEntryFile(path, stored.contentHash, out, error, failure));
        EXPECT_EQ(failure, MapFailure::Foreign) << version;
        EXPECT_EQ(out.mapped, nullptr);
    }
    writeAt(path, 4, littleEndian(kEntryVersion, 4));
    ASSERT_TRUE(
        mapEntryFile(path, stored.contentHash, out, error, failure));

    // Corrupt: the file ends mid-section.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 9);
    out = CachedWorkload{};
    EXPECT_FALSE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);
    std::filesystem::remove_all(dir);
}

/** Publish @p workload as @p name's entry of @p cache without going
 *  through it, as another process would: this one never touched it.
 *  @return the entry's path. */
std::string
plantEntry(const TraceCache &cache, const std::string &name,
           const CachedWorkload &workload)
{
    const std::string path = cache.entryPath(name, workload.contentHash);
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::uint64_t bytes = 0;
    std::string error;
    EXPECT_TRUE(writeEntryFile(path, workload, bytes, error)) << error;
    return path;
}

/** Bytes of every file under @p dir. */
std::uint64_t
treeBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            total += entry.file_size();
    }
    return total;
}

TEST(TraceCache, ByteCapEvictsLeastRecentlyUsedEntries)
{
    const std::string dir = makeCacheDir("evict");
    const CachedWorkload workload = makeWorkload();
    // Two entries another process stored.
    const TraceCache probe(dir);
    const std::string path_a = plantEntry(probe, "aa", workload);
    const std::string path_b = plantEntry(probe, "bb", workload);
    const std::uint64_t entry_bytes =
        std::filesystem::file_size(path_a);

    // Cap admits two entries but not three.
    const TraceCache cache(dir, 2 * entry_bytes + entry_bytes / 2);

    // Age "aa" well behind "bb" so the LRU order is unambiguous.
    const auto now = std::filesystem::file_time_type::clock::now();
    std::filesystem::last_write_time(path_a,
                                     now - std::chrono::hours(2));
    std::filesystem::last_write_time(path_b,
                                     now - std::chrono::hours(1));

    obs::Counter &evictions =
        obs::Registry::global().counter("trace_cache.evictions");
    obs::Counter &bytes_evicted =
        obs::Registry::global().counter("trace_cache.bytes_evicted");
    const std::uint64_t evictions_before = evictions.value();
    const std::uint64_t bytes_before = bytes_evicted.value();

    cache.store("cc", workload);
    EXPECT_FALSE(std::filesystem::exists(path_a));
    EXPECT_TRUE(std::filesystem::exists(path_b));
    EXPECT_TRUE(std::filesystem::exists(
        cache.entryPath("cc", workload.contentHash)));
    EXPECT_EQ(evictions.value(), evictions_before + 1);
    EXPECT_EQ(bytes_evicted.value(), bytes_before + entry_bytes);

    // The survivors still serve, and the tree is back under the cap.
    CachedWorkload out;
    EXPECT_TRUE(cache.load("cc", workload.contentHash, out));
    EXPECT_TRUE(cache.load("bb", workload.contentHash, out));
    EXPECT_LE(treeBytes(dir), cache.maxBytes());

    // This process now holds both, so a cap smaller than one entry
    // refuses the next store instead of evicting either.
    TraceCache(dir, 1).store("dd", workload);
    std::vector<std::string> left;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            left.push_back(entry.path().string());
    }
    std::sort(left.begin(), left.end());
    std::vector<std::string> kept = {
        path_b, cache.entryPath("cc", workload.contentHash)};
    std::sort(kept.begin(), kept.end());
    EXPECT_EQ(left, kept);
    EXPECT_EQ(evictions.value(), evictions_before + 1);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, ByteCapKeepsWhatThisProcessTouched)
{
    // A suite walked in a fixed order through a cache capped below
    // its total: evicting by age alone removes, on every store, the
    // entry the next rerun looks up first, so no rerun ever hits. The
    // cap instead keeps every entry this process mapped or stored and
    // refuses a new entry that does not fit beside them.
    const std::string dir = makeCacheDir("cap_touched");
    const CachedWorkload workload = makeWorkload();
    const std::string sizing = makeCacheDir("cap_touched_size");
    const std::uint64_t entry_bytes = std::filesystem::file_size(
        plantEntry(TraceCache(sizing), "size", workload));
    std::filesystem::remove_all(sizing);
    const std::uint64_t cap = 2 * entry_bytes + entry_bytes / 2;

    obs::Counter &refusals =
        obs::Registry::global().counter("trace_cache.refusals");
    obs::Counter &evictions =
        obs::Registry::global().counter("trace_cache.evictions");
    const std::uint64_t evictions_before = evictions.value();
    const std::string names[] = {"aa", "bb", "cc", "dd"};
    for (int run = 0; run < 3; ++run) {
        SCOPED_TRACE(run);
        // Every record builds its own cache, as every recordWorkload
        // does; the set of touched entries is the process's.
        const TraceCache cache(dir, cap);
        resetTraceCacheCounters();
        const std::uint64_t refusals_before = refusals.value();
        for (const std::string &name : names) {
            CachedWorkload out;
            if (!cache.load(name, workload.contentHash, out))
                cache.store(name, workload);
        }
        const TraceCacheCounters counters = traceCacheCounters();
        EXPECT_EQ(counters.hits, run == 0 ? 0u : 2u);
        EXPECT_EQ(counters.stores, run == 0 ? 2u : 0u);
        EXPECT_EQ(refusals.value(), refusals_before + 2);
        for (const std::string &name : names) {
            EXPECT_EQ(std::filesystem::exists(
                          cache.entryPath(name, workload.contentHash)),
                      name == "aa" || name == "bb")
                << name;
        }
        EXPECT_LE(treeBytes(dir), cap);
    }
    EXPECT_EQ(evictions.value(), evictions_before);
    resetTraceCacheCounters();

    // Stores and loads from many threads share the touched set; the
    // tree ends within the cap, and every kept entry serves.
    const std::string shared = makeCacheDir("cap_touched_threads");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&shared, &workload, cap, t] {
            for (int i = 0; i < 4; ++i) {
                const std::string name =
                    "t" + std::to_string(t) + "_" + std::to_string(i);
                const TraceCache cache(shared, cap);
                CachedWorkload out;
                cache.store(name, workload);
                cache.load(name, workload.contentHash, out);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_LE(treeBytes(shared), cap);
    std::size_t served = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(shared)) {
        if (!entry.is_regular_file())
            continue;
        CachedWorkload out;
        std::string error;
        MapFailure failure = MapFailure::None;
        EXPECT_TRUE(mapEntryFile(entry.path().string(),
                                 workload.contentHash, out, error,
                                 failure))
            << error;
        ++served;
    }
    EXPECT_LE(served, 2u);
    std::filesystem::remove_all(shared);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, MismatchedContentHashIsNeverServed)
{
    const std::string dir = makeCacheDir("mismatch");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);

    // Plant the entry under a different hash's filename (a stale or
    // tampered file): the embedded hash disagrees and the load must
    // miss rather than silently serve the stale stream.
    const std::uint64_t other_hash = stored.contentHash ^ 0xff;
    std::filesystem::copy_file(
        cache.entryPath("fact", stored.contentHash),
        cache.entryPath("fact", other_hash));
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", other_hash, out));
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, ResolveDirPrefersConfigThenEnvironment)
{
    unsetenv("BRANCHLAB_TRACE_CACHE");
    EXPECT_EQ(TraceCache::resolveDir("/configured"), "/configured");
    EXPECT_EQ(TraceCache::resolveDir(""), "");
    setenv("BRANCHLAB_TRACE_CACHE", "/from-env", 1);
    EXPECT_EQ(TraceCache::resolveDir(""), "/from-env");
    EXPECT_EQ(TraceCache::resolveDir("/configured"), "/configured");
    unsetenv("BRANCHLAB_TRACE_CACHE");
}

TEST(TraceCache, ContentHasherIsOrderSensitive)
{
    const auto digest = [](auto feed) {
        ContentHasher hasher;
        feed(hasher);
        return hasher.digest();
    };
    const std::uint64_t a =
        digest([](ContentHasher &h) { h.u64(1).u64(2); });
    const std::uint64_t b =
        digest([](ContentHasher &h) { h.u64(2).u64(1); });
    EXPECT_NE(a, b);
    // str() is length-prefixed: ("ab","c") != ("a","bc").
    const std::uint64_t c =
        digest([](ContentHasher &h) { h.str("ab").str("c"); });
    const std::uint64_t d =
        digest([](ContentHasher &h) { h.str("a").str("bc"); });
    EXPECT_NE(c, d);
}

/** FNV-1a 64 over @p value's eight bytes, little-endian, one byte at
 *  a time from @p hash: the reference ContentHasher::u64 folds. */
std::uint64_t
fnv1aBytes(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

TEST(TraceCache, ContentHasherIsByteSerialFnv1a)
{
    // The published FNV-1a 64 vectors, through bytes().
    const auto of_string = [](std::string_view text) {
        return ContentHasher().bytes(text.data(), text.size()).digest();
    };
    EXPECT_EQ(of_string(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(of_string("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(of_string("foobar"), 0x85944171f73967e8ULL);

    // u64() folds the zero bytes above a word's highest nonzero byte;
    // hold it to the byte loop on every count of significant bytes,
    // 0 through 8, from the offset basis and from a mid-stream state.
    std::vector<std::uint64_t> values = {
        0,
        0xff,
        0x100,
        0xffff,
        (std::uint64_t{1} << 56) - 1,
        std::uint64_t{1} << 56,
        UINT64_MAX,
        static_cast<std::uint64_t>(std::int64_t{-1}),
        static_cast<std::uint64_t>(std::int64_t{-2}),
        static_cast<std::uint64_t>(std::int64_t{-256}),
        static_cast<std::uint64_t>(INT64_MIN),
    };
    for (int significant = 1; significant <= 8; ++significant) {
        const int shift = 8 * (significant - 1);
        values.push_back(std::uint64_t{1} << shift);
        values.push_back(std::uint64_t{0x80} << shift);
        values.push_back(0x0123456789abcdefULL >> (56 - shift));
    }
    const std::uint64_t basis = ContentHasher().digest();
    for (const std::uint64_t value : values) {
        SCOPED_TRACE(value);
        EXPECT_EQ(ContentHasher().u64(value).digest(),
                  fnv1aBytes(basis, value));
        EXPECT_EQ(ContentHasher().u64(0x5a).u64(value).digest(),
                  fnv1aBytes(fnv1aBytes(basis, 0x5a), value));
        unsigned char little_endian[8];
        for (int i = 0; i < 8; ++i)
            little_endian[i] = static_cast<unsigned char>(value >> (8 * i));
        EXPECT_EQ(ContentHasher().u64(value).digest(),
                  ContentHasher().bytes(little_endian, 8).digest());
    }
}

/** @p map's rows in pc order, as mapEntryFile derives them. */
std::vector<CachedLikely>
sortedLikely(const predict::LikelyMap &map)
{
    std::vector<CachedLikely> rows;
    for (const auto &[pc, info] : map)
        rows.push_back({pc, info.dominantTarget, info.likelyTaken});
    std::sort(rows.begin(), rows.end(),
              [](const CachedLikely &a, const CachedLikely &b) {
                  return a.pc < b.pc;
              });
    return rows;
}

/** A synthetic workload with a profile section folded from its
 *  stream, as a cold record writes it, plus the likely rows and
 *  counters a map of its entry derives. */
CachedWorkload
makeProfiledWorkload()
{
    const ir::Program prog = test::buildFactorial(5);
    const ir::Layout layout(prog);
    BranchRecorder recorder;
    const vm::RunResult run = test::runProgram(prog, &recorder);
    const SoaTrace stream = SoaTrace::fromEvents(recorder.takeEvents());
    const profile::ProgramProfile folded =
        profile::foldProfile(prog, layout, 1, TraceView::of(stream));

    CachedWorkload workload;
    workload.contentHash = 0x0badc0ffee0ddf00ULL;
    workload.runs = 1;
    workload.stats = streamCounters(stream, run.instructions);
    workload.likely = sortedLikely(folded.buildLikelyMap());
    workload.profile = folded.exportRows();
    workload.stream = stream;
    return workload;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(file), {});
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

EntryHeader
headerOf(const std::string &bytes)
{
    EntryHeader header;
    EXPECT_EQ(decodeEntryHeader(
                  reinterpret_cast<const std::uint8_t *>(bytes.data()),
                  bytes.size(), header),
              "");
    return header;
}

/** Replace the entry's (last) profile section with @p section and
 *  patch its table row -- length and a recomputed checksum -- so the
 *  checksum sweep passes and only the validator can object. */
void
plantProfileSection(const std::string &path, const std::string &section)
{
    std::string bytes = readFileBytes(path);
    const EntryHeader header = headerOf(bytes);
    ASSERT_TRUE(header.has(EntrySection::Profile));
    bytes.resize(header.section(EntrySection::Profile).offset);
    bytes += section;
    bytes.resize(alignSection(bytes.size()), '\0');
    const std::size_t row =
        kEntryHeaderBytes +
        static_cast<std::size_t>(EntrySection::Profile) * 24;
    const std::uint64_t fields[2] = {
        section.size(), checksum64(section.data(), section.size())};
    for (int f = 0; f < 2; ++f)
        for (int i = 0; i < 8; ++i)
            bytes[row + 8 + 8 * f + i] =
                static_cast<char>((fields[f] >> (8 * i)) & 0xff);
    writeFileBytes(path, bytes);
    resealHeader(path);
}

/** Recompute @p section's table-row checksum from the bytes the
 *  section now holds, then reseal the header, as a writer of those
 *  bytes would: only the validator can object to them. */
void
resealSection(const std::string &path, EntrySection section)
{
    const std::string bytes = readFileBytes(path);
    const SectionRecord record = headerOf(bytes).section(section);
    const std::size_t row =
        kEntryHeaderBytes + static_cast<std::size_t>(section) * 24;
    writeAt(path, static_cast<std::streamoff>(row + 16),
            littleEndian(checksum64(bytes.data() + record.offset,
                                    record.length)));
    resealHeader(path);
}

TEST(TraceCacheProfile, SectionRoundTripsAndIsOptional)
{
    const std::string dir = makeCacheDir("profile_roundtrip");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeProfiledWorkload();
    cache.store("fact", stored);
    const std::string path = cache.entryPath("fact", stored.contentHash);
    EXPECT_EQ(headerOf(readFileBytes(path)).sectionCount,
              kKnownSectionCount);

    CachedWorkload loaded;
    ASSERT_TRUE(cache.load("fact", stored.contentHash, loaded));
    ASSERT_TRUE(loaded.profile.has_value());
    EXPECT_EQ(*loaded.profile, *stored.profile);
    EXPECT_EQ(loaded.likely, stored.likely);
    EXPECT_EQ(loaded.stats, stored.stats);

    // Without a profile the writer emits the seven required sections:
    // the profiled entry minus its eighth table row and section, with
    // a section count of 7 (header bytes 28..31) and the header
    // checksum right after the seventh row.
    CachedWorkload bare = stored;
    bare.profile.reset();
    cache.store("bare", bare);
    const std::string bare_path =
        cache.entryPath("bare", bare.contentHash);
    const std::string bare_bytes = readFileBytes(bare_path);
    EXPECT_EQ(headerOf(bare_bytes).sectionCount, kEntrySectionCount);
    const std::string full = readFileBytes(path);
    std::string expected =
        full.substr(0, headerOf(full).section(EntrySection::Profile).offset);
    expected[28] = static_cast<char>(kEntrySectionCount);
    const std::size_t checksum_at =
        headerChecksumOffset(kEntrySectionCount);
    std::fill_n(expected.begin() + checksum_at, 32, '\0');
    expected.replace(checksum_at, 8,
                     littleEndian(checksum64(expected.data(),
                                             checksum_at)));
    EXPECT_EQ(bare_bytes, expected);
    ASSERT_TRUE(cache.load("bare", bare.contentHash, loaded));
    EXPECT_FALSE(loaded.profile.has_value());
    EXPECT_TRUE(loaded.likely.empty());
    EXPECT_EQ(loaded.stats, stored.stats);
    EXPECT_EQ(loaded.eventCount(), stored.stream.size());
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheProfile, TruncatedOrFlippedSectionIsCorrupt)
{
    const std::string dir = makeCacheDir("profile_damage");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeProfiledWorkload();
    cache.store("fact", stored);
    const std::string path = cache.entryPath("fact", stored.contentHash);
    const std::string pristine = readFileBytes(path);
    const SectionRecord section =
        headerOf(pristine).section(EntrySection::Profile);

    CachedWorkload out;
    std::string error;
    MapFailure failure = MapFailure::None;
    std::filesystem::resize_file(path, section.offset + section.length -
                                           1);
    EXPECT_FALSE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);
    EXPECT_EQ(error, "section profile out of bounds");

    writeFileBytes(path, pristine);
    patchByte(path,
              static_cast<std::streamoff>(section.offset +
                                          section.length / 2),
              0x08);
    EXPECT_FALSE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);
    EXPECT_EQ(error, "checksum mismatch in section profile");

    // Both reach the cache as a warned, counted corrupt miss.
    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    const std::uint64_t before = corrupt.value();
    resetWarningCount();
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    EXPECT_GE(warningCount(), 1u);

    writeFileBytes(path, pristine);
    EXPECT_TRUE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheProfile, MutatedSectionsAreRejectedOrRoundTrip)
{
    // Seeded byte flips and truncations of the profile section, each
    // planted with a matching checksum: the reader must reject the
    // result as Corrupt or accept rows that re-encode to the very
    // bytes it read -- never crash, never half-accept.
    const std::string dir = makeCacheDir("profile_mutate");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeProfiledWorkload();
    cache.store("fact", stored);
    const std::string path = cache.entryPath("fact", stored.contentHash);
    const std::string pristine = readFileBytes(path);
    const std::string section = encodeProfileSection(*stored.profile);

    std::mt19937_64 rng(0x5eed);
    std::size_t rejected = 0;
    for (int round = 0; round < 200; ++round) {
        std::string bad = section;
        if (round % 4 == 0) {
            bad.resize(rng() % bad.size());
        } else {
            for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0;
                 --flips)
                bad[rng() % bad.size()] ^=
                    static_cast<char>(1u << (rng() % 8));
        }
        writeFileBytes(path, pristine);
        plantProfileSection(path, bad);

        CachedWorkload out;
        std::string error;
        MapFailure failure = MapFailure::None;
        if (mapEntryFile(path, stored.contentHash, out, error, failure)) {
            ASSERT_TRUE(out.profile.has_value());
            EXPECT_EQ(encodeProfileSection(*out.profile), bad)
                << "round " << round;
        } else {
            EXPECT_EQ(failure, MapFailure::Corrupt) << error;
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 150u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheProfile, DerivedFieldsFollowTheProfilesRules)
{
    // One conditional branch taken once and not taken once, so its two
    // next pcs tie: it is not likely taken (taken must beat not-taken)
    // and its dominant target is the lower address, the fall-through
    // -- what ProgramProfile::buildLikelyMap answers. Two
    // unconditional branches, one with a known target and one
    // without, feed the target-known plane.
    const ir::Program prog = test::buildFactorial(5);
    const ir::Layout layout(prog);
    const ir::Addr branch = ir::kCodeBase;
    std::vector<BranchEvent> events(4);
    for (int i = 0; i < 2; ++i) {
        events[i].pc = branch;
        events[i].op = ir::Opcode::Beq;
        events[i].conditional = true;
        events[i].taken = i == 0;
        events[i].targetAddr = branch + 8;
        events[i].fallthroughAddr = branch + 1;
        events[i].nextPc = i == 0 ? branch + 8 : branch + 1;
    }
    for (int i = 2; i < 4; ++i) {
        events[i].pc = branch + static_cast<ir::Addr>(i);
        events[i].op = i == 2 ? ir::Opcode::Jmp : ir::Opcode::JTab;
        events[i].targetKnown = i == 2;
        events[i].targetAddr = i == 2 ? branch : ir::kNoAddr;
        events[i].fallthroughAddr = events[i].pc + 1;
        events[i].nextPc = branch;
    }
    const SoaTrace stream = SoaTrace::fromEvents(events);
    const profile::ProgramProfile folded =
        profile::foldProfile(prog, layout, 1, TraceView::of(stream));

    CachedWorkload workload;
    workload.contentHash = 0x7135ULL;
    workload.runs = 1;
    workload.stats.instructions = 40;
    workload.profile = folded.exportRows();
    workload.stream = stream;
    const std::string dir = makeCacheDir("derived_rules");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/ties.bltc";
    std::uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(writeEntryFile(path, workload, bytes, error)) << error;

    CachedWorkload out;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapEntryFile(path, std::nullopt, out, error, failure))
        << error;
    EXPECT_EQ(out.likely, sortedLikely(folded.buildLikelyMap()));
    ASSERT_FALSE(out.likely.empty());
    EXPECT_EQ(out.likely.front(),
              (CachedLikely{branch, branch + 1, false}));
    // instructions, branches, conditional, cond taken, uncond known.
    EXPECT_EQ(out.stats, (TraceCounters{40, 4, 2, 1, 1}));
    EXPECT_EQ(out.stats, streamCounters(stream, 40));
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, LyingHeaderCountsAreRejectedAsCorrupt)
{
    // An event count the checksummed header declares but the file
    // cannot hold (as a buggy writer could seal it) ends in a
    // diagnostic before any length arithmetic can wrap or any column
    // is read.
    const std::string dir = makeCacheDir("lying_counts");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path = cache.entryPath("fact", stored.contentHash);
    const std::uint64_t file_size = std::filesystem::file_size(path);

    // u64 event count at header byte 40: past the whole file.
    writeAt(path, 40, littleEndian(file_size + 1));
    resealHeader(path);
    CachedWorkload out;
    std::string error;
    MapFailure failure = MapFailure::None;
    EXPECT_FALSE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);
    EXPECT_EQ(error, "implausible event count");
    EXPECT_EQ(out.mapped, nullptr);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, EveryHeaderBitFlipIsRefusedNeverServed)
{
    // One bit at a time, every bit of a stored entry's header, section
    // table and header checksum. A flip in the version field makes a
    // foreign entry; every other flip -- the run count, the
    // instruction count and the max pc included -- is corruption. None may be
    // served, and none may abort.
    const std::string dir = makeCacheDir("header_flips");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeProfiledWorkload();
    cache.store("fact", stored);
    const std::string path = cache.entryPath("fact", stored.contentHash);
    const std::string pristine = readFileBytes(path);
    const std::size_t header_bytes =
        headerChecksumOffset(headerOf(pristine).sectionCount) + 8;

    std::size_t foreign = 0;
    for (std::size_t bit = 0; bit < header_bytes * 8; ++bit) {
        const std::streamoff byte = static_cast<std::streamoff>(bit / 8);
        const auto mask = static_cast<unsigned char>(1u << (bit % 8));
        patchByte(path, byte, mask);
        CachedWorkload out;
        std::string error;
        MapFailure failure = MapFailure::None;
        EXPECT_FALSE(
            mapEntryFile(path, stored.contentHash, out, error, failure))
            << "bit " << bit;
        EXPECT_EQ(out.mapped, nullptr) << "bit " << bit;
        const bool version_field = byte >= 4 && byte < 8;
        EXPECT_EQ(failure, version_field ? MapFailure::Foreign
                                         : MapFailure::Corrupt)
            << "bit " << bit << ": " << error;
        foreign += failure == MapFailure::Foreign ? 1 : 0;
        patchByte(path, byte, mask);
    }
    EXPECT_EQ(foreign, 32u);

    // Through the cache, a flipped run count is a counted, warned
    // miss -- never a hit reporting another run count.
    patchByte(path, 24, 0x02);
    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    const std::uint64_t before = corrupt.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, BadMagicAndShortHeadersAreRejectedAsCorrupt)
{
    // A file of another kind, or one too short to hold a header, is
    // never mistaken for an entry.
    const std::string dir = makeCacheDir("not_an_entry");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path = cache.entryPath("fact", stored.contentHash);
    const std::string pristine = readFileBytes(path);

    const struct
    {
        std::string bytes;
        const char *diagnostic;
    } cases[] = {
        {"XXXX" + pristine.substr(4), "bad magic"},
        {pristine.substr(0, kEntryHeaderBytes - 1), "truncated header"},
    };
    for (const auto &bad : cases) {
        SCOPED_TRACE(bad.diagnostic);
        writeFileBytes(path, bad.bytes);
        CachedWorkload out;
        std::string error;
        MapFailure failure = MapFailure::None;
        EXPECT_FALSE(
            mapEntryFile(path, stored.contentHash, out, error, failure));
        EXPECT_EQ(failure, MapFailure::Corrupt);
        EXPECT_EQ(error, bad.diagnostic);
        EXPECT_EQ(out.mapped, nullptr);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, OpcodeOutsideTheIsaIsRejectedAsCorrupt)
{
    // An ops byte past the last opcode, sealed into an otherwise
    // well-formed entry, is refused before any view could decode it,
    // wherever it sits in the word-at-a-time check: byte 0, every lane
    // of an interior word, and the sub-word tail. With two bad bytes
    // the error names the first.
    const std::string dir = makeCacheDir("bad_opcode");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path = cache.entryPath("fact", stored.contentHash);
    const std::string pristine = readFileBytes(path);
    const SectionRecord ops =
        headerOf(pristine).section(EntrySection::Ops);
    // Two whole words and a tail, so word 1 is interior.
    ASSERT_GT(ops.length, 16u);
    ASSERT_NE(ops.length % 8, 0u) << "no sub-word tail";

    const auto expect_refused =
        [&](const std::vector<std::pair<std::uint64_t, unsigned>> &planted,
            unsigned named) {
            std::string bytes = pristine;
            for (const auto &[at, bad] : planted)
                bytes[ops.offset + at] = static_cast<char>(bad);
            writeFileBytes(path, bytes);
            resealSection(path, EntrySection::Ops);
            CachedWorkload out;
            std::string error;
            MapFailure failure = MapFailure::None;
            EXPECT_FALSE(mapEntryFile(path, stored.contentHash, out, error,
                                      failure));
            EXPECT_EQ(failure, MapFailure::Corrupt);
            EXPECT_EQ(error, "bad opcode " + std::to_string(named));
            EXPECT_EQ(out.mapped, nullptr);
        };
    std::vector<std::uint64_t> positions = {0};
    for (std::uint64_t lane = 0; lane < 8; ++lane)
        positions.push_back(8 + lane);
    positions.push_back(ops.length / 8 * 8); // the tail's first byte
    positions.push_back(ops.length - 1);
    // 0x80 is past the ISA only by its high bit.
    for (const unsigned bad : {unsigned{ir::kNumOpcodes}, 0x80u, 0xffu}) {
        for (const std::uint64_t at : positions) {
            SCOPED_TRACE("opcode " + std::to_string(bad) + " at byte " +
                         std::to_string(at));
            expect_refused({{at, bad}}, bad);
        }
    }
    const unsigned first = ir::kNumOpcodes + 1;
    const unsigned second = 0xfe;
    {
        SCOPED_TRACE("two bad bytes in one word");
        expect_refused({{13, second}, {11, first}}, first);
    }
    {
        SCOPED_TRACE("two bad bytes in different words");
        expect_refused({{ops.length - 1, second}, {2, first}}, first);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, StandaloneFileIsHeldToTheHashItsHeaderDeclares)
{
    // A trace file outside any cache has no lookup key: mapped without
    // one, it must match the content hash its checksummed header
    // declares, and it carries every field a cache hit does.
    const std::string dir = makeCacheDir("standalone");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/trace.bltc";
    const CachedWorkload stored = makeProfiledWorkload();
    std::uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(writeEntryFile(path, stored, bytes, error)) << error;
    EXPECT_EQ(bytes, std::filesystem::file_size(path));

    CachedWorkload out;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapEntryFile(path, std::nullopt, out, error, failure))
        << error;
    EXPECT_EQ(out.contentHash, stored.contentHash);
    EXPECT_EQ(out.runs, stored.runs);
    EXPECT_EQ(out.stats, stored.stats);
    EXPECT_EQ(out.likely, stored.likely);
    EXPECT_EQ(out.profile, stored.profile);
    ASSERT_NE(out.mapped, nullptr);
    const SoaTrace decoded = materializeView(out.traceView());
    EXPECT_EQ(decoded.size(), stored.stream.size());
    EXPECT_EQ(decoded.ops(), stored.stream.ops());
    EXPECT_EQ(decoded.deltas(), stored.stream.deltas());

    // Any other key is a mismatch.
    out = CachedWorkload{};
    EXPECT_FALSE(
        mapEntryFile(path, stored.contentHash ^ 1, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);
    EXPECT_EQ(error, "mismatched content hash");

    // A damaged declared hash fails the header checksum, key or not.
    patchByte(path, 16, 0x01);
    const std::optional<std::uint64_t> keys[] = {std::nullopt,
                                                  stored.contentHash};
    for (const std::optional<std::uint64_t> &key : keys) {
        out = CachedWorkload{};
        EXPECT_FALSE(mapEntryFile(path, key, out, error, failure));
        EXPECT_EQ(failure, MapFailure::Corrupt);
        EXPECT_EQ(out.mapped, nullptr);
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Warm-path integration through recordWorkload and the runner.
// ---------------------------------------------------------------------

core::ExperimentConfig
cachedConfig(const std::string &dir)
{
    core::ExperimentConfig config;
    config.runsOverride = 2;
    config.traceCacheDir = dir;
    return config;
}

TEST(TraceCacheIntegration, WarmRecordWorkloadIsBitIdentical)
{
    const std::string dir = makeCacheDir("record");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("tee");

    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    EXPECT_FALSE(cold.cacheHit);
    const core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    EXPECT_TRUE(warm.cacheHit);
    // Warm hits arrive zero-copy mapped; replay consumers see the
    // same stream through traceView().
    EXPECT_NE(warm.mapped, nullptr);

    EXPECT_EQ(warm.contentHash, cold.contentHash);
    EXPECT_EQ(warm.runs, cold.runs);
    EXPECT_EQ(warm.stats.counters(), cold.stats.counters());
    ASSERT_EQ(warm.eventCount(), cold.eventCount());
    const std::vector<trace::BranchEvent> warm_events = warm.events();
    const std::vector<trace::BranchEvent> cold_events = cold.events();
    ASSERT_EQ(warm_events.size(), cold_events.size());
    for (std::size_t i = 0; i < warm_events.size(); ++i) {
        const trace::BranchEvent w = warm_events[i];
        const trace::BranchEvent c = cold_events[i];
        EXPECT_EQ(w.pc, c.pc);
        EXPECT_EQ(w.nextPc, c.nextPc);
        EXPECT_EQ(w.targetAddr, c.targetAddr);
        EXPECT_EQ(w.fallthroughAddr, c.fallthroughAddr);
        EXPECT_EQ(w.op, c.op);
        EXPECT_EQ(w.conditional, c.conditional);
        EXPECT_EQ(w.taken, c.taken);
        EXPECT_EQ(w.targetKnown, c.targetKnown);
    }
    EXPECT_EQ(warm.likelyMap.size(), cold.likelyMap.size());
    for (const auto &[pc, info] : cold.likelyMap) {
        const auto it = warm.likelyMap.find(pc);
        ASSERT_NE(it, warm.likelyMap.end());
        EXPECT_EQ(it->second.likelyTaken, info.likelyTaken);
        EXPECT_EQ(it->second.dominantTarget, info.dominantTarget);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, WarmBenchmarkResultsAreBitIdentical)
{
    const std::string dir = makeCacheDir("bench");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("cmp");

    const core::BenchmarkResult cold =
        core::ExperimentRunner(config).runBenchmark(workload);
    resetTraceCacheCounters();
    const core::BenchmarkResult warm =
        core::ExperimentRunner(config).runBenchmark(workload);
    EXPECT_EQ(traceCacheCounters().hits, 1u);
    EXPECT_EQ(traceCacheCounters().misses, 0u);

    EXPECT_EQ(warm.sbtb.accuracy, cold.sbtb.accuracy);
    EXPECT_EQ(warm.sbtb.missRatio, cold.sbtb.missRatio);
    EXPECT_EQ(warm.cbtb.accuracy, cold.cbtb.accuracy);
    EXPECT_EQ(warm.cbtb.missRatio, cold.cbtb.missRatio);
    EXPECT_EQ(warm.fs.accuracy, cold.fs.accuracy);
    EXPECT_EQ(warm.stats.instructions(), cold.stats.instructions());
    EXPECT_EQ(warm.stats.branches(), cold.stats.branches());
    // Table 5 works from cached events too.
    EXPECT_EQ(warm.codeIncrease, cold.codeIncrease);
    EXPECT_EQ(warm.runs, cold.runs);
    EXPECT_EQ(warm.staticSize, cold.staticSize);
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, CorruptEntryIsReRecordedAndOverwritten)
{
    const std::string dir = makeCacheDir("rerecord");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("tee");

    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    EXPECT_FALSE(cold.cacheHit);

    // Truncate the published entry: the next record must treat it as
    // a miss, re-record, and overwrite it with a good entry.
    const trace::TraceCache cache(dir);
    const std::string path =
        cache.entryPath(cold.name, cold.contentHash);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 3);

    resetWarningCount();
    const core::RecordedWorkload rerecorded =
        core::recordWorkload(workload, config);
    EXPECT_FALSE(rerecorded.cacheHit);
    EXPECT_GE(warningCount(), 1u);
    EXPECT_EQ(rerecorded.eventCount(), cold.eventCount());

    const core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.eventCount(), cold.eventCount());
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, WarmSuiteTimesTheKeyTheMapAndTheRestore)
{
    // Inside each workload's engine.record span, a warm suite times
    // the key (program, inputs, content hash), the map (load and
    // validation) and the profile restore once each, and those spans
    // never hold more than engine.record does.
    const std::string dir = makeCacheDir("record_spans");
    core::ExperimentConfig config = cachedConfig(dir);
    config.runsOverride = 1;
    (void)core::ExperimentRunner(config).runAll();

    obs::Registry &registry = obs::Registry::global();
    const std::string parts[] = {"engine.key", "engine.map",
                                 "engine.restore"};
    const auto spans = [&] {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> now;
        for (const std::string &name : parts)
            now.emplace_back(registry.span(name).count(),
                             registry.span(name).totalNs());
        now.emplace_back(registry.span("engine.record").count(),
                         registry.span("engine.record").totalNs());
        return now;
    };
    const auto before = spans();
    resetTraceCacheCounters();
    (void)core::ExperimentRunner(config).runAll();
    const auto after = spans();
    const std::uint64_t suite_size = workloads::allWorkloads().size();
    ASSERT_EQ(traceCacheCounters().hits, suite_size);

    std::uint64_t parts_ns = 0;
    for (std::size_t i = 0; i < std::size(parts); ++i) {
        SCOPED_TRACE(parts[i]);
        EXPECT_EQ(after[i].first - before[i].first, suite_size);
        parts_ns += after[i].second - before[i].second;
    }
    EXPECT_EQ(after.back().first - before.back().first, suite_size);
    EXPECT_LE(parts_ns, after.back().second - before.back().second);
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, DifferentConfigsUseDifferentEntries)
{
    core::ExperimentConfig config;
    config.runsOverride = 2;
    const workloads::Workload &workload =
        workloads::findWorkload("tee");
    const std::uint64_t base =
        core::workloadContentHash(workload, config);

    core::ExperimentConfig other_seed = config;
    other_seed.seed ^= 0x5a5a;
    EXPECT_NE(core::workloadContentHash(workload, other_seed), base);

    core::ExperimentConfig other_runs = config;
    other_runs.runsOverride = 3;
    EXPECT_NE(core::workloadContentHash(workload, other_runs), base);

    core::ExperimentConfig other_limit = config;
    other_limit.maxInstructionsPerRun /= 2;
    EXPECT_NE(core::workloadContentHash(workload, other_limit), base);

    // The hash is stable for an identical configuration.
    EXPECT_EQ(core::workloadContentHash(workload, config), base);
}

/** Delta of recordWorkload's profile counter across a scope. */
struct ProfileCounterMark
{
    obs::Counter &restored =
        obs::Registry::global().counter("engine.profile.restored");
    std::uint64_t restoredAt = restored.value();

    std::uint64_t restoredSince() const
    {
        return restored.value() - restoredAt;
    }
};

/** One self-consistent-looking but wrong profile section, and the
 *  diagnostic the validator must reject it with. */
struct ProfileMutation
{
    const char *name;
    const char *diagnostic;
    void (*mutate)(CachedProfile &profile, ir::Addr max_pc);
};

/** The dominant next-PC entry of @p row (BranchCounts order). */
std::pair<ir::Addr, std::uint64_t> &
dominantNext(CachedProfileRow &row)
{
    auto *best = &row.next.front();
    for (auto &entry : row.next)
        if (entry.second > best->second)
            best = &entry;
    return *best;
}

/** The first branch row of @p conditional kind whose execution count
 *  is not a multiple of @p stride (1: any row of that kind). */
CachedProfileRow &
historyRow(CachedProfile &profile, bool conditional, std::uint64_t stride)
{
    const auto it = std::find_if(
        profile.branches.begin(), profile.branches.end(),
        [&](const CachedProfileRow &row) {
            return row.conditional == conditional &&
                   (stride == 1 || (row.taken + row.notTaken) % 64 != 0);
        });
    EXPECT_NE(it, profile.branches.end());
    return *it;
}

const ProfileMutation kProfileMutations[] = {
    {"unsorted", "profile branch rows out of order",
     [](CachedProfile &p, ir::Addr) {
         std::swap(p.branches[0], p.branches[1]);
     }},
    {"duplicate", "profile branch rows out of order",
     [](CachedProfile &p, ir::Addr) {
         p.branches.insert(p.branches.begin() + 1, p.branches[0]);
     }},
    {"duplicate-path", "profile path rows out of order",
     [](CachedProfile &p, ir::Addr) {
         p.paths.insert(p.paths.begin() + 1, p.paths[0]);
     }},
    {"pc-above-max", "profile pc above max pc",
     [](CachedProfile &p, ir::Addr max_pc) {
         p.branches.back().pc = max_pc + 1;
     }},
    {"next-sum", "profile next-counts do not sum to executions",
     [](CachedProfile &p, ir::Addr) { ++p.branches[0].next[0].second; }},
    {"execution-sum", "profile executions do not sum to the event count",
     [](CachedProfile &p, ir::Addr) {
         // One more execution on the majority side and the dominant
         // target: the row stays consistent with itself, only the
         // total is off.
         CachedProfileRow &row = p.branches[0];
         ++(row.taken > row.notTaken ? row.taken : row.notTaken);
         ++dominantNext(row).second;
     }},
    {"path-sum", "profile path executions do not match the event count",
     [](CachedProfile &p, ir::Addr) { p.paths.pop_back(); }},
    {"outcome-bit", "profile outcome bits do not match the taken count",
     [](CachedProfile &p, ir::Addr) {
         historyRow(p, true, 1).outcomes[0] ^= 1;
     }},
    {"stray-outcome-bit", "profile outcome bits past the executions",
     [](CachedProfile &p, ir::Addr) {
         CachedProfileRow &row = historyRow(p, true, 2);
         row.outcomes.back() |= std::uint64_t{1}
                                << ((row.taken + row.notTaken) % 64);
     }},
    {"conditional-repeats", "conditional profile row carries repeats",
     [](CachedProfile &p, ir::Addr) { historyRow(p, true, 1).repeats = 1; }},
    {"repeats", "profile repeats exceed executions - 1",
     [](CachedProfile &p, ir::Addr) {
         CachedProfileRow &row = historyRow(p, false, 1);
         row.repeats = row.taken + row.notTaken;
     }},
    {"last-next", "profile last next pc never followed the branch",
     [](CachedProfile &p, ir::Addr) {
         historyRow(p, false, 1).lastNext = ir::kNoAddr - 1;
     }},
};

TEST(TraceCacheIntegration, InconsistentProfileSectionIsReRecorded)
{
    const std::string dir = makeCacheDir("profile_validate");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("tee");
    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    ASSERT_FALSE(cold.cacheHit);
    const std::string path =
        TraceCache(dir).entryPath(cold.name, cold.contentHash);
    const std::string pristine = readFileBytes(path);
    const trace::CachedProfile rows = cold.profile->exportRows();
    const ir::Addr max_pc = headerOf(pristine).maxPc;
    ASSERT_GE(rows.branches.size(), 2u);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    for (const ProfileMutation &mutation : kProfileMutations) {
        SCOPED_TRACE(mutation.name);
        CachedProfile bad = rows;
        mutation.mutate(bad, max_pc);
        ASSERT_NE(bad, rows);
        writeFileBytes(path, pristine);
        plantProfileSection(path, encodeProfileSection(bad));

        // The checksums hold; the validator alone must object.
        CachedWorkload out;
        std::string error;
        MapFailure failure = MapFailure::None;
        EXPECT_FALSE(
            mapEntryFile(path, cold.contentHash, out, error, failure));
        EXPECT_EQ(failure, MapFailure::Corrupt);
        EXPECT_EQ(error, mutation.diagnostic);

        // Through the runner: warned, counted, re-recorded, and the
        // rewritten entry carries the true profile again.
        const std::uint64_t corrupt_before = corrupt.value();
        resetWarningCount();
        const core::RecordedWorkload again =
            core::recordWorkload(workload, config);
        EXPECT_FALSE(again.cacheHit);
        EXPECT_GE(warningCount(), 1u);
        EXPECT_EQ(corrupt.value(), corrupt_before + 1);
        ASSERT_TRUE(
            mapEntryFile(path, cold.contentHash, out, error, failure));
        ASSERT_TRUE(out.profile.has_value());
        EXPECT_EQ(*out.profile, rows);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, EntriesWithoutProfileAreReRecorded)
{
    // A stream-only entry, as a synthetic writer stores it: the
    // profile is the entry's one derived record, so recordWorkload
    // records again and stores a whole entry rather than fold the
    // stream, and the next call restores the profile from it.
    const std::string dir = makeCacheDir("profile_less");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("tee");
    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    ASSERT_FALSE(cold.cacheHit);
    const trace::CachedProfile rows = cold.profile->exportRows();

    const TraceCache cache(dir);
    const std::string path = cache.entryPath(cold.name, cold.contentHash);
    CachedWorkload entry;
    ASSERT_TRUE(cache.load(cold.name, cold.contentHash, entry));
    entry.stream = materializeView(entry.traceView());
    entry.mapped.reset();
    entry.profile.reset();
    cache.store(cold.name, entry);
    ASSERT_EQ(headerOf(readFileBytes(path)).sectionCount,
              kEntrySectionCount);

    obs::Registry &reg = obs::Registry::global();
    const obs::Counter &stores = reg.counter("trace_cache.stores");
    const obs::Counter &hits = reg.counter("trace_cache.hits");
    const obs::Counter &misses = reg.counter("trace_cache.misses");
    const ProfileCounterMark mark;
    const std::uint64_t stores_before = stores.value();
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t misses_before = misses.value();
    const TraceCacheCounters counters_before = traceCacheCounters();
    const core::RecordedWorkload again =
        core::recordWorkload(workload, config);
    EXPECT_FALSE(again.cacheHit);
    EXPECT_EQ(stores.value(), stores_before + 1);
    // The refused entry is one miss, never a hit, in both counter
    // families.
    EXPECT_EQ(hits.value(), hits_before);
    EXPECT_EQ(misses.value(), misses_before + 1);
    EXPECT_EQ(traceCacheCounters().hits, counters_before.hits);
    EXPECT_EQ(traceCacheCounters().misses, counters_before.misses + 1);
    EXPECT_EQ(mark.restoredSince(), 0u);
    EXPECT_EQ(again.profile->exportRows(), rows);
    EXPECT_EQ(headerOf(readFileBytes(path)).sectionCount,
              kKnownSectionCount);

    const core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(mark.restoredSince(), 1u);
    EXPECT_EQ(warm.profile->exportRows(), rows);
    std::filesystem::remove_all(dir);
}

/** @p current, an entry's bytes, in the retired v3 layout: a 96-byte
 *  header that also stores @p stats' four branch counters and a
 *  likely count, and a likely section (17 bytes per row) ahead of the
 *  same sections. */
std::string
retiredV3Entry(const std::string &current,
               const std::vector<CachedLikely> &likely,
               const TraceCounters &stats)
{
    const EntryHeader header = headerOf(current);
    std::vector<std::string> sections(1);
    for (const CachedLikely &row : likely)
        sections[0] += littleEndian(row.pc) +
                       littleEndian(row.dominantTarget) +
                       std::string(1, row.likelyTaken ? '\1' : '\0');
    for (std::size_t s = 0; s < header.sectionCount; ++s)
        sections.push_back(current.substr(header.sections[s].offset,
                                          header.sections[s].length));
    std::string out =
        "BLTC" + littleEndian(3, 4) + littleEndian(header.featureBits) +
        littleEndian(header.contentHash) + littleEndian(header.runs, 4) +
        littleEndian(sections.size(), 4) + littleEndian(stats.instructions) +
        littleEndian(stats.branches) + littleEndian(stats.conditional) +
        littleEndian(stats.condTaken) + littleEndian(stats.uncondKnown) +
        littleEndian(header.eventCount) + littleEndian(header.maxPc) +
        littleEndian(likely.size());
    std::uint64_t offset = kSectionAlign;
    for (const std::string &section : sections) {
        out += littleEndian(offset) + littleEndian(section.size()) +
               littleEndian(checksum64(section.data(), section.size()));
        offset = alignSection(offset + section.size());
    }
    out += littleEndian(checksum64(out.data(), out.size()));
    for (const std::string &section : sections) {
        out.resize(alignSection(out.size()), '\0');
        out += section;
    }
    out.resize(alignSection(out.size()), '\0');
    return out;
}

/** @p v5, an entry's bytes, in the retired v4 layout: the same
 *  header fields and stream sections, and a profile section whose
 *  rows carry only their tallies (@p profile's), not the branch
 *  histories v5 appends. */
std::string
retiredV4Entry(const std::string &v5, const CachedProfile &profile)
{
    std::string section = littleEndian(profile.branches.size()) +
                          littleEndian(profile.paths.size()) +
                          littleEndian(profile.lastPc);
    for (const auto *rows : {&profile.branches, &profile.paths}) {
        for (const CachedProfileRow &row : *rows) {
            section += littleEndian(row.pc) + littleEndian(row.prevPc) +
                       littleEndian(row.taken) + littleEndian(row.notTaken) +
                       littleEndian(row.next.size());
            for (const auto &[addr, count] : row.next)
                section += littleEndian(addr) + littleEndian(count);
        }
    }
    const EntryHeader header = headerOf(v5);
    std::string out =
        v5.substr(0, header.section(EntrySection::Profile).offset) + section;
    out.resize(alignSection(out.size()), '\0');
    out.replace(4, 4, littleEndian(4, 4));
    const std::size_t row =
        kEntryHeaderBytes +
        static_cast<std::size_t>(EntrySection::Profile) * kSectionRecordBytes;
    out.replace(row + 8, 16,
                littleEndian(section.size()) +
                    littleEndian(checksum64(section.data(), section.size())));
    const std::uint64_t at = headerChecksumOffset(header.sectionCount);
    out.replace(at, 8, littleEndian(checksum64(out.data(), at)));
    return out;
}

/** Every line written to std::cerr, the log's sink, while alive. */
class CapturedLog
{
  public:
    CapturedLog() : saved_(std::cerr.rdbuf(text_.rdbuf())) {}
    ~CapturedLog() { std::cerr.rdbuf(saved_); }
    CapturedLog(const CapturedLog &) = delete;
    CapturedLog &operator=(const CapturedLog &) = delete;

    /** The captured lines that contain @p needle. */
    std::size_t
    count(const std::string &needle) const
    {
        std::istringstream lines(text_.str());
        std::size_t n = 0;
        for (std::string line; std::getline(lines, line);)
            n += line.find(needle) != std::string::npos ? 1 : 0;
        return n;
    }

  private:
    std::ostringstream text_;
    std::streambuf *saved_;
};

TEST(TraceCacheIntegration, RefusedEntriesLogOneMissLineEach)
{
    // A corrupt entry and a foreign (v4) one each log exactly one
    // `trace cache miss:` line, the line scripts/run_all.sh counts,
    // beside the corruption warning and the counters.
    const std::string dir = makeCacheDir("miss_lines");
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.traceCacheDir = dir;
    const workloads::Workload &workload = workloads::findWorkload("tee");
    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    ASSERT_FALSE(cold.cacheHit);
    const TraceCache cache(dir);
    const std::string path = cache.entryPath(cold.name, cold.contentHash);
    const std::string current = readFileBytes(path);
    std::string corrupt = current;
    corrupt[corrupt.size() / 2] ^= 0x10;

    obs::Counter &corrupt_entries =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::pair<const char *, std::string> plants[] = {
        {"corrupt", corrupt},
        {"v4", retiredV4Entry(current, cold.profile->exportRows())},
    };
    for (const auto &[name, bytes] : plants) {
        SCOPED_TRACE(name);
        writeFileBytes(path, bytes);
        const bool is_corrupt = std::string(name) == "corrupt";
        const std::uint64_t corrupt_before = corrupt_entries.value();
        const std::uint64_t failures_before = map_failures.value();
        resetTraceCacheCounters();
        resetWarningCount();
        CachedWorkload out;
        bool hit = true;
        std::size_t miss_lines = 0;
        {
            const CapturedLog log;
            hit = cache.load(cold.name, cold.contentHash, out);
            miss_lines = log.count("trace cache miss: " + cold.name + " (");
        }
        EXPECT_FALSE(hit);
        EXPECT_EQ(miss_lines, 1u);
        EXPECT_EQ(traceCacheCounters().misses, 1u);
        EXPECT_EQ(map_failures.value(), failures_before + 1);
        EXPECT_EQ(corrupt_entries.value(),
                  corrupt_before + (is_corrupt ? 1 : 0));
        EXPECT_EQ(warningCount(), is_corrupt ? 1u : 0u);
    }
    resetTraceCacheCounters();
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, RetiredEntriesAreForeignAndReRecorded)
{
    // Entries in a retired layout are intact but foreign: refused
    // without the corruption warning, re-recorded, and replaced by a
    // current entry. v1 held an inline payload; v3 stored the likely
    // rows and branch counters beside the profile they derive from;
    // v4 profile rows lacked the branch histories.
    const std::string dir = makeCacheDir("retired");
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.traceCacheDir = dir;
    const workloads::Workload &workload = workloads::findWorkload("tee");
    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    ASSERT_FALSE(cold.cacheHit);
    const std::string path =
        TraceCache(dir).entryPath(cold.name, cold.contentHash);
    const std::string current = readFileBytes(path);

    const std::pair<const char *, std::string> plants[] = {
        // magic, version 1, content hash, runs, five stats, likely
        // count, event count, payload size, payload.
        {"v1", "BLTC" + littleEndian(1, 4) + littleEndian(cold.contentHash) +
                   littleEndian(1, 4) + std::string(5 * 8, '\0') +
                   littleEndian(0) + littleEndian(1000) +
                   littleEndian(4096) + std::string(4096, '\0')},
        {"v3", retiredV3Entry(current, sortedLikely(cold.likelyMap),
                              cold.stats.counters())},
        {"v4", retiredV4Entry(current, cold.profile->exportRows())},
    };
    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    for (const auto &[version, bytes] : plants) {
        SCOPED_TRACE(version);
        writeFileBytes(path, bytes);
        const std::uint64_t corrupt_before = corrupt.value();
        const std::uint64_t failures_before = map_failures.value();
        resetTraceCacheCounters();
        resetWarningCount();
        const core::RecordedWorkload again =
            core::recordWorkload(workload, config);
        EXPECT_FALSE(again.cacheHit);
        EXPECT_EQ(map_failures.value(), failures_before + 1);
        EXPECT_EQ(corrupt.value(), corrupt_before);
        EXPECT_EQ(warningCount(), 0u);
        EXPECT_EQ(traceCacheCounters().stores, 1u);
        EXPECT_EQ(readFileBytes(path), current);
        EXPECT_TRUE(core::recordWorkload(workload, config).cacheHit);
    }
    resetTraceCacheCounters();
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, RecordedTraceFileIsTheCacheEntry)
{
    // A trace file and a cache store build their entry in one place
    // (core::takeCacheEntry) and write it through one writer, so the
    // file is byte for byte the cache's entry: from a cold record, and
    // from a mapped hit, which is materialised first.
    const std::string dir = makeCacheDir("record_file");
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.traceCacheDir = dir;
    const workloads::Workload &workload = workloads::findWorkload("tee");
    const std::string path = ::testing::TempDir() + "blab_record.bltc";
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "cold");
        core::RecordedWorkload recorded =
            core::recordWorkload(workload, config);
        EXPECT_EQ(recorded.cacheHit, warm);
        const std::string cached = readFileBytes(
            TraceCache(dir).entryPath(recorded.name, recorded.contentHash));
        ASSERT_FALSE(cached.empty());

        const CachedWorkload entry = core::takeCacheEntry(recorded);
        std::uint64_t bytes = 0;
        std::string error;
        ASSERT_TRUE(writeEntryFile(path, entry, bytes, error)) << error;
        EXPECT_EQ(bytes, cached.size());
        EXPECT_EQ(readFileBytes(path), cached);
    }
    std::remove(path.c_str());
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, TraceFileReplaysLikeTheRecordedStream)
{
    // A trace file replays from its mapping alone, the profiled scheme
    // reading the likely rows derived from the entry's profile
    // section: every scheme scores exactly as on the stream the file
    // was recorded from.
    core::ExperimentConfig config;
    config.runsOverride = 1;
    core::RecordedWorkload recorded =
        core::recordWorkload(workloads::findWorkload("tee"), config);

    const auto score = [](const TraceView &view,
                          const predict::LikelyMap &likely) {
        predict::SimpleBtb sbtb;
        predict::CounterBtb cbtb;
        predict::AlwaysTaken taken;
        predict::AlwaysNotTaken not_taken;
        predict::BackwardTaken btfnt;
        predict::OpcodeBias opcode_bias;
        predict::ProfilePredictor fs(likely);
        predict::BranchPredictor *const schemes[] = {
            &sbtb, &cbtb, &taken, &not_taken, &btfnt, &opcode_bias, &fs};
        std::vector<core::ReplayResult> results;
        for (predict::BranchPredictor *scheme : schemes)
            results.push_back(core::replay(view, *scheme));
        return results;
    };
    const std::vector<core::ReplayResult> expected =
        score(recorded.traceView(), recorded.likelyMap);

    const std::string path = ::testing::TempDir() + "blab_replay.bltc";
    {
        const CachedWorkload entry = core::takeCacheEntry(recorded);
        std::uint64_t bytes = 0;
        std::string error;
        ASSERT_TRUE(writeEntryFile(path, entry, bytes, error)) << error;
    }
    CachedWorkload file;
    std::string error;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapEntryFile(path, std::nullopt, file, error, failure))
        << error;
    const std::vector<core::ReplayResult> replayed =
        score(file.traceView(), core::cachedToLikely(file.likely));

    ASSERT_EQ(replayed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE(i);
        const predict::PredictorStats &a = replayed[i].stats;
        const predict::PredictorStats &b = expected[i].stats;
        EXPECT_EQ(a.accuracy.hits(), b.accuracy.hits());
        EXPECT_EQ(a.accuracy.total(), b.accuracy.total());
        EXPECT_EQ(a.conditionalAccuracy.hits(),
                  b.conditionalAccuracy.hits());
        EXPECT_EQ(a.predictedTaken.hits(), b.predictedTaken.hits());
        EXPECT_EQ(replayed[i].missRatio, expected[i].missRatio);
        EXPECT_EQ(replayed[i].hasMissRatio, expected[i].hasMissRatio);
    }
    std::remove(path.c_str());
}

/** Differential: on every workload, at its default runs and at one
 *  run, the fields a map derives from a cold record's entry -- the
 *  likely rows and Table 1/2's counters -- equal the record's own. */
class DerivedFieldsDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{};

TEST_P(DerivedFieldsDifferential, MatchTheColdRecord)
{
    const auto &[name, runs] = GetParam();
    const std::string dir =
        makeCacheDir("derived_" + name + "_" + std::to_string(runs));
    core::ExperimentConfig config;
    config.runsOverride = runs;
    config.traceCacheDir = dir;
    const core::RecordedWorkload cold =
        core::recordWorkload(workloads::findWorkload(name), config);
    ASSERT_FALSE(cold.cacheHit);

    CachedWorkload entry;
    std::string error;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapEntryFile(TraceCache(dir).entryPath(name,
                                                       cold.contentHash),
                             cold.contentHash, entry, error, failure))
        << error;
    EXPECT_EQ(entry.likely, sortedLikely(cold.profile->buildLikelyMap()));
    EXPECT_EQ(entry.stats, cold.stats.counters());
    std::filesystem::remove_all(dir);
}

/** Differential: on every workload, the profile a warm hit restores
 *  from the profile section must be the cold record's online profile
 *  in everything the Forward Semantic reads from it. */
class RestoredProfileDifferential
    : public ::testing::TestWithParam<std::string>
{};

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const workloads::Workload *workload : workloads::allWorkloads())
        names.push_back(workload->name());
    return names;
}

TEST_P(RestoredProfileDifferential, EqualsTheOnlineProfile)
{
    const std::string &name = GetParam();
    const std::string dir = makeCacheDir("profile_diff_" + name);
    core::ExperimentConfig config;
    config.traceCacheDir = dir;
    const workloads::Workload &workload = workloads::findWorkload(name);

    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    ASSERT_FALSE(cold.cacheHit);
    const ProfileCounterMark mark;
    const core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    ASSERT_TRUE(warm.cacheHit);
    EXPECT_EQ(mark.restoredSince(), 1u);
    const profile::ProgramProfile &online = *cold.profile;
    const profile::ProgramProfile &restored = *warm.profile;

    EXPECT_EQ(restored.runs(), online.runs());
    for (ir::Addr pc = 0; pc < cold.layout->totalSize(); ++pc) {
        ASSERT_EQ(restored.branchCounts(pc), online.branchCounts(pc))
            << "pc " << pc;
    }
    EXPECT_EQ(restored.exportRows().paths, online.exportRows().paths);
    const predict::LikelyMap likely = online.buildLikelyMap();
    const predict::LikelyMap restored_likely = restored.buildLikelyMap();
    ASSERT_EQ(restored_likely.size(), likely.size());
    for (const auto &[pc, info] : likely) {
        const auto it = restored_likely.find(pc);
        ASSERT_NE(it, restored_likely.end());
        EXPECT_EQ(it->second.likelyTaken, info.likelyTaken);
        EXPECT_EQ(it->second.dominantTarget, info.dominantTarget);
    }

    for (const unsigned slots : {1u, 2u, 4u, 8u}) {
        EXPECT_EQ(
            profile::codeIncreaseFor(restored, slots,
                                     config.traceThreshold),
            profile::codeIncreaseFor(online, slots,
                                     config.traceThreshold))
            << slots << " slots";
    }

    profile::FsOptConfig fs_config;
    fs_config.level = profile::FsOptLevel::Hoist;
    const profile::FsOptResult online_opt =
        profile::FsOptimizer(online, fs_config).build();
    const profile::FsOptResult restored_opt =
        profile::FsOptimizer(restored, fs_config).build();
    EXPECT_EQ(restored_opt.codeSizeIncrease(),
              online_opt.codeSizeIncrease());
    EXPECT_EQ(profile::fsOptAccuracy(restored, restored_opt,
                                     warm.traceView()),
              profile::fsOptAccuracy(online, online_opt,
                                     cold.traceView()));

    // The daemon's miss path: a warm cell is bit-identical to a cold
    // one (hoist exercises the profile, not just the likely map).
    core::SweepPoint point = core::expandGrid(core::SweepAxes{})[0];
    point.fsOpt = profile::FsOptLevel::Hoist;
    const core::SweepCell cold_cell = core::evaluatePointCell(cold, point);
    const core::SweepCell warm_cell = core::evaluatePointCell(warm, point);
    EXPECT_EQ(warm_cell.sbtbAccuracy, cold_cell.sbtbAccuracy);
    EXPECT_EQ(warm_cell.sbtbMissRatio, cold_cell.sbtbMissRatio);
    EXPECT_EQ(warm_cell.cbtbAccuracy, cold_cell.cbtbAccuracy);
    EXPECT_EQ(warm_cell.cbtbMissRatio, cold_cell.cbtbMissRatio);
    EXPECT_EQ(warm_cell.fsAccuracy, cold_cell.fsAccuracy);
    EXPECT_EQ(warm_cell.codeIncrease, cold_cell.codeIncrease);
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, RestoredProfileDifferential,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, DerivedFieldsDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloadNames()),
                       ::testing::Values(0u, 1u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, unsigned>>
           &info) {
        const unsigned runs = std::get<1>(info.param);
        return std::get<0>(info.param) +
               (runs == 0 ? "_DefaultRuns" : "_Runs" + std::to_string(runs));
    });

} // namespace
} // namespace branchlab::trace
