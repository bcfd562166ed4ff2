/**
 * @file
 * Tests for the productionized sweep journal, mirroring
 * test_trace_cache: segment round trips, truncation and checksum
 * damage (Corrupt: warn + counter, keep the verified prefix),
 * foreign versions/feature bits (quiet refusal), stale files of the
 * retired v1 format (never read, drained by the byte cap), byte-cap
 * LRU eviction, thread safety, and a cold-vs-mapped resume
 * bit-identity differential over a >= 100-point grid. Stale-temp
 * reclaim, the byte-cap environment variable and failed seals are
 * tested with the shared store lifecycle, in test_store.cc.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/sweep_journal.hh"
#include "obs/metrics.hh"
#include "scratch_dir.hh"
#include "support/logging.hh"

namespace branchlab::core
{
namespace
{

/** Fresh throwaway journal directory per test. */
test::ScratchDir
makeDir(const std::string &tag)
{
    return test::ScratchDir("blab_sweep_journal_" + tag);
}

std::vector<SweepCell>
makeCells(std::uint64_t salt)
{
    std::vector<SweepCell> cells(2);
    for (std::size_t w = 0; w < cells.size(); ++w) {
        const double base =
            static_cast<double>((salt + w) % 97) / 97.0;
        cells[w] = {base, 1.0 - base, base * 0.5, 1.0 - base * 0.5,
                    base * 0.25, base * 0.125};
    }
    return cells;
}

/** Every sealed segment under @p dir, sorted for determinism. */
std::vector<std::string>
segmentFiles(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator it(dir, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".blsg")
            files.push_back(it->path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

void
patchByte(const std::string &path, std::streamoff offset,
          unsigned char xor_mask)
{
    std::fstream file(path, std::ios::binary | std::ios::in |
                                std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(static_cast<unsigned char>(byte) ^
                             xor_mask);
    file.seekp(offset);
    file.write(&byte, 1);
}

std::uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

TEST(SweepJournalSegments, RoundTripsManyRecordsAcrossSegments)
{
    const test::ScratchDir dir_scratch = makeDir("segments");
    const std::string &dir = dir_scratch.path();
    const std::uint64_t mapped_before =
        counterValue("sweep.journal.bytes_mapped");
    {
        SweepJournal journal(dir);
        for (std::uint64_t key = 1; key <= 10; ++key)
            journal.store(key, makeCells(key));
        journal.flush(); // first segment
        for (std::uint64_t key = 11; key <= 20; ++key)
            journal.store(key, makeCells(key));
        journal.flush(); // second segment
    }
    ASSERT_EQ(segmentFiles(dir).size(), 2u);

    SweepJournal journal(dir);
    journal.open();
    EXPECT_EQ(journal.mappedSegments(), 2u);
    EXPECT_EQ(journal.indexedRecords(), 20u);
    EXPECT_GT(counterValue("sweep.journal.bytes_mapped"),
              mapped_before);
    std::vector<SweepCell> cells;
    for (std::uint64_t key = 1; key <= 20; ++key) {
        ASSERT_TRUE(journal.load(key, cells)) << key;
        EXPECT_EQ(cells, makeCells(key));
    }
    EXPECT_FALSE(journal.load(21, cells));
}

TEST(SweepJournalSegments, TruncationKeepsTheVerifiedPrefix)
{
    const test::ScratchDir dir_scratch = makeDir("truncate");
    const std::string &dir = dir_scratch.path();
    {
        SweepJournal journal(dir);
        for (std::uint64_t key = 1; key <= 3; ++key)
            journal.store(key, makeCells(key));
    }
    const std::vector<std::string> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    std::error_code ec;
    const std::uintmax_t size =
        std::filesystem::file_size(segments[0], ec);
    ASSERT_FALSE(ec);
    // Cut into the last record: its checksum can no longer match.
    std::filesystem::resize_file(segments[0], size - 8, ec);
    ASSERT_FALSE(ec);

    const std::uint64_t corrupt_before =
        counterValue("sweep.journal.corrupt");
    resetWarningCount();
    SweepJournal journal(dir);
    journal.open();
    EXPECT_GE(warningCount(), 1u);
    EXPECT_EQ(counterValue("sweep.journal.corrupt"),
              corrupt_before + 1);
    // The verified prefix survives; only the damaged tail
    // re-evaluates.
    std::vector<SweepCell> cells;
    EXPECT_TRUE(journal.load(1, cells));
    EXPECT_TRUE(journal.load(2, cells));
    EXPECT_FALSE(journal.load(3, cells));
}

TEST(SweepJournalSegments, ChecksumFlipAbandonsTheSegmentTail)
{
    const test::ScratchDir dir_scratch = makeDir("bitflip");
    const std::string &dir = dir_scratch.path();
    {
        SweepJournal journal(dir);
        journal.store(1, makeCells(1));
        journal.store(2, makeCells(2));
    }
    const std::vector<std::string> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    // Flip one payload byte of the FIRST record (offset 64 header +
    // 16 framing lands in its first cell): its checksum mismatches,
    // and the framing beyond it is no longer trusted.
    patchByte(segments[0], 64 + 16, 0x40);

    const std::uint64_t corrupt_before =
        counterValue("sweep.journal.corrupt");
    resetWarningCount();
    SweepJournal journal(dir);
    journal.open();
    EXPECT_GE(warningCount(), 1u);
    EXPECT_EQ(counterValue("sweep.journal.corrupt"),
              corrupt_before + 1);
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
    EXPECT_FALSE(journal.load(2, cells));
}

TEST(SweepJournalSegments, ForeignFeatureBitsRefuseQuietly)
{
    const test::ScratchDir dir_scratch = makeDir("foreign_bits");
    const std::string &dir = dir_scratch.path();
    {
        SweepJournal journal(dir);
        journal.store(1, makeCells(1));
    }
    const std::vector<std::string> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    // Feature bits live at offset 8; setting an unknown bit marks
    // the segment as needing a feature this reader lacks.
    patchByte(segments[0], 8, 0x01);

    const std::uint64_t foreign_before =
        counterValue("sweep.journal.foreign");
    const std::uint64_t corrupt_before =
        counterValue("sweep.journal.corrupt");
    resetWarningCount();
    SweepJournal journal(dir);
    journal.open();
    // Foreign, not broken: no warning, no corrupt count.
    EXPECT_EQ(warningCount(), 0u);
    EXPECT_EQ(counterValue("sweep.journal.foreign"),
              foreign_before + 1);
    EXPECT_EQ(counterValue("sweep.journal.corrupt"), corrupt_before);
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
}

TEST(SweepJournalSegments, ForeignContainerVersionRefusesQuietly)
{
    const test::ScratchDir dir_scratch = makeDir("foreign_version");
    const std::string &dir = dir_scratch.path();
    {
        SweepJournal journal(dir);
        journal.store(1, makeCells(1));
    }
    const std::vector<std::string> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    patchByte(segments[0], 4, 0x40); // container version field

    const std::uint64_t foreign_before =
        counterValue("sweep.journal.foreign");
    resetWarningCount();
    SweepJournal journal(dir);
    journal.open();
    EXPECT_EQ(warningCount(), 0u);
    EXPECT_EQ(counterValue("sweep.journal.foreign"),
              foreign_before + 1);
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
}

/** The bytes of a retired v1 per-point file ("BLSJ", u64 cell
 *  schema, u64 key, u64 cell count, six little-endian doubles per
 *  cell, no checksum). */
std::string
v1PointFile(std::uint64_t key, const std::vector<SweepCell> &cells)
{
    std::string data = "BLSJ";
    const auto put = [&data](std::uint64_t value) {
        for (int i = 0; i < 8; ++i)
            data.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    };
    put(kJournalSchemaVersion);
    put(key);
    put(cells.size());
    for (const SweepCell &cell : cells) {
        for (const double field :
             {cell.sbtbAccuracy, cell.sbtbMissRatio, cell.cbtbAccuracy,
              cell.cbtbMissRatio, cell.fsAccuracy, cell.codeIncrease})
            put(std::bit_cast<std::uint64_t>(field));
    }
    return data;
}

TEST(SweepJournalLegacy, StaleV1PointFilesAreNeverReadAndReEvaluate)
{
    SweepConfig config;
    config.axes.btbEntries = {16, 64};
    config.axes.counterThresholds = {1, 2};
    config.workloads = {"tee", "cmp"};
    config.base.runsOverride = 1;
    const SweepResult cold = runSweep(config);

    // Plant a well-formed v1 file for every point of the grid, each
    // carrying cells the sweep would never compute: resuming any of
    // them would show in the grid.
    const test::ScratchDir journal = makeDir("stale_v1");
    config.journalDir = journal.path();
    std::filesystem::create_directories(config.journalDir);
    std::vector<std::uint64_t> hashes;
    for (const std::string &name : config.workloads)
        hashes.push_back(workloadContentHash(
            workloads::findWorkload(name), config.base));
    const std::vector<SweepCell> bogus(
        config.workloads.size(), SweepCell{0.5, 0.5, 0.5, 0.5, 0.5, 0.5});
    std::vector<std::uint64_t> keys;
    for (const SweepPoint &point : expandGrid(config.axes)) {
        keys.push_back(sweepPointKey(point, config.workloads, hashes));
        char name[32];
        std::snprintf(name, sizeof(name), "point-%016llx.blsj",
                      static_cast<unsigned long long>(keys.back()));
        std::ofstream file(
            std::filesystem::path(config.journalDir) / name,
            std::ios::binary | std::ios::trunc);
        const std::string data = v1PointFile(keys.back(), bogus);
        file.write(data.data(),
                   static_cast<std::streamsize>(data.size()));
    }
    ASSERT_EQ(keys.size(), cold.points.size());
    {
        SweepJournal journal(config.journalDir);
        std::vector<SweepCell> cells;
        for (const std::uint64_t key : keys)
            EXPECT_FALSE(journal.load(key, cells));
    }

    // A capped sweep re-evaluates every point and drains the stale
    // files: only the segment it sealed itself survives the cap.
    config.journalMaxBytes = 1;
    resetWarningCount();
    const SweepResult swept = runSweep(config);
    EXPECT_EQ(swept.stats.resumed, 0u);
    EXPECT_EQ(swept.stats.evaluated, cold.points.size());
    EXPECT_EQ(sweepToCsv(swept), sweepToCsv(cold));
    EXPECT_EQ(warningCount(), 0u);
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(config.journalDir))
        EXPECT_NE(entry.path().extension(), ".blsj") << entry.path();
    EXPECT_EQ(segmentFiles(config.journalDir).size(), 1u);

    // The planted keys are the sweep's own: its sealed segment now
    // serves every one of them, with the cells it computed.
    SweepJournal resumed(config.journalDir);
    std::vector<SweepCell> cells;
    for (const std::uint64_t key : keys) {
        ASSERT_TRUE(resumed.load(key, cells));
        EXPECT_NE(cells, bogus);
    }
}

TEST(SweepJournalEviction, ByteCapEvictsLeastRecentlyUsedFirst)
{
    const test::ScratchDir dir_scratch = makeDir("evict");
    const std::string &dir = dir_scratch.path();
    const auto seal_one = [&](std::uint64_t key,
                              std::chrono::hours age) {
        {
            SweepJournal journal(dir);
            journal.store(key, makeCells(key));
        }
        // Age the newest segment so eviction order is deterministic.
        std::filesystem::path newest;
        std::filesystem::file_time_type newest_mtime;
        for (const std::string &path : segmentFiles(dir)) {
            std::error_code ec;
            const auto mtime =
                std::filesystem::last_write_time(path, ec);
            if (newest.empty() || mtime > newest_mtime) {
                newest = path;
                newest_mtime = mtime;
            }
        }
        std::error_code ec;
        std::filesystem::last_write_time(
            newest,
            std::filesystem::file_time_type::clock::now() - age, ec);
    };
    seal_one(1, std::chrono::hours(3));
    seal_one(2, std::chrono::hours(2));
    seal_one(3, std::chrono::hours(1));
    ASSERT_EQ(segmentFiles(dir).size(), 3u);
    std::error_code ec;
    const std::uintmax_t segment_bytes =
        std::filesystem::file_size(segmentFiles(dir)[0], ec);

    const std::uint64_t evictions_before =
        counterValue("sweep.journal.evictions");
    const std::uint64_t bytes_before =
        counterValue("sweep.journal.bytes_evicted");
    {
        // Cap admits two segments: sealing the fourth must evict the
        // two stalest and keep the third and the just-sealed one.
        SweepJournal journal(dir, 2 * segment_bytes + 16);
        journal.store(4, makeCells(4));
        journal.flush();
    }
    EXPECT_EQ(counterValue("sweep.journal.evictions"),
              evictions_before + 2);
    EXPECT_EQ(counterValue("sweep.journal.bytes_evicted"),
              bytes_before + 2 * segment_bytes);
    EXPECT_EQ(segmentFiles(dir).size(), 2u);

    SweepJournal journal(dir);
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
    EXPECT_FALSE(journal.load(2, cells));
    EXPECT_TRUE(journal.load(3, cells));
    EXPECT_TRUE(journal.load(4, cells));
}

TEST(SweepJournalConcurrency, ParallelStoresAllPersist)
{
    const test::ScratchDir dir_scratch = makeDir("parallel");
    const std::string &dir = dir_scratch.path();
    {
        SweepJournal journal(dir);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < 4; ++t) {
            threads.emplace_back([&journal, t] {
                for (std::uint64_t i = 0; i < 64; ++i) {
                    const std::uint64_t key = t * 64 + i + 1;
                    journal.store(key, makeCells(key));
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    SweepJournal journal(dir);
    std::vector<SweepCell> cells;
    for (std::uint64_t key = 1; key <= 4 * 64; ++key) {
        ASSERT_TRUE(journal.load(key, cells)) << key;
        EXPECT_EQ(cells, makeCells(key));
    }
}

/** The >= 100-point resume differential: a sweep journalled through
 *  the segment writer must resume from the mapped segments to a CSV
 *  grid byte-identical to the uninterrupted cold grid. */
TEST(SweepJournalResume, MappedJournalResumesBitIdentically)
{
    SweepConfig config;
    config.axes.btbEntries = {16, 32, 64, 128, 256};
    config.axes.btbAssociativity = {0, 2};
    config.axes.btbPolicies = {predict::ReplacementPolicy::Lru,
                               predict::ReplacementPolicy::Fifo,
                               predict::ReplacementPolicy::Random};
    config.axes.counterThresholds = {1, 2};
    config.axes.fsSlots = {1, 2};
    config.workloads = {"tee", "cmp"};
    config.base.runsOverride = 1;

    // Cold reference, no journal.
    SweepConfig reference = config;
    const SweepResult cold = runSweep(reference);
    ASSERT_GE(cold.points.size(), 100u);

    // The same sweep journalled through the segment writer.
    const test::ScratchDir journal = makeDir("differential");
    config.journalDir = journal.path();
    const SweepResult journalled = runSweep(config);
    EXPECT_EQ(journalled.stats.evaluated, cold.points.size());
    EXPECT_FALSE(segmentFiles(config.journalDir).empty());
    const std::uint64_t mapped_before =
        counterValue("sweep.journal.bytes_mapped");
    const SweepResult resumed = runSweep(config);
    EXPECT_EQ(resumed.stats.resumed, cold.points.size());
    EXPECT_EQ(resumed.stats.evaluated, 0u);
    // The mapped resume actually mapped.
    EXPECT_GT(counterValue("sweep.journal.bytes_mapped"),
              mapped_before);

    // Bit-identity across every path.
    const std::string csv = sweepToCsv(cold);
    EXPECT_EQ(sweepToCsv(journalled), csv);
    EXPECT_EQ(sweepToCsv(resumed), csv);
}

} // namespace
} // namespace branchlab::core
