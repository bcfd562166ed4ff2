/**
 * @file
 * Tests for the durable-store lifecycle (store/store.hh) that the
 * trace cache and the sweep journal share: the one publish under
 * injected write failures, a rename failure and crash remnants;
 * stale-temp reclaim under both stores' telemetry prefixes; and the
 * byte-cap environment variables of both stores.
 *
 * Write failures need no syscall seam: a file-size limit
 * (RLIMIT_FSIZE, with SIGXFSZ ignored) makes every write past it fail
 * with EFBIG, for this process only. fsync and mmap failures are not
 * injected.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/sweep_journal.hh"
#include "helpers.hh"
#include "obs/metrics.hh"
#include "store/store.hh"
#include "support/logging.hh"
#include "trace/cache.hh"
#include "trace/format.hh"

namespace branchlab
{
namespace
{

/** Fresh throwaway directory per test. */
std::string
makeDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "blab_store_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

std::uint64_t
counterValue(const std::string &name)
{
    return obs::Registry::global().counter(name).value();
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Every regular file under @p dir, sorted (temps included). */
std::vector<std::string>
filesUnder(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file())
            files.push_back(it->path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

void
age(const std::string &path, std::chrono::hours by)
{
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now() - by);
}

/**
 * Limit the size of every file this process writes to @p bytes for
 * the guard's lifetime; a write past the limit fails with EFBIG
 * instead of raising SIGXFSZ.
 */
class FileSizeLimit
{
  public:
    explicit FileSizeLimit(rlim_t bytes)
    {
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        sigaction(SIGXFSZ, &ignore, &savedAction_);
        getrlimit(RLIMIT_FSIZE, &saved_);
        rlimit limited = saved_;
        limited.rlim_cur = bytes;
        EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &limited), 0);
    }

    ~FileSizeLimit()
    {
        setrlimit(RLIMIT_FSIZE, &saved_);
        sigaction(SIGXFSZ, &savedAction_, nullptr);
    }

    FileSizeLimit(const FileSizeLimit &) = delete;
    FileSizeLimit &operator=(const FileSizeLimit &) = delete;

  private:
    rlimit saved_ = {};
    struct sigaction savedAction_ = {};
};

std::vector<core::SweepCell>
oneCell()
{
    return {{0.5, 0.25, 0.75, 0.125, 0.875, 0.0625}};
}

TEST(StorePublish, SegmentSealFailsAtEveryLimitBelowItsSize)
{
    constexpr std::uint64_t kKey = 42;
    const std::string reference_dir = makeDir("seal_reference");
    {
        core::SweepJournal journal(reference_dir);
        journal.store(kKey, oneCell());
    }
    const std::vector<std::string> sealed = filesUnder(reference_dir);
    ASSERT_EQ(sealed.size(), 1u);
    const std::string reference = readBytes(sealed[0]);
    ASSERT_EQ(reference.size(), core::kJournalSegmentHeaderBytes +
                                    core::kJournalRecordOverheadBytes +
                                    core::kJournalCellBytes);
    const std::string segment_name =
        std::filesystem::path(sealed[0]).filename().string();

    for (rlim_t limit = 0; limit < reference.size(); ++limit) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        const std::string dir = makeDir("seal_limit");
        core::SweepJournal journal(dir);
        journal.store(kKey, oneCell());
        const std::uint64_t segments =
            counterValue("sweep.journal.segments");
        const std::uint64_t tmp_evicted =
            counterValue("sweep.journal.tmp_evicted");
        resetWarningCount();
        {
            const FileSizeLimit guard(limit);
            journal.flush();
        }
        // No segment, no temp; the failure warned and was counted, and
        // this run still serves the point from memory.
        EXPECT_TRUE(filesUnder(dir).empty());
        EXPECT_EQ(warningCount(), 1u);
        EXPECT_EQ(counterValue("sweep.journal.segments"), segments);
        EXPECT_EQ(counterValue("sweep.journal.tmp_evicted"),
                  tmp_evicted + 1);
        std::vector<core::SweepCell> cells;
        ASSERT_TRUE(journal.load(kKey, cells));
        EXPECT_EQ(cells, oneCell());

        // Sealed again without the limit: the reference bytes, and a
        // fresh journal resumes the point bit-identically.
        journal.store(kKey, oneCell());
        journal.flush();
        const std::vector<std::string> files = filesUnder(dir);
        ASSERT_EQ(files.size(), 1u);
        EXPECT_EQ(std::filesystem::path(files[0]).filename().string(),
                  segment_name);
        EXPECT_EQ(readBytes(files[0]), reference);
        core::SweepJournal resumed(dir);
        ASSERT_TRUE(resumed.load(kKey, cells));
        EXPECT_EQ(cells, oneCell());

        // A failed re-seal of the same content leaves the published
        // segment byte-identical.
        core::SweepJournal again(dir);
        again.store(kKey, oneCell());
        {
            const FileSizeLimit guard(limit);
            again.flush();
        }
        EXPECT_EQ(filesUnder(dir), files);
        EXPECT_EQ(readBytes(files[0]), reference);
    }
}

trace::CachedWorkload
smallEntry()
{
    const ir::Program prog = test::buildFactorial(5);
    trace::BranchRecorder recorder;
    test::runProgram(prog, &recorder);
    trace::CachedWorkload workload;
    workload.contentHash = 0x5eed5eed5eed5eedULL;
    workload.runs = 1;
    workload.stats.instructions = 100;
    workload.stream = trace::SoaTrace::fromEvents(recorder.takeEvents());
    return workload;
}

TEST(StorePublish, EntryWriteFailsAtEveryLimitBelowItsSize)
{
    const trace::CachedWorkload workload = smallEntry();
    const std::string dir = makeDir("entry_limit");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/fact.bltc";
    std::uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(trace::writeEntryFile(path, workload, bytes, error))
        << error;
    const std::string reference = readBytes(path);
    ASSERT_EQ(reference.size(), bytes);
    std::filesystem::remove(path);

    // 0, a limit inside the header page, every section boundary +- 1,
    // and one byte short of the whole entry.
    trace::EntryHeader header;
    ASSERT_EQ(trace::decodeEntryHeader(
                  reinterpret_cast<const std::uint8_t *>(reference.data()),
                  reference.size(), header),
              "");
    std::set<rlim_t> limits = {0, 100, reference.size() - 1};
    for (std::size_t s = 0; s < trace::kEntrySectionCount; ++s) {
        const trace::SectionRecord &section = header.sections[s];
        for (const std::uint64_t boundary :
             {section.offset, section.offset + section.length}) {
            for (const std::uint64_t limit :
                 {boundary - 1, boundary, boundary + 1}) {
                if (limit < reference.size())
                    limits.insert(limit);
            }
        }
    }

    const std::string previous = "an entry published earlier";
    for (const rlim_t limit : limits) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        for (const bool had_previous : {false, true}) {
            std::filesystem::remove(path);
            if (had_previous)
                writeBytes(path, previous);
            error.clear();
            {
                const FileSizeLimit guard(limit);
                EXPECT_FALSE(
                    trace::writeEntryFile(path, workload, bytes, error));
            }
            EXPECT_FALSE(error.empty());
            if (had_previous) {
                EXPECT_EQ(filesUnder(dir),
                          std::vector<std::string>{path});
                EXPECT_EQ(readBytes(path), previous);
            } else {
                EXPECT_TRUE(filesUnder(dir).empty());
            }
        }
        ASSERT_TRUE(trace::writeEntryFile(path, workload, bytes, error))
            << error;
        EXPECT_EQ(readBytes(path), reference);
    }

    // The cache's store goes through the same publish: it warns, counts
    // the removed temp, and stores nothing.
    const trace::TraceCache cache(makeDir("entry_limit_cache"));
    const std::uint64_t tmp_evicted =
        counterValue("trace_cache.tmp_evicted");
    resetWarningCount();
    {
        const FileSizeLimit guard(reference.size() - 1);
        cache.store("fact", workload);
    }
    EXPECT_EQ(warningCount(), 1u);
    EXPECT_EQ(counterValue("trace_cache.tmp_evicted"), tmp_evicted + 1);
    EXPECT_TRUE(filesUnder(cache.dir()).empty());
}

TEST(StorePublish, RenameFailureAndMissingDirectoryChangeNothing)
{
    const std::string dir = makeDir("rename");
    const std::string destination = dir + "/entry.bltc";
    std::filesystem::create_directories(destination);
    writeBytes(destination + "/occupant", "keep me");
    const store::Writer write = [](std::ostream &out, std::string &) {
        out << "new bytes";
        return true;
    };

    std::string error;
    EXPECT_FALSE(store::publish(destination, write, error));
    EXPECT_NE(error.find("cannot rename"), std::string::npos) << error;
    EXPECT_TRUE(std::filesystem::is_directory(destination));
    EXPECT_EQ(filesUnder(dir),
              std::vector<std::string>{destination + "/occupant"});
    EXPECT_EQ(readBytes(destination + "/occupant"), "keep me");

    // publish() creates no directories (`branchlab record -o` into a
    // missing directory fails).
    error.clear();
    EXPECT_FALSE(store::publish(dir + "/missing/entry.bltc", write, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(std::filesystem::exists(dir + "/missing"));
}

TEST(StoreCrash, TempsHoldingEverySegmentPrefixAreNeverIndexed)
{
    constexpr std::uint64_t kKey = 7;
    const std::string source = makeDir("crash_source");
    {
        core::SweepJournal journal(source);
        journal.store(kKey, oneCell());
    }
    const std::vector<std::string> sealed = filesUnder(source);
    ASSERT_EQ(sealed.size(), 1u);
    const std::string segment = readBytes(sealed[0]);
    const std::string name =
        std::filesystem::path(sealed[0]).filename().string();
    const std::string shard =
        std::filesystem::path(sealed[0]).parent_path().filename().string();

    // A killed seal leaves its temp holding any prefix of the segment,
    // the whole of it included (killed between the fsync and the
    // rename).
    const std::string dir = makeDir("crash");
    std::filesystem::create_directories(dir + "/" + shard);
    std::vector<std::string> temps;
    for (std::size_t n = 0; n <= segment.size(); ++n) {
        temps.push_back(dir + "/" + shard + "/" + name + ".tmp-99999-" +
                        std::to_string(n));
        writeBytes(temps.back(), segment.substr(0, n));
    }
    const std::uint64_t corrupt = counterValue("sweep.journal.corrupt");
    const std::uint64_t reclaimed =
        counterValue("sweep.journal.tmp_reclaimed");
    {
        core::SweepJournal journal(dir);
        journal.open();
        EXPECT_EQ(journal.mappedSegments(), 0u);
        EXPECT_EQ(journal.indexedRecords(), 0u);
        std::vector<core::SweepCell> cells;
        EXPECT_FALSE(journal.load(kKey, cells));
    }
    EXPECT_EQ(counterValue("sweep.journal.corrupt"), corrupt);
    // Young temps may belong to a live writer: all kept.
    EXPECT_EQ(filesUnder(dir).size(), temps.size());
    EXPECT_EQ(counterValue("sweep.journal.tmp_reclaimed"), reclaimed);

    for (const std::string &temp : temps)
        age(temp, std::chrono::hours(1));
    core::SweepJournal journal(dir);
    journal.open();
    EXPECT_EQ(journal.indexedRecords(), 0u);
    EXPECT_TRUE(filesUnder(dir).empty());
    EXPECT_EQ(counterValue("sweep.journal.tmp_reclaimed"),
              reclaimed + temps.size());
}

/** One store, as the stale-temp test drives it. */
struct StoreCase
{
    std::string name;
    /** Telemetry prefix. */
    std::string prefix;
    /** A file name the store publishes (temps append to it). */
    std::string file;
    /** Make the store scan @p dir. */
    std::function<void(const std::string &dir)> scan;
};

void
PrintTo(const StoreCase &store, std::ostream *os)
{
    *os << store.name;
}

class StoreTemps : public ::testing::TestWithParam<StoreCase>
{};

TEST_P(StoreTemps, StaleTempsAreReclaimedFreshOnesKept)
{
    const StoreCase &store = GetParam();
    const std::string dir = makeDir("temps_" + store.name);
    std::filesystem::create_directories(dir + "/de");
    const std::string stale = dir + "/de/" + store.file + ".tmp-99999-0";
    const std::string fresh = dir + "/de/" + store.file + ".tmp-99999-1";
    writeBytes(stale, std::string(64 * 1024, 't'));
    writeBytes(fresh, "in-flight");
    age(stale, std::chrono::hours(24));

    const std::string counter = store.prefix + ".tmp_reclaimed";
    const std::uint64_t reclaimed = counterValue(counter);
    store.scan(dir);
    EXPECT_EQ(counterValue(counter), reclaimed + 1);
    // The orphan of a killed run is gone; a temp young enough to
    // belong to a live concurrent writer survives.
    EXPECT_FALSE(std::filesystem::exists(stale));
    EXPECT_TRUE(std::filesystem::exists(fresh));
}

INSTANTIATE_TEST_SUITE_P(
    BothStores, StoreTemps,
    ::testing::Values(
        // A capped cache scans on every store.
        StoreCase{"TraceCache", "trace_cache", "fact-dead.bltc",
                  [](const std::string &dir) {
                      trace::TraceCache(dir, 64 * 1024)
                          .store("fact", smallEntry());
                  }},
        // The journal scans when it opens.
        StoreCase{"SweepJournal", "sweep.journal", "seg-dead.blsg",
                  [](const std::string &dir) {
                      core::SweepJournal(dir).open();
                  }}),
    [](const ::testing::TestParamInfo<StoreCase> &info) {
        return info.param.name;
    });

class ResolveMaxBytes : public ::testing::TestWithParam<const char *>
{};

TEST_P(ResolveMaxBytes, PrefersConfigThenEnvAndRejectsNonDecimal)
{
    const char *env = GetParam();
    unsetenv(env);
    EXPECT_EQ(store::resolveMaxBytes(123, env), 123u);
    EXPECT_EQ(store::resolveMaxBytes(0, env), 0u);

    setenv(env, "4096", 1);
    EXPECT_EQ(store::resolveMaxBytes(0, env), 4096u);
    EXPECT_EQ(store::resolveMaxBytes(123, env), 123u);
    setenv(env, "18446744073709551615", 1);
    EXPECT_EQ(store::resolveMaxBytes(0, env),
              std::numeric_limits<std::uint64_t>::max());

    // Signs, spaces and overflow used to wrap to ~2^64 (no cap) or
    // parse silently; each now warns and leaves the store uncapped.
    for (const char *bad :
         {"not-a-number", "-1", "-4096", "18446744073709551616", " 4096",
          "+4096", "4096 ", ""}) {
        SCOPED_TRACE(bad);
        setenv(env, bad, 1);
        resetWarningCount();
        EXPECT_EQ(store::resolveMaxBytes(0, env), 0u);
        EXPECT_EQ(warningCount(), 1u);
        EXPECT_EQ(store::resolveMaxBytes(123, env), 123u);
    }
    unsetenv(env);
}

INSTANTIATE_TEST_SUITE_P(
    BothStores, ResolveMaxBytes,
    ::testing::Values(trace::TraceCache::kMaxBytesEnv,
                      core::SweepJournal::kMaxBytesEnv),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.index == 0 ? "TraceCache"
                                           : "SweepJournal");
    });

} // namespace
} // namespace branchlab
