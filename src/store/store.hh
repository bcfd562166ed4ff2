/**
 * @file
 * The lifecycle that both durable stores, the trace cache
 * (trace/cache.hh) and the sweep journal (core/sweep_journal.hh),
 * share; each of them keeps only its own file format.
 *
 * publish() is the one durable write: a crash, a full disk or a
 * file-size limit leaves either the old file or the complete new one
 * under the published name. A Directory is one store's sharded,
 * optionally capped directory, with its telemetry under the store's
 * prefix: `<prefix>.evictions` and `.bytes_evicted` (the cap pass),
 * `.tmp_reclaimed` (stale temps a scan removed) and `.tmp_evicted`
 * (temps removed after a failed put).
 *
 * The cap pass never evicts what its owner keeps: the sweep journal
 * keeps the segments its run sealed, and the trace cache every entry
 * its process mapped or stored. The trace cache also asks the pass to
 * admit each new entry, which is refused, rather than evicting
 * anything, when it does not fit beside the kept ones; so a suite
 * that cycles through more than the cap keeps a stable set instead of
 * evicting the next entry it needs.
 */

#ifndef BRANCHLAB_STORE_STORE_HH
#define BRANCHLAB_STORE_STORE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace branchlab::obs
{
class Counter;
}

namespace branchlab::store
{

/** Fills a temp file; returns false, with a diagnostic in @p error, to
 *  abandon the publish. A failed write to @p out needs no report of
 *  its own: publish() checks the stream. */
using Writer = std::function<bool(std::ostream &out, std::string &error)>;

/**
 * Write @p path through @p write into `<path>.tmp-<pid>-<sequence>`
 * (one sequence per process, so no two in-flight writers share a
 * temp), check every write, the flush and the close, fsync the temp,
 * rename it over @p path, and fsync the directory (best effort).
 * Creates no directories. @return true when the complete file is
 * visible under @p path; on any failure, a failed fsync included,
 * false with a diagnostic in @p error, the temp unlinked (and counted
 * into @p tmp_evicted if given) and @p path unchanged.
 */
bool publish(const std::string &path, const Writer &write,
             std::string &error, obs::Counter *tmp_evicted = nullptr);

/**
 * A store's byte cap: @p configured if non-zero, else the environment
 * variable @p env_name, else 0 (uncapped). The variable must be a
 * plain decimal number (parseDecimal: no sign, no space); any other
 * value warns and counts as unset.
 */
std::uint64_t resolveMaxBytes(std::uint64_t configured,
                              const char *env_name);

/** What sets one store's directory apart. A store builds its Kind
 *  once and keeps it for the process. */
struct Kind
{
    Kind(std::string name, std::string_view prefix,
         std::vector<std::string> suffixes);

    /** Diagnostic name, e.g. "trace cache". */
    std::string name;
    /** The suffixes scan() lists, retired formats included, so a
     *  capped store drains files it no longer reads. */
    std::vector<std::string> suffixes;
    obs::Counter &evictions;
    obs::Counter &bytesEvicted;
    obs::Counter &tmpReclaimed;
    obs::Counter &tmpEvicted;
};

/** One store's directory. An empty root disables it: its owner must
 *  not put, scan or cap through it. */
class Directory
{
  public:
    Directory() = default;
    Directory(std::string root, std::uint64_t max_bytes,
              const Kind &kind)
        : root_(std::move(root)), maxBytes_(max_bytes), kind_(&kind)
    {}

    bool enabled() const { return !root_.empty(); }
    const std::string &root() const { return root_; }
    /** The byte cap; 0 means uncapped. */
    std::uint64_t maxBytes() const { return maxBytes_; }

    /** `<root>/<hh>/<stem>-<hash16><suffix>`, `hh` being the hash's
     *  leading byte, so no directory piles up thousands of files. */
    std::string path(std::string_view stem, std::uint64_t hash,
                     std::string_view suffix) const;

    /** Create @p path's shard directory, then publish() @p path. */
    bool put(const std::string &path, const Writer &write,
             std::string &error) const;

    /** LRU touch: set @p path's mtime to now. */
    void touch(const std::string &path) const;

    /** Every file under the root with one of the kind's suffixes,
     *  sorted. Removes `*.tmp-*` files older than 15 minutes, the
     *  orphans of killed runs, on the way. */
    std::vector<std::string> scan() const;

    /**
     * When capped, scan() and bring the directory under maxBytes(),
     * never evicting one of the paths from path() in @p keep. With
     * @p admit, a file just published: when it does not fit beside
     * the kept files, it is removed instead, nothing is evicted, and
     * the call returns false. Otherwise the least recently used other
     * files go (by mtime, ties by path) until the rest fit.
     */
    bool enforceCap(const std::vector<std::string> &keep,
                    const std::string &admit = "") const;

  private:
    std::string root_;
    std::uint64_t maxBytes_ = 0;
    const Kind *kind_ = nullptr;
};

} // namespace branchlab::store

#endif // BRANCHLAB_STORE_STORE_HH
