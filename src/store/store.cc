#include "store/store.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <tuple>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "support/bytes.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace branchlab::store
{

namespace
{

std::atomic<std::uint64_t> g_tmpSequence{0};

/** Temps younger than this may belong to a live writer sharing the
 *  directory; older ones are orphans of a killed run. */
constexpr std::chrono::minutes kTempGracePeriod{15};

/** open + fsync + close. */
bool
syncPath(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

bool
publish(const std::string &path, const Writer &write, std::string &error,
        obs::Counter *tmp_evicted)
{
    const std::string tmp =
        path + ".tmp-" + std::to_string(static_cast<long>(::getpid())) +
        "-" +
        std::to_string(
            g_tmpSequence.fetch_add(1, std::memory_order_relaxed));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
        error = "cannot create '" + tmp + "'";
        return false;
    }
    bool written = write(out, error);
    // Stream errors are sticky, so flush() fails for any earlier
    // failed write too. A file small enough to sit in the stream's
    // buffer first reaches the disk here or at the close.
    if (written && !out.flush()) {
        error = "cannot write '" + tmp + "'";
        written = false;
    }
    out.close();
    if (written && !out) {
        error = "cannot close '" + tmp + "'";
        written = false;
    }
    // Durability before visibility.
    if (written && !syncPath(tmp)) {
        error = "cannot fsync '" + tmp + "'";
        written = false;
    }
    std::error_code ec;
    if (written) {
        std::filesystem::rename(tmp, path, ec);
        if (ec) {
            error = "cannot rename '" + tmp + "': " + ec.message();
            written = false;
        }
    }
    if (!written) {
        std::filesystem::remove(tmp, ec);
        if (tmp_evicted != nullptr)
            tmp_evicted->add(1);
        return false;
    }
    // Best effort: the file is complete under its name already; this
    // makes the rename itself survive a power loss.
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    syncPath(dir.empty() ? "." : dir.string());
    return true;
}

std::uint64_t
resolveMaxBytes(std::uint64_t configured, const char *env_name)
{
    if (configured != 0)
        return configured;
    const char *env = std::getenv(env_name);
    if (env == nullptr)
        return 0;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    if (const std::optional<std::uint64_t> parsed = parseDecimal(env, kMax))
        return *parsed;
    blab_warn("ignoring ", env_name, "='", env,
              "': not a number from 0 to ", kMax);
    return 0;
}

Kind::Kind(std::string name, std::string_view prefix,
           std::vector<std::string> suffixes)
    : name(std::move(name)), suffixes(std::move(suffixes)),
      evictions(obs::Registry::global().counter(std::string(prefix) +
                                                ".evictions")),
      bytesEvicted(obs::Registry::global().counter(
          std::string(prefix) + ".bytes_evicted")),
      tmpReclaimed(obs::Registry::global().counter(
          std::string(prefix) + ".tmp_reclaimed")),
      tmpEvicted(obs::Registry::global().counter(std::string(prefix) +
                                                 ".tmp_evicted"))
{}

std::string
Directory::path(std::string_view stem, std::uint64_t hash,
                std::string_view suffix) const
{
    const std::string digits = hex16(hash);
    const std::string file =
        std::string(stem) + '-' + digits + std::string(suffix);
    return (std::filesystem::path(root_) / digits.substr(0, 2) / file)
        .string();
}

bool
Directory::put(const std::string &path, const Writer &write,
               std::string &error) const
{
    const std::filesystem::path shard =
        std::filesystem::path(path).parent_path();
    std::error_code ec;
    std::filesystem::create_directories(shard, ec);
    if (ec) {
        error = "cannot create '" + shard.string() + "': " + ec.message();
        return false;
    }
    return publish(path, write, error, &kind_->tmpEvicted);
}

void
Directory::touch(const std::string &path) const
{
    std::error_code ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
}

std::vector<std::string>
Directory::scan() const
{
    std::vector<std::string> files;
    std::vector<std::filesystem::path> stale;
    const auto now = std::filesystem::file_time_type::clock::now();
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator
             it(root_,
                std::filesystem::directory_options::
                    skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        const std::filesystem::path &path = it->path();
        std::error_code file_ec;
        if (!it->is_regular_file(file_ec) || file_ec)
            continue;
        if (path.filename().string().find(".tmp-") != std::string::npos) {
            const auto mtime = it->last_write_time(file_ec);
            if (!file_ec && now - mtime >= kTempGracePeriod)
                stale.push_back(path);
        } else if (std::find(kind_->suffixes.begin(),
                             kind_->suffixes.end(),
                             path.extension().string()) !=
                   kind_->suffixes.end()) {
            files.push_back(path.string());
        }
    }
    for (const std::filesystem::path &path : stale) {
        std::error_code remove_ec;
        if (std::filesystem::remove(path, remove_ec) && !remove_ec) {
            kind_->tmpReclaimed.add(1);
            blab_inform(kind_->name, " reclaimed stale temp '",
                        path.string(), "'");
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

bool
Directory::enforceCap(const std::vector<std::string> &keep,
                      const std::string &admit) const
{
    if (maxBytes_ == 0)
        return true;
    struct Row
    {
        std::filesystem::file_time_type mtime;
        std::string path;
        std::uint64_t size = 0;
    };
    std::vector<Row> rows;
    std::uint64_t total = 0;
    for (std::string &path : scan()) {
        std::error_code size_ec;
        std::error_code mtime_ec;
        const std::uint64_t size = std::filesystem::file_size(path, size_ec);
        const auto mtime = std::filesystem::last_write_time(path, mtime_ec);
        if (size_ec || mtime_ec)
            continue;
        total += size;
        rows.push_back(Row{mtime, std::move(path), size});
    }
    if (total <= maxBytes_)
        return true;
    // scan() and path() both join the root with `/`, so a kept path
    // compares equal to its scanned row.
    const auto kept = [&](const std::string &path) {
        return path == admit ||
               std::find(keep.begin(), keep.end(), path) != keep.end();
    };
    if (!admit.empty()) {
        std::uint64_t pinned = 0;
        for (const Row &row : rows)
            pinned += kept(row.path) ? row.size : 0;
        if (pinned > maxBytes_) {
            std::error_code ec;
            std::filesystem::remove(admit, ec);
            return false;
        }
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return std::tie(a.mtime, a.path) < std::tie(b.mtime, b.path);
    });
    for (const Row &row : rows) {
        if (total <= maxBytes_)
            break;
        std::error_code ec;
        if (kept(row.path) || !std::filesystem::remove(row.path, ec) || ec)
            continue;
        total -= row.size;
        kind_->evictions.add(1);
        kind_->bytesEvicted.add(row.size);
        blab_inform(kind_->name, " evicted '", row.path, "' (", row.size,
                    " bytes)");
    }
    return true;
}

} // namespace branchlab::store
