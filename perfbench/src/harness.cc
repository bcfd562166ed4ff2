#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include <cerrno>
#include <stdexcept>

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "trace/cache.hh"

#ifndef BLBENCH_COMPILER
#define BLBENCH_COMPILER "unknown"
#endif
#ifndef BLBENCH_BUILD_TYPE
#define BLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef BLBENCH_FLAGS
#define BLBENCH_FLAGS ""
#endif

namespace blbench
{

namespace
{

std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/** Every digit of a double (round-trip precision). */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

std::string
trimmed(std::string text)
{
    const auto not_space = [](unsigned char c) { return !std::isspace(c); };
    text.erase(text.begin(),
               std::find_if(text.begin(), text.end(), not_space));
    text.erase(std::find_if(text.rbegin(), text.rend(), not_space).base(),
               text.end());
    return text;
}

/** Collapse runs of whitespace (CMake flag strings carry doubles). */
std::string
squeezed(const std::string &text)
{
    std::istringstream in(text);
    std::string word, out;
    while (in >> word)
        out += (out.empty() ? "" : " ") + word;
    return out;
}

} // namespace

// ---- Order statistics ----

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

Tail
supportedTail(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    for (const double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        // Nearest rank: the smallest sample with at least p% of the
        // samples at or below it. Integer arithmetic in hundredths of
        // a percent keeps the ceiling exact.
        const std::uint64_t scaled =
            static_cast<std::uint64_t>(std::llround(p * 100.0));
        const std::size_t rank = static_cast<std::size_t>(
            (scaled * n + 9999) / 10000);
        const std::size_t beyond = n - std::max<std::size_t>(rank, 1);
        if (beyond >= 10) {
            tail.valid = true;
            tail.percentile = p;
            tail.value = values[std::max<std::size_t>(rank, 1) - 1];
            tail.beyond = beyond;
            return tail;
        }
    }
    return tail;
}

double
histogramPercentile(const std::vector<std::uint64_t> &bounds,
                    const std::vector<std::uint64_t> &buckets, double p)
{
    std::uint64_t total = 0;
    for (const std::uint64_t count : buckets)
        total += count;
    if (total == 0)
        return 0.0;
    const double target = p / 100.0 * static_cast<double>(total);
    double seen = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const double count = static_cast<double>(buckets[i]);
        if (count > 0.0 && seen + count >= target) {
            const double hi = i < bounds.size()
                                  ? static_cast<double>(bounds[i])
                                  : static_cast<double>(bounds.back()) * 10;
            const double lo =
                i == 0 ? hi / 10.0 : static_cast<double>(bounds[i - 1]);
            const double frac = (target - seen) / count;
            return lo * std::pow(hi / lo, frac);
        }
        seen += count;
    }
    return static_cast<double>(bounds.back());
}

// ---- Host ----

Fingerprint
hostFingerprint()
{
    Fingerprint fp;
    fp.nproc = std::max(1u, std::thread::hardware_concurrency());
    const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
    if (online > 0)
        fp.nproc = std::min(fp.nproc, static_cast<unsigned>(online));
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string row;
    while (std::getline(cpuinfo, row)) {
        if (row.rfind("model name", 0) == 0) {
            fp.cpu = trimmed(row.substr(row.find(':') + 1));
            break;
        }
    }
    if (fp.cpu.empty())
        fp.cpu = "unknown";
    fp.compiler = BLBENCH_COMPILER;
    fp.buildType = BLBENCH_BUILD_TYPE;
    fp.flags = squeezed(BLBENCH_FLAGS);
    return fp;
}

bool
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    if (!clear)
        return false;
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string row;
    while (std::getline(status, row)) {
        if (row.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(row.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

double
spawnSetup(const Options &options, const std::string &dir)
{
    const std::string seed = std::to_string(options.seed);
    std::vector<std::string> args = {
        "/proc/self/exe", "--setup-into", dir,
        "--workload",     options.workload, "--seed", seed,
        "--work-dir",     options.workDir};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    const Clock::time_point start = Clock::now();
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                      environ) != 0)
        throw std::runtime_error("cannot spawn the set-up process");
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            throw std::runtime_error("lost the set-up process");
    }
    const double seconds = secondsSince(start);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up of " + options.workload +
                                 " failed in " + dir);
    return seconds;
}

std::uint64_t
counterValue(std::string_view name)
{
    return branchlab::obs::Registry::global().counter(name).value();
}

// ---- Scratch directories ----

ScratchDir::ScratchDir(const Options &options, const std::string &stem)
{
    static unsigned sequence = 0;
    const std::filesystem::path root =
        std::filesystem::path(options.workDir) / "stores";
    path_ = (root / (stem + "-" + std::to_string(::getpid()) + "-" +
                     std::to_string(sequence++)))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir()
{
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
}

// ---- Digests ----

std::string
exactDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", value);
    return buf;
}

std::string
digestOf(std::string_view canonical)
{
    branchlab::trace::ContentHasher hasher;
    hasher.str(canonical);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hasher.digest()));
    return buf;
}

bool
DigestBook::load(const Options &options, std::uint64_t seed)
{
    std::ifstream in(std::filesystem::path(options.digestDir) /
                     (std::to_string(seed) + ".txt"));
    if (!in)
        return false;
    std::string row;
    while (std::getline(in, row)) {
        if (row.empty() || row[0] == '#')
            continue;
        std::istringstream fields(row);
        std::string section, name, digest;
        if (fields >> section >> name >> digest)
            set(section, name, digest);
    }
    return !digests_.empty();
}

bool
DigestBook::save(const Options &options, std::uint64_t seed) const
{
    std::filesystem::create_directories(options.digestDir);
    std::ofstream out(std::filesystem::path(options.digestDir) /
                      (std::to_string(seed) + ".txt"));
    out << "# BranchLab benchmark reference digests, seed " << seed
        << ".\n# Made by `python3 perfbench/run.py --make-digests "
           "--seed "
        << seed
        << "` through the virtual-dispatch predictor path.\n"
           "# <section> <name> <digest of the canonical result>\n";
    for (const auto &[key, digest] : digests_)
        out << key.first << ' ' << key.second << ' ' << digest << '\n';
    return static_cast<bool>(out);
}

bool
DigestBook::has(const std::string &section) const
{
    const auto it = digests_.lower_bound({section, ""});
    return it != digests_.end() && it->first.first == section;
}

void
DigestBook::set(const std::string &section, const std::string &name,
                const std::string &digest)
{
    digests_[{section, name}] = digest;
}

std::string
DigestBook::get(const std::string &section, const std::string &name) const
{
    const auto it = digests_.find({section, name});
    return it == digests_.end() ? std::string() : it->second;
}

// ---- Run report ----

void
Report::metric(const std::string &name, const std::string &unit,
               double value)
{
    metrics_.push_back({name, unit, value, ""});
}

void
Report::info(const std::string &name, const std::string &unit,
             double value, const std::string &note)
{
    infos_.push_back({name, unit, value, note});
}

void
Report::line(const std::string &text)
{
    lines_.push_back(text);
}

void
Report::failure(const std::string &why, std::uint64_t n)
{
    failed_ += n;
    std::fprintf(stderr, "blbench: FAILED: %s\n", why.c_str());
}

void
Report::unmeasurable(const std::string &why)
{
    measurable_ = false;
    std::fprintf(stderr, "blbench: UNMEASURABLE: %s\n", why.c_str());
}

void
Report::printHuman(std::ostream &os) const
{
    for (const std::string &text : lines_)
        os << text << '\n';
    const auto print = [&](const Entry &entry) {
        os << "  " << std::left << std::setw(30) << entry.name
           << std::right << std::setw(18) << std::setprecision(6)
           << entry.value << ' ' << entry.unit;
        if (!entry.note.empty())
            os << "  (" << entry.note << ')';
        os << '\n';
    };
    if (!infos_.empty()) {
        os << "figures:\n";
        for (const Entry &entry : infos_)
            print(entry);
    }
    if (!metrics_.empty()) {
        os << "metrics:\n";
        for (const Entry &entry : metrics_)
            print(entry);
    }
    os << "operations: attempted " << attempted_ << ", failed "
       << failed_ << ", fail_ratio "
       << (attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_))
       << '\n';
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const Entry &entry : metrics_) {
        os << (first ? "" : ", ") << jsonString(entry.name)
           << ": {\"value\": " << jsonNumber(entry.value)
           << ", \"unit\": " << jsonString(entry.unit) << '}';
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
Report::resultsJson(const Options &options,
                    const Fingerprint &fingerprint) const
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"branchlab-perfbench-v1\",\n"
       << "  \"workload\": " << jsonString(options.workload) << ",\n"
       << "  \"seed\": " << options.seed << ",\n"
       << "  \"seconds\": " << jsonNumber(options.seconds) << ",\n"
       << "  \"traced\": " << (options.traced ? "true" : "false")
       << ",\n  \"host\": {\"nproc\": " << fingerprint.nproc
       << ", \"cpu\": " << jsonString(fingerprint.cpu)
       << ", \"compiler\": " << jsonString(fingerprint.compiler)
       << ", \"build_type\": " << jsonString(fingerprint.buildType)
       << ", \"flags\": " << jsonString(fingerprint.flags) << "},\n"
       << "  \"threads\": {\"paper_jobs\": 1, \"sweep_jobs\": "
       << kSweepJobs << ", \"serve_workers\": " << kServeWorkers
       << ", \"serve_connections\": " << kServeConnections << "},\n"
       << "  \"correct\": " << (correct() ? "true" : "false")
       << ",\n  \"attempted\": " << attempted_
       << ",\n  \"failed\": " << failed_ << ",\n  \"metrics\": {";
    const auto entries = [&](const std::vector<Entry> &list) {
        bool first = true;
        for (const Entry &entry : list) {
            os << (first ? "\n" : ",\n") << "    "
               << jsonString(entry.name)
               << ": {\"value\": " << jsonNumber(entry.value)
               << ", \"unit\": " << jsonString(entry.unit);
            if (!entry.note.empty())
                os << ", \"note\": " << jsonString(entry.note);
            os << '}';
            first = false;
        }
    };
    entries(metrics_);
    os << "\n  },\n  \"figures\": {";
    entries(infos_);
    os << "\n  },\n  \"lines\": [";
    for (std::size_t i = 0; i < lines_.size(); ++i)
        os << (i == 0 ? "\n    " : ",\n    ") << jsonString(lines_[i]);
    os << "\n  ]\n}\n";
    return os.str();
}

// ---- Tracing ----

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now())
{}

Tracer::Scope::Scope(Tracer &tracer, const char *layer, const char *key,
                     std::uint64_t requestId, bool attributed)
    : tracer_(tracer), start_(Clock::now())
{
    tracer_.stack_.push_back({layer, key, requestId, attributed, 0.0});
}

Tracer::Scope::~Scope()
{
    tracer_.close(start_);
}

void
Tracer::close(Clock::time_point start)
{
    const Clock::time_point end = Clock::now();
    const Open open = stack_.back();
    stack_.pop_back();
    const double seconds =
        std::chrono::duration<double>(end - start).count();
    const double self = std::max(0.0, seconds - open.childSeconds);
    if (!stack_.empty())
        stack_.back().childSeconds += seconds;
    keySeconds_[open.key] += self;
    if (open.attributed)
        layerSeconds_[open.layer] += self;
    // Bounded export: the per-layer totals keep counting past it.
    constexpr std::size_t kMaxEvents = 200'000;
    if (events_.size() < kMaxEvents) {
        events_.push_back(
            {open.layer, open.key, open.requestId, open.attributed,
             std::chrono::duration<double, std::micro>(start - origin_)
                 .count(),
             seconds * 1e6});
    }
}

void
Tracer::resetTotals()
{
    keySeconds_.clear();
    layerSeconds_.clear();
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 1, \"args\": {\"name\": "
        << jsonString("blbench " + workload_) << "}}";
    for (const Event &event : events_) {
        out << ",\n{\"name\": " << jsonString(event.key)
            << ", \"cat\": " << jsonString(event.layer)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << jsonNumber(event.startUs)
            << ", \"dur\": " << jsonNumber(event.durUs)
            << ", \"args\": {\"layer\": " << jsonString(event.layer)
            << ", \"workload\": " << jsonString(workload_);
        if (event.requestId != 0)
            out << ", \"request_id\": " << event.requestId;
        if (!event.attributed)
            out << ", \"probe\": true";
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
printLayerTable(std::ostream &os, const std::string &workload,
                const std::map<std::string, double> &layers,
                double endToEndSeconds, const std::string &unitNote)
{
    double attributed = 0.0;
    for (const auto &[layer, seconds] : layers)
        attributed += seconds;
    const auto share = [&](double seconds) {
        return endToEndSeconds > 0.0 ? 100.0 * seconds / endToEndSeconds
                                     : 0.0;
    };
    os << "per-layer self time, " << workload << " (" << unitNote
       << "; end to end " << std::setprecision(6) << endToEndSeconds
       << " s):\n";
    os << "  " << std::left << std::setw(12) << "layer" << std::right
       << std::setw(14) << "self_s" << std::setw(10) << "share%"
       << '\n';
    for (const auto &[layer, seconds] : layers) {
        os << "  " << std::left << std::setw(12) << layer << std::right
           << std::setw(14) << std::setprecision(6) << seconds
           << std::setw(10) << std::setprecision(4) << share(seconds)
           << '\n';
    }
    const double rest = endToEndSeconds - attributed;
    os << "  " << std::left << std::setw(12) << "unattributed"
       << std::right << std::setw(14) << std::setprecision(6) << rest
       << std::setw(10) << std::setprecision(4) << share(rest) << '\n';
}

} // namespace blbench
