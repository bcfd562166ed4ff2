/**
 * @file
 * Out-of-core streaming smoke bench: prove the zero-copy mapped
 * replay path is constant-memory end to end.
 *
 * A deterministic synthetic generator streams a BLTC v4 entry through
 * trace::EntryWriter one section at a time (six regeneration passes,
 * nothing buffered beyond a small chunk), so the entry can be far
 * larger than RAM. The entry is then mapped and validated with
 * trace::mapEntryFile and replayed two ways off the same mapping:
 *
 *  - a streaming differential pass: a TraceView cursor walk compared
 *    event-by-event against the regenerated stream (bit-exact at any
 *    trace size, still constant-memory);
 *  - an SBTB kernel replay (predict/replay_kernels.hh), the perf
 *    engine's hot path.
 *
 * At small event counts (<= --materialize-limit) the bench
 * additionally materialises the view into an owning SoaTrace and
 * checks the owning replay is bit-identical to the mapped one --
 * the same differential the unit tests run, here against the
 * generator's ground truth.
 *
 * CI runs this with --events 100000000 (~half a gigabyte on disk)
 * under `ulimit -v`: the address-space cap admits the mapping plus a
 * few tens of kilobytes of cursor scratch but nowhere near a decoded
 * copy of the stream, so the run only survives if replay really is
 * zero-copy. Exits nonzero on any mismatch.
 *
 *   stream_smoke [--events N] [--out FILE] [--keep]
 *                [--materialize-limit N]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <unistd.h>

#include "bench_common.hh"
#include "predict/replay_kernels.hh"
#include "trace/cache.hh"
#include "trace/format.hh"
#include "trace/varint.hh"
#include "trace/view.hh"

using namespace branchlab;

namespace
{

/** Branch pcs stay below the kernel-eligibility bound so the SBTB
 *  kernel (not the virtual fallback) replays the trace. */
constexpr std::uint64_t kPcMask = predict::kMaxKernelPc - 1;

/** Streamed write/verify chunk; the only buffering anywhere. */
constexpr std::size_t kChunkBytes = 1u << 20;

/** splitmix64: one well-mixed word per event index. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * The synthetic stream: loop-like, BTB-friendly pcs -- a hot
 * 256-address window covers most events, with a rare (1/8192) far
 * jump that sweeps the window across the full 20-bit space, so the
 * entry exercises both one-byte and multi-byte deltas while replay
 * stays representative of real traces (mostly BTB hits, not pure
 * thrash). Taken targets are a pure function of pc (stable, like
 * static code) and conditional outcomes are 7/8 taken. Branches have no anomalous-next
 * events (nextPc is always the taken target or the fallthrough),
 * matching everything the VM emits. Regenerating the stream costs a
 * few ns per event, so each section pass just runs the generator
 * again from the start.
 */
class SynthGenerator
{
  public:
    SynthGenerator(std::uint64_t events, std::uint64_t seed)
        : events_(events), seed_(seed)
    {}

    bool
    next(trace::BranchEvent &e)
    {
        if (i_ >= events_)
            return false;
        const std::uint64_t h = mix(seed_ + i_);
        if ((h & 0x1fff) == 0)
            hot_ = (h >> 32) & (kPcMask & ~0xffULL);
        const ir::Addr pc = hot_ | ((h >> 6) & 0xff);
        e = trace::BranchEvent{};
        e.pc = pc;
        e.conditional = ((h >> 14) & 1) != 0;
        e.op = e.conditional ? ir::Opcode::Bne : ir::Opcode::Jmp;
        e.taken = !e.conditional || ((h >> 15) & 7) != 0;
        e.targetKnown = true;
        e.targetAddr = ((pc * 0x9e37ULL) + 7) & kPcMask;
        e.fallthroughAddr = (pc + 1) & kPcMask;
        e.nextPc = e.taken ? e.targetAddr : e.fallthroughAddr;
        ++i_;
        return true;
    }

  private:
    std::uint64_t events_;
    std::uint64_t seed_;
    std::uint64_t hot_ = 0;
    std::uint64_t i_ = 0;
};

struct Options
{
    std::uint64_t events = 4'000'000;
    std::uint64_t seed = 1989;
    std::uint64_t materializeLimit = 4'000'000;
    std::string out;
    bool keep = false;
};

int
usage()
{
    std::cerr << "usage: stream_smoke [--events N] [--seed S] "
                 "[--out FILE] [--keep] [--materialize-limit N]\n";
    return 2;
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_number = [&]() -> std::uint64_t {
            if (i + 1 >= argc)
                blab_fatal("missing value for ", arg);
            return std::stoull(argv[++i]);
        };
        if (arg == "--events")
            options.events = need_number();
        else if (arg == "--seed")
            options.seed = need_number();
        else if (arg == "--materialize-limit")
            options.materializeLimit = need_number();
        else if (arg == "--out") {
            if (i + 1 >= argc)
                blab_fatal("missing value for ", arg);
            options.out = argv[++i];
        } else if (arg == "--keep")
            options.keep = true;
        else if (arg == "--help" || arg == "-h")
            std::exit(usage());
        else
            blab_fatal("unknown option '", arg, "'");
    }
    return options;
}

/** Stream one bit-plane section: regenerate the events, pack LSB-
 *  first bits, flush in chunks. */
template <typename BitOf>
void
writePlane(trace::EntryWriter &writer, trace::EntrySection section,
           const Options &options, BitOf bit_of)
{
    writer.beginSection(section);
    std::string buffer;
    buffer.reserve(kChunkBytes);
    SynthGenerator gen(options.events, options.seed);
    trace::BranchEvent e;
    std::uint8_t byte = 0;
    unsigned bit = 0;
    while (gen.next(e)) {
        if (bit_of(e))
            byte |= static_cast<std::uint8_t>(1u << bit);
        if (++bit == 8) {
            buffer.push_back(static_cast<char>(byte));
            byte = 0;
            bit = 0;
            if (buffer.size() >= kChunkBytes) {
                writer.write(buffer);
                buffer.clear();
            }
        }
    }
    if (bit != 0)
        buffer.push_back(static_cast<char>(byte));
    writer.write(buffer);
    writer.endSection();
}

/** Stream the whole entry; returns the on-disk byte count. */
std::uint64_t
writeEntry(const std::string &path, const Options &options,
           std::uint64_t content_hash)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    trace::EntryWriter writer(file);
    if (!writer.ok())
        blab_fatal("cannot open '", path, "' for writing");

    // Ops. The synthetic trace profiles nothing, so the entry is
    // stream-only: no profile section.
    {
        writer.beginSection(trace::EntrySection::Ops);
        std::string buffer;
        buffer.reserve(kChunkBytes);
        SynthGenerator gen(options.events, options.seed);
        trace::BranchEvent e;
        while (gen.next(e)) {
            buffer.push_back(static_cast<char>(e.op));
            if (buffer.size() >= kChunkBytes) {
                writer.write(buffer);
                buffer.clear();
            }
        }
        writer.write(buffer);
        writer.endSection();
    }

    writePlane(writer, trace::EntrySection::CondPlane, options,
               [](const trace::BranchEvent &e) { return e.conditional; });
    writePlane(writer, trace::EntrySection::TakenPlane, options,
               [](const trace::BranchEvent &e) { return e.taken; });
    writePlane(writer, trace::EntrySection::TargetKnownPlane, options,
               [](const trace::BranchEvent &e) { return e.targetKnown; });
    // No anomalous-next events: an all-zero plane ...
    writePlane(writer, trace::EntrySection::AnomalyPlane, options,
               [](const trace::BranchEvent &) { return false; });

    // Address deltas: interleaved zig-zag varint triples.
    {
        writer.beginSection(trace::EntrySection::Deltas);
        std::string buffer;
        buffer.reserve(kChunkBytes + 32);
        SynthGenerator gen(options.events, options.seed);
        trace::BranchEvent e;
        ir::Addr prev_pc = 0;
        while (gen.next(e)) {
            trace::putVarint(buffer, trace::zigzag(e.pc - prev_pc));
            trace::putVarint(buffer,
                             trace::zigzag(e.targetAddr - e.pc));
            trace::putVarint(buffer,
                             trace::zigzag(e.fallthroughAddr - e.pc));
            prev_pc = e.pc;
            if (buffer.size() >= kChunkBytes) {
                writer.write(buffer);
                buffer.clear();
            }
        }
        writer.write(buffer);
        writer.endSection();
    }

    // ... and an empty anomaly-delta column.
    writer.beginSection(trace::EntrySection::AnomalyDeltas);
    writer.endSection();

    // One instruction per event: the stream is all branches.
    writer.setMeta(content_hash, /*runs=*/1,
                   /*instructions=*/options.events, options.events,
                   /*max_pc=*/kPcMask);
    std::string error;
    if (!writer.finish(error))
        blab_fatal("entry write failed: ", error);
    return writer.bytesWritten();
}

/** Cursor-walk @p view comparing every event against the regenerated
 *  stream; returns the number of mismatching events. */
std::uint64_t
verifyView(const trace::TraceView &view, const Options &options)
{
    std::uint64_t mismatches = 0;
    SynthGenerator gen(options.events, options.seed);
    trace::BranchEvent want;
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    std::uint64_t seen = 0;
    while (cursor.next(block)) {
        for (std::size_t i = 0; i < block.count; ++i) {
            if (!gen.next(want)) {
                ++mismatches; // view longer than the generator
                continue;
            }
            const trace::BranchEvent got = block.event(i);
            const bool equal =
                got.pc == want.pc && got.nextPc == want.nextPc &&
                got.targetAddr == want.targetAddr &&
                got.fallthroughAddr == want.fallthroughAddr &&
                got.op == want.op &&
                got.conditional == want.conditional &&
                got.taken == want.taken &&
                got.targetKnown == want.targetKnown;
            if (!equal && ++mismatches <= 5) {
                std::cerr << "  MISMATCH at event "
                          << (block.base + i) << ": pc " << got.pc
                          << " vs " << want.pc << ", nextPc "
                          << got.nextPc << " vs " << want.nextPc
                          << "\n";
            }
        }
        seen += block.count;
    }
    if (seen != options.events || gen.next(want))
        ++mismatches; // length mismatch
    return mismatches;
}

bool
sameStats(const predict::PredictorStats &a,
          const predict::PredictorStats &b)
{
    const auto same = [](const Ratio &x, const Ratio &y) {
        return x.hits() == y.hits() && x.total() == y.total();
    };
    return same(a.accuracy, b.accuracy) &&
           same(a.conditionalAccuracy, b.conditionalAccuracy) &&
           same(a.unconditionalAccuracy, b.unconditionalAccuracy) &&
           same(a.predictedTaken, b.predictedTaken);
}

} // namespace

int
main(int argc, char **argv)
{
    setLoggingThrows(false);
    Options options = parseOptions(argc, argv);
    if (options.out.empty()) {
        options.out = "/tmp/stream_smoke-" +
                      std::to_string(::getpid()) + ".bltc";
    }
    // Any value works as the content hash; it only has to round-trip
    // through the header and the map-time check.
    const std::uint64_t content_hash =
        mix(options.seed ^ options.events);

    std::cout << "stream_smoke: " << options.events
              << " events -> " << options.out << "\n";

    Stopwatch write_watch;
    const std::uint64_t file_bytes =
        writeEntry(options.out, options, content_hash);
    const double write_s = write_watch.seconds();
    std::cout << "  wrote " << file_bytes << " bytes in "
              << formatFixed(write_s, 2) << " s (streamed, "
              << (kChunkBytes >> 10) << " KiB chunks)\n";

    Stopwatch map_watch;
    trace::CachedWorkload loaded;
    std::string error;
    trace::MapFailure failure = trace::MapFailure::None;
    if (!trace::mapEntryFile(options.out, content_hash, loaded, error,
                             failure)) {
        std::cerr << "  FAIL: mapEntryFile refused the entry: "
                  << error << "\n";
        return 1;
    }
    const double map_s = map_watch.seconds();
    int failures = 0;
    if (loaded.mapped == nullptr) {
        std::cerr << "  FAIL: entry loaded but not zero-copy mapped\n";
        ++failures;
    }
    if (loaded.eventCount() != options.events) {
        std::cerr << "  FAIL: mapped event count "
                  << loaded.eventCount() << " != "
                  << options.events << "\n";
        ++failures;
    }
    std::cout << "  mapped + validated in " << formatFixed(map_s, 3)
              << " s\n";

    const trace::TraceView view = loaded.traceView();

    Stopwatch verify_watch;
    const std::uint64_t mismatches = verifyView(view, options);
    if (mismatches != 0) {
        std::cerr << "  FAIL: " << mismatches
                  << " event(s) differ from the generator\n";
        ++failures;
    }
    std::cout << "  differential cursor walk: "
              << (mismatches == 0 ? "bit-identical" : "MISMATCH")
              << " (" << formatFixed(verify_watch.seconds(), 2)
              << " s)\n";

    Stopwatch replay_watch;
    predict::SbtbKernel sbtb(
        predict::kernelIndexedConfig(predict::BufferConfig{}));
    predict::walkKernels(view, {&sbtb});
    const predict::KernelReplayResult mapped_result = sbtb.result();
    const double replay_s = replay_watch.seconds();
    const double meps = replay_s > 0.0
        ? static_cast<double>(options.events) / replay_s / 1e6
        : 0.0;
    std::cout << "  SBTB replay off the mapping: "
              << formatFixed(replay_s, 2) << " s ("
              << formatFixed(meps, 1) << " M events/s, accuracy "
              << formatFixed(mapped_result.stats.accuracy.ratio(), 4)
              << ")\n";

    if (options.events <= options.materializeLimit) {
        // Owning-path differential: decode the mapping into a
        // SoaTrace and hold the kernel bit-identical across modes.
        const trace::SoaTrace owned = trace::materializeView(view);
        predict::SbtbKernel owned_sbtb(
            predict::kernelIndexedConfig(predict::BufferConfig{}));
        predict::walkKernels(trace::TraceView::of(owned), {&owned_sbtb});
        const predict::KernelReplayResult owned_result =
            owned_sbtb.result();
        if (owned.size() != options.events ||
            !sameStats(owned_result.stats, mapped_result.stats)) {
            std::cerr << "  FAIL: owning replay differs from mapped "
                         "replay\n";
            ++failures;
        } else {
            std::cout << "  owning (materialised) replay: "
                         "bit-identical stats\n";
        }
    }

    const std::uint64_t rss = bench::peakRssBytes();
    if (rss != 0) {
        std::cout << "  peak RSS " << (rss >> 20) << " MiB for a "
                  << (file_bytes >> 20) << " MiB entry\n";
    }

    if (!options.keep)
        std::remove(options.out.c_str());
    if (failures == 0)
        std::cout << "stream_smoke: OK\n";
    return failures == 0 ? 0 : 1;
}
