#include "trace/io.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/logging.hh"
#include "trace/varint.hh"
#include "trace/view.hh"

namespace branchlab::trace
{

namespace
{

constexpr char kMagic[4] = {'B', 'L', 'T', 'R'};
constexpr std::size_t kEventBytesV1 = 4 * 8 + 2;

void
putU32(std::ostream &os, std::uint32_t value)
{
    std::array<char, 4> bytes;
    for (int i = 0; i < 4; ++i)
        bytes[static_cast<std::size_t>(i)] =
            static_cast<char>((value >> (8 * i)) & 0xff);
    os.write(bytes.data(), bytes.size());
}

void
putU64(std::ostream &os, std::uint64_t value)
{
    std::array<char, 8> bytes;
    for (int i = 0; i < 8; ++i)
        bytes[static_cast<std::size_t>(i)] =
            static_cast<char>((value >> (8 * i)) & 0xff);
    os.write(bytes.data(), bytes.size());
}

std::uint32_t
getU32(std::istream &is)
{
    std::array<char, 4> bytes;
    is.read(bytes.data(), bytes.size());
    if (!is)
        blab_fatal("truncated trace stream");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(
                         bytes[static_cast<std::size_t>(i)]))
                 << (8 * i);
    }
    return value;
}

std::uint64_t
getU64(std::istream &is)
{
    std::array<char, 8> bytes;
    is.read(bytes.data(), bytes.size());
    if (!is)
        blab_fatal("truncated trace stream");
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(
                         bytes[static_cast<std::size_t>(i)]))
                 << (8 * i);
    }
    return value;
}

void
putEventV1(std::ostream &os, const BranchEvent &event)
{
    putU64(os, event.pc);
    putU64(os, event.nextPc);
    putU64(os, event.targetAddr);
    putU64(os, event.fallthroughAddr);
    const char op = static_cast<char>(event.op);
    os.put(op);
    const char flags = static_cast<char>(
        (event.conditional ? 1 : 0) | (event.taken ? 2 : 0) |
        (event.targetKnown ? 4 : 0));
    os.put(flags);
}

BranchEvent
getEventV1(std::istream &is)
{
    BranchEvent event;
    event.pc = getU64(is);
    event.nextPc = getU64(is);
    event.targetAddr = getU64(is);
    event.fallthroughAddr = getU64(is);
    const int op = is.get();
    const int flags = is.get();
    if (op < 0 || flags < 0)
        blab_fatal("truncated trace stream");
    if (op >= ir::kNumOpcodes)
        blab_fatal("corrupt trace stream: bad opcode ", op);
    event.op = static_cast<ir::Opcode>(op);
    event.conditional = (flags & 1) != 0;
    event.taken = (flags & 2) != 0;
    event.targetKnown = (flags & 4) != 0;
    return event;
}

struct HeaderV2
{
    std::uint64_t contentHash = 0;
    std::uint64_t count = 0;
    std::uint64_t payloadSize = 0;
};

/**
 * Read the common magic+version prefix; fill @p v2 when the stream is
 * version 2. @return the version (1 or 2); for v1 @p count_v1 holds
 * the event count.
 */
std::uint32_t
readHeader(std::istream &is, std::uint64_t &count_v1, HeaderV2 &v2)
{
    char magic[4];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        blab_fatal("not a BranchLab trace (bad magic)");
    const std::uint32_t version = getU32(is);
    if (version == kTraceFormatVersionV1) {
        count_v1 = getU64(is);
        return version;
    }
    if (version == kTraceFormatVersion) {
        v2.contentHash = getU64(is);
        v2.count = getU64(is);
        v2.payloadSize = getU64(is);
        return version;
    }
    blab_fatal("unsupported trace version ", version, " (expected ",
               kTraceFormatVersionV1, " or ", kTraceFormatVersion, ")");
}

std::vector<BranchEvent>
readBodyV2(std::istream &is, const HeaderV2 &header)
{
    // Every event owns at least its opcode byte.
    if (header.count > header.payloadSize)
        blab_fatal("corrupt trace stream: ", header.count,
                   " events cannot fit a ", header.payloadSize,
                   "-byte payload");
    // The header's payload size is untrusted: grow the buffer only as
    // bytes actually arrive, so a lying header ends in "truncated"
    // instead of a giant allocation.
    constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
    std::string payload;
    while (payload.size() < header.payloadSize) {
        const std::size_t have = payload.size();
        const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
            kChunkBytes, header.payloadSize - have));
        payload.resize(have + want);
        is.read(payload.data() + have, static_cast<std::streamsize>(want));
        if (!is)
            blab_fatal("truncated trace stream");
    }
    std::vector<BranchEvent> events;
    std::string error;
    if (!decodeEventsV2(payload, header.count, events, error))
        blab_fatal("corrupt trace stream: ", error);
    return events;
}

} // namespace

std::string
encodeEventsV2(const SoaTrace &events)
{
    // The SoaTrace columns are the payload's, in payload order.
    const std::vector<std::uint8_t> *const columns[] = {
        &events.ops(),          &events.conditionalPlane(),
        &events.takenPlane(),   &events.targetKnownPlane(),
        &events.anomalyPlane(), &events.deltas(),
        &events.anomalyDeltas()};
    std::size_t bytes = 0;
    for (const std::vector<std::uint8_t> *column : columns)
        bytes += column->size();
    std::string payload;
    payload.reserve(bytes);
    for (const std::vector<std::uint8_t> *column : columns)
        payload.append(reinterpret_cast<const char *>(column->data()),
                       column->size());
    return payload;
}

std::string
encodeEventsV2(const std::vector<BranchEvent> &events)
{
    return encodeEventsV2(SoaTrace::fromEvents(events));
}

bool
decodeEventsV2Soa(std::string_view payload, std::uint64_t count,
                  SoaTrace &out, std::string &error)
{
    out.clear();
    // Every event owns at least its opcode byte. Checking the count
    // first keeps the column arithmetic below from wrapping.
    if (count > payload.size()) {
        error = "event count exceeds the payload";
        return false;
    }
    const auto n = static_cast<std::size_t>(count);
    const std::size_t plane_bytes = (n + 7) / 8;
    if (payload.size() - n < 4 * plane_bytes) {
        error = "payload shorter than its fixed columns";
        return false;
    }
    const auto *ops =
        reinterpret_cast<const std::uint8_t *>(payload.data());
    const std::uint8_t *cond = ops + n;
    const std::uint8_t *taken = cond + plane_bytes;
    const std::uint8_t *target_known = taken + plane_bytes;
    const std::uint8_t *anomaly = target_known + plane_bytes;
    const std::uint8_t *deltas = anomaly + plane_bytes;
    const std::uint8_t *end = ops + payload.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (ops[i] >= ir::kNumOpcodes) {
            error = "bad opcode " + std::to_string(ops[i]);
            return false;
        }
    }
    // Walk both varint columns once to find where they split and to
    // prove each holds exactly its events' varints; the view decode
    // below can then never run short.
    VarintCursor cur{deltas, end};
    std::uint64_t z = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!cur.get(z) || !cur.get(z) || !cur.get(z)) {
            error = "truncated delta column";
            return false;
        }
    }
    const std::uint8_t *anomaly_deltas = cur.p;
    for (std::size_t i = 0; i < n; ++i) {
        if (((anomaly[i >> 3] >> (i & 7)) & 1u) != 0 && !cur.get(z)) {
            error = "truncated anomalous-next column";
            return false;
        }
    }
    if (cur.p != cur.end) {
        error = "trailing bytes after event columns";
        return false;
    }
    out = materializeView(TraceView::mapped(
        ops, cond, taken, target_known, anomaly, deltas,
        static_cast<std::size_t>(anomaly_deltas - deltas),
        anomaly_deltas, static_cast<std::size_t>(end - anomaly_deltas),
        n, ir::kNoAddr));
    return true;
}

bool
decodeEventsV2(std::string_view payload, std::uint64_t count,
               std::vector<BranchEvent> &out, std::string &error)
{
    out.clear();
    SoaTrace soa;
    if (!decodeEventsV2Soa(payload, count, soa, error))
        return false;
    out = soa.toEvents();
    return true;
}

std::size_t
writeTrace(std::ostream &os, const std::vector<BranchEvent> &events,
           std::uint64_t content_hash)
{
    const std::string payload = encodeEventsV2(events);
    os.write(kMagic, sizeof(kMagic));
    putU32(os, kTraceFormatVersion);
    putU64(os, content_hash);
    putU64(os, events.size());
    putU64(os, payload.size());
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
    if (!os)
        blab_fatal("trace write failed");
    return sizeof(kMagic) + 4 + 3 * 8 + payload.size();
}

std::size_t
writeTrace(std::ostream &os, const SoaTrace &events,
           std::uint64_t content_hash)
{
    const std::string payload = encodeEventsV2(events);
    os.write(kMagic, sizeof(kMagic));
    putU32(os, kTraceFormatVersion);
    putU64(os, content_hash);
    putU64(os, events.size());
    putU64(os, payload.size());
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
    if (!os)
        blab_fatal("trace write failed");
    return sizeof(kMagic) + 4 + 3 * 8 + payload.size();
}

std::size_t
writeTraceV1(std::ostream &os, const std::vector<BranchEvent> &events)
{
    os.write(kMagic, sizeof(kMagic));
    putU32(os, kTraceFormatVersionV1);
    putU64(os, events.size());
    for (const BranchEvent &event : events)
        putEventV1(os, event);
    if (!os)
        blab_fatal("trace write failed");
    return sizeof(kMagic) + 4 + 8 + events.size() * kEventBytesV1;
}

void
writeTraceFile(const std::string &path,
               const std::vector<BranchEvent> &events,
               std::uint64_t content_hash)
{
    std::ofstream file(path, std::ios::binary);
    if (!file)
        blab_fatal("cannot open '", path, "' for writing");
    writeTrace(file, events, content_hash);
}

void
writeTraceFile(const std::string &path, const SoaTrace &stream,
               std::uint64_t content_hash)
{
    std::ofstream file(path, std::ios::binary);
    if (!file)
        blab_fatal("cannot open '", path, "' for writing");
    writeTrace(file, stream, content_hash);
}

std::vector<BranchEvent>
readTrace(std::istream &is)
{
    std::uint64_t count_v1 = 0;
    HeaderV2 v2;
    if (readHeader(is, count_v1, v2) == kTraceFormatVersionV1) {
        // The count is untrusted: reserve at most a modest prefix and
        // let truncation end the loop.
        constexpr std::uint64_t kReserveCap = std::uint64_t{1} << 16;
        std::vector<BranchEvent> events;
        events.reserve(static_cast<std::size_t>(
            std::min(count_v1, kReserveCap)));
        for (std::uint64_t i = 0; i < count_v1; ++i)
            events.push_back(getEventV1(is));
        return events;
    }
    return readBodyV2(is, v2);
}

std::vector<BranchEvent>
readTraceFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        blab_fatal("cannot open '", path, "' for reading");
    return readTrace(file);
}

std::size_t
replayTrace(std::istream &is, TraceSink &sink)
{
    std::uint64_t count_v1 = 0;
    HeaderV2 v2;
    if (readHeader(is, count_v1, v2) == kTraceFormatVersionV1) {
        for (std::uint64_t i = 0; i < count_v1; ++i)
            sink.onBranch(getEventV1(is));
        return count_v1;
    }
    const std::vector<BranchEvent> events = readBodyV2(is, v2);
    for (const BranchEvent &event : events)
        sink.onBranch(event);
    return events.size();
}

} // namespace branchlab::trace
