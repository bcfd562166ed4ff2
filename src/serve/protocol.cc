#include "serve/protocol.hh"

#include "support/bytes.hh"

namespace branchlab::serve
{

namespace
{

bool
fail(std::string &error, const char *what)
{
    error = what;
    return false;
}

} // namespace

core::SweepPoint
Request::toPoint() const
{
    core::SweepPoint point;
    point.btb = btb;
    point.counter = counter;
    point.fsSlots = fsSlots;
    point.traceThreshold = traceThreshold;
    point.fsOpt = fsOpt;
    return point;
}

std::string
encodeRequest(const Request &request)
{
    std::string out;
    putU32(out, kRequestMagic);
    putU16(out, kProtocolVersion);
    out.push_back(static_cast<char>(request.type));
    out.push_back(0); // pad
    putU64(out, request.requestId);
    if (request.type != RequestType::Experiment)
        return out;
    putU64(out, request.seed);
    putU32(out, request.runs);
    putU32(out, static_cast<std::uint32_t>(request.btb.entries));
    putU32(out, static_cast<std::uint32_t>(request.btb.associativity));
    out.push_back(static_cast<char>(request.btb.policy));
    out.push_back(static_cast<char>(request.counter.bits));
    out.push_back(static_cast<char>(request.counter.threshold));
    out.push_back(static_cast<char>(request.fsOpt));
    putU64(out, request.btb.seed);
    putU32(out, request.fsSlots);
    putF64(out, request.traceThreshold);
    putU16(out, static_cast<std::uint16_t>(request.workloads.size()));
    for (const std::string &name : request.workloads) {
        putU16(out, static_cast<std::uint16_t>(name.size()));
        out.append(name);
    }
    return out;
}

bool
decodeRequest(std::string_view payload, Request &out,
              std::string &error)
{
    ByteReader reader(payload);
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint8_t type = 0;
    std::uint8_t pad = 0;
    if (!reader.u32(magic) || !reader.u16(version) ||
        !reader.u8(type) || !reader.u8(pad) ||
        !reader.u64(out.requestId)) {
        return fail(error, "truncated request header");
    }
    if (magic != kRequestMagic)
        return fail(error, "bad request magic");
    if (version != kProtocolVersion)
        return fail(error, "unknown protocol version");
    if (type != static_cast<std::uint8_t>(RequestType::Experiment) &&
        type != static_cast<std::uint8_t>(RequestType::Ping)) {
        return fail(error, "unknown request type");
    }
    out.type = static_cast<RequestType>(type);
    if (out.type == RequestType::Ping) {
        if (!reader.exhausted())
            return fail(error, "trailing bytes after ping");
        return true;
    }

    std::uint32_t entries = 0;
    std::uint32_t associativity = 0;
    std::uint8_t policy = 0;
    std::uint8_t bits = 0;
    std::uint8_t threshold = 0;
    std::uint8_t fs_opt = 0;
    std::uint16_t count = 0;
    if (!reader.u64(out.seed) || !reader.u32(out.runs) ||
        !reader.u32(entries) || !reader.u32(associativity) ||
        !reader.u8(policy) || !reader.u8(bits) ||
        !reader.u8(threshold) || !reader.u8(fs_opt) ||
        !reader.u64(out.btb.seed) || !reader.u32(out.fsSlots) ||
        !reader.f64(out.traceThreshold) || !reader.u16(count)) {
        return fail(error, "truncated request body");
    }
    if (policy >
        static_cast<std::uint8_t>(predict::ReplacementPolicy::Random))
        return fail(error, "unknown replacement policy");
    if (fs_opt > static_cast<std::uint8_t>(profile::FsOptLevel::Hoist))
        return fail(error, "unknown FS optimizer level");
    if (count == 0)
        return fail(error, "request names no workloads");
    out.btb.entries = entries;
    out.btb.associativity = associativity;
    out.btb.policy = static_cast<predict::ReplacementPolicy>(policy);
    out.counter.bits = bits;
    out.counter.threshold = threshold;
    out.fsOpt = static_cast<profile::FsOptLevel>(fs_opt);
    out.workloads.clear();
    out.workloads.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
        std::uint16_t length = 0;
        std::string name;
        if (!reader.u16(length) || !reader.bytes(length, name))
            return fail(error, "truncated workload name");
        if (name.empty())
            return fail(error, "empty workload name");
        out.workloads.push_back(std::move(name));
    }
    if (!reader.exhausted())
        return fail(error, "trailing bytes after request");
    return true;
}

std::string
encodeResponse(const Response &response)
{
    std::string out;
    putU32(out, kResponseMagic);
    putU16(out, kProtocolVersion);
    out.push_back(static_cast<char>(response.status));
    out.push_back(response.cacheHit ? 1 : 0);
    putU64(out, response.requestId);
    putU32(out, response.retryAfterMs);
    if (response.status == ResponseStatus::Ok) {
        putU16(out,
               static_cast<std::uint16_t>(response.cells.size()));
        for (const core::SweepCell &cell : response.cells) {
            putF64(out, cell.sbtbAccuracy);
            putF64(out, cell.sbtbMissRatio);
            putF64(out, cell.cbtbAccuracy);
            putF64(out, cell.cbtbMissRatio);
            putF64(out, cell.fsAccuracy);
            putF64(out, cell.codeIncrease);
        }
    } else if (response.status == ResponseStatus::Error) {
        putU16(out,
               static_cast<std::uint16_t>(response.message.size()));
        out.append(response.message);
    }
    return out;
}

bool
decodeResponse(std::string_view payload, Response &out,
               std::string &error)
{
    ByteReader reader(payload);
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint8_t status = 0;
    std::uint8_t cache_hit = 0;
    if (!reader.u32(magic) || !reader.u16(version) ||
        !reader.u8(status) || !reader.u8(cache_hit) ||
        !reader.u64(out.requestId) || !reader.u32(out.retryAfterMs)) {
        return fail(error, "truncated response header");
    }
    if (magic != kResponseMagic)
        return fail(error, "bad response magic");
    if (version != kProtocolVersion)
        return fail(error, "unknown protocol version");
    if (status > static_cast<std::uint8_t>(ResponseStatus::Draining))
        return fail(error, "unknown response status");
    out.status = static_cast<ResponseStatus>(status);
    out.cacheHit = cache_hit != 0;
    out.cells.clear();
    out.message.clear();
    if (out.status == ResponseStatus::Ok) {
        std::uint16_t count = 0;
        if (!reader.u16(count))
            return fail(error, "truncated cell count");
        out.cells.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i) {
            core::SweepCell cell;
            if (!reader.f64(cell.sbtbAccuracy) ||
                !reader.f64(cell.sbtbMissRatio) ||
                !reader.f64(cell.cbtbAccuracy) ||
                !reader.f64(cell.cbtbMissRatio) ||
                !reader.f64(cell.fsAccuracy) ||
                !reader.f64(cell.codeIncrease)) {
                return fail(error, "truncated cell");
            }
            out.cells.push_back(cell);
        }
    } else if (out.status == ResponseStatus::Error) {
        std::uint16_t length = 0;
        if (!reader.u16(length) ||
            !reader.bytes(length, out.message)) {
            return fail(error, "truncated error message");
        }
    }
    if (!reader.exhausted())
        return fail(error, "trailing bytes after response");
    return true;
}

std::string
frameHeader(std::uint32_t payloadBytes)
{
    std::string out;
    putU32(out, payloadBytes);
    return out;
}

} // namespace branchlab::serve
