/**
 * @file
 * Zig-zag LEB128 varint primitives shared by the v2 encoder
 * (SoaTrace::appendBlock, trace/soa.cc), the decoding view cursor
 * (trace/view.cc), and the out-of-core synthetic-trace generator
 * (bench/stream_smoke.cc).
 *
 * The encoding is the v2 payload's: signed address differences are
 * zig-zag mapped into small unsigneds, then emitted LEB128 (7 payload
 * bits per byte, high bit = continuation, at most 10 bytes). Real
 * traces are almost entirely one-byte deltas, which is why
 * VarintCursor fast-paths that case.
 */

#ifndef BRANCHLAB_TRACE_VARINT_HH
#define BRANCHLAB_TRACE_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace branchlab::trace
{

/** Zig-zag map a two's-complement difference into a small unsigned. */
inline std::uint64_t
zigzag(std::uint64_t diff)
{
    const auto s = static_cast<std::int64_t>(diff);
    return (static_cast<std::uint64_t>(s) << 1) ^
           static_cast<std::uint64_t>(s >> 63);
}

inline std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

/** Longest LEB128 encoding of a 64-bit value. */
inline constexpr std::size_t kMaxVarintBytes = 10;

/** LEB128: 7 payload bits per byte, high bit = continuation. Writes
 *  at @p out, which has room for kMaxVarintBytes; @return one past
 *  the last byte written. The one varint writer. */
inline std::uint8_t *
writeVarint(std::uint8_t *out, std::uint64_t value)
{
    while (value >= 0x80) {
        *out++ = static_cast<std::uint8_t>((value & 0x7f) | 0x80);
        value >>= 7;
    }
    *out++ = static_cast<std::uint8_t>(value);
    return out;
}

/** writeVarint() appended to any byte container (std::string,
 *  std::vector<std::uint8_t>). */
template <typename Bytes>
inline void
putVarint(Bytes &out, std::uint64_t value)
{
    std::uint8_t bytes[kMaxVarintBytes];
    std::uint8_t *end = writeVarint(bytes, value);
    out.insert(out.end(), bytes, end);
}

/**
 * Pointer cursor for the hot decode loops. Skips the per-byte bounds
 * arithmetic on the dominant one-byte case; returns false on
 * truncation or a >10-byte (corrupt) varint.
 */
struct VarintCursor
{
    const unsigned char *p = nullptr;
    const unsigned char *end = nullptr;

    bool get(std::uint64_t &value)
    {
        if (p != end && *p < 0x80) {
            value = *p++;
            return true;
        }
        value = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (p == end)
                return false;
            const unsigned char byte = *p++;
            value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return true;
        }
        return false; // > 10 continuation bytes: corrupt
    }
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_VARINT_HH
