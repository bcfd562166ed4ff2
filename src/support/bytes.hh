/**
 * @file
 * The little-endian byte codec of every BranchLab file and wire
 * format: appenders, raw loaders, a bounded reader for untrusted
 * payloads, and the 16-digit hex form of a hash that names files.
 */

#ifndef BRANCHLAB_SUPPORT_BYTES_HH
#define BRANCHLAB_SUPPORT_BYTES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace branchlab
{

namespace detail
{

template <typename T>
void
putLe(std::string &out, T value)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

template <typename T>
T
loadLe(const std::uint8_t *p)
{
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        value = static_cast<T>(value | static_cast<T>(p[i]) << (8 * i));
    return value;
}

} // namespace detail

inline void
putU16(std::string &out, std::uint16_t v)
{
    detail::putLe(out, v);
}

inline void
putU32(std::string &out, std::uint32_t v)
{
    detail::putLe(out, v);
}

inline void
putU64(std::string &out, std::uint64_t v)
{
    detail::putLe(out, v);
}

inline void
putF64(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

inline std::uint32_t
loadU32(const std::uint8_t *p)
{
    return detail::loadLe<std::uint32_t>(p);
}

inline std::uint64_t
loadU64(const std::uint8_t *p)
{
    return detail::loadLe<std::uint64_t>(p);
}

inline double
loadF64(const std::uint8_t *p)
{
    return std::bit_cast<double>(loadU64(p));
}

/** @p value as 16 lowercase, zero-padded hex digits. */
inline std::string
hex16(std::uint64_t value)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (std::size_t i = 16; i-- > 0; value >>= 4)
        out[i] = kDigits[value & 0xf];
    return out;
}

/** Bounded little-endian reader over a payload: a read that would run
 *  past the end returns false and consumes nothing. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    bool u8(std::uint8_t &v) { return fixed(v); }
    bool u16(std::uint16_t &v) { return fixed(v); }
    bool u32(std::uint32_t &v) { return fixed(v); }
    bool u64(std::uint64_t &v) { return fixed(v); }

    bool
    f64(double &v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    bool
    bytes(std::size_t n, std::string &v)
    {
        if (n > remaining())
            return false;
        v.assign(data_.substr(pos_, n));
        pos_ += n;
        return true;
    }

    std::size_t remaining() const { return data_.size() - pos_; }
    bool exhausted() const { return pos_ == data_.size(); }

  private:
    template <typename T>
    bool
    fixed(T &v)
    {
        if (sizeof(T) > remaining())
            return false;
        v = detail::loadLe<T>(
            reinterpret_cast<const std::uint8_t *>(data_.data() + pos_));
        pos_ += sizeof(T);
        return true;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

} // namespace branchlab

#endif // BRANCHLAB_SUPPORT_BYTES_HH
