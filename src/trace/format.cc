#include "trace/format.hh"

#include <algorithm>
#include <cstring>

#include "support/bytes.hh"
#include "support/logging.hh"

namespace branchlab::trace
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
loadWordLe(const std::uint8_t *p)
{
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8); // little-endian hosts only, like the
                              // rest of the on-disk integer fields
    return word;
}

std::uint64_t
mixWord(std::uint64_t hash, std::uint64_t word)
{
    hash ^= word;
    return hash * kFnvPrime;
}

std::string
encodeHeader(const EntryHeader &header)
{
    std::string out;
    out.append(kEntryMagic, sizeof(kEntryMagic));
    putU32(out, kEntryVersion);
    putU64(out, header.featureBits);
    putU64(out, header.contentHash);
    putU32(out, header.runs);
    putU32(out, header.sectionCount);
    putU64(out, header.instructions);
    putU64(out, header.eventCount);
    putU64(out, header.maxPc);
    blab_assert(out.size() == kEntryHeaderBytes,
                "entry header layout drifted");
    for (std::size_t s = 0; s < header.sectionCount; ++s) {
        putU64(out, header.sections[s].offset);
        putU64(out, header.sections[s].length);
        putU64(out, header.sections[s].checksum);
    }
    putU64(out, checksum64(out.data(), out.size()));
    return out;
}

} // namespace

std::uint64_t
checksum64(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t hash = kFnvOffset;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8)
        hash = mixWord(hash, loadWordLe(p + i));
    if (i < size) {
        std::uint8_t tail[8] = {};
        std::memcpy(tail, p + i, size - i);
        hash = mixWord(hash, loadWordLe(tail));
    }
    return mixWord(hash, size);
}

std::string
decodeEntryHeader(const std::uint8_t *data, std::size_t size,
                  EntryHeader &out)
{
    if (size < kEntryHeaderBytes)
        return "truncated header";
    const std::uint8_t *p = data + sizeof(kEntryMagic) + 4;
    // The section count only locates the checksum; no other field is
    // read until the checksum has matched.
    out.sectionCount = loadU32(p + 20);
    const std::uint64_t checksum_at =
        headerChecksumOffset(out.sectionCount);
    if (checksum_at > size - 8)
        return "section table exceeds file";
    if (checksum64(data, static_cast<std::size_t>(checksum_at)) !=
        loadU64(data + checksum_at))
        return "header checksum mismatch";
    out.featureBits = loadU64(p);
    out.contentHash = loadU64(p + 8);
    out.runs = loadU32(p + 16);
    out.instructions = loadU64(p + 24);
    out.eventCount = loadU64(p + 32);
    out.maxPc = loadU64(p + 40);
    if (out.sectionCount < kEntrySectionCount)
        return "too few sections (" +
               std::to_string(out.sectionCount) + ")";
    const std::uint8_t *row = data + kEntryHeaderBytes;
    const std::size_t known =
        std::min<std::size_t>(out.sectionCount, kKnownSectionCount);
    for (std::size_t s = 0; s < known; ++s, row += kSectionRecordBytes) {
        out.sections[s].offset = loadU64(row);
        out.sections[s].length = loadU64(row + 8);
        out.sections[s].checksum = loadU64(row + 16);
    }
    return "";
}

void
EntryWriter::pad(std::uint64_t target_offset)
{
    static const std::array<char, 256> zeros{};
    while (offset_ < target_offset && file_) {
        const std::uint64_t chunk = std::min<std::uint64_t>(
            zeros.size(), target_offset - offset_);
        file_.write(zeros.data(),
                    static_cast<std::streamsize>(chunk));
        offset_ += chunk;
    }
}

void
EntryWriter::beginSection(EntrySection s)
{
    const int index = static_cast<int>(s);
    blab_assert(openSection_ < 0, "section already open");
    blab_assert(index == nextSection_ &&
                    index < static_cast<int>(kKnownSectionCount),
                "sections must be written in order");
    if (offset_ == 0) {
        // Reserve the header region the first time a section opens
        // (room for every known row and the header checksum; one page
        // either way).
        pad(alignSection(headerChecksumOffset(kKnownSectionCount) + 8));
    } else {
        pad(alignSection(offset_));
    }
    openSection_ = index;
    header_.sections[static_cast<std::size_t>(index)].offset = offset_;
    sumHash_ = kFnvOffset;
    sumLength_ = 0;
    sumCarryLen_ = 0;
}

void
EntryWriter::write(const void *data, std::size_t size)
{
    blab_assert(openSection_ >= 0, "no open section");
    if (size == 0)
        return;
    file_.write(static_cast<const char *>(data),
                static_cast<std::streamsize>(size));
    offset_ += size;
    sumLength_ += size;
    // Incremental checksum64: drain through the partial-word carry.
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t n = size;
    if (sumCarryLen_ != 0) {
        while (sumCarryLen_ < 8 && n != 0) {
            sumCarry_[sumCarryLen_++] = *p++;
            --n;
        }
        if (sumCarryLen_ == 8) {
            sumHash_ = mixWord(sumHash_, loadWordLe(sumCarry_.data()));
            sumCarryLen_ = 0;
        }
    }
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        sumHash_ = mixWord(sumHash_, loadWordLe(p + i));
    for (; i < n; ++i)
        sumCarry_[sumCarryLen_++] = p[i];
}

void
EntryWriter::endSection()
{
    blab_assert(openSection_ >= 0, "no open section");
    std::uint64_t hash = sumHash_;
    if (sumCarryLen_ != 0) {
        std::uint8_t tail[8] = {};
        std::memcpy(tail, sumCarry_.data(), sumCarryLen_);
        hash = mixWord(hash, loadWordLe(tail));
    }
    hash = mixWord(hash, sumLength_);
    SectionRecord &record =
        header_.sections[static_cast<std::size_t>(openSection_)];
    record.length = sumLength_;
    record.checksum = hash;
    openSection_ = -1;
    ++nextSection_;
}

bool
EntryWriter::finish(std::string &error)
{
    blab_assert(openSection_ < 0, "finish with a section open");
    blab_assert(nextSection_ >= static_cast<int>(kEntrySectionCount),
                "finish before every required section was written");
    header_.sectionCount = static_cast<std::uint32_t>(nextSection_);
    // Pad the tail so the file ends on a section boundary (keeps
    // concatenation-style tooling and mapped length math simple).
    pad(alignSection(offset_));
    bytesWritten_ = offset_;
    file_.seekp(0);
    const std::string header = encodeHeader(header_);
    file_.write(header.data(),
                static_cast<std::streamsize>(header.size()));
    file_.flush();
    if (!file_) {
        error = "entry write failed";
        return false;
    }
    return true;
}

} // namespace branchlab::trace
