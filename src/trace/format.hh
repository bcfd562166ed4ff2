/**
 * @file
 * The BLTC sectioned cache-entry format: an mmap-friendly layout for
 * persisted traces, shared by the trace cache (trace/cache.cc), the
 * `branchlab record`/`replay` trace files, and the out-of-core
 * synthetic generator (bench/stream_smoke.cc).
 *
 * File layout (all integers little-endian):
 *
 *   header:
 *     magic "BLTC", u32 version = 5, u64 feature bits,
 *     u64 content hash, u32 runs, u32 section count (>= 7),
 *     u64 instructions, u64 event count, u64 max pc
 *   section table: section count x { u64 offset, u64 length,
 *     u64 checksum }
 *   header checksum: u64 checksum64 over every byte before it (the
 *     header and the section table)
 *   sections, each starting on a kSectionAlign boundary, in order:
 *     0 ops         one opcode byte per event
 *     1 cond plane  LSB-first bit-plane, ceil(n/8) bytes
 *     2 taken plane
 *     3 target-known plane
 *     4 anomaly plane ("anomalous next" bits, same layout)
 *     5 deltas      interleaved zig-zag varint triples per event
 *                   (pc vs prev pc, target vs pc, fallthrough vs pc)
 *     6 anomaly deltas  one zig-zag varint (nextPc vs pc) per set
 *                   anomaly bit
 *     7 profile     (additive, optional) the record pass's full
 *                   per-branch and per-path profile, so a warm run
 *                   never folds the stream to rebuild it:
 *                   u64 branch rows B, u64 path rows P, u64 last pc,
 *                   then B branch rows and P path rows, each a tally
 *                   { u64 pc, u64 prev pc, u64 taken, u64 not-taken,
 *                     u64 n, n x { u64 next pc, u64 count } }
 *                   with prev pc = kNoAddr on branch rows; a branch
 *                   row's tally is followed by the branch's history
 *                   (profile::BranchHistory):
 *                   { u64 conditional (0 or 1), u64 outcome bits b,
 *                     ceil(b / 64) x u64 outcome words (execution i's
 *                     taken bit is bit i % 64 of word i / 64),
 *                     u64 repeats, u64 last next pc }
 *
 * Sections 0-6 are byte for byte the columns a trace::SoaTrace holds
 * in memory (trace/soa.hh): there is one encoded form of a stream,
 * owned or mapped. A cold record builds it block by block, the cache
 * writes it verbatim, and a warm hit maps it back.
 *
 * The profile section is the entry's one record derived from the
 * stream (the paper's profiling pass, section 2.2). Everything else a
 * reader reports is derived from what the entry holds, never stored
 * beside it: the likely map the Forward Semantic compiles in comes
 * from the profile's branch rows (trace/cache.hh, CachedLikely), and
 * Table 1/2's branch counters from the cond, taken and target-known
 * planes; only the instruction count, which no column records, sits
 * in the header.
 *
 * Section alignment means a mapped reader hands the ops bytes and the
 * four bit-planes to the replay kernels directly out of the mapping
 * -- no copy -- while the two varint sections decode lazily, one
 * strip-mined block at a time (trace/view.hh), exactly as they do
 * for an owned stream.
 *
 * The profile section is validated against the rest of the entry at
 * map time: rows strictly ascending (branches by pc, paths by
 * (pc, prev pc)), every pc <= max pc, next-counts ascending, nonzero
 * and summing to taken + not-taken, branch executions summing to the
 * event count and path executions to one less (only the stream's
 * first event has no context), every path's branches profiled, and
 * the last pc profiled (kNoAddr for an empty stream). Each branch
 * row's history is checked against its tally: only conditional rows
 * carry outcome bits, and their bit count equals the executions,
 * their popcount equals taken, and no bit lies past the last
 * execution; other rows carry at most executions - 1 repeats and a
 * last next pc among their next pcs (conditional rows: 0 and
 * kNoAddr).
 *
 * Compatibility rules:
 *  - a reader accepts exactly kEntryVersion. Any other version --
 *    the retired inline v1, unchecksummed v2, likely-section v3 and
 *    history-less v4 entries included -- is refused as foreign, and
 *    the cache re-records it: every entry holds only data a VM pass
 *    can derive again. A v5 entry's header fields and sections 0-6
 *    are byte for byte the v4 entry's; only the profile rows grew.
 *  - the header checksum is verified right after the version, before
 *    any other header field is trusted (the section count only
 *    locates it, and a damaged count points past the file or at the
 *    wrong bytes). So damage to the run count, the instruction count,
 *    the max pc or the section table reads as corruption, never as a
 *    different entry.
 *  - feature bits declare semantics a reader MUST understand to use
 *    the entry. A reader that sees a bit outside kKnownFeatureBits
 *    refuses the entry cleanly (the cache re-records); a writer never
 *    sets bits it does not implement, and seals the header it wrote,
 *    bits included. Additive, ignorable extensions instead append
 *    sections after the first seven (section count > 7) without a
 *    bit: old readers read the sections they know and ignore the
 *    rest.
 *  - section 7 (profile) is the first such extension. Entries without
 *    it (bench/stream_smoke.cc's generator writes none) stay valid
 *    stream-only files for mapEntryFile's callers, with no likely
 *    rows; core::recordWorkload re-records them instead of folding
 *    the stream. This reader validates sections 0-7 and ignores any
 *    later ones.
 *  - the per-section checksum (checksum64 below) covers each
 *    section's bytes; readers verify all of them at map time, so a
 *    torn or bit-flipped entry can never SIGBUS a replay later.
 */

#ifndef BRANCHLAB_TRACE_FORMAT_HH
#define BRANCHLAB_TRACE_FORMAT_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "ir/types.hh"

namespace branchlab::trace
{

inline constexpr char kEntryMagic[4] = {'B', 'L', 'T', 'C'};
inline constexpr std::uint32_t kEntryVersion = 5;

/** Sections start on this boundary (one page on every platform we
 *  target), so plane pointers into a mapping are byte-aligned and
 *  page-cache friendly. */
inline constexpr std::uint64_t kSectionAlign = 4096;

/** The sections this reader knows, in file order: the seven
 *  every entry carries, then the additive ones. */
enum class EntrySection : std::size_t
{
    Ops = 0,
    CondPlane = 1,
    TakenPlane = 2,
    TargetKnownPlane = 3,
    AnomalyPlane = 4,
    Deltas = 5,
    AnomalyDeltas = 6,
    Profile = 7,
};

/** Sections every entry carries. */
inline constexpr std::size_t kEntrySectionCount = 7;

/** Sections this reader validates and uses (required + additive). */
inline constexpr std::size_t kKnownSectionCount = 8;

/** Feature bits this reader implements. Currently none are defined;
 *  any set bit marks a foreign entry and is refused at map time. */
inline constexpr std::uint64_t kKnownFeatureBits = 0;

/** Fixed header bytes before the section table. */
inline constexpr std::size_t kEntryHeaderBytes = 56;

/** Bytes per section-table row. */
inline constexpr std::size_t kSectionRecordBytes = 24;

/** Offset of the header checksum in an entry with @p section_count
 *  sections: it follows the table and covers every byte before it. */
inline std::uint64_t
headerChecksumOffset(std::uint64_t section_count)
{
    return kEntryHeaderBytes + section_count * kSectionRecordBytes;
}

/** One section-table row. */
struct SectionRecord
{
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
};

/** The decoded header plus its section table. */
struct EntryHeader
{
    std::uint64_t featureBits = 0;
    std::uint64_t contentHash = 0;
    std::uint32_t runs = 0;
    std::uint32_t sectionCount = kEntrySectionCount;
    /** Dynamic instructions the stream's runs executed. */
    std::uint64_t instructions = 0;
    std::uint64_t eventCount = 0;
    ir::Addr maxPc = 0;
    /** The first min(sectionCount, kKnownSectionCount) rows (later
     *  sections, if any, are ignored by this reader). */
    std::array<SectionRecord, kKnownSectionCount> sections{};

    /** True when the entry carries section @p s. */
    bool
    has(EntrySection s) const
    {
        return static_cast<std::size_t>(s) < sectionCount;
    }

    const SectionRecord &
    section(EntrySection s) const
    {
        return sections[static_cast<std::size_t>(s)];
    }
};

/**
 * 64-bit section checksum: FNV-1a over little-endian 8-byte words
 * (the tail word zero-padded), with the byte length folded in last so
 * same-prefix sections of different lengths cannot collide. Word-wise
 * because map-time validation reads every section of a multi-hundred-
 * megabyte entry; the byte-at-a-time FNV would dominate the warm
 * path it exists to protect.
 */
std::uint64_t checksum64(const void *data, std::size_t size);

/** @return @p offset rounded up to the next section boundary. */
inline std::uint64_t
alignSection(std::uint64_t offset)
{
    return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/**
 * Parse a header (magic and version already verified by the caller)
 * out of @p data / @p size. Verifies the header checksum before
 * decoding any field, then the header's own shape: section count
 * >= 7. @return empty string on success, else a diagnostic.
 */
std::string decodeEntryHeader(const std::uint8_t *data,
                              std::size_t size, EntryHeader &out);

/**
 * Streaming entry writer: sections are written in order, in
 * chunks of any size, and the header (with offsets, lengths, and
 * checksums accumulated along the way) is patched in by finish(),
 * which seeks the stream back to its start. Nothing is buffered beyond
 * the current chunk, so a generator can emit entries far larger than
 * memory (bench/stream_smoke.cc).
 *
 * The writer does NOT fsync or rename; the cache and `branchlab
 * record` hand it store::publish()'s temp file (trace/cache.cc).
 */
class EntryWriter
{
  public:
    /** Write into @p out, a seekable stream positioned at its start. */
    explicit EntryWriter(std::ostream &out) : file_(out) {}

    /** False after any stream failure; finish() reports it too. */
    bool ok() const { return static_cast<bool>(file_); }

    /** Header fields (any time before finish()). */
    void
    setMeta(std::uint64_t content_hash, std::uint32_t runs,
            std::uint64_t instructions, std::uint64_t event_count,
            ir::Addr max_pc, std::uint64_t feature_bits = 0)
    {
        header_.contentHash = content_hash;
        header_.runs = runs;
        header_.instructions = instructions;
        header_.eventCount = event_count;
        header_.maxPc = max_pc;
        header_.featureBits = feature_bits;
    }

    /** Start section @p s; sections must arrive in enum order. The
     *  seven required sections are mandatory, additive ones optional:
     *  the header's section count is however many were written. */
    void beginSection(EntrySection s);

    /** Append @p size bytes to the open section. */
    void write(const void *data, std::size_t size);

    void write(const std::string &bytes)
    {
        write(bytes.data(), bytes.size());
    }

    /** Close the open section, recording its length and checksum. */
    void endSection();

    /** One-call section helper. */
    void
    writeSection(EntrySection s, const void *data, std::size_t size)
    {
        beginSection(s);
        write(data, size);
        endSection();
    }

    /**
     * Pad the file, patch the header, section table and header
     * checksum, and flush.
     * @return true on success; on failure @p error describes the
     * write that broke.
     */
    bool finish(std::string &error);

    /** Bytes the finished entry occupies (valid after finish()). */
    std::uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    void pad(std::uint64_t target_offset);

    std::ostream &file_;
    EntryHeader header_;
    std::uint64_t offset_ = 0;
    std::uint64_t bytesWritten_ = 0;
    int openSection_ = -1;
    int nextSection_ = 0;
    // Incremental checksum64 state for the open section (word-wise
    // FNV over a carry buffer for non-multiple-of-8 chunks).
    std::uint64_t sumHash_ = 0;
    std::uint64_t sumLength_ = 0;
    std::array<std::uint8_t, 8> sumCarry_{};
    std::size_t sumCarryLen_ = 0;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_FORMAT_HH
