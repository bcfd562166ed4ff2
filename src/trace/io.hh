/**
 * @file
 * Binary branch-trace serialization: write a recorded stream to disk
 * once, replay it into predictors many times -- the workflow of
 * trace-driven studies like the paper's (profile once, evaluate every
 * scheme over the same stream).
 *
 * Two on-disk versions are readable:
 *
 *  v1 (legacy, fixed-width records):
 *   header:  magic "BLTR", u32 version = 1, u64 event count
 *   events:  u64 pc, u64 nextPc, u64 targetAddr, u64 fallthroughAddr,
 *            u8 opcode, u8 flags (bit0 conditional, bit1 taken,
 *            bit2 targetKnown)
 *
 *  v2 (current, columnar, ~6-10x smaller):
 *   header:  magic "BLTR", u32 version = 2, u64 content hash,
 *            u64 event count, u64 payload byte count
 *   payload: column-wise --
 *            opcode bytes (count);
 *            four bit-planes, ceil(count/8) bytes each: conditional,
 *            taken, targetKnown, and "anomalous next" (set when
 *            nextPc != (taken ? targetAddr : fallthroughAddr), which
 *            never happens for VM-emitted events);
 *            one delta triple per event, interleaved so decode fills
 *            each event in a single pass: pc delta (zig-zag varint vs
 *            the previous pc), target delta (vs the event's own pc),
 *            fallthrough delta (vs the event's pc);
 *            anomalous nextPc deltas (one zig-zag varint per set
 *            anomaly bit, vs the event's pc).
 *
 * The v2 content hash identifies what produced the trace (program IR +
 * layout + input suite + VM configuration); 0 means "unknown". Readers
 * fail fatally on bad magic, unsupported versions, truncation, or
 * corrupt columns -- never silently. Header counts and sizes are
 * untrusted: readers never allocate or reserve more than the bytes
 * that actually arrive, so a lying header ends in the same fatal
 * "truncated" diagnostic as a short file.
 */

#ifndef BRANCHLAB_TRACE_IO_HH
#define BRANCHLAB_TRACE_IO_HH

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hh"
#include "trace/soa.hh"

namespace branchlab::trace
{

/** Current on-disk format version (columnar). */
inline constexpr std::uint32_t kTraceFormatVersion = 2;

/** The legacy fixed-record format, still readable. */
inline constexpr std::uint32_t kTraceFormatVersionV1 = 1;

/** Serialize events to a stream (v2). @return bytes written. */
std::size_t writeTrace(std::ostream &os,
                       const std::vector<BranchEvent> &events,
                       std::uint64_t content_hash = 0);

/** Serialize an SoA stream (v2) without materialising an event
 *  vector. @return bytes written. */
std::size_t writeTrace(std::ostream &os, const SoaTrace &events,
                       std::uint64_t content_hash = 0);

/** Serialize in the legacy v1 fixed-record format (compatibility and
 *  format tests). @return bytes written. */
std::size_t writeTraceV1(std::ostream &os,
                         const std::vector<BranchEvent> &events);

/** Serialize to a file (v2); fatal on I/O failure. */
void writeTraceFile(const std::string &path,
                    const std::vector<BranchEvent> &events,
                    std::uint64_t content_hash = 0);

/** SoA-column variant of writeTraceFile (no event vector built). */
void writeTraceFile(const std::string &path, const SoaTrace &stream,
                    std::uint64_t content_hash = 0);

/**
 * Deserialize a stream written by writeTrace or writeTraceV1. Fatal
 * on bad magic, unsupported version, truncation, or corruption.
 */
std::vector<BranchEvent> readTrace(std::istream &is);

/** Deserialize from a file; fatal on I/O failure. */
std::vector<BranchEvent> readTraceFile(const std::string &path);

/**
 * Stream events from a serialized trace directly into a sink.
 * v1 streams decode record by record without materialising the
 * vector; v2 decodes its (much smaller) columns first.
 * @return events delivered.
 */
std::size_t replayTrace(std::istream &is, TraceSink &sink);

/**
 * The v2 column codec, shared with the trace cache's legacy v1
 * entries. encode returns the payload bytes for the given events;
 * decode parses a payload of @p count events, returning false (with a
 * diagnostic in @p error) on truncation or corruption instead of
 * failing fatally. @p count is checked against the payload before
 * any arithmetic, so no header value can wrap a length check.
 *
 * The SoA pair is the primary implementation. A SoaTrace already
 * holds the payload's columns (trace/soa.hh), so encode is a straight
 * concatenation; decode validates every column and re-encodes the
 * events into a fresh SoaTrace. The event-vector decode is a thin
 * adapter over it (decode-into-SoA, then toEvents()).
 */
std::string encodeEventsV2(const SoaTrace &events);
bool decodeEventsV2Soa(std::string_view payload, std::uint64_t count,
                       SoaTrace &out, std::string &error);

std::string encodeEventsV2(const std::vector<BranchEvent> &events);
bool decodeEventsV2(std::string_view payload, std::uint64_t count,
                    std::vector<BranchEvent> &out, std::string &error);

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_IO_HH
