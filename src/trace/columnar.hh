/**
 * @file
 * Columnar binary trace format v3 (DESIGN.md §12), the one step-A
 * trace format. Captures are stored SoA: per thread, three parallel
 * columns — delta-encoded varint instruction counts, zigzag-delta
 * varint cache-block numbers, and a packed write-flag bitmap —
 * rather than an array of 8-byte MemRecords. Deltas between
 * consecutive accesses of one thread are small (instruction counts
 * are nondecreasing, blocks exhibit spatial locality), so the
 * varints land in one or two bytes and a trace encodes several-fold
 * smaller than its in-memory records.
 *
 * The decoder is fully bounds-checked: truncated buffers, corrupt
 * varints, impossible counts, values that do not fit a MemRecord,
 * and unknown versions (v2 included) all return failure — never undefined behaviour (fuzzed in
 * tests/columnar_trace_test.cc under ASan).
 *
 * The varint/ByteReader primitives live in sim/bytes.hh (shared with
 * the step-B checkpoint and the artifact store encoders); they are
 * re-exported here so trace-side call sites keep their historical
 * names.
 */

#ifndef STARNUMA_TRACE_COLUMNAR_HH
#define STARNUMA_TRACE_COLUMNAR_HH

#include <cstdint>
#include <vector>

#include "sim/bytes.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace trace
{

using starnuma::ByteReader;
using starnuma::putVarint;
using starnuma::unzigzag;
using starnuma::zigzag;

/**
 * Version word of the columnar layout; the step-A trace cache key
 * (driver/artifact_key.cc) carries it as trace.format_version.
 */
inline constexpr std::uint64_t columnarVersion = 3;

/** Serialize @p t into the columnar v3 byte layout. */
std::vector<std::uint8_t> encodeColumnar(const WorkloadTrace &t);

/**
 * Decode a columnar v3 buffer into @p out.
 * @return false on any structural error or on a value that does not
 *         fit a MemRecord (and @p out is unspecified).
 */
bool decodeColumnar(const std::uint8_t *data, std::size_t size,
                    WorkloadTrace &out);

} // namespace trace
} // namespace starnuma

#endif // STARNUMA_TRACE_COLUMNAR_HH
