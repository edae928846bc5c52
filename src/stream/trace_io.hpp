// Stream (trace) persistence.
//
// Two formats:
//  * plain text — one decimal id per line; interoperable with shell tools
//    and external plotting,
//  * run-length binary — little-endian (id, count) u64 pairs with a magic
//    header; compact for the calibrated web traces (millions of ids, long
//    runs after sorting is NOT assumed — runs are only taken as they occur,
//    so shuffled streams round-trip exactly too).
//
// TraceReader is the one decoder of both formats; the whole-file loaders
// and the trace-replay workload source are loops over it.  Trace files are
// untrusted input: every malformed or lying file is rejected with
// std::runtime_error, and no header field sizes an allocation.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "stream/types.hpp"

namespace unisamp {

/// Writes one id per line.  Throws std::runtime_error on I/O failure.
void save_stream_text(const Stream& stream, const std::string& path);

/// Reads a one-id-per-line file.  Ignores blank lines and lines starting
/// with '#'.  Throws std::runtime_error on I/O failure or parse error.
Stream load_stream_text(const std::string& path);

/// Writes the run-length binary format.
void save_stream_binary(const Stream& stream, const std::string& path);

/// Reads the run-length binary format; validates the header.
Stream load_stream_binary(const std::string& path);

/// Chunked decoder for both formats, detected from the USTRC001 magic (any
/// other file is text).
///
/// Contracts:
///  - Validation: a text line must be an unsigned decimal in [0, 2^64 - 1]
///    with no sign or whitespace; a binary header's run count must match
///    the file size exactly, no run may push the decoded length past the
///    header's total, and the total is checked once the last run is
///    decoded.  Violations throw std::runtime_error.
///  - Memory: O(max) per read() call, whatever the header claims.
///  - Thread-safety: none.
class TraceReader {
 public:
  /// Opens `path`, detects the format and checks a binary header against
  /// the file size.  Throws std::runtime_error.
  explicit TraceReader(const std::string& path);

  /// Appends up to `max` further ids to `out` and returns how many were
  /// appended; 0 means end of trace.  A run longer than `max` continues on
  /// the next call.
  std::size_t read(Stream& out, std::size_t max);

  bool binary() const { return binary_; }

 private:
  std::string path_;
  std::ifstream in_;
  bool binary_ = false;
  // Binary decode state: pairs not yet read, the current run's id and
  // remainder, the header's declared total and the ids committed so far.
  std::uint64_t runs_left_ = 0;
  NodeId run_id_ = 0;
  std::uint64_t run_left_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t committed_ = 0;
};

}  // namespace unisamp
