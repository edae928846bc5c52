// Minimal streaming JSON writer — the only serialization dependency of the
// benchmark harness (the repo bakes in no third-party JSON library).
//
// The writer produces pretty-printed, two-space-indented JSON with keys in
// insertion order, so a committed sidecar (bench_results_reference/) diffs
// line by line when a single value moves.  It is a push-down writer:
// begin/end calls must nest correctly, and every value inside an object must
// be preceded by key().  Misuse throws std::logic_error rather than emitting
// malformed output, because the reports are parsed by CI tooling
// (tools/check_bench_regression.py) where a silent syntax error would turn
// the whole perf trajectory into noise.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace unisamp::bench_harness {

class JsonWriter {
 public:
  JsonWriter() = default;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Names the next value; only valid directly inside an object.
  void key(std::string_view name);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void value_null();

  /// key() + value() in one call.
  template <typename T>
  void member(std::string_view name, T v) {
    key(name);
    value(v);
  }

  /// Finished document.  Throws if containers are still open.
  const std::string& str() const;

  /// JSON string escaping (exposed for tests).
  static std::string escape(std::string_view s);
  /// Double formatting used by value(double): %.6g — six significant digits
  /// is far below measurement noise, keeps committed baselines short, and is
  /// bit-stable across libc printf implementations.  Non-finite values
  /// (JSON has no NaN/Inf) serialize as null.  Exposed for tests.
  static std::string format_double(double v);

 private:
  enum class Frame : std::uint8_t { kObject, kArray };

  void pre_value();

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool key_pending_ = false;
  bool done_ = false;
};

}  // namespace unisamp::bench_harness
