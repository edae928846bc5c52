#include "stream/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stream/generators.hpp"
#include "stream/webtrace.hpp"

namespace unisamp {
namespace {

// Writes a USTRC001 file whose header says `runs` pairs and `total` ids,
// followed by `pairs` (id, count) — the header may lie about either.
void write_binary(const std::string& p, std::uint64_t runs,
                  std::uint64_t total,
                  const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                      pairs) {
  std::ofstream out(p, std::ios::binary);
  out << "USTRC001";
  const auto put = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.put(static_cast<char>(v >> (8 * i)));
  };
  put(runs);
  put(total);
  for (const auto& [id, count] : pairs) {
    put(id);
    put(count);
  }
}

// Expects `load` to throw std::runtime_error naming `what`.  Any other
// exception (length_error, bad_alloc, out_of_range) is a failure.
template <typename Load>
void expect_rejected(Load load, const std::string& what) {
  try {
    load();
    ADD_FAILURE() << "accepted; expected a rejection naming: " << what;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a runtime_error: " << e.what();
  }
}

class TraceIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return "/tmp/unisamp_traceio_" + name;
  }
  void TearDown() override {
    std::error_code ec;
    for (const auto& p : created_) std::filesystem::remove(p, ec);
  }
  std::string track(const std::string& p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(TraceIoTest, TextRoundTrip) {
  const Stream original = {5, 1, 1, 99, 0, 18446744073709551615ull};
  const auto p = track(path("t1.txt"));
  save_stream_text(original, p);
  EXPECT_EQ(load_stream_text(p), original);
}

TEST_F(TraceIoTest, TextSkipsCommentsAndBlanks) {
  const auto p = track(path("t2.txt"));
  std::ofstream out(p);
  out << "# header\n\n1\n2\n# mid comment\n3\n";
  out.close();
  EXPECT_EQ(load_stream_text(p), (Stream{1, 2, 3}));
}

TEST_F(TraceIoTest, TextRejectsGarbage) {
  const auto p = track(path("t3.txt"));
  std::ofstream out(p);
  out << "12abc\n";
  out.close();
  EXPECT_THROW(load_stream_text(p), std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_stream_text("/tmp/unisamp_nonexistent_xyz"),
               std::runtime_error);
  EXPECT_THROW(load_stream_binary("/tmp/unisamp_nonexistent_xyz"),
               std::runtime_error);
}

TEST_F(TraceIoTest, BinaryRoundTripShuffled) {
  const std::vector<std::uint64_t> counts = {100, 3, 0, 57, 1};
  const Stream original = exact_stream(counts, 5);
  const auto p = track(path("b1.bin"));
  save_stream_binary(original, p);
  EXPECT_EQ(load_stream_binary(p), original);
}

TEST_F(TraceIoTest, BinaryRoundTripEmpty) {
  const auto p = track(path("b2.bin"));
  save_stream_binary({}, p);
  EXPECT_TRUE(load_stream_binary(p).empty());
}

TEST_F(TraceIoTest, BinaryCompressesRuns) {
  // A sorted stream of one id is a single run: file stays tiny.
  const Stream runs(100000, 42);
  const auto p = track(path("b3.bin"));
  save_stream_binary(runs, p);
  EXPECT_LT(std::filesystem::file_size(p), 100u);
  EXPECT_EQ(load_stream_binary(p), runs);
}

TEST_F(TraceIoTest, BinaryRejectsWrongMagic) {
  const auto p = track(path("b4.bin"));
  std::ofstream out(p, std::ios::binary);
  out << "NOTATRACE-------";
  out.close();
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
}

TEST_F(TraceIoTest, BinaryRejectsTruncation) {
  const auto p = track(path("b5.bin"));
  save_stream_binary({1, 2, 3}, p);
  // Truncate the file mid-pair.
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 4);
  EXPECT_THROW(load_stream_binary(p), std::runtime_error);
}

TEST_F(TraceIoTest, BinaryRejectsHeaderClaimingMoreIdsThanItHolds) {
  // A bare 24-byte header claiming 2^62 ids must not size an allocation.
  const auto p = track(path("h1.bin"));
  write_binary(p, 0, std::uint64_t{1} << 62, {});
  expect_rejected([&] { load_stream_binary(p); }, "length mismatch");
}

TEST_F(TraceIoTest, BinaryRejectsRunPastTheDeclaredTotal) {
  // One run of 2^63 ids against a total of 2^62: rejected before any of
  // the run is appended.
  const auto p = track(path("h2.bin"));
  write_binary(p, 1, std::uint64_t{1} << 62, {{7, std::uint64_t{1} << 63}});
  expect_rejected([&] { load_stream_binary(p); }, "exceeds the declared");
}

TEST_F(TraceIoTest, BinaryRejectsRunCountTheFileDoesNotHold) {
  // 2^60 + 1 runs in a one-pair file: runs * 16 + 24 wraps to the real
  // file size, so only an exact division catches the lie.
  const auto p = track(path("h3.bin"));
  write_binary(p, (std::uint64_t{1} << 60) + 1, 1, {{7, 1}});
  expect_rejected([&] { load_stream_binary(p); }, "header claims");
  // Pairs beyond the claimed count are a lie too.
  write_binary(p, 0, 0, {{7, 1}});
  expect_rejected([&] { load_stream_binary(p); }, "header claims");
}

TEST_F(TraceIoTest, TextRejectsSignsWhitespaceAndOverflow) {
  const auto p = track(path("t4.txt"));
  for (const char* line : {"-1", "+5", " 5", "18446744073709551616"}) {
    SCOPED_TRACE(line);
    std::ofstream(p) << "1\n" << line << "\n";
    expect_rejected([&] { load_stream_text(p); }, "malformed id line");
  }
}

TEST_F(TraceIoTest, CalibratedTraceRoundTrip) {
  const auto spec = scaled_spec(clarknet_trace_spec(), 500);
  const Stream trace = generate_webtrace(spec, 9);
  const auto p = track(path("b6.bin"));
  save_stream_binary(trace, p);
  EXPECT_EQ(load_stream_binary(p), trace);
}

}  // namespace
}  // namespace unisamp
