#include "stream/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stream/generators.hpp"
#include "stream/webtrace.hpp"
#include "util/rng.hpp"

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

// Seeded mutation sweep over both formats: every truncation, bit flips and
// lying header fields.  Each load must return or throw std::runtime_error —
// never another exception type, and never UB (the sanitizer leg runs this
// suite).  Binary mutants change ONE field at a time: a file may honestly
// declare a 2^62-id run, so two coordinated lies can describe a valid but
// huge trace, which is not what this sweep is about.
TEST_F(TraceIoTest, MutatedFilesLoadOrThrowRuntimeError) {
  const Stream original =
      exact_stream(std::vector<std::uint64_t>{5, 1, 0, 3, 7, 2}, 3);
  const auto clean_path = track(path("m_clean"));
  const auto mutant_path = track(path("m_mutant"));
  std::size_t loads = 0;
  const auto load_mutant = [&](const std::string& bytes, bool binary) {
    std::ofstream(mutant_path, std::ios::binary) << bytes;
    ++loads;
    try {
      binary ? load_stream_binary(mutant_path)
             : load_stream_text(mutant_path);
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << (binary ? "binary" : "text") << " mutant "
                    << loads << " threw a non-runtime_error: " << e.what();
    }
  };
  const auto clean_bytes = [&](bool binary) {
    binary ? save_stream_binary(original, clean_path)
           : save_stream_text(original, clean_path);
    std::ifstream in(clean_path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  Xoshiro256 rng(20130624);
  for (const bool binary : {false, true}) {
    const std::string clean = clean_bytes(binary);
    for (std::size_t len = 0; len < clean.size(); ++len)
      load_mutant(clean.substr(0, len), binary);
    // Binary: every single-bit flip.  Text: seeded 1-3 bit flips.
    const std::size_t flips = binary ? clean.size() * 8 : 2000;
    for (std::size_t f = 0; f < flips; ++f) {
      std::string mutant = clean;
      const std::size_t bits = binary ? 1 : 1 + rng.next_below(3);
      for (std::size_t b = 0; b < bits; ++b) {
        const std::size_t bit = binary ? f : rng.next_below(clean.size() * 8);
        mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      }
      load_mutant(mutant, binary);
    }
  }

  // Lying header fields: the run count (offset 8) and the total (16).
  const std::string clean = clean_bytes(true);
  const std::uint64_t runs = (clean.size() - 24) / 16;
  const std::uint64_t lies[] = {0,
                                1,
                                runs - 1,
                                runs + 1,
                                original.size() - 1,
                                original.size() + 1,
                                std::uint64_t{1} << 32,
                                (std::uint64_t{1} << 60) + 1,
                                std::uint64_t{1} << 62,
                                std::uint64_t{1} << 63,
                                ~std::uint64_t{0}};
  for (const std::size_t offset : {8, 16}) {
    for (const std::uint64_t lie : lies) {
      std::string mutant = clean;
      for (int i = 0; i < 8; ++i)
        mutant[offset + i] = static_cast<char>(lie >> (8 * i));
      load_mutant(mutant, true);
    }
  }
  EXPECT_GT(loads, 2000u);
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
