#include "stream/trace_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace unisamp {

namespace {
constexpr std::array<char, 8> kMagic = {'U', 'S', 'T', 'R', 'C', '0', '0',
                                        '1'};
// Magic, run count, total; then one (id, count) pair per run.
constexpr std::uint64_t kHeaderBytes = 24;
constexpr std::uint64_t kPairBytes = 16;
// Ids decoded per TraceReader::read call by the whole-file loaders.
constexpr std::size_t kLoadChunk = std::size_t{1} << 16;

void write_u64(std::ofstream& out, std::uint64_t v) {
  std::array<unsigned char, 8> buf;
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(buf.data()), 8);
}

std::uint64_t read_u64(std::ifstream& in) {
  std::array<unsigned char, 8> buf;
  in.read(reinterpret_cast<char*>(buf.data()), 8);
  if (!in) throw std::runtime_error("unexpected end of binary trace");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

Stream load_stream(const std::string& path, bool binary) {
  TraceReader reader(path);
  if (reader.binary() != binary)
    throw std::runtime_error(path + (binary
                                         ? " is not a unisamp binary trace"
                                         : " is a binary trace, not text"));
  Stream stream;
  while (reader.read(stream, kLoadChunk) != 0) {
  }
  return stream;
}
}  // namespace

TraceReader::TraceReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  if (!in_) throw std::runtime_error("cannot open " + path);
  std::array<char, 8> magic{};
  in_.read(magic.data(), magic.size());
  binary_ = in_ && magic == kMagic;
  if (!binary_) {
    in_.clear();
    in_.seekg(0);
    return;
  }
  runs_left_ = read_u64(in_);
  total_ = read_u64(in_);
  // The body must hold exactly the pairs the header claims.  Dividing the
  // file size, rather than multiplying the claim, cannot wrap around.
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  in_.seekg(static_cast<std::streamoff>(kHeaderBytes));
  if (!in_ || size < static_cast<std::streamoff>(kHeaderBytes))
    throw std::runtime_error("cannot size binary trace " + path);
  const std::uint64_t body = static_cast<std::uint64_t>(size) - kHeaderBytes;
  if (body % kPairBytes != 0 || runs_left_ != body / kPairBytes)
    throw std::runtime_error("binary trace " + path + " header claims " +
                             std::to_string(runs_left_) +
                             " runs but the file holds " +
                             std::to_string(body / kPairBytes));
}

std::size_t TraceReader::read(Stream& out, std::size_t max) {
  const std::size_t start = out.size();
  if (binary_) {
    while (out.size() - start < max) {
      if (run_left_ == 0) {
        if (runs_left_ == 0) break;
        run_id_ = static_cast<NodeId>(read_u64(in_));
        run_left_ = read_u64(in_);
        --runs_left_;
        // Checked before any of the run is appended, so a lying count never
        // grows `out` beyond the declared total.
        if (run_left_ > total_ - committed_)
          throw std::runtime_error("binary trace run exceeds the declared "
                                   "length in " + path_);
        committed_ += run_left_;
        continue;  // a zero-length run is legal and contributes nothing
      }
      const std::uint64_t take = std::min<std::uint64_t>(
          run_left_, static_cast<std::uint64_t>(max - (out.size() - start)));
      out.insert(out.end(), static_cast<std::size_t>(take), run_id_);
      run_left_ -= take;
    }
    if (runs_left_ == 0 && run_left_ == 0 && committed_ != total_)
      throw std::runtime_error("binary trace length mismatch in " + path_);
    return out.size() - start;
  }
  std::string line;
  while (out.size() - start < max && std::getline(in_, line)) {
    if (line.empty() || line[0] == '#') continue;
    // from_chars takes no sign, whitespace or out-of-range value.
    NodeId id = 0;
    const char* const end = line.data() + line.size();
    const auto [ptr, ec] = std::from_chars(line.data(), end, id);
    if (ec != std::errc{} || ptr != end)
      throw std::runtime_error("malformed id line in " + path_ + ": " + line);
    out.push_back(id);
  }
  return out.size() - start;
}

void save_stream_text(const Stream& stream, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  for (NodeId id : stream) out << id << '\n';
  if (!out) throw std::runtime_error("write failure on " + path);
}

Stream load_stream_text(const std::string& path) {
  return load_stream(path, /*binary=*/false);
}

void save_stream_binary(const Stream& stream, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out.write(kMagic.data(), kMagic.size());
  // Count runs first so the header can carry the pair count.
  std::uint64_t runs = 0;
  for (std::size_t i = 0; i < stream.size();) {
    std::size_t j = i;
    while (j < stream.size() && stream[j] == stream[i]) ++j;
    ++runs;
    i = j;
  }
  write_u64(out, runs);
  write_u64(out, stream.size());
  for (std::size_t i = 0; i < stream.size();) {
    std::size_t j = i;
    while (j < stream.size() && stream[j] == stream[i]) ++j;
    write_u64(out, stream[i]);
    write_u64(out, j - i);
    i = j;
  }
  if (!out) throw std::runtime_error("write failure on " + path);
}

Stream load_stream_binary(const std::string& path) {
  return load_stream(path, /*binary=*/true);
}

}  // namespace unisamp
