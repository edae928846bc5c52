#include "stream/histogram.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <span>

namespace unisamp {
namespace {

/// Slots of the first allocation (256 B).
constexpr std::size_t kMinSlots = 16;
/// Ids hashed, and their home slots prefetched, per add_stream step.
constexpr std::size_t kPrefetchGroup = 16;

}  // namespace

/// Index of id's slot, or of the empty slot that ends its probe run.  The
/// load bound keeps an empty slot in every table, so the scan stops.
std::size_t FrequencyHistogram::probe(std::uint64_t h, NodeId id) const {
  std::size_t i = home(h);
#ifndef NDEBUG
  std::size_t probes = 0;
#endif
  while (slots_[i].second != 0 && slots_[i].first != id) {
#ifndef NDEBUG
    ++probes;
    assert(probes <= mask_ && "FrequencyHistogram probe scan wrapped");
#endif
    i = (i + 1) & mask_;
  }
  return i;
}

/// Precondition: count > 0 and the table is allocated.
void FrequencyHistogram::bump(std::uint64_t h, NodeId id,
                              std::uint64_t count) {
  std::size_t i = probe(h, id);
  if (slots_[i].second == 0) {
    if (4 * (distinct_ + 1) > 3 * slots_.size()) {
      grow();
      i = probe(h, id);
    }
    slots_[i].first = id;
    ++distinct_;
  }
  slots_[i].second += count;
}

void FrequencyHistogram::grow() {
  std::vector<Entry> old = std::move(slots_);
  slots_.assign(old.empty() ? kMinSlots : 2 * old.size(), Entry{0, 0});
  mask_ = slots_.size() - 1;
  shift_ = 64 - std::countr_zero(slots_.size());
  for (const Entry& e : old)
    if (e.second != 0) slots_[probe(hash(e.first), e.first)] = e;
}

void FrequencyHistogram::add(NodeId id, std::uint64_t count) {
  if (count == 0) return;
  assert(total_ + count > total_ && "FrequencyHistogram total overflow");
  if (slots_.empty()) grow();
  bump(hash(id), id, count);
  total_ += count;
}

void FrequencyHistogram::add_stream(std::span<const NodeId> stream) {
  if (stream.empty()) return;
  if (slots_.empty()) grow();
  std::array<std::uint64_t, kPrefetchGroup> hashes{};
  for (std::size_t start = 0; start < stream.size(); start += kPrefetchGroup) {
    const auto group =
        stream.subspan(start, std::min(kPrefetchGroup, stream.size() - start));
    for (std::size_t j = 0; j < group.size(); ++j) {
      hashes[j] = hash(group[j]);
      __builtin_prefetch(&slots_[home(hashes[j])], 1);
    }
    for (std::size_t j = 0; j < group.size(); ++j)
      bump(hashes[j], group[j], 1);
  }
  total_ += stream.size();
}

std::uint64_t FrequencyHistogram::count(NodeId id) const {
  if (slots_.empty()) return 0;
  return slots_[probe(hash(id), id)].second;
}

std::uint64_t FrequencyHistogram::max_frequency() const {
  std::uint64_t best = 0;
  for (const auto& [id, c] : raw()) best = std::max(best, c);
  return best;
}

NodeId FrequencyHistogram::most_frequent_id() const {
  NodeId best_id = 0;
  std::uint64_t best = 0;
  for (const auto& [id, c] : raw()) {
    if (c > best || (c == best && id < best_id)) {
      best = c;
      best_id = id;
    }
  }
  return best_id;
}

std::vector<std::uint64_t> FrequencyHistogram::sorted_frequencies() const {
  std::vector<std::uint64_t> f;
  f.reserve(distinct_);
  for (const auto& [id, c] : raw()) f.push_back(c);
  std::sort(f.rbegin(), f.rend());
  return f;
}

std::vector<double> FrequencyHistogram::distribution(std::uint64_t n) const {
  std::vector<double> d(n, 0.0);
  std::uint64_t counted = 0;
  for (const auto& [id, c] : raw()) {
    if (id < n) {
      d[id] = static_cast<double>(c);
      counted += c;
    }
  }
  if (counted > 0)
    for (double& x : d) x /= static_cast<double>(counted);
  return d;
}

bool operator==(const FrequencyHistogram& a, const FrequencyHistogram& b) {
  if (a.total() != b.total() || a.distinct() != b.distinct()) return false;
  for (const auto& [id, c] : a.raw())
    if (b.count(id) != c) return false;
  return true;
}

TraceStats compute_stats(std::span<const NodeId> stream) {
  FrequencyHistogram h;
  h.add_stream(stream);
  return TraceStats{h.total(), h.distinct(), h.max_frequency()};
}

}  // namespace unisamp
