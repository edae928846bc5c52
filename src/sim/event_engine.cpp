#include "sim/event_engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace unisamp {

bool EventQueue::later(const Record& a, const Record& b) {
  // Min-heap via std::*_heap's max-heap primitive: `a` sorts AFTER `b`.
  if (a.time != b.time) return a.time > b.time;
  return a.key > b.key;
}

void EventQueue::throw_seq_limit() {
  throw std::length_error("EventQueue: 2^61 events, seq would overflow");
}

void EventQueue::push_heap(std::vector<Record>& heap, const Record& rec) {
  heap.push_back(rec);
  std::push_heap(heap.begin(), heap.end(), later);
}

std::uint64_t EventQueue::push_sends(SimTime time, std::uint32_t count) {
  if (count > kSeqLimit - next_seq_) [[unlikely]]
    throw_seq_limit();
  const std::uint64_t seq = next_seq_;
  if (count == 0) return seq;
  next_seq_ += count;
  size_ += count;
  if (size_ > peak_) peak_ = size_;
  place(Record{time,
               static_cast<std::uint64_t>(EventKind::kNodeSend) << kSeqBits |
                   seq,
               0, 0, count, 0, {0, 0}});
  last_ = nullptr;
  return seq;
}

Event EventQueue::pop() {
  last_ = nullptr;
  if (cursor_ == sorted_.size() && near_.empty()) advance();
  // Keys are unique, so the two candidates never tie.
  const bool from_sorted =
      cursor_ < sorted_.size() &&
      (near_.empty() || later(near_.front(), sorted_[cursor_]));
  Record& top = from_sorted ? sorted_[cursor_] : near_.front();
  --size_;
  const auto kind = static_cast<EventKind>(top.key >> kSeqBits);
  if (kind == EventKind::kMessage) --in_flight_;
  const Event event{top.time, top.key & (kSeqLimit - 1), top.ids[top.head],
                    top.from, top.to, kind};
  if (top.len > 1) {
    // The rest of the run holds the next seqs at the same (time, kind), so
    // no other record sorts between: it stays the least of its array or
    // heap in place.
    if (kind == EventKind::kNodeSend) {
      ++top.from;
    } else {
      ++top.head;
    }
    --top.len;
    ++top.key;
  } else if (from_sorted) {
    ++cursor_;
  } else {
    std::pop_heap(near_.begin(), near_.end(), later);
    near_.pop_back();
  }
  return event;
}

void EventQueue::add_chunk(Slot& slot) {
  Chunk* chunk = free_;
  if (chunk != nullptr) {
    free_ = chunk->next;
  } else {
    chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));  // uninitialised
    chunk = chunks_.back().get();
  }
  chunk->next = nullptr;
  (slot.tail != nullptr ? slot.tail->next : slot.head) = chunk;
  slot.tail = chunk;
  slot.tail_fill = 0;
}

void EventQueue::drain(Slot& slot) {
  const std::size_t before = sorted_.size();
  for (Chunk* chunk = slot.head; chunk != nullptr;) {
    const std::size_t n =
        chunk == slot.tail ? slot.tail_fill : Chunk::kRecords;
    sorted_.insert(sorted_.end(), chunk->records, chunk->records + n);
    Chunk* next = chunk->next;
    chunk->next = free_;
    free_ = chunk;
    chunk = next;
  }
  ring_size_ -= sorted_.size() - before;
  slot = Slot{};
}

void EventQueue::advance() {
  // Precondition: the sorted records have all popped, near_ is empty and
  // the queue is not.  Step the current bucket forward until it holds
  // something; every ring and overflow event lies in a later bucket than
  // current_, so the first nonempty bucket holds the least events of the
  // queue.
  sorted_.clear();
  cursor_ = 0;
  while (sorted_.empty()) {
    if (ring_size_ == 0)  // only the overflow heap: jump to its bucket
      current_ = bucket(far_.front().time) - 1;
    ++current_;
    drain(ring_[current_ % kSlots]);
    // The horizon moved: admit overflow events that now fit the ring.
    while (!far_.empty() && bucket(far_.front().time) - current_ <= kSlots) {
      std::pop_heap(far_.begin(), far_.end(), later);
      const Record rec = far_.back();
      far_.pop_back();
      if (bucket(rec.time) == current_) {
        sorted_.push_back(rec);
      } else {
        place(rec);
      }
    }
  }
  sort_bucket();
}

void EventQueue::sort_bucket() {
  // Every record lies in bucket current_, so the low kBucketShift bits of
  // its time order it: two stable counting passes over 7-bit digits sort
  // by time in O(r), at about a seventh of std::sort's cost per record on
  // gossip_event's buckets.  Records of equal time are then in drain
  // order, nearly always key order already; the rest are sorted by key.
  constexpr unsigned kDigitBits = kBucketShift / 2;
  static_assert(2 * kDigitBits == kBucketShift);
  constexpr std::size_t kDigits = std::size_t{1} << kDigitBits;
  constexpr SimTime kMask = kDigits - 1;
  std::size_t low[kDigits] = {};
  std::size_t high[kDigits] = {};
  for (const Record& rec : sorted_) {
    ++low[rec.time & kMask];
    ++high[rec.time >> kDigitBits & kMask];
  }
  std::exclusive_scan(low, low + kDigits, low, std::size_t{0});
  std::exclusive_scan(high, high + kDigits, high, std::size_t{0});
  const std::size_t n = sorted_.size();
  if (scratch_.size() < n) scratch_.resize(n);
  for (const Record& rec : sorted_) scratch_[low[rec.time & kMask]++] = rec;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& rec = scratch_[i];
    sorted_[high[rec.time >> kDigitBits & kMask]++] = rec;
  }
  const auto by_key = [](const Record& a, const Record& b) {
    return a.key < b.key;
  };
  for (auto first = sorted_.begin(); first != sorted_.end();) {
    const SimTime time = first->time;
    const auto last = std::find_if(first + 1, sorted_.end(),
                                   [time](const Record& rec) {
                                     return rec.time != time;
                                   });
    if (!std::is_sorted(first, last, by_key)) std::sort(first, last, by_key);
    first = last;
  }
}

void LinkLatencyModel::validate() const {
  const auto check = [](SimTime term, const char* name) {
    if (term > kMaxTerm)
      throw std::invalid_argument(std::string("latency ") + name +
                                  " is not in [0, 10^6] rounds");
  };
  check(base, "base");
  check(spread, "spread");
  check(far_extra, "far_extra");
  // The negated range test also rejects NaN.
  if (!(far_fraction >= 0.0 && far_fraction <= 1.0))
    throw std::invalid_argument("latency far_fraction is not in [0, 1]");
}

SimTime LinkLatencyModel::transit(std::uint32_t from, std::uint32_t to) const {
  if (kind == Kind::kSynchronized) return 0;
  const std::uint64_t link =
      (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
  const std::uint64_t h = SplitMix64::mix(seed ^ link);
  SimTime t = base;
  if (spread > 0) t += h % (spread + 1);
  if (kind == Kind::kBimodal && far_fraction > 0.0) {
    // Second independent hash decides whether this link is a "far" one;
    // top 53 bits give a uniform double in [0, 1).
    const double u =
        static_cast<double>(SplitMix64::mix(h) >> 11) * 0x1.0p-53;
    if (u < far_fraction) t += far_extra;
  }
  return t;
}

}  // namespace unisamp
