#include "sim/event_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace unisamp {

bool EventQueue::later(const Record& a, const Record& b) {
  // Min-heap via std::*_heap's max-heap primitive: `a` sorts AFTER `b`.
  if (a.time != b.time) return a.time > b.time;
  return a.key > b.key;
}

void EventQueue::throw_seq_limit() {
  throw std::length_error("EventQueue: 2^61 pushes, seq would overflow");
}

void EventQueue::push_heap(std::vector<Record>& heap, const Record& rec) {
  heap.push_back(rec);
  std::push_heap(heap.begin(), heap.end(), later);
}

Event EventQueue::pop() {
  last_ = nullptr;
  if (near_.empty()) advance();
  Record& top = near_.front();
  --size_;
  const auto kind = static_cast<EventKind>(top.key >> kSeqBits);
  if (kind == EventKind::kMessage) --in_flight_;
  const Event event{top.time, top.key & (kSeqLimit - 1), top.ids[top.head],
                    top.from, top.to, kind};
  if (top.len > 1) {
    // The rest of the run holds the next seqs at the same (time, kind), so
    // no other record sorts between: the top stays the least in place.
    ++top.head;
    --top.len;
    ++top.key;
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
  const std::size_t before = near_.size();
  for (Chunk* chunk = slot.head; chunk != nullptr;) {
    const std::size_t n =
        chunk == slot.tail ? slot.tail_fill : Chunk::kRecords;
    near_.insert(near_.end(), chunk->records, chunk->records + n);
    Chunk* next = chunk->next;
    chunk->next = free_;
    free_ = chunk;
    chunk = next;
  }
  ring_size_ -= near_.size() - before;
  slot = Slot{};
}

void EventQueue::advance() {
  // Precondition: near_ is empty and the queue is not.  Step the current
  // bucket forward until it holds something; every ring and overflow event
  // lies in a later bucket than current_, so the first nonempty bucket
  // holds the least events of the queue.
  while (near_.empty()) {
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
        near_.push_back(rec);
      } else {
        place(rec);
      }
    }
  }
  std::make_heap(near_.begin(), near_.end(), later);
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
