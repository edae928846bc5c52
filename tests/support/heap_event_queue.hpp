// The binary-heap event queue the simulator used before its bucketed
// calendar queue, kept as the specification oracle for EventQueue's
// randomized differential test (event_queue_differential_test.cpp): one
// std::*_heap over every queued event, ordered by (time, kind, seq).  It
// has the same push/pop/size/peak/in-flight surface as EventQueue, so a
// test can drive both with one operation sequence and compare every pop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_engine.hpp"

namespace unisamp {

class HeapEventQueue {
 public:
  std::uint64_t push(SimTime time, EventKind kind, std::uint32_t from,
                     std::uint32_t to, NodeId payload) {
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Event{time, seq, payload, from, to, kind});
    std::push_heap(heap_.begin(), heap_.end(), later);
    if (kind == EventKind::kMessage) ++in_flight_;
    peak_ = std::max(peak_, heap_.size());
    return seq;
  }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event event = heap_.back();
    heap_.pop_back();
    if (event.kind == EventKind::kMessage) --in_flight_;
    return event;
  }

  /// The seq the next push will be assigned.
  std::uint64_t next_seq() const { return next_seq_; }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::size_t in_flight_messages() const { return in_flight_; }
  std::size_t peak_size() const { return peak_; }

 private:
  static bool later(const Event& a, const Event& b) {
    // Min-heap via std::*_heap's max-heap primitive: `a` sorts AFTER `b`.
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.seq > b.seq;
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace unisamp
