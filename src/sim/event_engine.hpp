// Discrete-event core of the simulator (CODES/ROSS-style model-net layer).
//
// The simulator's unit of work is a timestamped Event drained from a
// min-priority queue.  Virtual time is FIXED-POINT (std::uint64_t units,
// kTicksPerRound units per gossip round) so ordering never depends on
// floating-point rounding and replays bit-identically across machines.
//
// Deterministic tie-breaking: events are ordered by (time, kind, seq).
// `kind` is an explicit priority class — at one instant, inbox flushes
// happen before churn toggles, churn before the per-tick adversary hook,
// message arrivals before sends — and `seq` is the monotonically increasing
// schedule order, so two messages scheduled by the same sender pop in the
// order they were emitted.  The queue is therefore a pure function of the
// push sequence: no heap nondeterminism, no wall-clock input.
//
// The per-link latency model is also stateless-deterministic: the transit
// time of a (from, to) link is a hash of the link and the model seed, not a
// draw from a shared RNG, so it is independent of event order and identical
// no matter how many messages cross the link.
//
// This header is protocol-agnostic: it knows nothing about gossip,
// samplers, or adversaries.  The SimDriver facade (sim/driver.hpp) owns the
// dispatch semantics and is the one public entry point for running
// simulations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "stream/types.hpp"

namespace unisamp {

/// Fixed-point virtual time.  One synchronous gossip round spans exactly
/// kTicksPerRound units, so "0.25 rounds of latency" is representable
/// exactly and integer tick boundaries are exact comparisons.
using SimTime = std::uint64_t;
inline constexpr SimTime kTicksPerRound = 1'000'000;

/// Event priority classes.  The enum VALUE is the tie-break rank at equal
/// timestamps — reorder only with a reason, it is a behaviour contract:
///   kTickFlush  < everything: a tick's inbox flush completes before the
///               next tick (scheduled at the boundary instant) begins.
///   kChurn      < kTickBegin: join/leave toggles land before the adversary
///               observes the tick — matching the legacy churn driver,
///               which toggled activity and then ran the round.
///   kMessage    < kNodeSend: an arrival at the same instant as a send is
///               heard first, so freshly received ids are gossipable —
///               the eager-knowledge semantics of the lockstep simulator.
enum class EventKind : std::uint8_t {
  kTickFlush = 0,  ///< end-of-tick service flush (bandwidth-limited)
  kChurn = 1,      ///< timestamped join/leave toggle
  kTickBegin = 2,  ///< tick boundary: adversary begin_tick hook
  kMessage = 3,    ///< one in-flight id on one directed link
  kNodeSend = 4,   ///< a node wakes up and gossips to its neighbours
};

struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;       ///< schedule order (assigned by the queue)
  NodeId payload = 0;          ///< kMessage: the id in flight; kChurn: 0/1
  std::uint32_t from = 0;      ///< kMessage/kNodeSend: node; kChurn: node
  std::uint32_t to = 0;        ///< kMessage: destination
  EventKind kind = EventKind::kTickBegin;
};

/// Min-priority queue of Events with deterministic (time, kind, seq)
/// ordering: a monotone calendar queue (after Brown, "Calendar queues",
/// CACM 1988) over fixed-width time buckets.  Contracts:
///  - Determinism: the pop sequence is a pure function of the push
///    sequence; `seq` is assigned internally in push order.  Pushes may
///    come in any time order, the past included: every pop returns the
///    least queued event under (time, kind, seq), exactly as a binary heap
///    over all queued events would.
///  - Complexity: time is cut into buckets of 2^14 units (~1/61 round).
///    Events in the next 256 buckets (~4.2 rounds) are appended unsorted
///    to ring slots in O(1).  When pop() has used up the current bucket it
///    advances to the next nonempty one, moves its r records into one
///    array and sorts them once: by time in two counting passes, O(r),
///    then by key among equal times where drain order had them out of key
///    order, O(r log r) at worst.  Each of them then pops in O(1) by
///    moving a cursor.  Pushes into the current bucket or an earlier one,
///    made while it drains, go to a small binary heap: O(log m) push/pop,
///    m = that heap's size; pop() takes the lesser of the cursor's record
///    and the heap's top.  Events beyond the horizon (e.g. churn scheduled
///    many ticks ahead) wait in an overflow heap, O(log f) each.  An
///    advance scans at most 256 slots; when only the overflow heap holds
///    events it jumps straight to them.  A run of events that hold
///    consecutive seqs at one (time, kind) is one record, so its later
///    events pop in O(1) with the cursor (or the heap's top) left in
///    place.  Two kinds of run exist: a link run, up to two kMessage ids
///    pushed back to back onto one ring slot with equal (time, from, to),
///    and a send run, one tick's kNodeSend events for nodes 0..n-1 pushed
///    by push_sends.  SimDriver pushes a tick's kTickBegin and its send
///    run at the instant being drained, so the small heap holds O(1)
///    records per tick, not n.
///  - Memory: ring slots store 48-byte records, one per run, in 4 KiB
///    chunks recycled through a free list, so capacity stays at the peak
///    number of records in flight and is freed with the queue.  The sorted
///    array and the sort's scratch array each hold one bucket's records;
///    their capacity is reused from bucket to bucket.  size(), peak_size()
///    and in_flight_messages() count events (ids), not records.
///  - Limit: at most 2^61 events per queue (`seq` shares a word with the
///    kind); the push, or the push_sends, that would pass it throws
///    std::length_error and leaves the queue as it was.
///  - Thread-safety: none.  Not copyable or movable: ring slots point
///    into chunks the queue owns.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules an event; returns its assigned sequence number.  Inline:
  /// event mode pushes one event per id sent.
  std::uint64_t push(SimTime time, EventKind kind, std::uint32_t from,
                     std::uint32_t to, NodeId payload) {
    if (next_seq_ == kSeqLimit) [[unlikely]]
      throw_seq_limit();
    const std::uint64_t seq = next_seq_++;
    if (++size_ > peak_) peak_ = size_;
    const bool message = kind == EventKind::kMessage;
    if (message) {
      ++in_flight_;
      // Extend the run the previous push started: its ids hold the seqs
      // just before this one, so they stay consecutive at one (time, kind).
      if (last_ != nullptr && last_->len < kRunIds && last_->time == time &&
          last_->from == from && last_->to == to) {
        last_->ids[last_->len++] = payload;
        return seq;
      }
    }
    Record* const at =
        place(Record{time, static_cast<std::uint64_t>(kind) << kSeqBits | seq,
                     from, to, 1, 0, {payload, 0}});
    last_ = message ? at : nullptr;
    return seq;
  }

  /// Schedules `count` kNodeSend events at `time`, for nodes 0..count-1
  /// in that order, with payload 0 and to 0; returns the first one's
  /// sequence number.  Pops exactly as `count` push() calls would, and
  /// size(), peak_size() and the seqs move the same, but it queues one
  /// record.  `count` 0 schedules nothing.
  std::uint64_t push_sends(SimTime time, std::uint32_t count);

  /// Removes and returns the earliest event.  Precondition: !empty().
  Event pop();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// kMessage events currently queued — the in-flight id count, the term
  /// that closes the drop-accounting conservation law mid-run.
  std::size_t in_flight_messages() const { return in_flight_; }
  std::size_t peak_size() const { return peak_; }

 private:
  friend struct EventQueueTestPeer;  // seq limit, ring geometry and size

  static constexpr std::uint32_t kRunIds = 2;

  /// A run of `len` events at one (time, kind) that hold consecutive
  /// seqs, packed into 48 bytes.  `key` = kind << 61 | the next event's
  /// seq, so (time, key) orders exactly as (time, kind, seq).  A kMessage
  /// run is ids of one link and the next to pop carries payload ids[head];
  /// a kNodeSend run is a tick's senders and the next to pop is node
  /// `from`.
  struct Record {
    SimTime time;
    std::uint64_t key;
    std::uint32_t from;
    std::uint32_t to;
    std::uint32_t len;
    std::uint32_t head;
    NodeId ids[kRunIds];
  };
  static_assert(sizeof(Record) == 48);
  /// 4 KiB of Records plus the link to the next chunk of the same slot.
  struct Chunk {
    static constexpr std::size_t kRecords =
        (4096 - sizeof(Chunk*)) / sizeof(Record);
    Record records[kRecords];
    Chunk* next;
  };
  /// One bucket's unsorted events: a singly linked list of chunks.  An
  /// empty slot reads as one whose tail chunk is full.
  struct Slot {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::size_t tail_fill = Chunk::kRecords;
  };

  static constexpr unsigned kSeqBits = 61;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << kSeqBits;
  static constexpr unsigned kBucketShift = 14;
  static constexpr std::size_t kSlots = 256;

  static bool later(const Record& a, const Record& b);
  static std::uint64_t bucket(SimTime time) { return time >> kBucketShift; }
  [[noreturn]] static void throw_seq_limit();
  static void push_heap(std::vector<Record>& heap, const Record& rec);

  /// Queues `rec`; returns where it sits if that is a ring slot, whose
  /// records stay put until drained, else nullptr.
  Record* place(const Record& rec) {
    const std::uint64_t b = bucket(rec.time);
    if (b - current_ - 1 < kSlots) {  // current_ < b <= current_ + kSlots
      ++ring_size_;
      return append(ring_[b % kSlots], rec);
    }
    push_heap(b <= current_ ? near_ : far_, rec);
    return nullptr;
  }
  Record* append(Slot& slot, const Record& rec) {
    if (slot.tail_fill == Chunk::kRecords) [[unlikely]]
      add_chunk(slot);
    Record* const at = &slot.tail->records[slot.tail_fill++];
    *at = rec;
    // Warm the line two records ahead: slots are written round-robin, so
    // it is needed long after this and would otherwise miss on the write.
    if (slot.tail_fill + 2 < Chunk::kRecords)
      __builtin_prefetch(&slot.tail->records[slot.tail_fill + 2], 1);
    return at;
  }
  void add_chunk(Slot& slot);
  void drain(Slot& slot);
  void advance();
  void sort_bucket();

  /// Bucket current_'s records as the last advance found them, sorted by
  /// (time, key); those before cursor_ have popped.
  std::vector<Record> sorted_;
  std::size_t cursor_ = 0;
  std::vector<Record> scratch_;  ///< sort_bucket's buffer
  std::vector<Record> near_;  ///< heap: pushed into buckets <= current_
  Slot ring_[kSlots];         ///< bucket b in (current_, current_ + kSlots]
  std::vector<Record> far_;   ///< heap: buckets beyond the ring
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< owns every chunk
  Chunk* free_ = nullptr;     ///< recycled chunks
  /// The ring record the previous push appended, while a kMessage push
  /// may still extend it; cleared by every pop, so never dangles into a
  /// drained chunk.
  Record* last_ = nullptr;
  std::uint64_t current_ = 0;
  std::size_t ring_size_ = 0;  ///< records, not events
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t peak_ = 0;
};

/// Deterministic per-link transit-time model.  The latency of a DIRECTED
/// link (from, to) is fixed for the whole run — a hash of (link, seed) —
/// which models heterogeneous wiring (near/far racks, WAN hops) without
/// coupling latency to event order.
struct LinkLatencyModel {
  enum class Kind {
    kSynchronized,  ///< zero transit: delivery at the send instant
    kUniform,       ///< base + per-link uniform extra in [0, spread]
    kBimodal,       ///< uniform, plus far_extra on a far_fraction of links
  };

  Kind kind = Kind::kSynchronized;
  SimTime base = 0;        ///< minimum transit
  SimTime spread = 0;      ///< uniform per-link extra in [0, spread]
  double far_fraction = 0.0;  ///< bimodal: share of links that are "far"
  SimTime far_extra = 0;      ///< bimodal: extra transit on far links
  std::uint64_t seed = 0;

  /// Largest base, spread or far_extra validate() admits: 10^6 rounds.  A
  /// transit is then at most 3 * 10^12 units, so adding it to a send time
  /// cannot wrap SimTime, and spread + 1 cannot wrap to 0.
  static constexpr SimTime kMaxTerm = 1'000'000 * kTicksPerRound;

  /// Throws std::invalid_argument unless base, spread and far_extra are at
  /// most kMaxTerm and far_fraction lies in [0, 1].  SimDriver checks its
  /// event-mode model with this on construction.
  void validate() const;

  /// Transit time of the directed link; pure function of (this, from, to).
  SimTime transit(std::uint32_t from, std::uint32_t to) const;
};

/// Counters the driver keeps while draining the queue.  Conservation law
/// (event mode): messages_sent == messages_delivered + messages_heard +
/// dropped_overflow + dropped_inactive + queue.in_flight_messages().
struct EngineStats {
  std::uint64_t events_processed = 0;
  std::uint64_t messages_sent = 0;       ///< emitted by senders (both modes)
  std::uint64_t messages_delivered = 0;  ///< accepted into a service inbox
  std::uint64_t messages_heard = 0;      ///< reached a node with no service
  std::uint64_t dropped_overflow = 0;    ///< bounded inbox was full
  std::uint64_t dropped_inactive = 0;    ///< receiver had churned out
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t peak_inbox_backlog = 0;  ///< largest pending inbox seen
};

}  // namespace unisamp
