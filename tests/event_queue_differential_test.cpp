// EventQueue (sim/event_engine) against the binary-heap oracle
// (support/heap_event_queue.hpp): seeded randomized operation sequences are
// run on both queues, and after every push and pop the two must agree —
// each popped Event field by field, the assigned seq, size, empty,
// peak_size and in_flight_messages.  The sequences aim at the bucketed
// queue's seams: pushes in scrambled time order before the first pop,
// sim-like bimodal-latency traffic, zero-latency pushes at the instant
// being drained with a lower kind than the event just popped, pushes past
// the ring horizon, equal keys, draining to empty then refilling (into
// the past as well as the future), link runs: bursts of ids on one link,
// which the queue keeps in one record, and the seams of the sorted bucket
// drain: pushes into the bucket whose sorted records are half popped,
// overflow events admitted straight into the current bucket.  Send runs
// (EventQueue::push_sends) are fed to the oracle as that many separate
// kNodeSend pushes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "sim/event_engine.hpp"
#include "support/heap_event_queue.hpp"
#include "util/rng.hpp"

namespace unisamp {

/// Reads EventQueue's private geometry and record count and forces its seq
/// counter.
struct EventQueueTestPeer {
  static constexpr SimTime kBucketWidth = SimTime{1}
                                          << EventQueue::kBucketShift;
  static constexpr SimTime kHorizon = kBucketWidth * EventQueue::kSlots;
  static constexpr std::uint64_t kSeqLimit = EventQueue::kSeqLimit;
  static void set_next_seq(EventQueue& q, std::uint64_t seq) {
    q.next_seq_ = seq;
  }
  static std::size_t ring_records(const EventQueue& q) { return q.ring_size_; }
};

namespace {

using Peer = EventQueueTestPeer;

constexpr EventKind kKinds[] = {EventKind::kTickFlush, EventKind::kChurn,
                                EventKind::kTickBegin, EventKind::kMessage,
                                EventKind::kNodeSend};

/// Both queues, driven in lockstep.
class Lockstep {
 public:
  testing::AssertionResult push(SimTime time, EventKind kind,
                                std::uint32_t from, std::uint32_t to,
                                NodeId payload) {
    const std::uint64_t got = queue_.push(time, kind, from, to, payload);
    const std::uint64_t want = oracle_.push(time, kind, from, to, payload);
    if (got != want)
      return testing::AssertionFailure()
             << "push #" << ops_ << ": seq " << got << " != " << want;
    return agree("push");
  }

  /// A send run on the queue; `count` per-node kNodeSend pushes on the
  /// oracle.
  testing::AssertionResult push_sends(SimTime time, std::uint32_t count) {
    const std::uint64_t got = queue_.push_sends(time, count);
    const std::uint64_t want = oracle_.next_seq();
    for (std::uint32_t node = 0; node < count; ++node)
      oracle_.push(time, EventKind::kNodeSend, node, 0, 0);
    if (got != want)
      return testing::AssertionFailure()
             << "push_sends #" << ops_ << ": seq " << got << " != " << want;
    return agree("push_sends");
  }

  testing::AssertionResult pop() {
    if (queue_.empty() || oracle_.empty())
      return testing::AssertionFailure() << "pop #" << ops_ << " on empty";
    const Event got = queue_.pop();
    const Event want = oracle_.pop();
    last_ = want;
    if (got.time != want.time || got.seq != want.seq ||
        got.payload != want.payload || got.from != want.from ||
        got.to != want.to || got.kind != want.kind)
      return testing::AssertionFailure()
             << "pop #" << ops_ << ": got (time " << got.time << ", kind "
             << int(got.kind) << ", seq " << got.seq << ", payload "
             << got.payload << ", from " << got.from << ", to " << got.to
             << ") want (time " << want.time << ", kind " << int(want.kind)
             << ", seq " << want.seq << ", payload " << want.payload
             << ", from " << want.from << ", to " << want.to << ")";
    return agree("pop");
  }

  testing::AssertionResult drain() {
    while (!oracle_.empty()) {
      const testing::AssertionResult r = pop();
      if (!r) return r;
    }
    return agree("drain");
  }

  bool empty() const { return oracle_.empty(); }
  std::size_t size() const { return oracle_.size(); }
  const Event& last() const { return last_; }

 private:
  testing::AssertionResult agree(const char* op) {
    ++ops_;
    if (queue_.size() != oracle_.size() || queue_.empty() != oracle_.empty() ||
        queue_.peak_size() != oracle_.peak_size() ||
        queue_.in_flight_messages() != oracle_.in_flight_messages())
      return testing::AssertionFailure()
             << op << " #" << ops_ << ": size " << queue_.size() << "/"
             << oracle_.size() << ", peak " << queue_.peak_size() << "/"
             << oracle_.peak_size() << ", in flight "
             << queue_.in_flight_messages() << "/"
             << oracle_.in_flight_messages();
    return testing::AssertionSuccess();
  }

  EventQueue queue_;
  HeapEventQueue oracle_;
  Event last_;
  std::uint64_t ops_ = 0;
};

EventKind random_kind(Xoshiro256& rng) { return kKinds[rng.next_below(5)]; }

/// A random push with a random payload and endpoints.
testing::AssertionResult push_random(Lockstep& q, Xoshiro256& rng,
                                     SimTime time) {
  return q.push(time, random_kind(rng),
                static_cast<std::uint32_t>(rng.next_below(1000)),
                static_cast<std::uint32_t>(rng.next_below(1000)), rng());
}

TEST(EventQueueDifferential, ScrambledPushesBeforeTheFirstPop) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    // Times spread over 3 ring horizons, so the first pop sees the small
    // heap, ring slots and the overflow heap all populated.
    for (int i = 0; i < 4000; ++i)
      ASSERT_TRUE(push_random(q, rng, rng.next_below(3 * Peer::kHorizon)))
          << "seed " << seed;
    ASSERT_TRUE(q.drain()) << "seed " << seed;
  }
}

TEST(EventQueueDifferential, SimLikeBimodalLatencyTraffic) {
  LinkLatencyModel latency;
  latency.kind = LinkLatencyModel::Kind::kBimodal;
  latency.base = kTicksPerRound / 4;
  latency.spread = kTicksPerRound / 2;
  latency.far_fraction = 0.15;
  latency.far_extra = 2 * kTicksPerRound;
  constexpr std::uint32_t kNodes = 120;
  constexpr std::uint32_t kFanout = 3;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    latency.seed = seed;
    Xoshiro256 rng(seed);
    Lockstep q;
    // Churn far beyond the ring horizon, as SimDriver schedules it.
    for (int i = 0; i < 20; ++i)
      ASSERT_TRUE(q.push(rng.next_below(1000) * kTicksPerRound,
                         EventKind::kChurn,
                         static_cast<std::uint32_t>(rng.next_below(kNodes)), 0,
                         rng.next_below(2)));
    for (std::uint64_t tick = 0; tick < 25; ++tick) {
      // SimDriver::run_ticks' schedule for one tick.
      const SimTime now = tick * kTicksPerRound;
      ASSERT_TRUE(q.push(now, EventKind::kTickBegin, 0, 0, 0));
      for (std::uint32_t n = 0; n < kNodes; ++n)
        ASSERT_TRUE(q.push(now, EventKind::kNodeSend, n, 0, 0));
      ASSERT_TRUE(q.push(now + kTicksPerRound, EventKind::kTickFlush, 0, 0, 0));
      for (;;) {
        ASSERT_TRUE(q.pop()) << "seed " << seed << " tick " << tick;
        const Event event = q.last();
        if (event.kind == EventKind::kTickFlush) break;
        if (event.kind != EventKind::kNodeSend) continue;
        for (std::uint32_t k = 0; k < kFanout; ++k) {
          const auto to = static_cast<std::uint32_t>(rng.next_below(kNodes));
          ASSERT_TRUE(q.push(event.time + latency.transit(event.from, to),
                             EventKind::kMessage, event.from, to, rng()));
        }
      }
    }
    ASSERT_TRUE(q.drain());
  }
}

TEST(EventQueueDifferential, ZeroLatencyPushesAtTheInstantBeingDrained) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(q.push(rng.next_below(4) * Peer::kBucketWidth,
                         EventKind::kNodeSend, 0, 0, i));
    for (int step = 0; step < 3000 && !q.empty(); ++step) {
      ASSERT_TRUE(q.pop()) << "seed " << seed;
      const Event popped = q.last();
      // At the popped instant: a lower kind than the one just popped (it
      // must pop next), the same kind, and a later instant in the bucket.
      const std::uint8_t rank = static_cast<std::uint8_t>(popped.kind);
      const EventKind lower =
          rank == 0 ? EventKind::kTickFlush
                    : static_cast<EventKind>(rng.next_below(rank));
      if (step < 2000) {
        ASSERT_TRUE(q.push(popped.time, lower, 1, 2, step));
        ASSERT_TRUE(q.push(popped.time, popped.kind, 3, 4, step));
        ASSERT_TRUE(push_random(
            q, rng, popped.time + rng.next_below(Peer::kBucketWidth)));
      }
    }
    ASSERT_TRUE(q.drain());
  }
}

TEST(EventQueueDifferential, PushesPastTheRingHorizon) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    SimTime now = 0;
    for (int round = 0; round < 40; ++round) {
      // Straddle the horizon edge, land far beyond it, and once in a while
      // leave only overflow events so pop() must jump.
      for (int i = 0; i < 30; ++i) {
        const SimTime edge = now + Peer::kHorizon;
        const SimTime offsets[] = {
            edge - rng.next_below(2 * Peer::kBucketWidth),
            edge + rng.next_below(2 * Peer::kBucketWidth),
            now + (2 + rng.next_below(50)) * Peer::kHorizon,
            now + rng.next_below(Peer::kHorizon)};
        ASSERT_TRUE(push_random(q, rng, offsets[rng.next_below(4)]));
      }
      const std::size_t pops =
          round % 5 == 4 ? q.size() : rng.next_below(q.size() + 1);
      for (std::size_t i = 0; i < pops; ++i) {
        ASSERT_TRUE(q.pop());
      }
      if (!q.empty() || pops > 0) now = q.last().time;
    }
    ASSERT_TRUE(q.drain());
  }
}

TEST(EventQueueDifferential, EqualKeysPopInPushOrder) {
  Xoshiro256 rng(5);
  Lockstep q;
  // Many events on a few (time, kind) keys, each key spread over the
  // small heap, a ring slot and the overflow heap as the queue advances.
  const SimTime times[] = {0, Peer::kBucketWidth - 1, 3 * Peer::kBucketWidth,
                           2 * Peer::kHorizon};
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(q.push(times[rng.next_below(4)],
                       rng.next_below(2) ? EventKind::kMessage
                                         : EventKind::kNodeSend,
                       0, 0, i));
    if (rng.next_below(4) == 0) {
      ASSERT_TRUE(q.pop());
    }
  }
  ASSERT_TRUE(q.drain());
}

TEST(EventQueueDifferential, DrainToEmptyThenRefill) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    SimTime now = 0;
    for (int cycle = 0; cycle < 30; ++cycle) {
      // Refill around the last drained instant: into the past, the
      // current bucket, the ring and beyond the horizon.
      const int n = 1 + static_cast<int>(rng.next_below(300));
      for (int i = 0; i < n; ++i) {
        const SimTime back =
            rng.next_below(std::min(now, 2 * Peer::kHorizon) + 1);
        const SimTime offsets[] = {now - back,
                                   now + rng.next_below(Peer::kBucketWidth),
                                   now + rng.next_below(Peer::kHorizon),
                                   now + rng.next_below(8 * Peer::kHorizon)};
        ASSERT_TRUE(push_random(q, rng, offsets[rng.next_below(4)]));
      }
      ASSERT_TRUE(q.drain()) << "seed " << seed << " cycle " << cycle;
      ASSERT_TRUE(q.empty());
      now = q.last().time;
    }
  }
}

TEST(EventQueueDifferential, RandomOperationMix) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    SimTime now = 0;
    for (int op = 0; op < 5000; ++op) {
      if (!q.empty() && rng.next_below(2) == 0) {
        ASSERT_TRUE(q.pop()) << "seed " << seed;
        now = q.last().time;
        continue;
      }
      const SimTime offsets[] = {now, now + rng.next_below(Peer::kBucketWidth),
                                 now + rng.next_below(2 * Peer::kHorizon),
                                 now + rng.next_below(100 * Peer::kHorizon),
                                 now - rng.next_below(now + 1)};
      ASSERT_TRUE(push_random(q, rng, offsets[rng.next_below(5)]))
          << "seed " << seed;
    }
    ASSERT_TRUE(q.drain());
  }
}

TEST(EventQueueDifferential, LinkRunsPopAsSingleIds) {
  {
    // Two ids on one link at one ring instant share a record.
    EventQueue q;
    q.push(Peer::kBucketWidth, EventKind::kMessage, 1, 2, 10);
    q.push(Peer::kBucketWidth, EventKind::kMessage, 1, 2, 11);
    EXPECT_EQ(Peer::ring_records(q), 1u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.in_flight_messages(), 2u);
  }
  // A burst of `n` ids on link from -> to at `time`.
  auto burst = [](Lockstep& q, SimTime time, std::uint32_t from,
                  std::uint32_t to, std::uint64_t n, NodeId tag) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const testing::AssertionResult r =
          q.push(time, EventKind::kMessage, from, to, tag + i);
      if (!r) return r;
    }
    return testing::AssertionSuccess();
  };
  {
    // The same link at two times, two links at one time, and a pop that
    // stops mid-run followed by pushes at the popped instant: a lower kind
    // (pops before the run's rest) and the same kind on another link
    // (pops after it).
    Lockstep q;
    const SimTime t = 3 * Peer::kBucketWidth;
    ASSERT_TRUE(burst(q, t, 1, 2, 1, 100));
    ASSERT_TRUE(burst(q, t + 1, 1, 2, 2, 200));
    ASSERT_TRUE(burst(q, t, 1, 3, 2, 300));
    ASSERT_TRUE(burst(q, t, 1, 2, 3, 400));
    ASSERT_TRUE(q.pop());
    ASSERT_TRUE(q.push(t, EventKind::kChurn, 1, 0, 1));
    ASSERT_TRUE(burst(q, t, 4, 2, 2, 500));
    ASSERT_TRUE(q.pop());
    ASSERT_TRUE(q.pop());
    ASSERT_TRUE(burst(q, t, 1, 2, 2, 600));
    ASSERT_TRUE(q.drain());
    // Refill the ring with a run, stop mid-run and drain to empty from it.
    ASSERT_TRUE(burst(q, t + Peer::kBucketWidth, 5, 6, 2, 700));
    ASSERT_TRUE(q.pop());
    ASSERT_TRUE(q.drain());
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    SimTime now = 0;
    for (int round = 0; round < 300; ++round) {
      // Bursts of 1-5 ids over few links and times, so consecutive bursts
      // often share a link or an instant: into the ring, the past (the
      // small heap) and past the horizon (the overflow heap).
      const std::uint64_t bursts = 1 + rng.next_below(6);
      for (std::uint64_t b = 0; b < bursts; ++b) {
        const SimTime back = rng.next_below(std::min(now, Peer::kHorizon) + 1);
        const SimTime offsets[] = {
            now + rng.next_below(3) * Peer::kBucketWidth,
            now + 1 + rng.next_below(Peer::kHorizon), now - back,
            now + Peer::kHorizon + rng.next_below(4 * Peer::kHorizon)};
        ASSERT_TRUE(burst(q, offsets[rng.next_below(4)],
                          static_cast<std::uint32_t>(rng.next_below(2)),
                          static_cast<std::uint32_t>(rng.next_below(2)),
                          1 + rng.next_below(5), rng()))
            << "seed " << seed << " round " << round;
      }
      if (round % 50 == 49) {
        // Drain to empty, often from mid-run, then refill at that instant.
        ASSERT_TRUE(q.drain()) << "seed " << seed << " round " << round;
        now = q.last().time;
        continue;
      }
      const std::size_t pops = rng.next_below(q.size() + 1);
      for (std::size_t i = 0; i < pops; ++i) {
        ASSERT_TRUE(q.pop()) << "seed " << seed << " round " << round;
      }
      if (pops == 0) continue;
      const Event popped = q.last();
      now = popped.time;
      if (q.empty()) continue;
      // At the popped instant, possibly mid-run: a lower kind, and the
      // same kind on another link.
      ASSERT_TRUE(q.push(now, static_cast<EventKind>(rng.next_below(3)), 0, 0,
                         round));
      ASSERT_TRUE(burst(q, now, popped.from + 1, popped.to,
                        1 + rng.next_below(3), rng()));
    }
    ASSERT_TRUE(q.drain());
  }
}

TEST(EventQueueDifferential, PushesIntoTheBucketBeingDrained) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    // A few hundred events over three future buckets, so each pop after
    // the first comes from a sorted bucket or from a push made since.
    const SimTime base = 2 * Peer::kBucketWidth;
    for (int i = 0; i < 300; ++i)
      ASSERT_TRUE(
          push_random(q, rng, base + rng.next_below(3 * Peer::kBucketWidth)));
    for (int step = 0; step < 1500 && !q.empty(); ++step) {
      ASSERT_TRUE(q.pop()) << "seed " << seed << " step " << step;
      if (step >= 1000) continue;
      const Event popped = q.last();
      // With the cursor mid-array: a zero-latency id, a control event at
      // the popped instant, an event later in the bucket, and one into
      // the past (an earlier instant, often an earlier bucket).
      const std::uint32_t to = static_cast<std::uint32_t>(rng.next_below(50));
      switch (rng.next_below(4)) {
        case 0:
          ASSERT_TRUE(q.push(popped.time, EventKind::kMessage, popped.to, to,
                             rng()));
          break;
        case 1:
          ASSERT_TRUE(q.push(popped.time,
                             static_cast<EventKind>(rng.next_below(3)), 0, 0,
                             step));
          break;
        case 2:
          ASSERT_TRUE(push_random(
              q, rng, popped.time + rng.next_below(Peer::kBucketWidth)));
          break;
        default:
          ASSERT_TRUE(push_random(
              q, rng,
              popped.time - rng.next_below(std::min<SimTime>(
                                popped.time + 1, 2 * Peer::kBucketWidth))));
      }
    }
    ASSERT_TRUE(q.drain()) << "seed " << seed;
  }
}

TEST(EventQueueDifferential, OverflowAdmittedIntoTheCurrentBucket) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    SimTime now = 0;
    for (int cycle = 0; cycle < 10; ++cycle) {
      // Only overflow events: the next pop jumps to the first of them, and
      // that bucket's events are admitted straight into the sorted array
      // with mixed kinds and equal times.
      const SimTime far = now + (2 + rng.next_below(4)) * Peer::kHorizon;
      for (int i = 0; i < 60; ++i)
        ASSERT_TRUE(push_random(
            q, rng, far + rng.next_below(8) * (Peer::kBucketWidth / 4)));
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(q.pop()) << "seed " << seed << " cycle " << cycle;
        // Ties with the admitted events at their own instant.
        if (i % 4 == 0) {
          ASSERT_TRUE(push_random(q, rng, q.last().time));
        }
      }
      ASSERT_TRUE(q.drain()) << "seed " << seed << " cycle " << cycle;
      now = q.last().time;
    }
  }
}

TEST(EventQueueDifferential, LinkRunHalfPoppedAtTheCursor) {
  Lockstep q;
  const SimTime t = 5 * Peer::kBucketWidth + 17;
  ASSERT_TRUE(q.push(t - 3, EventKind::kMessage, 7, 8, 1));
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 1, 2, 10));
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 1, 2, 11));  // joins the run
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 3, 4, 20));
  ASSERT_TRUE(q.push(t + 1, EventKind::kNodeSend, 5, 0, 30));
  ASSERT_TRUE(q.pop());  // t - 3
  ASSERT_TRUE(q.pop());  // the run's first id; its second stays at the cursor
  EXPECT_EQ(q.last().payload, 10u);
  // A lower kind at the run's instant pops before the run's second id; the
  // same kind on another link pops after everything queued at t.
  ASSERT_TRUE(q.push(t, EventKind::kChurn, 9, 0, 40));
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 6, 2, 50));
  ASSERT_TRUE(q.drain());
}

TEST(EventQueueDifferential, SendRunsPopAsPerNodeSends) {
  // SimDriver's tick schedule with a send run of 0-40 senders, mid-run
  // pushes at the run's own instant while it sits half popped at the top
  // of the small heap: zero-latency ids (they pop before the run's next
  // sender), churn and tick-begin records, another send run; and ids with
  // latency into the ring and past the horizon.  Churn waits at future
  // tick boundaries, the instants of later send runs.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(q.push(rng.next_below(40) * kTicksPerRound,
                         EventKind::kChurn,
                         static_cast<std::uint32_t>(rng.next_below(40)), 0,
                         rng.next_below(2)));
    for (std::uint64_t tick = 0; tick < 30; ++tick) {
      const SimTime now = tick * kTicksPerRound;
      const auto senders = static_cast<std::uint32_t>(
          rng.next_below(4) == 0 ? rng.next_below(2) : rng.next_below(41));
      ASSERT_TRUE(q.push(now, EventKind::kTickBegin, 0, 0, 0));
      ASSERT_TRUE(q.push_sends(now, senders));
      ASSERT_TRUE(q.push(now + kTicksPerRound, EventKind::kTickFlush, 0, 0, 0));
      for (;;) {
        ASSERT_TRUE(q.pop()) << "seed " << seed << " tick " << tick;
        const Event event = q.last();
        if (event.kind == EventKind::kTickFlush) break;
        if (event.kind != EventKind::kNodeSend) continue;
        const auto to = static_cast<std::uint32_t>(rng.next_below(40));
        ASSERT_TRUE(q.push(event.time, EventKind::kMessage, event.from, to,
                           rng()));
        ASSERT_TRUE(q.push(event.time, EventKind::kMessage, event.from, to,
                           rng()));
        const SimTime latencies[] = {
            rng.next_below(kTicksPerRound),
            rng.next_below(3 * Peer::kHorizon)};
        ASSERT_TRUE(q.push(event.time + latencies[rng.next_below(2)],
                           EventKind::kMessage, event.from, to + 1, rng()));
        switch (rng.next_below(8)) {
          case 0:
            ASSERT_TRUE(q.push(event.time, EventKind::kChurn, to, 0, 1));
            break;
          case 1:
            ASSERT_TRUE(q.push(event.time, EventKind::kTickBegin, 0, 0, 0));
            break;
          case 2:
            ASSERT_TRUE(q.push_sends(event.time,
                                     static_cast<std::uint32_t>(
                                         rng.next_below(4))));
            break;
          default:
            break;
        }
      }
    }
    ASSERT_TRUE(q.drain()) << "seed " << seed;
  }
}

TEST(EventQueueDifferential, SendRunsInTheRingAndPastTheHorizon) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    Lockstep q;
    SimTime now = 0;
    for (int round = 0; round < 60; ++round) {
      // Send runs into the current bucket, the ring, the past and the
      // overflow heap, next to single events at the same instants.
      for (int i = 0; i < 4; ++i) {
        const SimTime back = rng.next_below(std::min(now, Peer::kHorizon) + 1);
        const SimTime offsets[] = {
            now, now + rng.next_below(Peer::kHorizon), now - back,
            now + Peer::kHorizon + rng.next_below(4 * Peer::kHorizon)};
        const SimTime time = offsets[rng.next_below(4)];
        ASSERT_TRUE(push_random(q, rng, time));
        ASSERT_TRUE(
            q.push_sends(time, static_cast<std::uint32_t>(rng.next_below(6))));
        ASSERT_TRUE(push_random(q, rng, time));
      }
      const std::size_t pops = rng.next_below(q.size() + 1);
      for (std::size_t i = 0; i < pops; ++i) {
        ASSERT_TRUE(q.pop()) << "seed " << seed << " round " << round;
      }
      if (pops > 0) now = q.last().time;
    }
    ASSERT_TRUE(q.drain()) << "seed " << seed;
  }
}

TEST(EventQueueDifferential, SendRunsOfLengthOneAndZero) {
  Lockstep q;
  const SimTime t = 2 * Peer::kBucketWidth + 5;
  ASSERT_TRUE(q.push_sends(t, 0));  // nothing queued, no seq used
  EXPECT_TRUE(q.empty());
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 1, 2, 10));
  ASSERT_TRUE(q.push_sends(t, 0));  // between two ids of one link run
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 1, 2, 11));
  ASSERT_TRUE(q.push_sends(t, 1));
  ASSERT_TRUE(q.push(t, EventKind::kNodeSend, 7, 0, 0));
  ASSERT_TRUE(q.push_sends(t, 1));
  ASSERT_TRUE(q.pop());
  // At the popped instant, into the small heap: a run of one, a run of
  // none and a control event.
  ASSERT_TRUE(q.push_sends(t, 1));
  ASSERT_TRUE(q.push_sends(t, 0));
  ASSERT_TRUE(q.push(t, EventKind::kTickBegin, 0, 0, 0));
  ASSERT_TRUE(q.drain());
}

TEST(EventQueueDifferential, SendRunHalfPoppedAtTheHeapTop) {
  Lockstep q;
  const SimTime t = 3 * kTicksPerRound;
  // The tick boundary pops first, so the run below lands in the bucket
  // being drained: the small heap.
  ASSERT_TRUE(q.push(t, EventKind::kTickFlush, 0, 0, 0));
  ASSERT_TRUE(q.push(t, EventKind::kChurn, 4, 0, 0));
  ASSERT_TRUE(q.pop());
  ASSERT_TRUE(q.push(t, EventKind::kTickBegin, 0, 0, 0));
  ASSERT_TRUE(q.push_sends(t, 5));
  ASSERT_TRUE(q.push(t, EventKind::kChurn, 2, 0, 1));
  ASSERT_TRUE(q.push(t + kTicksPerRound, EventKind::kTickFlush, 0, 0, 0));
  ASSERT_TRUE(q.pop());  // churn of node 4
  ASSERT_TRUE(q.pop());  // churn of node 2
  ASSERT_TRUE(q.pop());  // tick begin
  ASSERT_TRUE(q.pop());  // sender 0
  EXPECT_EQ(q.last().from, 0u);
  // Same-instant pushes with the run's rest at the heap top: ids with zero
  // latency, a churn and a tick begin pop before sender 1; a per-node send
  // pops after sender 4.
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 0, 3, 20));
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 0, 3, 21));
  ASSERT_TRUE(q.push(t, EventKind::kNodeSend, 9, 0, 0));
  ASSERT_TRUE(q.push(t, EventKind::kChurn, 3, 0, 0));
  ASSERT_TRUE(q.push(t, EventKind::kTickBegin, 0, 0, 0));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop());
  }
  ASSERT_TRUE(q.pop());  // sender 1
  EXPECT_EQ(q.last().from, 1u);
  ASSERT_TRUE(q.push(t, EventKind::kMessage, 1, 4, 30));
  ASSERT_TRUE(q.drain());
}

TEST(EventQueueLimit, PushThrowsLengthErrorAtTheSeqLimit) {
  EventQueue q;
  Peer::set_next_seq(q, Peer::kSeqLimit - 1);
  // The last admissible seq round-trips intact next to the largest kind.
  EXPECT_EQ(q.push(7, EventKind::kNodeSend, 1, 2, 3), Peer::kSeqLimit - 1);
  EXPECT_THROW(q.push(7, EventKind::kMessage, 1, 2, 4), std::length_error);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.in_flight_messages(), 0u);
  const Event event = q.pop();
  EXPECT_EQ(event.seq, Peer::kSeqLimit - 1);
  EXPECT_EQ(event.kind, EventKind::kNodeSend);
  EXPECT_EQ(event.time, 7u);
  EXPECT_EQ(event.payload, 3u);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.push(8, EventKind::kTickFlush, 0, 0, 0), std::length_error);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueLimit, SendRunThatWouldCrossTheSeqLimitThrows) {
  EventQueue q;
  Peer::set_next_seq(q, Peer::kSeqLimit - 3);
  // Four senders would need seq 2^61: nothing is queued, no seq is used.
  EXPECT_THROW(q.push_sends(7, 4), std::length_error);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak_size(), 0u);
  // Three fit exactly, and pop with the last three seqs.
  EXPECT_EQ(q.push_sends(7, 3), Peer::kSeqLimit - 3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.push_sends(7, 0), Peer::kSeqLimit);  // a run of none fits
  EXPECT_THROW(q.push_sends(7, 1), std::length_error);
  EXPECT_EQ(q.size(), 3u);
  for (std::uint32_t node = 0; node < 3; ++node) {
    const Event event = q.pop();
    EXPECT_EQ(event.seq, Peer::kSeqLimit - 3 + node);
    EXPECT_EQ(event.kind, EventKind::kNodeSend);
    EXPECT_EQ(event.from, node);
    EXPECT_EQ(event.payload, 0u);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak_size(), 3u);
}

}  // namespace
}  // namespace unisamp
