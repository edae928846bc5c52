#include "sim/driver.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace unisamp {

SimDriver::SimDriver(GossipNetwork& net, TimingModel timing)
    : net_(net), timing_(timing) {
  if (timing_.kind == TimingModel::Kind::kEvent) timing_.latency.validate();
}

void SimDriver::schedule_set_active(std::uint64_t tick, std::size_t node,
                                    bool active) {
  if (tick < tick_)
    throw std::invalid_argument("cannot schedule churn in the past");
  if (tick > std::numeric_limits<SimTime>::max() / kTicksPerRound)
    throw std::invalid_argument("churn tick's start time overflows SimTime");
  if (node >= net_.size())
    throw std::out_of_range("churn event targets a node outside the network");
  queue_.push(tick * kTicksPerRound, EventKind::kChurn,
              static_cast<std::uint32_t>(node), 0, active ? 1 : 0);
}

void SimDriver::note_outcome(DeliveryOutcome outcome) {
  switch (outcome) {
    case DeliveryOutcome::kDelivered: ++stats_.messages_delivered; return;
    case DeliveryOutcome::kHeard: ++stats_.messages_heard; return;
    case DeliveryOutcome::kInactive: ++stats_.dropped_inactive; return;
    case DeliveryOutcome::kOverflow: ++stats_.dropped_overflow; return;
  }
}

void SimDriver::dispatch(const Event& event) {
  switch (event.kind) {
    case EventKind::kChurn:
      net_.set_active(event.from, event.payload != 0);
      return;
    case EventKind::kTickBegin:
      net_.begin_tick(tick_);
      return;
    case EventKind::kNodeSend:
      if (timing_.kind == TimingModel::Kind::kRounds) {
        // Degenerate-config cut-through: deliver inline (see driver.hpp).
        net_.emit_sends(event.from, [this](std::uint32_t to, NodeId id) {
          ++stats_.messages_sent;
          note_outcome(net_.accept_delivery(to, id, 0));
        });
      } else {
        // emit_sends hands over a link's ids back to back, so the transit
        // is hashed once per link.  No node id equals `link`'s start value.
        std::uint64_t link = ~std::uint64_t{0};
        SimTime arrival = 0;
        net_.emit_sends(event.from, [&](std::uint32_t to, NodeId id) {
          ++stats_.messages_sent;
          if (to != link) {
            link = to;
            arrival = event.time + timing_.latency.transit(event.from, to);
          }
          queue_.push(arrival, EventKind::kMessage, event.from, to, id);
        });
      }
      return;
    case EventKind::kMessage: {
      const DeliveryOutcome outcome =
          net_.accept_delivery(event.to, event.payload, timing_.inbox_capacity);
      // An inbox only grows between flushes, so its depth after each
      // delivery reaches the same peak as reading every inbox at a flush.
      if (outcome == DeliveryOutcome::kDelivered)
        stats_.peak_inbox_backlog = std::max<std::uint64_t>(
            stats_.peak_inbox_backlog, net_.inbox_depth(event.to));
      note_outcome(outcome);
      return;
    }
    case EventKind::kTickFlush:
      return;  // consumed by run_ticks' drain loop
  }
}

void SimDriver::run_ticks(std::size_t ticks) {
  const bool rounds_mode = timing_.kind == TimingModel::Kind::kRounds;
  for (std::size_t i = 0; i < ticks; ++i) {
    const SimTime now = tick_ * kTicksPerRound;
    queue_.push(now, EventKind::kTickBegin, 0, 0, 0);
    queue_.push_sends(now, static_cast<std::uint32_t>(net_.size()));
    // The flush closes the tick at the next boundary instant; its
    // kTickFlush rank sorts it before anything else scheduled there.
    queue_.push(now + kTicksPerRound, EventKind::kTickFlush, 0, 0, 0);
    while (!queue_.empty()) {
      const Event event = queue_.pop();
      ++stats_.events_processed;
      if (event.kind == EventKind::kTickFlush) {
        net_.flush_tick(rounds_mode ? 0 : timing_.bandwidth_per_tick);
        break;
      }
      dispatch(event);
    }
    stats_.peak_queue_depth =
        std::max<std::uint64_t>(stats_.peak_queue_depth, queue_.peak_size());
    ++tick_;
  }
}

}  // namespace unisamp
