// The pre-event-engine lockstep loop, kept as the specification oracle for
// SimDriver's differential tests (event_engine_test.cpp): adversary hook,
// sends in node index order with immediate unbounded delivery, one full
// flush.  It drives the network only through GossipNetwork's public engine
// contract, so it lives with the tests rather than in the library.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/gossip.hpp"

namespace unisamp {

inline void run_round_reference(GossipNetwork& net) {
  net.begin_tick(net.rounds_run());
  for (std::size_t from = 0; from < net.size(); ++from)
    net.emit_sends(from, [&net](std::uint32_t to, NodeId id) {
      net.accept_delivery(to, id, 0);
    });
  net.flush_tick(0);
}

}  // namespace unisamp
