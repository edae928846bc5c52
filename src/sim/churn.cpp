#include "sim/churn.hpp"

#include <algorithm>

namespace unisamp {

namespace {
ChurnReport drive(SimDriver& driver, const ChurnConfig& config,
                  bool track_connectivity) {
  GossipNetwork& net = driver.network();
  ChurnReport report;
  report.rounds = config.pre_t0_rounds;
  report.min_active_seen = net.size();
  Xoshiro256 rng(derive_seed(config.seed, 0xC4B1));

  // Precompute the toggle schedule against a local activity image and
  // register each toggle as a timestamped kChurn event.  The RNG draw
  // order is exactly the historical per-round toggle loop's, so the event
  // schedule — and everything downstream — replays bit-identically.
  std::vector<char> is_active(net.size());
  std::size_t active = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    is_active[i] = net.is_active(i) ? 1 : 0;
    if (is_active[i]) ++active;
  }
  const std::uint64_t first_tick = driver.ticks_run();

  for (std::size_t round = 0; round < config.pre_t0_rounds; ++round) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (is_active[i]) {
        if (active > config.min_active &&
            rng.bernoulli(config.leave_probability)) {
          is_active[i] = 0;
          --active;
          ++report.events;
          driver.schedule_set_active(first_tick + round, i, false);
        }
      } else if (rng.bernoulli(config.rejoin_probability)) {
        is_active[i] = 1;
        ++active;
        ++report.events;
        driver.schedule_set_active(first_tick + round, i, true);
      }
    }
    report.min_active_seen = std::min(report.min_active_seen, active);

    if (track_connectivity) {
      std::vector<std::uint32_t> active_correct;
      for (std::size_t i = 0; i < net.size(); ++i)
        if (is_active[i] && !net.is_byzantine(i))
          active_correct.push_back(static_cast<std::uint32_t>(i));
      if (net.topology().is_connected_among(active_correct))
        ++report.connected_rounds;
    }
  }

  driver.run_ticks(config.pre_t0_rounds);

  // T0: churn ceases; everyone present from now on.
  for (std::size_t i = 0; i < net.size(); ++i) net.set_active(i, true);
  return report;
}
}  // namespace

std::size_t run_churn_phase(SimDriver& driver, const ChurnConfig& config) {
  return drive(driver, config, /*track_connectivity=*/false).events;
}

ChurnReport run_churn_phase_with_report(SimDriver& driver,
                                        const ChurnConfig& config) {
  return drive(driver, config, /*track_connectivity=*/true);
}

}  // namespace unisamp
