#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bigint/random_source.hpp"

namespace pisa::core {

ScenarioRunner::ScenarioRunner(PisaSystem& system, watch::PlainWatch& oracle)
    : system_(system), oracle_(oracle) {
  if (system.config().watch.channels != oracle.config().channels ||
      system.sites().size() != oracle.sites().size())
    throw std::invalid_argument("ScenarioRunner: system/oracle mismatch");
}

ScenarioStats ScenarioRunner::run(std::vector<ScenarioEvent> events) {
  // Sort by index rather than moving the variant-holding events around
  // (also sidesteps a GCC 12 -Wmaybe-uninitialized false positive on
  // std::variant moves inside sort).
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return events[a].at_seconds < events[b].at_seconds;
  });
  decisions_.clear();
  ScenarioStats stats;
  auto bytes_before = system_.network().total_stats().bytes;

  for (std::size_t idx : order) {
    const auto& event = events[idx];
    stats.horizon_seconds = std::max(stats.horizon_seconds, event.at_seconds);
    if (const auto* tune = std::get_if<PuTuneEvent>(&event.action)) {
      system_.pu_update(tune->pu_id, tune->tuning);
      oracle_.pu_update(tune->pu_id, tune->tuning);
      ++stats.pu_updates;
    } else {
      const auto& req = std::get<SuRequestEvent>(event.action);
      auto outcome = system_.su_request(req.request, std::nullopt, req.mode);
      bool granted = outcome.granted;
      bool expected = oracle_.process_request(req.request).granted;
      decisions_.push_back(granted);
      ++stats.requests;
      if (granted) {
        ++stats.grants;
      } else {
        ++stats.denials;
        (outcome.fast_denied ? stats.fast_denials : stats.full_denials)++;
      }
      if (granted != expected) ++stats.oracle_mismatches;
    }
  }
  stats.bytes_on_wire = system_.network().total_stats().bytes - bytes_before;
  return stats;
}

std::vector<ScenarioEvent> make_viewing_workload(
    const PisaConfig& cfg, std::size_t viewers, std::size_t requesters,
    double hours, double switches_per_hour, double request_period_s,
    std::uint64_t seed) {
  if (hours <= 0 || switches_per_hour <= 0 || request_period_s <= 0)
    throw std::invalid_argument("make_viewing_workload: bad rates");
  bn::SplitMix64Random rng{seed};
  const double horizon_s = hours * 3600.0;
  const std::size_t blocks = cfg.watch.grid_rows * cfg.watch.grid_cols;

  auto uniform = [&] {
    return static_cast<double>(rng.next_u64() >> 11) / 9007199254740992.0;
  };
  auto exp_gap = [&](double rate_per_s) {
    return -std::log(1.0 - uniform() + 1e-18) / rate_per_s;
  };

  std::vector<ScenarioEvent> events;
  // Viewers: exponential inter-switch gaps at the paper's §VI-A rate.
  for (std::uint32_t pu = 0; pu < viewers; ++pu) {
    double t = exp_gap(switches_per_hour / 3600.0);
    while (t < horizon_s) {
      watch::PuTuning tuning;
      if (rng.next_u64() % 5 != 0) {  // 20% of switches are power-off
        tuning.channel = radio::ChannelId{static_cast<std::uint32_t>(
            rng.next_u64() % cfg.watch.channels)};
        tuning.signal_mw = 1e-7 * static_cast<double>(rng.next_u64() % 50 + 1);
      }
      events.emplace_back(t, PuTuneEvent{pu, tuning});
      t += exp_gap(switches_per_hour / 3600.0);
    }
  }
  // Requesters: fixed re-request period with a random phase, random
  // location and power each time.
  for (std::uint32_t su = 0; su < requesters; ++su) {
    double t = uniform() * request_period_s;
    while (t < horizon_s) {
      std::vector<double> eirp(cfg.watch.channels, 0.0);
      eirp[rng.next_u64() % cfg.watch.channels] =
          1e-3 * std::pow(10.0, static_cast<double>(rng.next_u64() % 6) / 1.2);
      events.push_back(
          {t, SuRequestEvent{
                  watch::SuRequest{
                      1000 + su,
                      radio::BlockId{static_cast<std::uint32_t>(rng.next_u64() % blocks)},
                      std::move(eirp)},
                  PrepMode::kFresh}});
      t += request_period_s;
    }
  }
  return events;
}

}  // namespace pisa::core
