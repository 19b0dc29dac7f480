// lg::fleet — the fleet: monitored targets spread over deterministic shards.
//
// Each shard (fleet/shard.h) runs its own EpisodeManager over its slice of
// the monitored-target table, with a Poisson outage script drawn up front.
// run_fleet fans the shards out through run_shards, so results, merged
// metrics and reports are byte-identical for any LG_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/episode_manager.h"
#include "fleet/shard.h"

namespace lg::fleet {

struct FleetConfig : ShardPlan {
  FleetConfig() {
    base_seed = 0x666c6565ULL;  // "flee"
    // Injection starts once baseline convergence and the atlas warm-up are
    // done (must be >= episode.start_delay_seconds).
    warmup_seconds = 900.0;
    outage_duration_cap_seconds = 3600.0;
  }

  // Monitored destinations across the whole fleet. Each shard's world must
  // hold enough responding routers for targets/shards destinations.
  std::size_t targets = 1000;
  std::size_t helpers = 5;

  // Apply LG_FLEET_TARGETS / LG_FLEET_ANNOUNCE_BUDGET (announcements per
  // hour) / LG_FLEET_PROBE_BUDGET (probes per second per shard) /
  // LG_FLEET_STALL_SECONDS (stall watchdog threshold, 0 disables) on top of
  // `base`. Malformed or out-of-range values throw std::invalid_argument
  // with a diagnostic naming the knob (see util/env_knobs.h) — a capacity
  // run must not silently proceed with a config the operator did not set.
  static FleetConfig from_env(FleetConfig base);
  static FleetConfig from_env() { return from_env(FleetConfig{}); }
};

struct ShardReport : ShardTotals {
  std::size_t targets = 0;
  std::vector<EpisodeRecord> episodes;
  std::uint64_t flap_reentries = 0;
  std::size_t poisons_at_end = 0;
};

struct FleetResult : ShardResults<FleetConfig, ShardReport> {
  // detected_at -> remediated_at latencies of remediated episodes, sorted.
  std::vector<double> remediate_latencies() const;
  // Stable textual digest of every episode record — equal strings mean
  // byte-identical fleet behaviour (the determinism tests diff this).
  std::string fingerprint() const;
};

// Run every shard to quiescence and merge reports in shard order.
FleetResult run_fleet(const FleetConfig& cfg);

}  // namespace lg::fleet
