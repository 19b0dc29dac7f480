// lg::fleet — the shard substrate under both episode hosts.
//
// The fleet (EpisodeManager, run_fleet) and the service plane (ServicePlane,
// ServiceScheduler) partition their work over a FIXED number of shards, each
// an independent simulated universe derived from run::trial_seed(base_seed,
// shard). Both build their shards here (the fleet fuzzer builds its one-shard
// scenario here too) and fan them out through run_shards onto
// lg::run::TrialRunner, so results and reports are byte-identical for any
// LG_THREADS: the shard count, never the thread count, is the partition.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "fleet/budget.h"
#include "fleet/episode_manager.h"
#include "measure/vantage.h"
#include "run/trial_runner.h"
#include "topology/generator.h"
#include "workload/sim_world.h"

namespace lg::fleet {

struct ShardPlan {
  // Fixed shard count — the unit of determinism and parallelism.
  std::size_t shards = 16;
  // 0 = LG_THREADS / hardware (never affects output, only wall-clock).
  std::size_t threads = 0;
  std::uint64_t base_seed = 0;
  // Simulated seconds of monitoring; in-flight episodes settle past it.
  double horizon_seconds = 2.0 * 3600.0;
  // Outage injection starts here (baseline convergence must be done).
  double warmup_seconds = 0.0;
  // Global announcement budget: poison/prepend announcements per hour
  // across the fleet, split evenly over the shards (each shard's bucket
  // keeps a floor of one burst token so it can make progress).
  double announce_per_hour = 60.0;
  double announce_burst = 16.0;
  // Probe budget per shard: sustained probes/second the admission
  // controller may spend on isolations, and the bucket depth.
  double probe_rate_per_second = 10.0;
  double probe_burst = 600.0;
  // Fleet-wide outage arrival rate (split over shards); durations follow
  // the EC2-calibrated mixture, truncated so a bounded run can settle.
  double outages_per_hour = 24.0;
  double outage_duration_cap_seconds = 0.0;
  // Fraction of injected outages that are reverse-path failures toward the
  // origin (the paper's headline case); the rest fail the forward path
  // toward one monitored destination's AS.
  double reverse_fraction = 0.8;
  // Per-shard world size.
  topo::TopologyParams shard_topology;
  EpisodeConfig episode;
};

// One shard's simulated universe. `seed` plays the role of
// run::trial_seed(base_seed, index); the topology, engine and
// responsiveness draw seed, seed + 1 and seed + 2. `default_mrai` overrides
// the engine's MRAI when set.
class Shard {
 public:
  Shard(const ShardPlan& plan, std::size_t index, std::uint64_t seed,
        std::optional<double> default_mrai = std::nullopt);

  // Helper vantage points: up to `n` stub ASes other than the origin, each
  // with its production prefix announced so spoofed-probe replies reach it.
  std::vector<measure::VantagePoint> announce_helpers(std::size_t n);

  const std::size_t index;
  const std::uint64_t seed;
  workload::SimWorld world;
  // First multihomed stub; kInvalidAs on a degenerate topology, where the
  // hosts report an empty shard.
  const AsId origin;
  AnnouncementBudget announce;
  ProbeAdmission admission;
};

// Report fields every host fills per shard.
struct ShardTotals {
  std::size_t shard = 0;
  std::uint64_t seed = 0;
  AsId origin = topo::kInvalidAs;
  std::uint64_t outages_injected = 0;
  std::uint64_t episodes_opened = 0;
  std::uint64_t episodes_closed = 0;
  // Indexed by EpisodeOutcome (slot 6 = kCaptive, adversarial runs only).
  std::array<std::uint64_t, 7> outcomes{};
  // Budget accounting at end of run.
  double announce_spent = 0.0;
  double announce_capacity = 0.0;     // burst + rate * now: the hard cap
  double announce_utilization = 0.0;  // must be in [0, 1]
  std::uint64_t announce_granted = 0;
  std::uint64_t announce_denied = 0;
  std::uint64_t probe_admitted = 0;
  std::uint64_t probe_deferred = 0;
  // Anything that failed to settle during the drain (should be zero).
  std::size_t open_at_end = 0;

  // Index, seed and origin of `s`.
  void take_identity(const Shard& s) {
    shard = s.index;
    seed = s.seed;
    origin = s.origin;
  }
  // Budget accounting of `shard` as of simulated time `now`.
  void take_budgets(const Shard& shard, double now);
};

// Per-shard reports in shard order plus the fleet-wide totals over them.
template <typename Config, typename Report>
struct ShardResults {
  Config config;
  std::vector<Report> shards;

  // Sum of one per-shard field over every shard.
  template <typename T, typename Owner>
  T total(T Owner::*field) const {
    T n{};
    for (const Report& s : shards) n += s.*field;
    return n;
  }

  std::uint64_t episodes_opened() const {
    return total(&Report::episodes_opened);
  }
  std::uint64_t episodes_closed() const {
    return total(&Report::episodes_closed);
  }
  std::uint64_t outages_injected() const {
    return total(&Report::outages_injected);
  }
  std::uint64_t outcome_count(EpisodeOutcome o) const {
    std::uint64_t n = 0;
    for (const Report& s : shards) n += s.outcomes[static_cast<std::size_t>(o)];
    return n;
  }
  // Closed episodes per simulated hour of the horizon.
  double episodes_per_sim_hour() const {
    const double hours = config.horizon_seconds / 3600.0;
    return hours > 0.0 ? static_cast<double>(episodes_closed()) / hours : 0.0;
  }
  // Every shard inside its announcement cap with utilization in [0, 1]
  // (the benches' acceptance criterion).
  bool budget_respected() const {
    for (const Report& s : shards) {
      if (s.announce_spent > s.announce_capacity + 1e-6) return false;
      if (s.announce_utilization < 0.0 || s.announce_utilization > 1.0) {
        return false;
      }
    }
    return true;
  }
};

// One number of a result fingerprint: fixed precision, no locale.
void append_num(std::ostream& os, double v);

// Run `body(shard, seed)` for every shard of `cfg` on lg::run::TrialRunner
// and collect the reports, in shard order, into a Result (a ShardResults).
template <typename Result, typename Config, typename Body>
Result run_shards(const Config& cfg, Body&& body) {
  run::TrialRunnerConfig rc;
  rc.threads = cfg.threads;
  rc.base_seed = cfg.base_seed;
  run::TrialRunner runner(rc);
  Result result;
  result.config = cfg;
  result.shards = runner.run(cfg.shards, [&](run::TrialContext& ctx) {
    return body(ctx.index, ctx.seed);
  });
  return result;
}

}  // namespace lg::fleet
