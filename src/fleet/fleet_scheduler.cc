#include "fleet/fleet_scheduler.h"

#include <algorithm>
#include <sstream>

#include "util/env_knobs.h"
#include "util/rng.h"
#include "workload/outages.h"

namespace lg::fleet {

FleetConfig FleetConfig::from_env(FleetConfig base) {
  base.targets = util::env_size_knob("LG_FLEET_TARGETS", base.targets);
  base.announce_per_hour = util::env_double_knob(
      "LG_FLEET_ANNOUNCE_BUDGET", base.announce_per_hour, 0.0);
  base.probe_rate_per_second = util::env_double_knob(
      "LG_FLEET_PROBE_BUDGET", base.probe_rate_per_second, 0.0);
  base.episode.stall_threshold_seconds = util::env_double_knob(
      "LG_FLEET_STALL_SECONDS", base.episode.stall_threshold_seconds, 0.0);
  return base;
}

namespace {

// One shard: its EpisodeManager over its slice of the target table, run to
// quiescence under an outage script drawn up front.
ShardReport run_fleet_shard(const FleetConfig& cfg, std::size_t index,
                            std::uint64_t seed) {
  Shard shard(cfg, index, seed);
  workload::SimWorld& world = shard.world;
  const AsId origin = shard.origin;
  ShardReport report;
  report.take_identity(shard);
  if (origin == topo::kInvalidAs) return report;  // degenerate; empty shard

  auto helpers = shard.announce_helpers(cfg.helpers);
  TargetTable table(cfg.targets, cfg.shards);
  auto targets =
      TargetTable::enumerate(world, origin, table.shard_quota(index));
  report.targets = targets.size();

  EpisodeManager manager(world, origin, std::move(targets), shard.announce,
                         shard.admission, cfg.episode);
  manager.set_helpers(std::move(helpers));
  manager.start(cfg.horizon_seconds);

  // Outage workload: all randomness drawn up front so the event script is
  // fixed before the simulation runs.
  struct PlannedOutage {
    double at = 0.0;
    double duration = 0.0;
    dp::Failure failure;
  };
  std::vector<PlannedOutage> planned;
  const double inject_span = cfg.horizon_seconds - cfg.warmup_seconds;
  if (inject_span > 0.0 && cfg.outages_per_hour > 0.0) {
    util::Rng rng(seed ^ 0x6f757467ULL, 0x666c7464ULL);
    const auto events = workload::sample_outage_process(
        rng, cfg.outages_per_hour / static_cast<double>(cfg.shards),
        inject_span, {}, cfg.outage_duration_cap_seconds);
    const auto culprits = world.feed_ases(20);
    for (const auto& ev : events) {
      if (culprits.empty()) break;
      PlannedOutage p;
      p.at = cfg.warmup_seconds + ev.start_seconds;
      p.duration = ev.duration_seconds;
      const AsId culprit =
          culprits[rng.uniform_u32(static_cast<std::uint32_t>(culprits.size()))];
      p.failure.at_as = culprit;
      if (rng.bernoulli(cfg.reverse_fraction)) {
        // Reverse-path failure toward the origin: the paper's headline
        // case, and naturally correlated — every monitored target whose
        // reply path crosses the culprit goes dark at once.
        p.failure.toward_as = origin;
      } else {
        // Forward failure toward one monitored destination's AS.
        const auto& pick = world.topology().stubs;
        p.failure.toward_as =
            pick[rng.uniform_u32(static_cast<std::uint32_t>(pick.size()))];
      }
      planned.push_back(p);
    }
  }
  report.outages_injected = planned.size();
  for (const auto& p : planned) {
    world.scheduler().at(p.at, [&world, p] {
      const auto id = world.failures().inject(p.failure);
      world.scheduler().after(p.duration,
                              [&world, id] { world.failures().clear(id); });
    });
  }

  world.advance(cfg.horizon_seconds);
  // Drain: repairs land, verifications observe them, poisons revert,
  // episodes settle. Everything self-terminates, so a full drain ends.
  world.converge();

  report.episodes = manager.episodes();
  report.episodes_opened = report.episodes.size();
  for (const EpisodeRecord& e : report.episodes) {
    if (e.closed_at >= 0.0) ++report.episodes_closed;
    ++report.outcomes[static_cast<std::size_t>(e.outcome)];
  }
  report.take_budgets(shard, world.scheduler().now());
  report.flap_reentries = manager.flap_reentries();
  report.open_at_end = manager.open_episodes();
  report.poisons_at_end = manager.active_poisons();
  return report;
}

}  // namespace

FleetResult run_fleet(const FleetConfig& cfg) {
  return run_shards<FleetResult>(
      cfg, [&](std::size_t shard, std::uint64_t seed) {
        return run_fleet_shard(cfg, shard, seed);
      });
}

std::vector<double> FleetResult::remediate_latencies() const {
  std::vector<double> out;
  for (const auto& s : shards) {
    for (const auto& e : s.episodes) {
      if (e.remediated_at >= 0.0) out.push_back(e.remediated_at - e.detected_at);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string FleetResult::fingerprint() const {
  std::ostringstream os;
  for (const auto& s : shards) {
    os << "shard " << s.shard << " origin " << s.origin << " targets "
       << s.targets << " outages " << s.outages_injected << " spent ";
    append_num(os, s.announce_spent);
    os << "\n";
    for (const auto& e : s.episodes) {
      os << "  " << topo::format_ipv4(e.target) << " as" << e.target_as
         << " " << episode_outcome_name(e.outcome) << " blamed"
         << (e.blamed == topo::kInvalidAs ? 0 : e.blamed) << " flap"
         << e.flap_generation << " defers " << e.probe_deferrals << "/"
         << e.budget_deferrals << " reiso " << e.reisolations << " t=[";
      append_num(os, e.opened_at);
      os << ",";
      append_num(os, e.detected_at);
      os << ",";
      append_num(os, e.remediated_at);
      os << ",";
      append_num(os, e.repaired_at);
      os << ",";
      append_num(os, e.closed_at);
      os << "]\n";
    }
  }
  return os.str();
}

}  // namespace lg::fleet
