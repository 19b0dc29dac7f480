#include "fleet/shard.h"

#include <algorithm>
#include <cstdio>

namespace lg::fleet {

namespace {

workload::SimWorldConfig world_config(const ShardPlan& plan,
                                      std::uint64_t seed,
                                      std::optional<double> default_mrai) {
  workload::SimWorldConfig wc;
  wc.topology = plan.shard_topology;
  wc.topology.seed = seed;
  wc.engine.seed = seed + 1;
  if (default_mrai) wc.engine.default_mrai = *default_mrai;
  wc.responsiveness.seed = seed + 2;
  return wc;
}

}  // namespace

Shard::Shard(const ShardPlan& plan, std::size_t index, std::uint64_t seed,
             std::optional<double> default_mrai)
    : index(index),
      seed(seed),
      world(world_config(plan, seed, default_mrai)),
      origin(world.first_multihomed_stub()),
      announce(plan.announce_per_hour / 3600.0 /
                   static_cast<double>(plan.shards),
               std::max(1.0, plan.announce_burst /
                                 static_cast<double>(plan.shards))),
      admission(plan.probe_rate_per_second, plan.probe_burst) {}

std::vector<measure::VantagePoint> Shard::announce_helpers(std::size_t n) {
  std::vector<measure::VantagePoint> helpers;
  for (const AsId as : world.stub_vantage_ases(n + 2)) {
    if (as == origin) continue;
    helpers.push_back(measure::VantagePoint::in_as(as));
    world.announce_production(as);
    if (helpers.size() == n) break;
  }
  return helpers;
}

void ShardTotals::take_budgets(const Shard& s, double now) {
  const TokenBucket& bucket = s.announce.bucket();
  announce_spent = bucket.spent();
  announce_capacity = bucket.capacity(now);
  announce_utilization = s.announce.utilization(now);
  announce_granted = bucket.granted();
  announce_denied = bucket.denied();
  probe_admitted = s.admission.admitted();
  probe_deferred = s.admission.deferred();
}

void append_num(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  os << buf;
}

}  // namespace lg::fleet
