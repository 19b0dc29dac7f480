#include "workload/sim_world.h"

#include <algorithm>

#include "topology/addressing.h"

namespace lg::workload {

SimWorld::SimWorld(SimWorldConfig cfg)
    : topo_(topo::topology_from_env(cfg.topology)),
      resp_(cfg.responsiveness) {
  auto& reg = obs::MetricsRegistry::current();
  c_sched_executed_ = &reg.counter("lg.scheduler.events_executed");
  g_sched_queue_hwm_ = &reg.gauge("lg.scheduler.queue_depth_hwm");
  engine_ = std::make_unique<bgp::BgpEngine>(topo_.graph, sched_, cfg.engine);
  net_ = std::make_unique<dp::RouterNet>(topo_.graph);
  dataplane_ = std::make_unique<dp::DataPlane>(*engine_, *net_, failures_);
  prober_ = std::make_unique<measure::Prober>(*dataplane_, resp_);
  prober_->attach_clock(sched_);

  if (cfg.announce_infrastructure) {
    for (const AsId as : topo_.graph.as_ids()) {
      bgp::OriginPolicy policy;
      policy.default_path = bgp::AsPath{as};
      engine_->originate(as, topo::AddressPlan::infrastructure_prefix(as),
                         policy);
    }
    converge();
    engine_->reset_counters();
  }
}

SimWorldConfig SimWorld::small_config(std::uint64_t seed) {
  SimWorldConfig cfg;
  cfg.topology.num_tier1 = 4;
  cfg.topology.num_large_transit = 10;
  cfg.topology.num_small_transit = 30;
  cfg.topology.num_stubs = 80;
  cfg.topology.seed = seed;
  cfg.engine.seed = seed + 1;
  cfg.responsiveness.seed = seed + 2;
  return cfg;
}

void SimWorld::publish_scheduler_metrics() {
  c_sched_executed_->inc(sched_.executed() - published_executed_);
  published_executed_ = sched_.executed();
  g_sched_queue_hwm_->maximize(static_cast<double>(sched_.max_pending()));
}

void SimWorld::announce_production(AsId as) {
  bgp::OriginPolicy policy;
  policy.default_path = bgp::AsPath{as};
  engine_->originate(as, topo::AddressPlan::production_prefix(as), policy);
}

std::vector<AsId> SimWorld::feed_ases(std::size_t n) const {
  std::vector<AsId> transit = topo_.transit();
  std::sort(transit.begin(), transit.end(), [this](AsId a, AsId b) {
    const auto da = topo_.graph.degree(a);
    const auto db = topo_.graph.degree(b);
    return da != db ? da > db : a < b;
  });
  if (transit.size() > n) transit.resize(n);
  return transit;
}

std::vector<AsId> SimWorld::stub_vantage_ases(std::size_t n) const {
  std::vector<AsId> out = topo_.stubs;
  // Spread deterministically across the stub id space.
  if (out.size() > n && n > 0) {
    std::vector<AsId> picked;
    const double stride =
        static_cast<double>(out.size()) / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      picked.push_back(out[static_cast<std::size_t>(i * stride)]);
    }
    return picked;
  }
  return out;
}

AsId SimWorld::first_multihomed_stub() const {
  for (const AsId as : topo_.stubs) {
    if (topo_.graph.providers(as).size() >= 2) return as;
  }
  return topo::kInvalidAs;
}

}  // namespace lg::workload
