// outage_repair: detect -> isolate -> poison -> verify -> restore episodes
// on the default 758-AS SimWorld, which announces every AS's
// infrastructure /24 at startup. The world is the same for every seed; the
// seed picks the episodes.
//
// Set-up (timed, repeated): build the world, announce the origin's
// prepended baseline and sentinel through core::Remediator, announce the
// helper vantage points' production prefixes and converge — the world
// fig6, sec5_1, sec5_3 and sec7 all pay for.
//
// Episode inputs (untimed): a target AS and a culprit on the target's
// reverse path toward the origin, found with workload::ScenarioGenerator
// and kept only if core::PoisonDecider would poison the true culprit.
//
// Episode (timed): atlas refresh of the healthy path, inject the failure,
// isolate, decide, poison + converge, verifying ping, repair the failure,
// unpoison + converge.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/atlas.h"
#include "core/decision.h"
#include "core/isolation.h"
#include "core/remediation.h"
#include "obs/metrics.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lgb {
namespace {

using lg::core::FailureDirection;
using lg::measure::VantagePoint;
using lg::topo::AsId;

constexpr std::size_t kHelpers = 6;
constexpr std::size_t kEpisodesPerPass = 200;
// Outage age handed to the decision gate: well past its 300 s minimum, as
// for an outage that persisted through detection and isolation.
constexpr double kOutageAge = 1000.0;

struct World {
  std::unique_ptr<lg::workload::SimWorld> sim;
  AsId origin = lg::topo::kInvalidAs;
  std::unique_ptr<lg::core::Remediator> rem;
  std::vector<VantagePoint> helpers;
  std::vector<AsId> helper_ases;
};

std::unique_ptr<World> build(double& sim_world_s) {
  auto w = std::make_unique<World>();
  const double t0 = now_s();
  w->sim = std::make_unique<lg::workload::SimWorld>();
  sim_world_s = now_s() - t0;
  for (const AsId as : w->sim->topology().stubs) {
    if (w->sim->graph().providers(as).size() >= 2) {
      w->origin = as;
      break;
    }
  }
  if (w->origin == lg::topo::kInvalidAs) {
    throw std::runtime_error("no multihomed stub origin");
  }
  w->rem = std::make_unique<lg::core::Remediator>(w->sim->engine(), w->origin);
  w->rem->announce_baseline();
  for (const AsId as : w->sim->stub_vantage_ases(kHelpers + 1)) {
    if (as == w->origin || w->helpers.size() >= kHelpers) continue;
    w->sim->announce_production(as);
    w->helpers.push_back(VantagePoint::in_as(as));
    w->helper_ases.push_back(as);
  }
  w->sim->converge();
  return w;
}

// Best route of every AS toward the origin's production prefix and every
// helper's, plus the RIB totals.
std::string world_digest(World& w) {
  Fnv h;
  std::vector<lg::topo::Prefix> prefixes = {w.rem->production_prefix(),
                                            w.rem->sentinel_prefix()};
  for (const AsId as : w.helper_ases) {
    prefixes.push_back(lg::topo::AddressPlan::production_prefix(as));
  }
  for (const AsId as : w.sim->graph().as_ids()) {
    for (const auto& p : prefixes) {
      const lg::bgp::Route* best = w.sim->engine().best_route(as, p);
      h.mix(best == nullptr ? 0xdeadULL : best->neighbor);
      if (best != nullptr) {
        for (const AsId hop : best->path.get()) h.mix(hop);
      }
    }
  }
  const auto mem = w.sim->engine().rib_memory();
  h.mix(mem.routes);
  h.mix(mem.prefix_states);
  return h.hex();
}

struct Input {
  AsId target_as = lg::topo::kInvalidAs;
  lg::topo::Ipv4 target = 0;
  AsId culprit = lg::topo::kInvalidAs;
};

}  // namespace

void run_outage_repair(const Options& opt, SpanLog& spans, Result& out) {
  std::unique_ptr<World> w;
  double sim_world_s = 0.0;
  for (std::size_t i = 0; i < opt.setups; ++i) {
    w.reset();
    const double t0 = now_s();
    w = build(sim_world_s);
    out.setup_s.push_back(now_s() - t0);
    out.setup_digest.push_back(world_digest(*w));
  }
  out.fig("workload.sim_world_s", sim_world_s);
  {
    // The topology layer's share of set-up, timed on its own for the same
    // parameters the world was built from.
    const double t0 = now_s();
    lg::topo::generate_topology(lg::workload::SimWorldConfig{}.topology);
    out.fig("topology.generate_s", now_s() - t0);
  }
  lg::workload::SimWorld& sim = *w->sim;
  lg::measure::Prober& prober = sim.prober();
  const auto mem = sim.engine().rib_memory();
  out.fig("bgp.rib_bytes", static_cast<double>(mem.bytes));
  out.fig("bgp.rib_routes", static_cast<double>(mem.routes));
  out.info.emplace_back("ases", std::to_string(sim.graph().num_ases()));
  out.info.emplace_back("origin", std::to_string(w->origin));
  out.info.emplace_back("units_per_step", std::to_string(kEpisodesPerPass));

  const VantagePoint vp = VantagePoint::in_as(w->origin);
  lg::core::PathAtlas atlas;
  lg::core::IsolationEngine iso(prober, atlas);
  lg::core::PoisonDecider decider(sim.graph());
  lg::workload::ScenarioGenerator gen(sim, opt.seed ^ 0x73636eULL);

  std::vector<AsId> targets;
  for (const AsId as : sim.topology().stubs) {
    const auto& h = w->helper_ases;
    if (as != w->origin && std::find(h.begin(), h.end(), as) == h.end()) {
      targets.push_back(as);
    }
  }
  lg::util::Rng rng(opt.seed, 0x6f757467ULL);  // "outg"
  rng.shuffle(targets);

  // A fixed list of episode inputs; every step of drive() is one pass over
  // it, so each pass (and the traced replay) runs the same episodes and
  // the failure fraction does not depend on how many passes fit the budget.
  std::vector<Input> inputs;
  for (std::size_t tries = 0; inputs.size() < kEpisodesPerPass; ++tries) {
    if (tries > 4 * targets.size()) {
      throw std::runtime_error("too few poisonable reverse-path scenarios");
    }
    const AsId target_as = targets[tries % targets.size()];
    auto s = gen.make(w->origin, target_as, FailureDirection::kReverse, false,
                      w->helper_ases);
    if (!s) continue;
    const AsId sources[] = {target_as};
    const bool poison =
        decider.decide(w->origin, s->culprit_as, kOutageAge, sources).poison;
    gen.repair(*s);
    if (poison) inputs.push_back({target_as, s->target, s->culprit_as});
  }

  std::uint64_t op = 0;
  const auto episode = [&](const Input& in, bool traced) {
    spans.set_op(op++);
    Unit u;
    u.kind = "episode";
    u.traced = traced;
    const lg::measure::ProbeBudget probes0 = prober.budget();
    auto& reg = lg::obs::MetricsRegistry::global();
    const lg::obs::Counter& updates_delivered =
        reg.counter("lg.bgp.updates_delivered");
    const std::uint64_t upd0 = updates_delivered.value();
    std::uint64_t upd_poison = upd0;
    const std::uint64_t best0 =
        reg.counter("lg.bgp.best_path_changes").value();
    const std::uint64_t ev0 = sim.scheduler().executed();

    lg::core::IsolationResult iso_res;
    bool poisoned = false;
    lg::measure::PingResult verify;
    const double t0 = now_s();
    {
      SpanLog::Scope root(spans, "bench.episode");
      {
        SpanLog::Scope s(spans, "core.atlas_refresh");
        atlas.refresh(prober, vp, in.target, sim.scheduler().now());
      }
      lg::dp::FailureId failure;
      {
        SpanLog::Scope s(spans, "dataplane.inject");
        failure = sim.failures().inject(
            lg::dp::Failure{.at_as = in.culprit, .toward_as = w->origin});
      }
      {
        SpanLog::Scope s(spans, "core.isolate");
        iso_res = iso.isolate(vp, in.target, w->helpers);
      }
      std::optional<AsId> blamed = iso_res.blamed_as;
      bool poison = false;
      if (blamed) {
        SpanLog::Scope s(spans, "core.decide");
        const AsId sources[] = {in.target_as};
        poison = decider.decide(w->origin, *blamed, kOutageAge, sources).poison;
      }
      if (poison) {
        {
          SpanLog::Scope s(spans, "core.poison");
          w->rem->poison(*blamed);
        }
        SpanLog::Scope s(spans, "bgp.converge.poison");
        sim.converge();
        poisoned = true;
      }
      upd_poison = updates_delivered.value();
      {
        SpanLog::Scope s(spans, "measure.verify_ping");
        verify = prober.ping(w->origin, in.target, vp.addr);
      }
      {
        SpanLog::Scope s(spans, "dataplane.repair");
        sim.failures().clear(failure);
      }
      if (poisoned) {
        {
          SpanLog::Scope s(spans, "core.unpoison");
          w->rem->unpoison();
        }
        SpanLog::Scope s(spans, "bgp.converge.unpoison");
        sim.converge();
      }
    }
    u.wall_s = now_s() - t0;

    const lg::measure::ProbeBudget& probes1 = prober.budget();
    u.fig("pings", static_cast<double>(probes1.pings - probes0.pings));
    u.fig("traceroute_probes",
          static_cast<double>(probes1.traceroute_probes -
                              probes0.traceroute_probes));
    u.fig("spoofed_pings",
          static_cast<double>(probes1.spoofed_pings - probes0.spoofed_pings));
    u.fig("option_probes",
          static_cast<double>(probes1.option_probes - probes0.option_probes));
    u.fig("isolation_probes", static_cast<double>(iso_res.probes_used));
    u.fig("poisoned", poisoned ? 1.0 : 0.0);
    const std::uint64_t upd1 = updates_delivered.value();
    u.fig("updates", static_cast<double>(upd1 - upd0));
    u.fig("updates_poison", static_cast<double>(upd_poison - upd0));
    u.fig("updates_unpoison", static_cast<double>(upd1 - upd_poison));
    u.fig("best_changes",
          static_cast<double>(reg.counter("lg.bgp.best_path_changes").value() -
                              best0));
    u.fig("scheduler_events",
          static_cast<double>(sim.scheduler().executed() - ev0));

    u.fig("verified", verify.replied ? 1.0 : 0.0);
    // An episode whose isolation blamed an AS the decider would not poison
    // is declined, not failed: no repair was attempted.
    if (poisoned && !verify.replied) {
      u.ok = false;
      u.why = "verify ping got no reply after the poison converged "
              "(blamed " + std::to_string(*iso_res.blamed_as) + ", culprit " +
              std::to_string(in.culprit) + ")";
    } else if (!prober.ping(w->origin, in.target, vp.addr).replied) {
      u.ok = false;
      u.why = "target unreachable after the baseline was restored";
    }
    Fnv h;
    h.mix(in.target_as);
    h.mix(in.culprit);
    h.mix(iso_res.blamed_as.value_or(lg::topo::kInvalidAs));
    h.mix(static_cast<std::uint64_t>(iso_res.direction));
    h.mix(poisoned ? 1u : 0u);
    h.mix(verify.replied ? 1u : 0u);
    u.digest = h.hex();
    out.units.push_back(std::move(u));
  };
  drive(opt, spans, [&](std::size_t, bool traced) {
    for (const Input& in : inputs) episode(in, traced);
  });
  out.fig("util.queue_hwm", static_cast<double>(sim.scheduler().max_pending()));
}

}  // namespace lgb
