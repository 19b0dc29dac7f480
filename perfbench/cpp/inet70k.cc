// inet70k: one prefix across the 70k-AS degree-matched synthetic Internet.
//
// Wired as bench/internet_scale wires it: topo::generate_internet_scale,
// then a bare util::Scheduler + bgp::BgpEngine (no SimWorld, no
// infrastructure prefixes). Each cycle takes the next multihomed stub
// origin of a fixed panel and runs three ops on one benchmark prefix, each
// to quiescence: originate; re-originate with the highest-degree provider
// poisoned (O-X-O); withdraw.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "bgp/engine.h"
#include "obs/metrics.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace lgb {
namespace {

using lg::topo::AsId;
using lg::topo::Prefix;

constexpr std::size_t kPanel = 8;
constexpr std::uint64_t kPanelSeed = 42;

// Simulated-time cap for one op: a world still busy after a simulated day
// has not quiesced.
constexpr double kQuiesceCap = 86400.0;

struct World {
  lg::topo::GeneratedTopology topo;
  lg::util::Scheduler sched;
  std::unique_ptr<lg::bgp::BgpEngine> engine;
};

// The default 70k graph, as bench/internet_scale builds it: the same graph
// for every seed.
std::unique_ptr<World> build(std::uint64_t seed, double& generate_s) {
  auto w = std::make_unique<World>();
  const double t0 = now_s();
  w->topo = lg::topo::generate_internet_scale({});
  generate_s = now_s() - t0;
  lg::bgp::EngineConfig cfg;
  cfg.seed = seed;
  w->engine =
      std::make_unique<lg::bgp::BgpEngine>(w->topo.graph, w->sched, cfg);
  return w;
}

std::string topology_digest(const lg::topo::AsGraph& g) {
  Fnv h;
  for (const AsId as : g.as_ids()) {
    h.mix(as);
    for (const AsId p : g.providers(as)) h.mix(p);
  }
  h.mix(g.num_links());
  return h.hex();
}

// FNV over every AS's best route (neighbor + path), in AS order.
std::string rib_digest(const World& w, const Prefix& p) {
  Fnv h;
  for (const AsId as : w.topo.graph.as_ids()) {
    const lg::bgp::Route* best = w.engine->best_route(as, p);
    h.mix(as);
    if (best == nullptr) {
      h.mix(0xdeadULL);
      continue;
    }
    h.mix(best->neighbor);
    for (const AsId hop : best->path.get()) h.mix(hop);
  }
  return h.hex();
}

struct Counters {
  std::uint64_t delivered, best_changes, mrai_deferrals, events;
};

Counters read(const World& w) {
  auto& reg = lg::obs::MetricsRegistry::global();
  return {reg.counter("lg.bgp.updates_delivered").value(),
          reg.counter("lg.bgp.best_path_changes").value(),
          reg.counter("lg.bgp.mrai_deferrals").value(), w.sched.executed()};
}

}  // namespace

void run_inet70k(const Options& opt, SpanLog& spans, Result& out) {
  std::unique_ptr<World> w;
  double generate_s = 0.0;
  for (std::size_t i = 0; i < opt.setups; ++i) {
    w.reset();
    const double t0 = now_s();
    w = build(opt.seed, generate_s);
    out.setup_s.push_back(now_s() - t0);
    out.setup_digest.push_back(topology_digest(w->topo.graph));
  }
  out.fig("topology.generate_s", generate_s);
  const lg::topo::AsGraph& g = w->topo.graph;

  // The origin panel: kPanel distinct multihomed stubs, the same for every
  // seed. Per-origin cost differs by up to 2x, and a run has time for only
  // about one cycle per panel member, so a panel drawn per seed would make
  // the cross-seed spread measure the draw. The seed sets the visiting
  // order and the engine's link-delay and MRAI-jitter randomness.
  std::vector<AsId> panel;
  for (const AsId s : w->topo.stubs) {
    if (g.providers(s).size() >= 2) panel.push_back(s);
  }
  lg::util::Rng(kPanelSeed, 0x696e6574ULL).shuffle(panel);  // "inet"
  panel.resize(kPanel);
  lg::util::Rng(opt.seed, 0x696e6574ULL).shuffle(panel);
  // One benchmark prefix (TEST-NET-2, outside the address plan, which
  // covers only low AS ids), announced by a different origin each cycle.
  const Prefix prefix = *Prefix::parse("198.51.100.0/24");
  out.info.emplace_back("ases", std::to_string(g.num_ases()));
  out.info.emplace_back("links", std::to_string(g.num_links()));

  std::uint64_t next_op = 0;
  const auto run_cycle = [&](AsId origin, bool traced) {
    const auto providers = g.providers(origin);
    const AsId poisoned = *std::max_element(
        providers.begin(), providers.end(), [&](AsId a, AsId b) {
          const auto da = g.degree(a), db = g.degree(b);
          return da != db ? da < db : a > b;
        });

    // One op: `apply` then run to quiescence, timed; `check` after.
    const auto op = [&](const char* kind, const char* call_span,
                        const char* converge_span, auto&& apply,
                        auto&& check) {
      spans.set_op(next_op++);
      Unit u;
      u.kind = kind;
      u.traced = traced;
      const Counters c0 = read(*w);
      const double t0 = now_s();
      {
        SpanLog::Scope root(spans, "bench.op");
        {
          SpanLog::Scope s(spans, call_span);
          apply();
        }
        SpanLog::Scope s(spans, converge_span);
        w->sched.run(w->sched.now() + kQuiesceCap);
      }
      u.wall_s = now_s() - t0;
      const Counters c1 = read(*w);
      u.fig("updates", static_cast<double>(c1.delivered - c0.delivered));
      u.fig("best_changes",
            static_cast<double>(c1.best_changes - c0.best_changes));
      u.fig("mrai_deferrals",
            static_cast<double>(c1.mrai_deferrals - c0.mrai_deferrals));
      u.fig("scheduler_events", static_cast<double>(c1.events - c0.events));
      if (!w->sched.empty()) {
        u.ok = false;
        u.why = "did not quiesce";
      } else {
        check(u);
      }
      const auto mem = w->engine->rib_memory();
      u.fig("rib_bytes", static_cast<double>(mem.bytes));
      u.fig("rib_routes", static_cast<double>(mem.routes));
      u.digest = rib_digest(*w, prefix);
      out.units.push_back(std::move(u));
    };

    op(
        "announce", "bgp.originate", "bgp.converge.announce",
        [&] {
          lg::bgp::OriginPolicy policy;
          policy.default_path = lg::bgp::AsPath{origin};
          w->engine->originate(origin, prefix, policy);
        },
        [&](Unit&) {});
    op(
        "poison", "bgp.originate", "bgp.converge.poison",
        [&] {
          lg::bgp::OriginPolicy policy;
          policy.default_path = lg::bgp::poisoned_path(origin, {poisoned}, 3);
          w->engine->originate(origin, prefix, policy);
        },
        [&](Unit& u) {
          for (const AsId as : g.as_ids()) {
            const lg::bgp::Route* best = w->engine->best_route(as, prefix);
            if (best != nullptr &&
                lg::bgp::path_traverses(best->path, poisoned, origin)) {
              u.ok = false;
              u.why = "best path of AS " + std::to_string(as) +
                      " crosses the poisoned AS";
              return;
            }
          }
        });
    op(
        "withdraw", "bgp.withdraw", "bgp.converge.withdraw",
        [&] { w->engine->withdraw(origin, prefix); },
        [&](Unit& u) {
          for (const AsId as : g.as_ids()) {
            if (w->engine->best_route(as, prefix) != nullptr) {
              u.ok = false;
              u.why = "AS " + std::to_string(as) + " kept a route";
              return;
            }
          }
        });
  };
  // One step is one pass over the panel, so every origin weighs the same.
  drive(opt, spans, [&](std::size_t, bool traced) {
    for (const AsId origin : panel) run_cycle(origin, traced);
  });
  out.fig("util.queue_hwm", static_cast<double>(w->sched.max_pending()));
}

}  // namespace lgb
