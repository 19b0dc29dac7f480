// service_stream: the always-on multi-prefix service plane.
//
// fleet::ServiceScheduler with 16 shards on `opt.threads` threads over a
// 100k-prefix universe at the "hot" arrival rates of EXPERIMENTS.md (96
// outages/h, 240 announcements/h) and a 24 h horizon. One step of the
// workload is one stream cycle: an uninterrupted run, then run_until a late
// tick, write_checkpoint, read_checkpoint and resume to the horizon. The
// resumed fingerprint must equal the uninterrupted one.
//
// Set-up (timed, repeated) is a warmup-only run: every shard builds its
// world and converges its baseline, and no outage is injected.
#include <algorithm>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "fleet/service_plane.h"
#include "obs/metrics.h"
#include "run/trial_runner.h"
#include "topology/generator.h"

namespace lgb {
namespace {

using lg::fleet::EpisodeOutcome;
using lg::fleet::ServiceResult;
using lg::fleet::ServiceScheduler;

lg::fleet::ServiceConfig stream_config(const Options& opt, std::uint64_t seed) {
  lg::fleet::ServiceConfig cfg;
  cfg.prefixes = 100000;
  cfg.shards = 16;
  cfg.threads = opt.threads;
  cfg.base_seed = seed;
  cfg.outages_per_hour = 96.0;
  cfg.announce_per_hour = 240.0;
  cfg.horizon_seconds = 24.0 * 3600.0;
  // Per-shard world sized as in bench/sec6_service_plane.
  cfg.shard_topology.num_tier1 = 4;
  cfg.shard_topology.num_large_transit = 10;
  cfg.shard_topology.num_small_transit = 30;
  cfg.shard_topology.num_stubs = 110;
  return cfg;
}

// Checkpoint taken at this share of the horizon, on a tick boundary.
constexpr double kCheckpointShare = 0.75;

std::uint64_t announce_denied(const ServiceResult& r) {
  std::uint64_t n = 0;
  for (const auto& s : r.shards) n += s.announce_denied;
  return n;
}

std::size_t open_at_end(const ServiceResult& r) {
  std::size_t n = 0;
  for (const auto& s : r.shards) n += s.open_at_end;
  return n;
}

std::string fingerprint_digest(const ServiceResult& r) {
  Fnv h;
  h.mix(r.fingerprint());
  return h.hex();
}

}  // namespace

void run_service_stream(const Options& opt, SpanLog& spans, Result& out) {
  for (std::size_t i = 0; i < opt.setups; ++i) {
    lg::fleet::ServiceConfig cfg = stream_config(opt, opt.seed);
    cfg.horizon_seconds = cfg.warmup_seconds;
    const double t0 = now_s();
    const ServiceResult warm = ServiceScheduler(cfg).run();
    out.setup_s.push_back(now_s() - t0);
    out.setup_digest.push_back(fingerprint_digest(warm));
  }
  {
    // The topology layer's share of set-up: one shard's graph.
    const double t0 = now_s();
    lg::topo::generate_topology(stream_config(opt, opt.seed).shard_topology);
    out.fig("topology.generate_s", now_s() - t0);
  }
  const std::string ckpt = opt.scratch + "/service-" +
                           std::to_string(::getpid()) + ".ckpt";
  out.info.emplace_back("prefixes", "100000");
  out.info.emplace_back("shards", "16");

  double first_run_s = 0.0;  // step 0's uninterrupted run
  // One stream cycle over the universe of `base_seed`.
  const auto cycle = [&](std::uint64_t base_seed, bool traced) {
    const lg::fleet::ServiceConfig cfg = stream_config(opt, base_seed);
    ServiceScheduler sched(cfg);
    Unit u;
    u.kind = "stream";
    u.traced = traced;
    ServiceResult full, resumed;
    double t_run = 0.0, t_restart = 0.0, t_resume = 0.0, t_io = 0.0;
    // Shard registries merge into the global one after each fan-out.
    auto& reg = lg::obs::MetricsRegistry::global();
    const lg::obs::Counter& updates = reg.counter("lg.bgp.updates_delivered");
    const lg::obs::Counter& best = reg.counter("lg.bgp.best_path_changes");
    const lg::obs::Counter& events =
        reg.counter("lg.scheduler.events_executed");
    const std::uint64_t upd0 = updates.value(), best0 = best.value(),
                        ev0 = events.value();
    const double t0 = now_s();
    {
      SpanLog::Scope root(spans, "bench.stream");
      {
        SpanLog::Scope s(spans, "fleet.run");
        full = sched.run();
      }
      t_run = now_s() - t0;
      u.fig("updates", static_cast<double>(updates.value() - upd0));
      u.fig("best_changes", static_cast<double>(best.value() - best0));
      u.fig("scheduler_events", static_cast<double>(events.value() - ev0));
      {
        ServiceResult part;
        {
          SpanLog::Scope s(spans, "fleet.run_until");
          part = sched.run_until(kCheckpointShare * cfg.horizon_seconds);
        }
        const double tw = now_s();
        SpanLog::Scope s(spans, "fleet.write_checkpoint");
        ServiceScheduler::write_checkpoint(part, ckpt);
        t_io = now_s() - tw;
      }
      const double tr = now_s();
      std::vector<std::string> blobs;
      {
        SpanLog::Scope s(spans, "fleet.read_checkpoint");
        blobs = ServiceScheduler::read_checkpoint(ckpt, cfg.shards);
      }
      const double tm = now_s();
      t_io += tm - tr;
      {
        SpanLog::Scope s(spans, "fleet.resume");
        resumed = sched.resume(blobs);
      }
      t_resume = now_s() - tm;
      t_restart = now_s() - tr;
    }
    u.wall_s = now_s() - t0;
    if (!traced && first_run_s == 0.0) first_run_s = t_run;

    std::error_code ec;
    u.fig("checkpoint_bytes",
          static_cast<double>(std::filesystem::file_size(ckpt, ec)));
    std::filesystem::remove(ckpt, ec);
    u.fig("run_s", t_run);
    u.fig("restart_s", t_restart);
    u.fig("resume_s", t_resume);
    u.fig("checkpoint_io_s", t_io);
    u.fig("episodes_closed", static_cast<double>(full.episodes_closed()));
    u.fig("resolved_self", static_cast<double>(full.outcome_count(
                               EpisodeOutcome::kResolvedSelf)));
    u.fig("remediated", static_cast<double>(full.outcome_count(
                            EpisodeOutcome::kRemediated)));
    u.fig("announce_denied", static_cast<double>(announce_denied(full)));

    u.digest = fingerprint_digest(full);
    if (!full.budget_respected()) {
      u.ok = false;
      u.why = "announcement budget not respected";
    } else if (open_at_end(full) > 0) {
      u.ok = false;
      u.why = std::to_string(open_at_end(full)) + " episodes open at the end";
    } else if (resumed.fingerprint() != full.fingerprint()) {
      u.ok = false;
      u.why = "resumed fingerprint differs from the uninterrupted run";
    }
    return u;
  };
  // An untimed cycle first: the first full-size cycles of a process run
  // slower while the allocator grows to the checkpoint-sized working set.
  cycle(lg::run::trial_seed(opt.seed, ~std::size_t{0}), false);
  drive(opt, spans, [&](std::size_t step, bool traced) {
    spans.set_op(step);
    out.units.push_back(cycle(lg::run::trial_seed(opt.seed, step), traced));
  });

  if (opt.trace) {
    // Serial pass over the shards of step 0, for shard imbalance and the
    // parallel efficiency of the fan-out.
    const lg::fleet::ServiceConfig cfg =
        stream_config(opt, lg::run::trial_seed(opt.seed, 0));
    double sum = 0.0, max = 0.0;
    for (std::size_t shard = 0; shard < cfg.shards; ++shard) {
      const double t0 = now_s();
      lg::fleet::run_service_shard(cfg, shard,
                                   lg::run::trial_seed(cfg.base_seed, shard));
      const double dt = now_s() - t0;
      sum += dt;
      max = std::max(max, dt);
    }
    out.fig("fleet.shard_s_sum", sum);
    out.fig("fleet.shard_s_max", max);
    out.fig("fleet.shard_imbalance",
            max / (sum / static_cast<double>(cfg.shards)));
    out.fig("fleet.run_s_step0", first_run_s);
  }
}

}  // namespace lgb
