// §6 extension — the multi-prefix always-on service plane (lg::fleet).
//
// The fleet harness (sec6_fleet_scale) scales the *monitored set*; this
// harness scales the *serviced set*: a keyed universe of (prefix,
// origin-policy) pairs, each with its own episode machine, driven by a
// streaming (open-ended) outage arrival process instead of a pre-sampled
// trial script. It measures what a long-lived deployment cares about:
//
//   * sustained episode throughput (episodes/sim-hour, and wall-clock
//     episodes/sec on stderr),
//   * the time-to-remediate distribution up to p99,
//   * announcement-budget utilization, which must sit in [0, 1] — the
//     regression surface for the AnnouncementBudget::utilization bug where
//     a drain running past the nominal horizon read > 1.0,
//   * steady-state RSS with a >= 100k-prefix universe (stderr only; gate
//     with LG_RSS_CEILING_MB).
//
// Checkpoint/restore: LG_SERVICE_CHECKPOINT_AT=<sim s> stops the streaming
// cell at the first tick boundary past that time and serializes every shard
// into LG_SERVICE_CHECKPOINT_PATH (default service_checkpoint.bin);
// LG_SERVICE_RESTORE_PATH=<file> resumes the streaming cell from such a file
// and continues to the horizon. A restored run's stdout and
// BENCH_sec6_service_plane.json are byte-identical to an uninterrupted run —
// that equality, under LG_THREADS 1 vs 4, is CI's service-plane check.
//
// Parallel structure: ServiceScheduler fans its 16 shards out on
// lg::run::TrialRunner, so stdout and the JSON report are byte-identical for
// any LG_THREADS; only wall-clock (stderr) changes.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fleet/service_plane.h"
#include "mem/rss.h"
#include "util/env_knobs.h"
#include "util/fnv.h"
#include "util/strings.h"
#include "util/thread_pool.h"

using namespace lg;

namespace {

using bench::quantile;
using Report = fleet::ServiceShardReport;

fleet::ServiceConfig trace_config() {
  fleet::ServiceConfig cfg;
  // Per-shard world sized like the fleet bench cells: enough responding
  // routers for the client quota, small enough to build 16 of them fast.
  cfg.shard_topology.num_tier1 = 4;
  cfg.shard_topology.num_large_transit = 10;
  cfg.shard_topology.num_small_transit = 30;
  cfg.shard_topology.num_stubs = 110;
  return fleet::ServiceConfig::from_env(cfg);
}

void print_result(const fleet::ServiceResult& result) {
  using O = fleet::EpisodeOutcome;
  bench::section("Streaming service plane — episodes and remediation");
  bench::kv("serviced prefixes",
            std::to_string(result.total(&Report::prefixes)));
  bench::kv("monitored clients",
            std::to_string(result.total(&Report::clients)));
  bench::kv("outages injected", std::to_string(result.outages_injected()));
  bench::kv("episodes opened", std::to_string(result.episodes_opened()));
  bench::kv("episodes closed", std::to_string(result.episodes_closed()));
  bench::kv("episodes / sim hour",
            util::fixed(result.episodes_per_sim_hour(), 1));
  for (const O o : {O::kResolvedSelf, O::kNoBlame, O::kDeclined,
                    O::kRemediated, O::kVerifyTimeout}) {
    bench::kv(std::string("  outcome: ") + fleet::episode_outcome_name(o),
              std::to_string(result.outcome_count(o)));
  }
  bench::kv("slot leases", std::to_string(result.total(&Report::slot_leases)));
  bench::kv("slot waits", std::to_string(result.total(&Report::slot_waits)));
  bench::kv("open at end", std::to_string(result.total(&Report::open_at_end)));
  char digest[32];
  std::snprintf(
      digest, sizeof(digest), "%016llx",
      static_cast<unsigned long long>(util::fnv1a64(result.fingerprint())));
  bench::kv("behaviour digest (FNV-1a)", digest);

  bench::section("Time-to-remediate CDF");
  const auto lat = result.remediate_latencies();
  if (lat.empty()) {
    std::printf("  (no remediated episodes)\n");
  } else {
    for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00}) {
      std::printf("  p%-4.0f %8.0f s\n", q * 100.0, quantile(lat, q));
    }
  }

  bench::section("Announcement-budget utilization (must be in [0, 1])");
  std::printf("  %-6s %-12s %-12s %-12s %-8s %-8s\n", "shard", "spent",
              "capacity", "utilization", "granted", "denied");
  for (const auto& s : result.shards) {
    std::printf("  %-6zu %-12.1f %-12.1f %-12.3f %-8llu %-8llu\n", s.shard,
                s.announce_spent, s.announce_capacity, s.announce_utilization,
                static_cast<unsigned long long>(s.announce_granted),
                static_cast<unsigned long long>(s.announce_denied));
  }
  bench::kv("budget respected (spent <= cap, util in [0,1])",
            result.budget_respected() ? "yes" : "NO");
}

}  // namespace

int main() {
  bench::header("Section 6 extension — multi-prefix always-on service plane",
                "streaming outage arrivals over a keyed prefix universe with "
                "per-prefix episode machines, leased remediation slots, and "
                "mid-stream checkpoint/restore");
  bench::JsonReport jr("sec6_service_plane");
  obs::TraceRing::global().set_capacity(1 << 16);

  const fleet::ServiceConfig cfg = trace_config();
  jr->set_config("prefixes", static_cast<double>(cfg.prefixes));
  jr->set_config("clients", static_cast<double>(cfg.clients));
  jr->set_config("shards", static_cast<double>(cfg.shards));
  jr->set_config("horizon_seconds", cfg.horizon_seconds);
  jr->set_config("tick_seconds", cfg.tick_seconds);
  jr->set_config("outages_per_hour", cfg.outages_per_hour);
  jr->set_config("announce_per_hour", cfg.announce_per_hour);
  jr->set_config("slots", static_cast<double>(cfg.slots));

  // Checkpoint/restore plumbing (all three knobs are operator input:
  // garbage throws a named diagnostic instead of silently running the
  // default — see util/env_knobs.h).
  const double checkpoint_at =
      util::env_double_knob("LG_SERVICE_CHECKPOINT_AT", 0.0, 0.0);
  const char* checkpoint_path_env = std::getenv("LG_SERVICE_CHECKPOINT_PATH");
  const std::string checkpoint_path =
      checkpoint_path_env != nullptr && checkpoint_path_env[0] != '\0'
          ? checkpoint_path_env
          : "service_checkpoint.bin";
  const char* restore_path = std::getenv("LG_SERVICE_RESTORE_PATH");

  fleet::ServiceScheduler scheduler(cfg);
  fleet::ServiceResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    bench::WallClock wc(
        "service plane", cfg.shards,
        cfg.threads ? cfg.threads : util::default_thread_count());
    if (restore_path != nullptr && restore_path[0] != '\0') {
      // A checkpoint file is operator input: a rejected one ends the run
      // with a diagnostic and exit 1.
      try {
        result = scheduler.resume(
            fleet::ServiceScheduler::read_checkpoint(restore_path, cfg.shards));
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "sec6_service_plane: cannot restore %s: %s\n",
                     restore_path, e.what());
        jr.discard();
        return 1;
      }
    } else if (checkpoint_at > 0.0) {
      result = scheduler.run_until(checkpoint_at);
    } else {
      result = scheduler.run();
    }
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  std::fprintf(stderr, "[service plane] %.1f episodes/sec wall-clock\n",
               wall > 0.0 ? static_cast<double>(result.episodes_closed()) / wall
                          : 0.0);
  if (checkpoint_at > 0.0 &&
      (restore_path == nullptr || restore_path[0] == '\0')) {
    fleet::ServiceScheduler::write_checkpoint(result, checkpoint_path);
    std::fprintf(stderr, "[service plane] checkpoint at t=%.0f -> %s\n",
                 checkpoint_at, checkpoint_path.c_str());
  }

  print_result(result);

  // ---- Steady-state memory cell: a >= 100k-prefix universe. ----
  // Per-prefix cost is a few dozen POD bytes plus bounded report rings, so
  // RSS must stay flat no matter how long the stream runs. RSS numbers are
  // allocator- and hardware-dependent: stderr only.
  fleet::ServiceConfig mem_cfg = cfg;
  mem_cfg.prefixes = std::max<std::size_t>(cfg.prefixes, 100000);
  mem_cfg.horizon_seconds = 1800.0;
  mem_cfg.drain_cap_seconds = 3600.0;
  bench::section("Steady-state memory — 100k-prefix universe");
  fleet::ServiceResult mem_result;
  {
    bench::WallClock wc(
        "service plane 100k prefixes", mem_cfg.shards,
        mem_cfg.threads ? mem_cfg.threads : util::default_thread_count());
    fleet::ServiceScheduler mem_scheduler(mem_cfg);
    mem_result = mem_scheduler.run();
  }
  bench::kv("serviced prefixes",
            std::to_string(mem_result.total(&Report::prefixes)));
  bench::kv("episodes closed", std::to_string(mem_result.episodes_closed()));
  bench::kv("budget respected", mem_result.budget_respected() ? "yes" : "NO");
  // Hardware/allocator-dependent: stderr only, never stdout or the report.
  const double rss =
      static_cast<double>(mem::current_rss_bytes()) / (1024.0 * 1024.0);
  std::fprintf(stderr, "[service plane 100k prefixes] steady-state RSS %.1f MB\n",
               rss);
  const double rss_ceiling =
      util::env_double_knob("LG_RSS_CEILING_MB", 0.0, 0.0);
  bool rss_ok = true;
  if (rss_ceiling > 0.0 && rss > rss_ceiling) {
    std::fprintf(stderr,
                 "[service plane 100k prefixes] ERROR: RSS %.1f MB exceeds "
                 "LG_RSS_CEILING_MB=%.1f\n",
                 rss, rss_ceiling);
    rss_ok = false;
  }

  // ---- Headlines ----
  const auto lat = result.remediate_latencies();
  jr->headline("episodes_opened",
               static_cast<double>(result.episodes_opened()));
  jr->headline("episodes_closed",
               static_cast<double>(result.episodes_closed()));
  jr->headline("episodes_per_sim_hour", result.episodes_per_sim_hour());
  jr->headline("remediated", static_cast<double>(result.outcome_count(
                                 fleet::EpisodeOutcome::kRemediated)));
  if (!lat.empty()) {
    jr->headline("remediate_p50_s", quantile(lat, 0.5));
    jr->headline("remediate_p90_s", quantile(lat, 0.9));
    jr->headline("remediate_p99_s", quantile(lat, 0.99));
  }
  double util_max = 0.0;
  for (const auto& s : result.shards) {
    if (s.announce_utilization > util_max) util_max = s.announce_utilization;
  }
  jr->headline("announce_utilization_max", util_max);
  jr->headline("budget_respected", result.budget_respected() ? 1.0 : 0.0);
  jr->headline("mem_cell_prefixes",
               static_cast<double>(mem_result.total(&Report::prefixes)));
  jr->headline("mem_cell_episodes_closed",
               static_cast<double>(mem_result.episodes_closed()));

  if (!result.budget_respected() || !mem_result.budget_respected()) {
    std::printf(
        "\n  ERROR: a shard exceeded its announcement cap or reported "
        "utilization outside [0, 1]\n");
    return 1;
  }
  return rss_ok ? 0 : 1;
}
