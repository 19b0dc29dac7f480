// lg::fleet — the multi-prefix always-on service plane.
//
// The fleet's EpisodeManager multiplexes episodes onto the ONE production
// prefix its origin owns. A real deployment fronts an address portfolio: a
// provider is responsible for many customer prefixes, each with its own
// origin policy, each failing (and flapping, and healing) on its own clock.
// The service plane generalizes the fleet to that shape:
//
//  * a keyed universe of (prefix, origin-policy) pairs — ServicedPrefix —
//    partitioned over the same shards as the fleet: both hosts build their
//    worlds, budgets and fan-out from fleet/shard.h (the shard count, never
//    the thread count, defines the partition);
//  * per-prefix episode state machines (MONITOR → ISOLATE → REMEDIATE →
//    VERIFY → HOLDDOWN) reusing the fleet's escalation policy
//    (EpisodeManager::holddown_duration) and outcome vocabulary;
//  * prefixes are *virtual* (bookkeeping identity + policy); real BGP work
//    is leased through a small pool of physical /28 remediation slots
//    carved from the origin's production /24, which stays announced with
//    the baseline and therefore acts as the covering sentinel (§3.1.2) for
//    every leased slot — captive ASes keep a route, and repairs on the
//    original path stay observable;
//  * remediation is a *selective* announcement (§3.1.2 / Fig. 3): the slot
//    /28 withholds or poisons only via the implicated provider, everyone
//    else sees the baseline;
//  * the workload is a streaming, open-ended outage arrival process
//    (workload::OutageStream), not a pre-sampled trial script — most
//    episodes close kResolvedSelf waiting on the fleet-wide announcement
//    budget, which is exactly the paper's §5.4 pacing story;
//  * a shard checkpoints mid-stream — scheduler, BGP engine (SoA RIBs and
//    interned tables), per-prefix machines, budgets, RNGs, observability
//    registries — into a versioned binary blob, and a fresh process restores
//    it and continues byte-identically (stdout, BENCH_*.json, span trees,
//    any LG_THREADS).
//
// Memory discipline at 100k prefixes: per-prefix state is a few dozen POD
// bytes, episode records and remediation latencies live in bounded rings
// with a rolling FNV-1a fingerprint standing in for evicted history, so
// steady-state RSS is flat no matter how long the stream runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/episode_manager.h"
#include "fleet/shard.h"
#include "fleet/target_table.h"

namespace lg::fleet {

// horizon_seconds bounds one harness run; the plane itself is open-ended.
struct ServiceConfig : ShardPlan {
  ServiceConfig() {
    base_seed = 0x73727670ULL;  // "srvp"
    warmup_seconds = 300.0;
    outage_duration_cap_seconds = 1800.0;
  }

  // Serviced (prefix, origin-policy) pairs across the whole fleet.
  std::size_t prefixes = 2000;
  // Monitored client destinations across the fleet; each serviced prefix
  // maps onto one client (key % clients) whose reachability stands in for
  // the prefix's.
  std::size_t clients = 256;
  // Service tick: ping cadence, state-machine step, failure expiry check.
  double tick_seconds = 30.0;
  // After the horizon, keep ticking (without new injections) until
  // everything settles, at most this long.
  double drain_cap_seconds = 2.0 * 3600.0;
  // Physical /28 remediation slots per shard, carved from the origin's
  // production /24. At most 15: the /28 containing the production host
  // address is never leased, so detection pings keep riding the baseline.
  std::size_t slots = 8;
  // Bounded per-shard rings: closed-episode records and remediation
  // latencies kept for reporting; older entries fold into the fingerprint.
  std::size_t record_ring = 4096;
  std::size_t latency_ring = 4096;

  // Apply LG_SERVICE_PREFIXES / LG_SERVICE_CLIENTS / LG_SERVICE_HORIZON
  // (seconds) / LG_SERVICE_TICK (seconds) / LG_SERVICE_OUTAGE_RATE (per
  // hour) / LG_SERVICE_ANNOUNCE_BUDGET (per hour) / LG_SERVICE_PROBE_BUDGET
  // (probes per second per shard) on top of `base`. Malformed or
  // out-of-range values throw std::invalid_argument with a diagnostic
  // naming the knob (util/env_knobs.h).
  static ServiceConfig from_env(ServiceConfig base);
  static ServiceConfig from_env() { return from_env(ServiceConfig{}); }
};

// One closed (or force-closed) per-prefix episode, as kept in the bounded
// report ring.
struct ServiceEpisodeRecord {
  std::uint32_t key = 0;  // universe key of the serviced prefix
  Ipv4 client = 0;
  AsId client_as = topo::kInvalidAs;
  AsId blamed = topo::kInvalidAs;
  double opened_at = -1.0;
  double remediated_at = -1.0;
  double closed_at = -1.0;
  EpisodeOutcome outcome = EpisodeOutcome::kOpen;
  std::int16_t slot = -1;  // leased physical slot, -1 = never held one
  std::uint16_t flap_generation = 0;
  std::uint16_t probe_deferrals = 0;
  std::uint16_t budget_deferrals = 0;
};

struct ServiceShardReport : ShardTotals {
  std::size_t clients = 0;
  std::size_t prefixes = 0;
  std::uint64_t ticks = 0;
  // Rolling FNV-1a over every closed record, in close order — the compact
  // determinism surface even after the record ring evicts history.
  std::uint64_t fingerprint = 0;
  std::uint64_t slot_leases = 0;
  std::uint64_t slot_waits = 0;
  // Bounded ring contents, oldest first.
  std::vector<ServiceEpisodeRecord> records;
  // detected -> remediated latencies of remediated episodes (bounded ring).
  std::vector<double> remediate_latencies;
  // Filled only when the run checkpointed: the shard's serialized state.
  std::string checkpoint;
};

struct ServiceResult : ShardResults<ServiceConfig, ServiceShardReport> {
  // Merged remediation latencies, sorted.
  std::vector<double> remediate_latencies() const;
  // Stable textual digest (per-shard counters + ring records + FNV) —
  // equal strings mean byte-identical service-plane behaviour.
  std::string fingerprint() const;
};

// Checkpoint/restore control for one run.
struct ServiceRun {
  // > 0: stop at the first tick boundary >= this simulated time and
  // serialize each shard into its report's `checkpoint` blob instead of
  // finishing the horizon.
  double checkpoint_at = 0.0;
  // Non-null: resume this shard from the blob (produced by a checkpointing
  // run with the same config) and continue to the horizon.
  const std::string* restore_blob = nullptr;
};

// One shard, runnable directly (unit tests drive single shards). `seed`
// plays the role of run::trial_seed(base_seed, shard). Metrics, spans and
// trace land in whatever registries are current.
ServiceShardReport run_service_shard(const ServiceConfig& cfg,
                                     std::size_t shard, std::uint64_t seed,
                                     const ServiceRun& run = {});

class ServiceScheduler {
 public:
  explicit ServiceScheduler(ServiceConfig cfg);

  // Run every shard over the full horizon and merge reports in shard order.
  ServiceResult run();
  // Run until `checkpoint_at`; each report carries its checkpoint blob.
  ServiceResult run_until(double checkpoint_at);
  // Resume every shard from `blobs` (one per shard) to the horizon.
  ServiceResult resume(const std::vector<std::string>& blobs);

  // Checkpoint container file: magic/version header + one blob per shard.
  static void write_checkpoint(const ServiceResult& result,
                               const std::string& path);
  static std::vector<std::string> read_checkpoint(const std::string& path,
                                                  std::size_t expect_shards);

  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  ServiceResult run_impl(const ServiceRun& base,
                         const std::vector<std::string>* blobs);
  ServiceConfig cfg_;
};

}  // namespace lg::fleet
