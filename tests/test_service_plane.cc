// The multi-prefix service plane (fleet/service_plane.h) and its streaming
// workload (workload/outage_stream.h):
//  * OutageStream — determinism per seed, peek stability, save/load
//    continuation, silent-stream semantics;
//  * TargetTable's serviced-prefix universe — dense disjoint keys, virtual
//    prefixes outside the topology's address space;
//  * run_service_shard — same (config, shard, seed) means an identical
//    report, different seeds diverge;
//  * checkpoint/restore — an interrupted shard resumed from its blob
//    finishes with exactly the state an uninterrupted run reaches, the
//    blob's bytes are pinned, and foreign, corrupted or truncated blobs are
//    rejected or restore into a run that completes;
//  * ServiceScheduler — a run resumed from a checkpoint file and a run at
//    another thread count match the uninterrupted run, and the file
//    container rejects trailing bytes and a foreign shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "fleet/service_plane.h"
#include "fleet/target_table.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/codec.h"
#include "util/fnv.h"
#include "workload/outage_stream.h"

namespace lg {
namespace {

// ----------------------------------------------------------- outage stream

workload::OutageStreamConfig stream_config(std::uint64_t seed) {
  workload::OutageStreamConfig cfg;
  cfg.rate_per_hour = 60.0;
  cfg.duration_cap_seconds = 900.0;
  cfg.seed = seed;
  return cfg;
}

TEST(OutageStreamTest, DeterministicPerSeedAndPeekStable) {
  workload::OutageStream a(stream_config(11));
  workload::OutageStream b(stream_config(11));
  for (int i = 0; i < 32; ++i) {
    // Peeking must not advance the process, however often we do it.
    const double peek = a.next_start();
    EXPECT_EQ(a.next_start(), peek);
    const auto ea = a.next();
    const auto eb = b.next();
    EXPECT_EQ(ea.start_seconds, peek);
    EXPECT_EQ(ea.start_seconds, eb.start_seconds);
    EXPECT_EQ(ea.duration_seconds, eb.duration_seconds);
    EXPECT_GT(ea.duration_seconds, 0.0);
    EXPECT_LE(ea.duration_seconds, 900.0);
  }
  EXPECT_EQ(a.generated(), 32u);

  workload::OutageStream c(stream_config(12));
  bool diverged = false;
  workload::OutageStream a2(stream_config(11));
  for (int i = 0; i < 32 && !diverged; ++i) {
    diverged = c.next().start_seconds != a2.next().start_seconds;
  }
  EXPECT_TRUE(diverged) << "different seeds produced the same arrivals";
}

TEST(OutageStreamTest, ArrivalsAreMonotoneAndRateShaped) {
  workload::OutageStream s(stream_config(3));
  double prev = 0.0;
  double last = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto e = s.next();
    EXPECT_GE(e.start_seconds, prev);
    prev = e.start_seconds;
    last = e.start_seconds;
  }
  // 60/h over 2000 arrivals ≈ 2000 minutes; allow a wide stochastic band.
  const double hours = last / 3600.0;
  EXPECT_GT(n / hours, 40.0);
  EXPECT_LT(n / hours, 90.0);
}

TEST(OutageStreamTest, SaveLoadContinuesTheSameSequence) {
  workload::OutageStream s(stream_config(21));
  for (int i = 0; i < 10; ++i) (void)s.next();
  (void)s.next_start();  // checkpoint with a pending arrival outstanding

  util::BinWriter w;
  s.save(w);
  const std::string blob = w.take();

  std::vector<workload::OutageEvent> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(s.next());

  workload::OutageStream restored(stream_config(21));
  util::BinReader r(blob);
  restored.load(r);
  EXPECT_EQ(restored.generated(), 11u);  // 10 consumed + 1 pending
  for (int i = 0; i < 16; ++i) {
    const auto e = restored.next();
    EXPECT_EQ(e.start_seconds, expect[i].start_seconds);
    EXPECT_EQ(e.duration_seconds, expect[i].duration_seconds);
  }
}

TEST(OutageStreamTest, ZeroRateStreamIsSilent) {
  workload::OutageStreamConfig cfg = stream_config(1);
  cfg.rate_per_hour = 0.0;
  workload::OutageStream s(cfg);
  EXPECT_TRUE(std::isinf(s.next_start()));
  EXPECT_EQ(s.generated(), 0u);
}

// --------------------------------------------------- serviced-prefix universe

TEST(TargetTableTest, ShardUniverseKeysAreDenseAndDisjoint) {
  const std::size_t total = 1000, shards = 16, clients = 64;
  fleet::TargetTable table(total, shards);
  std::set<std::uint32_t> seen;
  std::size_t count = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const auto universe = table.shard_universe(s, clients);
    EXPECT_EQ(universe.size(), table.shard_quota(s));
    EXPECT_EQ(universe.front().key, table.shard_start(s));
    for (const auto& sp : universe) {
      EXPECT_TRUE(seen.insert(sp.key).second) << "duplicate key " << sp.key;
      EXPECT_LT(sp.client, clients);
      ++count;
    }
  }
  EXPECT_EQ(count, total);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), static_cast<std::uint32_t>(total - 1));
}

TEST(TargetTableTest, VirtualPrefixesLiveOutsideTopologySpace) {
  // 12.0.0.0/6 spans 12.x–15.x (2^18 distinct /24s); production/sentinel
  // space is 10/8 and infrastructure 11/8, so no virtual prefix may start
  // with 10 or 11.
  std::set<std::uint32_t> addrs;
  for (std::uint32_t key : {0u, 1u, 255u, 99999u, (1u << 18) - 1}) {
    const topo::Prefix p = fleet::TargetTable::virtual_prefix(key);
    EXPECT_EQ(p.length(), 24);
    const std::uint32_t octet = p.addr() >> 24;
    EXPECT_GE(octet, 12u);
    EXPECT_LE(octet, 15u);
    EXPECT_TRUE(addrs.insert(p.addr()).second);
  }
}

// ------------------------------------------------------------ service shard

fleet::ServiceConfig small_service_config() {
  fleet::ServiceConfig cfg;
  cfg.prefixes = 64;
  cfg.clients = 32;
  cfg.shards = 4;
  cfg.horizon_seconds = 1800.0;
  cfg.warmup_seconds = 120.0;
  cfg.drain_cap_seconds = 3600.0;
  cfg.outages_per_hour = 96.0;  // fleet-wide; /4 shards keeps shards busy
  cfg.shard_topology.num_tier1 = 3;
  cfg.shard_topology.num_large_transit = 6;
  cfg.shard_topology.num_small_transit = 12;
  cfg.shard_topology.num_stubs = 40;
  return cfg;
}

std::string report_digest(const fleet::ServiceShardReport& r) {
  fleet::ServiceResult one;
  one.shards.push_back(r);
  return one.fingerprint();
}

TEST(ServicePlaneTest, ShardRunIsDeterministicPerSeed) {
  const fleet::ServiceConfig cfg = small_service_config();
  const auto a = fleet::run_service_shard(cfg, 0, 77);
  const auto b = fleet::run_service_shard(cfg, 0, 77);
  EXPECT_EQ(report_digest(a), report_digest(b));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_GT(a.outages_injected, 0u);
  EXPECT_GT(a.episodes_opened, 0u);
  EXPECT_EQ(a.episodes_opened, a.episodes_closed);
  EXPECT_EQ(a.open_at_end, 0u);

  const auto c = fleet::run_service_shard(cfg, 0, 78);
  EXPECT_NE(report_digest(a), report_digest(c))
      << "different seeds produced identical shard behaviour";
}

TEST(ServicePlaneTest, EveryClosedEpisodeHasConsistentTimestamps) {
  const fleet::ServiceConfig cfg = small_service_config();
  const auto r = fleet::run_service_shard(cfg, 1, 5);
  ASSERT_FALSE(r.records.empty());
  for (const auto& rec : r.records) {
    EXPECT_GE(rec.opened_at, cfg.warmup_seconds);
    EXPECT_GE(rec.closed_at, rec.opened_at);
    EXPECT_LT(rec.key, cfg.prefixes);
    if (rec.outcome == fleet::EpisodeOutcome::kRemediated) {
      EXPECT_GE(rec.remediated_at, rec.opened_at);
      EXPECT_GE(rec.slot, 0);
      EXPECT_NE(rec.blamed, topo::kInvalidAs);
    }
  }
  EXPECT_GE(r.announce_utilization, 0.0);
  EXPECT_LE(r.announce_utilization, 1.0);
}

// Shard 0 / seed 6 checkpointed at 1500 s holds live state of every kind the
// restore must carry: open episodes, leased slots, and entries in both
// bounded rings.
constexpr std::size_t kRestoreShard = 0;
constexpr std::uint64_t kRestoreSeed = 6;

fleet::ServiceShardReport checkpointed_half(const fleet::ServiceConfig& cfg) {
  // Fresh registries: the blob carries metrics, spans and the trace ring, so
  // its bytes must not depend on what earlier tests recorded.
  obs::MetricsRegistry metrics;
  obs::TraceRing trace;
  obs::SpanRegistry spans;
  obs::ScopedMetricsRegistry scoped_metrics(metrics);
  obs::ScopedTraceRing scoped_trace(trace);
  obs::ScopedSpanRegistry scoped_spans(spans);
  fleet::ServiceRun checkpoint;
  checkpoint.checkpoint_at = 1500.0;
  return fleet::run_service_shard(cfg, kRestoreShard, kRestoreSeed,
                                  checkpoint);
}

TEST(ServicePlaneTest, CheckpointRestoreMatchesUninterruptedRun) {
  const fleet::ServiceConfig cfg = small_service_config();

  const auto full = fleet::run_service_shard(cfg, kRestoreShard, kRestoreSeed);

  const auto half = checkpointed_half(cfg);
  ASSERT_FALSE(half.checkpoint.empty());
  EXPECT_LT(half.ticks, full.ticks);
  EXPECT_GT(half.episodes_opened, 0u);
  EXPECT_GT(half.records.size(), 0u);
  EXPECT_GT(half.remediate_latencies.size(), 0u);
  EXPECT_GT(half.open_at_end, 0u);
  EXPECT_GT(half.slot_leases, 0u);
  // Wire-format golden: any change to what a checkpoint holds, or to how a
  // field is encoded, moves this hash; a change that means to move it must
  // bump the affected section's version.
  EXPECT_EQ(half.checkpoint.size(), 761423u);
  EXPECT_EQ(util::fnv1a64(half.checkpoint), 0xbb37b0c9b8c2f935ULL);

  fleet::ServiceRun resume;
  resume.restore_blob = &half.checkpoint;
  const auto resumed =
      fleet::run_service_shard(cfg, kRestoreShard, kRestoreSeed, resume);

  EXPECT_EQ(resumed.fingerprint, full.fingerprint);
  EXPECT_EQ(resumed.ticks, full.ticks);
  EXPECT_EQ(resumed.outages_injected, full.outages_injected);
  EXPECT_EQ(resumed.episodes_opened, full.episodes_opened);
  EXPECT_EQ(resumed.outcomes, full.outcomes);
  EXPECT_EQ(resumed.announce_spent, full.announce_spent);
  EXPECT_EQ(resumed.slot_leases, full.slot_leases);
  EXPECT_EQ(report_digest(resumed), report_digest(full));
}

// A checkpoint is operator input: a blob for another shard, a corrupted
// byte, trailing bytes or a truncation must be rejected with
// std::runtime_error or restore into a run that reaches the horizon —
// never undefined behaviour.
TEST(ServicePlaneTest, RestoreRejectsForeignAndCorruptBlobs) {
  const fleet::ServiceConfig cfg = small_service_config();
  const auto half = checkpointed_half(cfg);
  const std::string& blob = half.checkpoint;
  ASSERT_FALSE(blob.empty());

  fleet::ServiceRun foreign;
  foreign.restore_blob = &blob;
  EXPECT_THROW(fleet::run_service_shard(cfg, kRestoreShard + 1, kRestoreSeed,
                                        foreign),
               std::runtime_error);

  const auto restore = [&](const std::string& mutant) {
    fleet::ServiceRun run;
    run.restore_blob = &mutant;
    return fleet::run_service_shard(cfg, kRestoreShard, kRestoreSeed, run);
  };
  const auto horizon_ticks =
      static_cast<std::uint64_t>(cfg.horizon_seconds / cfg.tick_seconds);

  // Overwrite the first 1,500 bytes after the plane section's tag — its
  // header, clients and per-prefix machines, slot bytes included — one even
  // offset at a time.
  const std::size_t plane = blob.find("SVPL");
  ASSERT_NE(plane, std::string::npos);
  std::size_t rejected = 0;
  for (std::size_t off = plane + 4; off < std::min(blob.size(), plane + 1504);
       off += 2) {
    std::string mutant = blob;
    mutant[off] = 0x40;
    try {
      EXPECT_GE(restore(mutant).ticks, horizon_ticks) << "offset " << off;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);

  // Bytes past the last section are corruption too.
  EXPECT_THROW(restore(blob + '\0'), std::runtime_error);

  // Cut the blob at every section boundary: each cut must be rejected.
  for (const char* tag : {"SVCS", "BGEN", "BSPK", "SVPL", "RNG ", "TSTR",
                          "BCKT", "METR", "SPAN", "TRAC"}) {
    for (std::size_t at = blob.find(tag); at != std::string::npos;
         at = blob.find(tag, at + 1)) {
      EXPECT_THROW(restore(blob.substr(0, at)), std::runtime_error)
          << tag << " at " << at;
    }
  }
}

// ------------------------------------------------------- service scheduler

TEST(ServiceSchedulerTest, ResumeAndThreadCountLeaveTheRunUnchanged) {
  fleet::ServiceConfig cfg = small_service_config();
  cfg.threads = 1;
  const auto serial = fleet::ServiceScheduler(cfg).run();
  EXPECT_GT(serial.episodes_opened(), 0u);
  EXPECT_TRUE(serial.budget_respected());

  cfg.threads = 4;
  fleet::ServiceScheduler scheduler(cfg);
  EXPECT_EQ(scheduler.run().fingerprint(), serial.fingerprint());

  const auto half = scheduler.run_until(900.0);
  const std::string path = ::testing::TempDir() + "service_scheduler.ckpt";
  fleet::ServiceScheduler::write_checkpoint(half, path);
  const auto blobs = fleet::ServiceScheduler::read_checkpoint(path, cfg.shards);
  std::remove(path.c_str());
  ASSERT_EQ(blobs.size(), cfg.shards);
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    EXPECT_EQ(blobs[i], half.shards[i].checkpoint) << "shard " << i;
  }
  EXPECT_EQ(scheduler.resume(blobs).fingerprint(), serial.fingerprint());
}

// The checkpoint file is operator input: a byte after the last shard blob or
// a shard count other than the config's must be rejected.
TEST(ServiceSchedulerTest, CheckpointFileRejectsTrailingBytesAndShardCount) {
  fleet::ServiceResult result;
  result.shards.resize(3);
  for (std::size_t i = 0; i < result.shards.size(); ++i) {
    result.shards[i].checkpoint = "shard blob " + std::to_string(i);
  }
  const std::string path = ::testing::TempDir() + "service_file.ckpt";
  fleet::ServiceScheduler::write_checkpoint(result, path);
  const auto blobs = fleet::ServiceScheduler::read_checkpoint(path, 3);
  ASSERT_EQ(blobs.size(), 3u);
  EXPECT_EQ(blobs[2], "shard blob 2");
  EXPECT_THROW(fleet::ServiceScheduler::read_checkpoint(path, 4),
               std::runtime_error);

  std::ofstream(path, std::ios::binary | std::ios::app).put('\0');
  EXPECT_THROW(fleet::ServiceScheduler::read_checkpoint(path, 3),
               std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lg
