// Checkpoint/restore substrate:
//  * util/codec: fixed-width little-endian round-trips, bit-exact doubles,
//    loud failure on truncation and version drift;
//  * util: Rng and Scheduler state round-trips (restore refuses live events);
//  * fleet/checkpoint: metrics / span / trace registry round-trips restore
//    saved contents verbatim;
//  * bgp/snapshot: a quiesced engine re-serializes byte-identically after a
//    load into a fresh engine over the same topology; a restore into an
//    engine that interned its prefixes in another order continues
//    byte-identically; a blob of an older format version is rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bgp/engine.h"
#include "bgp/types.h"
#include "fleet/checkpoint.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/codec.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

// ------------------------------------------------------------------ codec

TEST(CodecTest, RoundTripsEveryScalarType) {
  util::BinWriter w;
  w.magic(0x54534554u, 3);
  w.u8(0xab);
  w.b(true);
  w.b(false);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(-0.1);
  w.f64(std::numeric_limits<double>::infinity());
  w.str("hello\0world");  // embedded NUL truncates at the literal, fine
  w.vec(std::vector<std::uint32_t>{1, 2, 3},
        [&](std::uint32_t v) { w.u32(v); });
  w.opt(std::optional<double>{2.5}, [&](double v) { w.f64(v); });
  w.opt(std::optional<double>{}, [&](double v) { w.f64(v); });

  const std::string blob = w.take();
  util::BinReader r(blob);
  r.magic(0x54534554u, 3);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), -0.1);
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_EQ(r.str(), "hello");
  const auto v = r.vec<std::uint32_t>([&] { return r.u32(); });
  EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.opt<double>([&] { return r.f64(); }), std::optional<double>{2.5});
  EXPECT_EQ(r.opt<double>([&] { return r.f64(); }), std::nullopt);
  EXPECT_TRUE(r.at_end());
}

TEST(CodecTest, DoublesAreBitExact) {
  // A value with no short decimal representation: printf/parse would lose
  // the low bits; the codec must not.
  const double v = 0.1 + 0.2;
  util::BinWriter w;
  w.f64(v);
  const std::string blob = w.take();
  util::BinReader r(blob);
  const double back = r.f64();
  EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0);
}

TEST(CodecTest, FailsLoudlyOnCorruption) {
  util::BinWriter w;
  w.magic(0x31474154u, 1);
  w.u64(7);
  const std::string blob = w.take();

  util::BinReader wrong_tag(blob);
  EXPECT_THROW(wrong_tag.magic(0x32474154u, 1), std::runtime_error);
  util::BinReader wrong_version(blob);
  EXPECT_THROW(wrong_version.magic(0x31474154u, 2), std::runtime_error);

  const std::string truncated = blob.substr(0, blob.size() - 4);
  util::BinReader r(truncated);
  r.magic(0x31474154u, 1);
  EXPECT_THROW(r.u64(), std::runtime_error);

  // A length prefix larger than the remaining blob must throw before any
  // allocation, not attempt an attacker-sized reserve.
  util::BinWriter w2;
  w2.u64(std::numeric_limits<std::uint64_t>::max());
  const std::string huge = w2.take();
  util::BinReader r2(huge);
  EXPECT_THROW(r2.str(), std::runtime_error);
}

// -------------------------------------------------------------------- rng

TEST(RngStateTest, RestoreContinuesIdenticalSequence) {
  util::Rng a(123, 456);
  (void)a.normal(0.0, 1.0);  // populate the cached-normal half
  const auto state = a.save_state();
  std::vector<double> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(a.normal(0.0, 1.0));

  util::Rng b;  // different seed entirely; restore must overwrite all of it
  b.restore_state(state);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b.normal(0.0, 1.0), expect[i]);
}

// -------------------------------------------------------------- scheduler

TEST(SchedulerStateTest, RoundTripsCountersAndRefusesLiveEvents) {
  util::Scheduler s;
  int fired = 0;
  s.at(1.0, [&] { ++fired; });
  s.at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  const auto state = s.save_state();
  EXPECT_DOUBLE_EQ(state.now, 2.0);
  EXPECT_EQ(state.executed, 2u);

  util::Scheduler fresh;
  fresh.restore_state(state);
  EXPECT_DOUBLE_EQ(fresh.now(), 2.0);
  EXPECT_EQ(fresh.executed(), 2u);

  // Closures cannot be serialized: restoring over pending events would
  // silently drop them, so it must throw instead.
  util::Scheduler busy;
  busy.at(5.0, [] {});
  EXPECT_THROW(busy.restore_state(state), std::runtime_error);
}

// ------------------------------------------------------------- registries

TEST(CheckpointTest, MetricsRegistryRoundTripsVerbatim) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter("a.count").inc(41);
  reg.counter("a.count").inc();
  reg.gauge("b.gauge").set(17.5);
  reg.gauge("b.gauge").set(3.25);  // max must survive too
  auto& d = reg.distribution("c.dist");
  for (const double v : {1.0, 2.0, 7.5, -3.0}) d.observe(v);

  util::BinWriter w;
  fleet::save_metrics(w, reg);
  const std::string blob = w.take();

  // Restore targets a fresh registry (the service-plane restore path always
  // does); merge-into-nonempty is not part of the contract.
  obs::MetricsRegistry back;
  back.set_enabled(true);
  util::BinReader r(blob);
  fleet::load_metrics(r, back);

  EXPECT_EQ(back.counter("a.count").value(), 42u);
  EXPECT_DOUBLE_EQ(back.gauge("b.gauge").value(), 3.25);
  // Byte-level check: re-saving the restored registry reproduces the blob
  // exactly (same names, same order, same bit patterns).
  util::BinWriter w2;
  fleet::save_metrics(w2, back);
  EXPECT_EQ(blob, w2.blob());
}

TEST(CheckpointTest, SpanRegistryRoundTripsVerbatim) {
  obs::SpanRegistry reg;
  reg.set_enabled(true);
  const auto root = reg.begin(0.0, "root", 0, 1, 2);
  const auto child = reg.begin(1.0, "child", root);
  reg.annotate(child, "key", 2.5);
  reg.end(child, 3.0);
  reg.end(root, 4.0);
  const auto open = reg.begin(5.0, "still-open");
  (void)open;

  util::BinWriter w;
  fleet::save_spans(w, reg);
  const std::string blob = w.take();

  obs::SpanRegistry back;
  util::BinReader r(blob);
  fleet::load_spans(r, back);
  ASSERT_EQ(back.records().size(), reg.records().size());

  util::BinWriter w2;
  fleet::save_spans(w2, back);
  EXPECT_EQ(blob, w2.blob());

  // The restored id stream continues where the original would have: the
  // next span begun on either registry gets the same id.
  const auto a = reg.begin(6.0, "next");
  const auto b = back.begin(6.0, "next");
  EXPECT_EQ(a, b);
}

TEST(CheckpointTest, TraceRingRoundTripsVerbatim) {
  obs::TraceRing ring(8);
  ring.set_enabled(true);
  for (int i = 0; i < 12; ++i) {  // overflow the ring: oldest four drop
    ring.record(static_cast<double>(i), obs::TraceKind::kEpisodeOpened,
                static_cast<std::uint64_t>(i), 0, 0.5 * i);
  }
  util::BinWriter w;
  fleet::save_trace(w, ring);
  const std::string blob = w.take();

  obs::TraceRing back(8);
  back.set_enabled(true);
  util::BinReader r(blob);
  fleet::load_trace(r, back);
  EXPECT_EQ(back.recorded(), ring.recorded());
  EXPECT_EQ(back.dropped(), ring.dropped());
  const auto a = ring.events();
  const auto b = back.events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].a, b[i].a);
  }
}

// ---------------------------------------------------------- bgp snapshot

TEST(EngineSnapshotTest, QuiescedEngineReserializesByteIdentically) {
  workload::SimWorldConfig wc = workload::SimWorld::small_config(7);
  workload::SimWorld world(wc);
  // Some real announcement state on top of the infrastructure baseline:
  // a plain origination and a selective policy with a poisoned default.
  const topo::AsId origin = world.topology().stubs.front();
  bgp::OriginPolicy pol;
  pol.default_path = bgp::PathRef(bgp::poisoned_path(
      origin, {world.topology().stubs.back()}, 3));
  world.engine().originate(origin, topo::AddressPlan::production_prefix(origin),
                           std::move(pol));
  world.converge();

  util::BinWriter w;
  world.engine().save_snapshot(w);
  const std::string blob = w.take();

  workload::SimWorld fresh(wc);
  fresh.converge();
  util::BinReader r(blob);
  fresh.engine().load_snapshot(r);

  util::BinWriter w2;
  fresh.engine().save_snapshot(w2);
  EXPECT_EQ(blob, w2.blob()) << "snapshot does not round-trip bit-exactly";
}

// PrefixIds are engine-internal: a restoring engine that interned other
// prefixes first, in another order, numbers every prefix differently. The
// snapshot keys by Prefix, so the continued run must still be
// byte-identical to the uninterrupted one.
TEST(EngineSnapshotTest, RestoreIgnoresPrefixIdOrder) {
  topo::TopologyParams tp;
  tp.num_stubs = 40;
  tp.seed = 11;
  const topo::GeneratedTopology topo = topo::generate_topology(tp);
  const std::vector<topo::AsId>& stubs = topo.stubs;
  ASSERT_GE(stubs.size(), 6u);
  const auto prefix_of = [](topo::AsId as) {
    return topo::AddressPlan::production_prefix(as);
  };
  const auto announce = [&](bgp::BgpEngine& e, topo::AsId as) {
    bgp::OriginPolicy pol;
    pol.default_path = bgp::AsPath{as, as, as};
    e.originate(as, prefix_of(as), std::move(pol));
  };
  // The part of the run after the checkpoint: a poisoned re-announcement,
  // a withdrawal, and a prefix neither engine has seen yet.
  const auto continue_run = [&](bgp::BgpEngine& e, util::Scheduler& sched) {
    bgp::OriginPolicy poisoned;
    poisoned.default_path = bgp::PathRef(
        bgp::poisoned_path(stubs[2], {topo.tier1.front()}, 3));
    e.originate(stubs[2], prefix_of(stubs[2]), std::move(poisoned));
    e.withdraw(stubs[0], prefix_of(stubs[0]));
    announce(e, stubs[5]);
    sched.run();
  };

  bgp::EngineConfig cfg;
  cfg.seed = 5;
  util::Scheduler sched_a;
  bgp::BgpEngine a(topo.graph, sched_a, cfg);
  for (std::size_t i = 0; i < 4; ++i) announce(a, stubs[i]);
  sched_a.run();
  util::BinWriter checkpoint;
  a.save_snapshot(checkpoint);
  const util::Scheduler::State sched_state = sched_a.save_state();
  continue_run(a, sched_a);
  util::BinWriter uninterrupted;
  a.save_snapshot(uninterrupted);

  util::Scheduler sched_b;
  bgp::BgpEngine b(topo.graph, sched_b, cfg);
  // Intern the continuation's new prefix first, then the checkpointed ones
  // in reverse, plus one prefix the snapshot never mentions.
  b.withdraw(stubs[5], prefix_of(stubs[5]));
  b.withdraw(stubs[4], prefix_of(stubs[4]));
  for (std::size_t i = 4; i-- > 0;) b.withdraw(stubs[i], prefix_of(stubs[i]));
  sched_b.run();
  util::BinReader r(checkpoint.blob());
  b.load_snapshot(r);
  sched_b.restore_state(sched_state);
  continue_run(b, sched_b);
  util::BinWriter continued;
  b.save_snapshot(continued);

  EXPECT_EQ(a.total_messages(), b.total_messages());
  for (const topo::AsId as : topo.graph.as_ids()) {
    for (const topo::AsId origin : stubs) {
      const bgp::Route* ra = a.best_route(as, prefix_of(origin));
      const bgp::Route* rb = b.best_route(as, prefix_of(origin));
      ASSERT_EQ(ra == nullptr, rb == nullptr) << "AS " << as;
      if (ra != nullptr) {
        EXPECT_EQ(*ra, *rb) << "AS " << as;
      }
    }
  }
  EXPECT_EQ(uninterrupted.blob(), continued.blob())
      << "continuation after restore diverged";
}

// The v3 layout (dense hot path) is not readable as v2 and vice versa: an
// old blob must be refused up front, not misparsed.
TEST(EngineSnapshotTest, RejectsOlderFormatVersion) {
  workload::SimWorld world(workload::SimWorld::small_config(7));
  util::BinWriter w;
  world.engine().save_snapshot(w);
  std::string blob = w.take();
  ASSERT_GE(blob.size(), 8u);
  // Section header: u32 tag, then u32 version (little endian).
  std::uint32_t version = 0;
  std::memcpy(&version, blob.data() + 4, sizeof(version));
  EXPECT_EQ(version, 3u);
  const std::uint32_t old_version = 2;
  std::memcpy(blob.data() + 4, &old_version, sizeof(old_version));

  workload::SimWorld fresh(workload::SimWorld::small_config(7));
  util::BinReader r(blob);
  EXPECT_THROW(fresh.engine().load_snapshot(r), std::runtime_error);
}

}  // namespace
}  // namespace lg
