// The RIB storage layout, checked from the outside: interned CommunitiesRef
// semantics, the tag-encoded Adj-RIB-Out (adj_out_state / adj_out_unit /
// record_advertised), delta-encoded export sharing, the deterministic
// rib_memory() accounting, the prefix-major store (a standalone speaker and
// an engine-attached one agree; snapshots round-trip byte for byte; a
// pinned bytes/route ceiling) — and, as the load-bearing proof, a full
// differential against check::ReferenceBgp plus an InvariantChecker sweep
// on an internet-scale synthetic graph.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bgp/engine.h"
#include "bgp/speaker.h"
#include "check/invariants.h"
#include "check/reference_bgp.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/codec.h"
#include "util/scheduler.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using bgp::AsPath;
using bgp::BgpSpeaker;
using bgp::CommunitiesRef;
using bgp::Communities;
using topo::AsId;
using topo::Prefix;

// ---- CommunitiesRef interning ------------------------------------------

TEST(CommunitiesRefTest, DefaultIsEmptyAndShared) {
  const CommunitiesRef a;
  const CommunitiesRef b;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a, b);
  // Both alias the static empty set: equality is a pointer compare.
  EXPECT_EQ(&a.get(), &b.get());
}

TEST(CommunitiesRefTest, SharesBufferAcrossCopies) {
  const CommunitiesRef a(Communities{1, 2, 3});
  const CommunitiesRef b = a;  // ref copy, no buffer copy
  EXPECT_EQ(&a.get(), &b.get());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[1], 2u);
}

TEST(CommunitiesRefTest, ContentEqualityAcrossDistinctBuffers) {
  const CommunitiesRef a(Communities{7, 8});
  const CommunitiesRef b(Communities{7, 8});
  const CommunitiesRef c(Communities{7, 9});
  EXPECT_NE(&a.get(), &b.get());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, (Communities{7, 8}));
}

// ---- One-pointer refs ----------------------------------------------------

// PathRef and CommunitiesRef are one pointer to an intrusively counted
// buffer. Copies made and dropped on several threads at once must share the
// one buffer and leave it alive for the last holder (CI runs this under
// tsan; asan catches a double free or a use after free).
TEST(SharedVecTest, CopiesAcrossThreadsShareOneBuffer) {
  static_assert(sizeof(bgp::PathRef) == sizeof(void*));
  static_assert(sizeof(CommunitiesRef) == sizeof(void*));
  auto path = std::make_unique<bgp::PathRef>(AsPath{1, 2, 3});
  const AsPath* buffer = &path->get();
  std::atomic<int> mismatches{0};
  std::vector<bgp::PathRef> kept(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kept.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20000; ++i) {
        bgp::PathRef copy = *path;
        const bgp::PathRef moved = std::move(copy);
        if (&moved.get() != buffer) ++mismatches;
      }
      kept[t] = *path;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  path.reset();  // the kept copies are now the only holders
  for (const bgp::PathRef& p : kept) {
    EXPECT_EQ(&p.get(), buffer);
    EXPECT_EQ(p, (AsPath{1, 2, 3}));
  }
}

// ---- Adj-RIB-Out tag encoding ------------------------------------------

class AdjOutTest : public ::testing::Test {
 protected:
  AdjOutTest() : topo_(topo::make_fig2_topology()) {}

  topo::Fig2Topology topo_;
};

TEST_F(AdjOutTest, FreshSpeakerIsNeverAdvertised) {
  BgpSpeaker sp(topo_.b, topo_.graph);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  EXPECT_EQ(sp.adj_out_state(p, topo_.a),
            BgpSpeaker::AdjOutState::kNeverAdvertised);
  EXPECT_FALSE(sp.adj_out_unit(p, topo_.a).has_value());
}

TEST_F(AdjOutTest, RecordAdvertisedRoundTrips) {
  BgpSpeaker sp(topo_.b, topo_.graph);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  BgpSpeaker::ExportUnit unit{AsPath{topo_.b, topo_.o},
                              Communities{42},
                              bgp::AvoidHint{topo_.a, std::nullopt}};
  sp.record_advertised(p, topo_.a, unit);
  EXPECT_EQ(sp.adj_out_state(p, topo_.a), BgpSpeaker::AdjOutState::kAdvertised);
  const auto got = sp.adj_out_unit(p, topo_.a);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, unit);
  // Other sessions are untouched.
  EXPECT_EQ(sp.adj_out_state(p, topo_.c),
            BgpSpeaker::AdjOutState::kNeverAdvertised);
}

TEST_F(AdjOutTest, RecordingNulloptMeansWithdrawn) {
  BgpSpeaker sp(topo_.b, topo_.graph);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  sp.record_advertised(p, topo_.a,
                       BgpSpeaker::ExportUnit{AsPath{topo_.b, topo_.o}, {}, {}});
  sp.record_advertised(p, topo_.a, std::nullopt);
  // Withdrawn is distinct from never-advertised: the engine must not send a
  // withdrawal on a session that never saw the prefix, but must on this one.
  EXPECT_EQ(sp.adj_out_state(p, topo_.a), BgpSpeaker::AdjOutState::kWithdrawn);
  EXPECT_FALSE(sp.adj_out_unit(p, topo_.a).has_value());
}

TEST_F(AdjOutTest, ExportUnitsShareOnePrependedBuffer) {
  // Delta encoding: after convergence every kAdvertised slot for a
  // re-exported route aliases the speaker's single per-prefix export cache.
  util::Scheduler sched;
  bgp::BgpEngine engine(topo_.graph, sched);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{topo_.o};
  engine.originate(topo_.o, p, policy);
  sched.run();

  const BgpSpeaker& b = engine.speaker(topo_.b);
  std::set<const bgp::AsPath*> buffers;
  std::size_t advertised = 0;
  for (const auto& n : topo_.graph.neighbors(topo_.b)) {
    if (b.adj_out_state(p, n.id) != BgpSpeaker::AdjOutState::kAdvertised) {
      continue;
    }
    ++advertised;
    buffers.insert(&b.adj_out_unit(p, n.id)->path.get());
  }
  ASSERT_GE(advertised, 2u) << "fig2 B re-exports to several neighbors";
  EXPECT_EQ(buffers.size(), 1u) << "all Adj-RIB-Out slots share one buffer";
}

// ---- rib_memory accounting ---------------------------------------------

TEST_F(AdjOutTest, RibMemoryCountsRoutesAndBytes) {
  util::Scheduler sched;
  bgp::BgpEngine engine(topo_.graph, sched);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{topo_.o};
  engine.originate(topo_.o, p, policy);
  sched.run();

  const auto before = engine.rib_memory();
  EXPECT_GT(before.bytes, 0u);
  EXPECT_GT(before.routes, 0u);
  EXPECT_GT(before.adj_out_slots, 0u);
  EXPECT_GE(before.prefix_states, topo_.graph.num_ases());

  // Per-speaker parts sum to the totals (minus engine-side tables).
  std::size_t routes = 0;
  for (const AsId as : topo_.graph.as_ids()) {
    routes += engine.speaker(as).rib_memory().routes;
  }
  EXPECT_EQ(routes, before.routes);

  // A second prefix strictly grows the accounting.
  engine.originate(topo_.o, topo::AddressPlan::sentinel_prefix(topo_.o),
                   policy);
  sched.run();
  const auto after = engine.rib_memory();
  EXPECT_GT(after.bytes, before.bytes);
  EXPECT_GT(after.routes, before.routes);
}

// ---- Prefix-major store ----------------------------------------------------

// The same script of updates drives a standalone speaker (its own one-row
// store) and the engine-attached speaker of the same AS (one row of the
// engine's store, among every other AS's rows): both must hold the same
// Adj-RIB-In, best route, exports and Adj-RIB-Out after every step.
TEST(RibStoreTest, StandaloneAndEngineAttachedSpeakersAgree) {
  const topo::Fig2Topology t = topo::make_fig2_topology();
  AsId x = topo::kInvalidAs;
  for (const AsId as : t.graph.as_ids()) {
    if (x == topo::kInvalidAs ||
        t.graph.neighbors(as).size() > t.graph.neighbors(x).size()) {
      x = as;
    }
  }
  std::vector<AsId> nbrs;
  for (const auto& n : t.graph.neighbors(x)) nbrs.push_back(n.id);
  std::sort(nbrs.begin(), nbrs.end());
  ASSERT_GE(nbrs.size(), 3u);
  const AsId origin = t.o == x ? t.f : t.o;

  util::Scheduler sched;
  bgp::BgpEngine engine(t.graph, sched);
  // Another AS's state in the engine's store next to x's.
  bgp::OriginPolicy other;
  other.default_path = AsPath{origin};
  engine.originate(origin, topo::AddressPlan::sentinel_prefix(origin), other);
  sched.run();
  BgpSpeaker& attached = engine.speaker(x);
  BgpSpeaker standalone(x, t.graph);

  const Prefix p = topo::AddressPlan::production_prefix(origin);
  const auto send = [&](AsId from, bgp::MsgType type, AsPath path,
                        Communities comm = {},
                        std::optional<bgp::AvoidHint> hint = std::nullopt) {
    bgp::UpdateMessage msg;
    msg.type = type;
    msg.from = from;
    msg.to = x;
    msg.prefix = p;
    msg.path = std::move(path);
    msg.communities = std::move(comm);
    msg.avoid_hint = hint;
    EXPECT_EQ(attached.process_update(msg, 1.0),
              standalone.process_update(msg, 1.0));
  };
  const auto agree = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(attached.rib_in(p), standalone.rib_in(p));
    const bgp::Route* a = attached.best_route(p);
    const bgp::Route* b = standalone.best_route(p);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      EXPECT_EQ(*a, *b);
    }
    for (const AsId n : nbrs) {
      const auto unit = attached.export_path(p, n);
      EXPECT_EQ(unit, standalone.export_path(p, n)) << "to " << n;
      attached.record_advertised(p, n, unit);
      standalone.record_advertised(p, n, unit);
      EXPECT_EQ(attached.adj_out_state(p, n), standalone.adj_out_state(p, n));
      EXPECT_EQ(attached.adj_out_unit(p, n), standalone.adj_out_unit(p, n));
    }
    EXPECT_EQ(attached.known_prefixes().size(),
              standalone.known_prefixes().size() + 1)
        << "the attached speaker also holds the engine's sentinel";
  };

  send(nbrs[0], bgp::MsgType::kAnnounce, AsPath{nbrs[0], origin});
  send(nbrs[1], bgp::MsgType::kAnnounce, AsPath{nbrs[1], nbrs[2], origin},
       Communities{7, 8});
  agree("announce");
  // Poison: x in the path is a loop, so nbrs[0]'s route is withdrawn.
  send(nbrs[0], bgp::MsgType::kAnnounce, AsPath{nbrs[0], x, origin});
  agree("poison");
  send(nbrs[2], bgp::MsgType::kAnnounce, AsPath{nbrs[2], origin}, {},
       bgp::AvoidHint{nbrs[2], std::nullopt});
  agree("hint");
  send(nbrs[1], bgp::MsgType::kWithdraw, {});
  send(nbrs[2], bgp::MsgType::kWithdraw, {});
  agree("withdraw");
  send(nbrs[1], bgp::MsgType::kAnnounce,
       AsPath{nbrs[1], origin, origin, origin});
  agree("re-announce");

  // Origination sits in the sparse origin table of the same record.
  bgp::OriginPolicy own;
  own.default_path = AsPath{x};
  own.per_neighbor[nbrs[0]] = std::nullopt;
  own.communities = {42};
  attached.set_origin_policy(p, own);
  standalone.set_origin_policy(p, own);
  agree("originate");
  const topo::Ipv4 host = p.addr() + 1;
  EXPECT_EQ(attached.fib_lookup(host).local, standalone.fib_lookup(host).local);
  attached.clear_origin_policy(p);
  standalone.clear_origin_policy(p);
  EXPECT_FALSE(attached.originates(p));
  agree("clear origin");

  // A best route's address survives the interning of later prefixes: each
  // record's per-AS array is sized once and never moves.
  const bgp::Route* best = attached.best_route(p);
  ASSERT_NE(best, nullptr);
  const bgp::Route copy = *best;
  for (std::uint32_t i = 0; i < 64; ++i) {
    engine.withdraw(origin, Prefix(0x0a000000u + (i << 8), 24));
  }
  sched.run();
  EXPECT_EQ(attached.best_route(p), best);
  EXPECT_EQ(*best, copy);
}

// A snapshot writes every (AS, prefix) state in a canonical order, so
// save -> load -> save must reproduce the blob byte for byte: over origin
// policies, avoid hints, damping state and a prefix withdrawn after import
// (its 0-wide and degree-wide tables both).
TEST(RibStoreTest, SnapshotSaveLoadSaveIsByteIdentical) {
  const topo::GeneratedTopology topo = topo::generate_internet_scale(
      {.total_ases = 300, .num_tier1 = 5, .seed = 17});
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  for (const AsId as : topo.graph.as_ids()) {
    engine.speaker(as).mutable_config().damping_enabled = true;
  }
  ASSERT_GE(topo.stubs.size(), 3u);
  const AsId o1 = topo.stubs.front();
  const AsId o2 = topo.stubs.back();
  const AsId o3 = topo.stubs[topo.stubs.size() / 2];
  const Prefix p1 = topo::AddressPlan::production_prefix(o1);
  const Prefix p2 = topo::AddressPlan::production_prefix(o2);
  const Prefix p3 = topo::AddressPlan::production_prefix(o3);

  bgp::OriginPolicy policy;
  policy.default_path = AsPath{o1, o1, o1};
  policy.per_neighbor[topo.graph.providers(o1).front()] = AsPath{o1};
  policy.communities = {11, 22};
  engine.originate(o1, p1, policy);
  bgp::OriginPolicy hinted;
  hinted.default_path = AsPath{o2};
  hinted.avoid_hint =
      bgp::AvoidHint{topo.graph.providers(o2).front(), std::nullopt};
  engine.originate(o2, p2, hinted);
  bgp::OriginPolicy plain;
  plain.default_path = AsPath{o3};
  engine.originate(o3, p3, plain);
  sched.run();
  engine.withdraw(o3, p3);
  sched.run();

  std::size_t hinted_routes = 0;
  for (const AsId as : topo.graph.as_ids()) {
    for (const bgp::Route& r : engine.speaker(as).rib_in(p2)) {
      hinted_routes += r.avoid_hint.has_value();
    }
  }
  EXPECT_GT(hinted_routes, 0u);
  EXPECT_EQ(engine.best_route(topo.graph.as_ids().front(), p3), nullptr);

  util::BinWriter w1;
  engine.save_snapshot(w1);
  const std::string blob = w1.take();

  util::Scheduler sched2;
  bgp::BgpEngine restored(topo.graph, sched2);
  util::BinReader r(blob);
  restored.load_snapshot(r);
  EXPECT_TRUE(r.at_end());
  util::BinWriter w2;
  restored.save_snapshot(w2);
  EXPECT_EQ(w2.blob().size(), blob.size());
  EXPECT_TRUE(w2.blob() == blob) << "restored engine re-serializes differently";
  for (const AsId as : topo.graph.as_ids()) {
    for (const Prefix& p : {p1, p2, p3}) {
      const bgp::Route* a = engine.best_route(as, p);
      const bgp::Route* b = restored.best_route(as, p);
      ASSERT_EQ(a == nullptr, b == nullptr) << "AS " << as;
      if (a != nullptr) {
        EXPECT_EQ(*a, *b) << "AS " << as;
      }
    }
  }

  // Loading over live state replaces it wholesale.
  util::BinReader again(blob);
  engine.load_snapshot(again);
  util::BinWriter w3;
  engine.save_snapshot(w3);
  EXPECT_TRUE(w3.blob() == blob);
}

// The structural footprint of a converged all-/24 world, per resident
// route. Pinned 5% above the figure of the prefix-major layout with
// one-pointer path/community refs (222 B); the speaker-major layout it
// replaced measured 454 B here.
TEST(RibStoreTest, BytesPerRouteStaysUnderCeiling) {
  workload::SimWorld world(workload::SimWorld::small_config());
  world.converge();
  const auto mem = world.engine().rib_memory();
  ASSERT_GT(mem.routes, 0u);
  const double bytes_per_route =
      static_cast<double>(mem.bytes) / static_cast<double>(mem.routes);
  EXPECT_LT(bytes_per_route, 233.0);
}

// ---- Differential + invariants at internet-scale shape ------------------

// ~600 ASes with the internet-scale generator's wiring (preferential
// attachment, peering, multihoming) — big enough to exercise every storage
// path (lazy sizing, sparse hints, withdraw-and-reannounce, damping off).
class InternetScaleDifferentialTest : public ::testing::Test {
 protected:
  InternetScaleDifferentialTest()
      : topo_(topo::generate_internet_scale({.total_ases = 600,
                                             .num_tier1 = 6,
                                             .seed = 911})),
        engine_(topo_.graph, sched_),
        ref_(topo_.graph) {}

  void originate_both(AsId as, const Prefix& prefix,
                      const bgp::OriginPolicy& policy) {
    engine_.originate(as, prefix, policy);
    ref_.originate(as, prefix, policy);
  }

  void converge_and_compare(const std::vector<Prefix>& prefixes) {
    sched_.run();
    ASSERT_TRUE(sched_.empty());
    for (const AsId id : topo_.graph.as_ids()) {
      ref_.config(id) = engine_.speaker(id).config();
    }
    ASSERT_TRUE(ref_.solve(512)) << "reference did not stabilize";
    for (const Prefix& p : prefixes) {
      for (const AsId as : topo_.graph.as_ids()) {
        const bgp::Route* got = engine_.best_route(as, p);
        const check::RefRoute* want = ref_.best_route(as, p);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "presence mismatch at AS " << as << " for " << p.str();
        if (got == nullptr) continue;
        ASSERT_EQ(got->path, want->path) << "path mismatch at AS " << as;
        ASSERT_EQ(got->neighbor, want->neighbor)
            << "neighbor mismatch at AS " << as;
        ASSERT_EQ(got->communities, want->communities)
            << "communities mismatch at AS " << as;
      }
    }
    const auto violations = check::InvariantChecker(engine_).check_all();
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: "
        << (violations.empty() ? "" : violations.front().detail);
  }

  topo::GeneratedTopology topo_;
  util::Scheduler sched_;
  bgp::BgpEngine engine_;
  check::ReferenceBgp ref_;
};

TEST_F(InternetScaleDifferentialTest, PlainOriginationAgrees) {
  ASSERT_FALSE(topo_.stubs.empty());
  const AsId origin = topo_.stubs.front();
  const Prefix p = topo::AddressPlan::production_prefix(origin);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{origin};
  policy.communities = Communities{100, 200};
  originate_both(origin, p, policy);
  converge_and_compare({p});
}

TEST_F(InternetScaleDifferentialTest, PoisonedAndHintedOriginationsAgree) {
  ASSERT_GE(topo_.stubs.size(), 2u);
  const AsId origin = topo_.stubs.front();
  const AsId other = topo_.stubs.back();
  const Prefix p1 = topo::AddressPlan::production_prefix(origin);
  const Prefix p2 = topo::AddressPlan::production_prefix(other);

  // Poison the origin's first provider: O-X-O routes around X.
  const AsId poisoned = topo_.graph.providers(origin).front();
  bgp::OriginPolicy poison;
  poison.default_path = bgp::poisoned_path(origin, {poisoned}, 3);
  originate_both(origin, p1, poison);

  // Second origin attaches an AVOID_PROBLEM hint (sparse hint tables).
  bgp::OriginPolicy hinted;
  hinted.default_path = AsPath{other};
  hinted.avoid_hint = bgp::AvoidHint{topo_.graph.providers(other).front(),
                                     std::nullopt};
  originate_both(other, p2, hinted);
  converge_and_compare({p1, p2});
}

TEST_F(InternetScaleDifferentialTest, WithdrawReannounceAgrees) {
  const AsId origin = topo_.stubs.front();
  const Prefix p = topo::AddressPlan::production_prefix(origin);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{origin};
  originate_both(origin, p, policy);
  sched_.run();
  engine_.withdraw(origin, p);
  ref_.withdraw(origin, p);
  sched_.run();
  // Re-announce with a prepended path: exercises kWithdrawn -> kAdvertised.
  bgp::OriginPolicy prepended;
  prepended.default_path = AsPath{origin, origin, origin};
  originate_both(origin, p, prepended);
  converge_and_compare({p});
}

}  // namespace
}  // namespace lg
