#include "fleet/service_plane.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "bgp/snapshot.h"
#include "bgp/types.h"
#include "core/remediation.h"
#include "fleet/checkpoint.h"
#include "obs/trace.h"
#include "util/codec.h"
#include "util/env_knobs.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "workload/outage_stream.h"
#include "workload/sim_world.h"

namespace lg::fleet {

namespace {

constexpr std::uint32_t kShardTag = 0x53435653;  // "SVCS"
constexpr std::uint32_t kPlaneTag = 0x4c505653;  // "SVPL"
constexpr std::uint32_t kFileTag = 0x46435653;   // "SVCF"
// v2: outcome array grew a kCaptive slot (lg::adversary).
constexpr std::uint32_t kVersion = 2;

constexpr std::uint8_t kNoSlot = 0xff;
constexpr std::uint32_t kFreeSlot = 0xffffffffu;

// Per-monitored-client detection state. Isolation runs once per client per
// incident and its verdict is shared by every serviced prefix mapped here.
struct ClientState {
  MonitoredTarget info;
  // AS-level baseline path from the origin, captured once at setup; blame is
  // the first baseline AS missing from the current responsive path.
  std::vector<AsId> baseline;
  std::uint16_t fails = 0;
  bool down = false;
  bool isolated = false;
  AsId blamed = topo::kInvalidAs;
};

// Per-serviced-prefix episode machine: a few dozen POD bytes, so a 100k
// universe costs megabytes, not RIBs.
struct PrefixState {
  EpisodeState state = EpisodeState::kMonitor;
  std::uint8_t slot = kNoSlot;
  std::uint16_t flap_count = 0;
  std::uint16_t verify_fails = 0;
  std::uint16_t probe_deferrals = 0;
  std::uint16_t budget_deferrals = 0;
  double opened_at = -1.0;
  double remediated_at = -1.0;
  double holddown_until = -1.0;
  double last_closed_at = -1e18;
  obs::SpanId span = 0;
};

struct ActiveFailure {
  dp::FailureId id = 0;
  double until = 0.0;
};

// A bounded report ring: the last `capacity` entries pushed plus the
// lifetime push count (capacity 0 keeps only the count), so memory stays
// flat however long the stream runs.
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

  void push(const T& v) {
    if (capacity_ != 0) {
      if (slots_.size() < capacity_) slots_.resize(capacity_);
      slots_[total_ % capacity_] = v;
    }
    ++total_;
  }

  // Held entries, oldest first.
  std::vector<T> held() const {
    std::vector<T> out;
    const std::size_t n = held_count();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(slots_[(total_ - n + i) % capacity_]);
    }
    return out;
  }

  // Field list (util/codec.h): the lifetime count, then the held entries
  // oldest first. A load puts each entry back in the slot it occupied, so
  // the next push lands where the original process would have put it.
  // Self is const BoundedRing on save.
  template <typename Io, typename Self, typename Fn>
  static void fields(Io& io, Self& ring, Fn&& entry) {
    io.u64(ring.total_);
    std::vector<T> held;
    if constexpr (!Io::kReading) held = ring.held();
    io.vec(held, entry);
    if constexpr (Io::kReading) {
      if (held.size() != ring.held_count()) {
        throw std::runtime_error(
            "service checkpoint: ring contents do not match its count "
            "(different config?)");
      }
      ring.slots_.assign(ring.capacity_, T{});
      const std::size_t n = held.size();
      for (std::size_t i = 0; i < n; ++i) {
        ring.slots_[(ring.total_ - n + i) % ring.capacity_] = held[i];
      }
    }
  }

 private:
  std::size_t held_count() const noexcept {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(total_, capacity_));
  }

  std::size_t capacity_;
  std::vector<T> slots_;
  std::uint64_t total_ = 0;
};

// Field list for one injected failure; F is const on save.
template <typename Io, typename F>
void failure_fields(Io& io, F& f) {
  io.opt(f.at_as, [&](auto& as) { io.u32(as); });
  io.opt(f.at_link, [&](auto& k) { bgp::link_fields(io, k); });
  io.opt(f.direction_from, [&](auto& as) { io.u32(as); });
  io.opt(f.toward_as, [&](auto& as) { io.u32(as); });
}

workload::OutageStreamConfig stream_config(const ServiceConfig& cfg,
                                           std::uint64_t seed) {
  workload::OutageStreamConfig sc;
  sc.rate_per_hour = cfg.outages_per_hour / static_cast<double>(cfg.shards);
  sc.duration_cap_seconds = cfg.outage_duration_cap_seconds;
  sc.seed = seed ^ 0x6f757467ULL;
  return sc;
}

class ServicePlane {
 public:
  ServicePlane(Shard& shard, const ServiceConfig& cfg)
      : world_(&shard.world),
        cfg_(&cfg),
        shard_(&shard),
        origin_(shard.origin),
        rng_(shard.seed ^ 0x73766370ULL, 0x6469726eULL),
        stream_(stream_config(cfg, shard.seed)),
        production_(topo::AddressPlan::production_prefix(origin_)),
        slots_(std::min<std::size_t>(cfg.slots, 15)),
        slot_owner_(slots_, kFreeSlot),
        records_(cfg.record_ring),
        latencies_(cfg.latency_ring),
        spans_(&obs::SpanRegistry::current()),
        trace_(&obs::TraceRing::current()) {
    auto& metrics = obs::MetricsRegistry::current();
    c_opened_ = &metrics.counter("lg.service.episodes_opened");
    c_closed_ = &metrics.counter("lg.service.episodes_closed");
    c_remediated_ = &metrics.counter("lg.service.remediated");
    c_resolved_self_ = &metrics.counter("lg.service.resolved_self");
    c_announce_deferred_ = &metrics.counter("lg.service.announce_deferrals");
    c_probe_deferred_ = &metrics.counter("lg.service.probe_deferrals");
    g_open_ = &metrics.gauge("lg.service.open_episodes");
    d_ttr_ = &metrics.distribution("lg.service.time_to_remediate");
    providers_ = world_->graph().providers(origin_);
    std::sort(providers_.begin(), providers_.end());
  }

  // Fresh-run setup: baseline announcements, client enumeration, baseline
  // path capture, universe construction. A restored run skips this — load()
  // reinstates the same state from the blob instead.
  void setup() {
    core::Remediator rem(world_->engine(), origin_, cfg_->episode.remediation);
    rem.announce_baseline();
    world_->converge();
    TargetTable ctable(cfg_->clients, cfg_->shards);
    const auto targets = TargetTable::enumerate(
        *world_, origin_, ctable.shard_quota(shard_->index));
    clients_.reserve(targets.size());
    const Ipv4 reply = topo::AddressPlan::production_host(origin_);
    for (const auto& t : targets) {
      ClientState cl;
      cl.info = t;
      cl.baseline =
          world_->prober().traceroute(origin_, t.addr, reply).responsive_as_path();
      clients_.push_back(std::move(cl));
    }
    build_universe();
    culprits_ = world_->feed_ases(20);
  }

  void tick(double now) {
    ++ticks_;
    expire_failures(now);
    inject_due(now);
    ping_clients();
    for (std::size_t i = 0; i < universe_.size(); ++i) step(i, now);
    g_open_->set(static_cast<double>(open_));
  }

  std::uint64_t ticks() const noexcept { return ticks_; }
  bool drained() const noexcept { return open_ == 0 && active_.empty(); }

  void fill_report(ServiceShardReport& report) const {
    report.clients = clients_.size();
    report.prefixes = universe_.size();
    report.ticks = ticks_;
    report.outages_injected = outages_injected_;
    report.episodes_opened = opened_;
    report.episodes_closed = closed_;
    report.outcomes = outcomes_;
    report.fingerprint = fnv_.state;
    report.slot_leases = slot_leases_;
    report.slot_waits = slot_waits_;
    report.open_at_end = open_;
    report.records = records_.held();
    report.remediate_latencies = latencies_.held();
  }

  // ---- checkpoint ----

  // The plane's field list (util/codec.h). Self is const ServicePlane on
  // save; a load rebuilds the universe from the restored clients, checks
  // the blob against this shard's config, and re-derives the culprit feed.
  template <typename Io, typename Self>
  static void fields(Io& io, Self& self) {
    io.magic(kPlaneTag, kVersion);
    std::uint64_t shard = self.shard_->index;
    AsId origin = self.origin_;
    io.u64(shard);
    io.u32(origin);
    if constexpr (Io::kReading) {
      if (shard != self.shard_->index) {
        throw std::runtime_error("service checkpoint: blob is for shard " +
                                 std::to_string(shard) + ", restoring shard " +
                                 std::to_string(self.shard_->index));
      }
      if (origin != self.origin_) {
        throw std::runtime_error(
            "service checkpoint: origin mismatch (different topology/config?)");
      }
    }
    io.u64(self.ticks_);
    io.u64(self.outages_injected_);
    rng_section(io, self.rng_);
    if constexpr (Io::kReading) {
      self.stream_.load(io);
    } else {
      self.stream_.save(io);
    }
    io.vec(self.clients_, [&](auto& cl) {
      io.u32(cl.info.addr);
      io.u32(cl.info.as);
      io.f64(cl.info.weight);
      io.vec(cl.baseline, [&](auto& as) { io.u32(as); });
      io.u32(cl.fails);
      io.b(cl.down);
      io.b(cl.isolated);
      io.u32(cl.blamed);
    });
    if constexpr (Io::kReading) self.build_universe();
    io.vec(self.states_, [&](auto& st) {
      io.u8(st.state);
      io.u8(st.slot);
      io.u32(st.flap_count);
      io.u32(st.verify_fails);
      io.u32(st.probe_deferrals);
      io.u32(st.budget_deferrals);
      io.f64(st.opened_at);
      io.f64(st.remediated_at);
      io.f64(st.holddown_until);
      io.f64(st.last_closed_at);
      io.u64(st.span);
    });
    io.vec(self.slot_owner_, [&](auto& owner) { io.u32(owner); });
    if constexpr (Io::kReading) self.check_restored_slots();
    io.vec(self.active_, [&](auto& a) {
      io.u64(a.id);
      io.f64(a.until);
    });
    io.u64(self.open_);
    io.u64(self.opened_);
    io.u64(self.closed_);
    for (auto& o : self.outcomes_) io.u64(o);
    io.u64(self.fnv_.state);
    io.u64(self.slot_leases_);
    io.u64(self.slot_waits_);
    decltype(self.records_)::fields(io, self.records_, [&](auto& rec) {
      io.u32(rec.key);
      io.u32(rec.client);
      io.u32(rec.client_as);
      io.u32(rec.blamed);
      io.f64(rec.opened_at);
      io.f64(rec.remediated_at);
      io.f64(rec.closed_at);
      io.u8(rec.outcome);
      io.i64(rec.slot);
      io.u32(rec.flap_generation);
      io.u32(rec.probe_deferrals);
      io.u32(rec.budget_deferrals);
    });
    decltype(self.latencies_)::fields(io, self.latencies_,
                                      [&](auto& v) { io.f64(v); });
    if constexpr (Io::kReading) self.culprits_ = self.world_->feed_ases(20);
  }

 private:
  void build_universe() {
    TargetTable ptable(cfg_->prefixes, cfg_->shards);
    universe_ = ptable.shard_universe(shard_->index, clients_.size());
    states_.assign(universe_.size(), PrefixState{});
  }

  // A restored blob must fit this shard's universe and slot pool: every
  // leased slot is one of ours and every slot owner one of our prefixes,
  // or close_episode would index past slot_owner_.
  void check_restored_slots() const {
    if (states_.size() != universe_.size()) {
      throw std::runtime_error(
          "service checkpoint: universe size mismatch (different config?)");
    }
    if (slot_owner_.size() != slots_) {
      throw std::runtime_error(
          "service checkpoint: slot count mismatch (different config?)");
    }
    for (const PrefixState& st : states_) {
      if (st.slot != kNoSlot && st.slot >= slots_) {
        throw std::runtime_error("service checkpoint: prefix holds slot " +
                                 std::to_string(st.slot) + " of " +
                                 std::to_string(slots_) + " (corrupt blob)");
      }
    }
    for (const std::uint32_t owner : slot_owner_) {
      if (owner != kFreeSlot && owner >= universe_.size()) {
        throw std::runtime_error("service checkpoint: slot owner " +
                                 std::to_string(owner) + " outside a " +
                                 std::to_string(universe_.size()) +
                                 "-prefix universe (corrupt blob)");
      }
    }
  }

  // Physical slots 1..15 of the production /24; slot 0 would contain the
  // production host address, whose routing must stay on the baseline.
  topo::Prefix slot_prefix(std::uint8_t slot) const {
    return topo::Prefix(
        production_.addr() + (static_cast<Ipv4>(slot) + 1) * 16u, 28);
  }
  Ipv4 slot_probe_addr(std::uint8_t slot) const {
    return production_.addr() + (static_cast<Ipv4>(slot) + 1) * 16u + 1u;
  }

  void expire_failures(double now) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (active_[i].until <= now) {
        world_->failures().clear(active_[i].id);
      } else {
        active_[kept++] = active_[i];
      }
    }
    active_.resize(kept);
  }

  void inject_due(double now) {
    if (clients_.empty()) return;
    const double offset = cfg_->warmup_seconds;
    while (true) {
      const double at = offset + stream_.next_start();
      if (!(at <= now) || at > cfg_->horizon_seconds) break;
      const auto ev = stream_.next();
      dp::Failure f;
      if (!culprits_.empty()) {
        f.at_as = culprits_[rng_.uniform_u32(
            static_cast<std::uint32_t>(culprits_.size()))];
      }
      if (rng_.bernoulli(cfg_->reverse_fraction)) {
        f.toward_as = origin_;
      } else {
        f.toward_as =
            clients_[rng_.uniform_u32(
                         static_cast<std::uint32_t>(clients_.size()))]
                .info.as;
      }
      const auto id = world_->failures().inject(f);
      active_.push_back(ActiveFailure{id, at + ev.duration_seconds});
      ++outages_injected_;
    }
  }

  bool ping_client(const ClientState& cl, Ipv4 reply_to) {
    // The paper sends ping pairs; one success counts.
    auto once = [&] {
      return world_->prober().ping(origin_, cl.info.addr, reply_to).replied;
    };
    return once() || once();
  }

  void ping_clients() {
    const Ipv4 reply = topo::AddressPlan::production_host(origin_);
    for (ClientState& cl : clients_) {
      if (ping_client(cl, reply)) {
        cl.fails = 0;
        cl.down = false;
        cl.isolated = false;
        cl.blamed = topo::kInvalidAs;
      } else {
        if (cl.fails < 0xffff) ++cl.fails;
        cl.down = cl.fails >= cfg_->episode.fail_threshold;
      }
    }
  }

  // One shared isolation per client incident: traceroute toward the client
  // and blame the first baseline AS missing from the current responsive
  // path — a unidirectional failure truncates the responsive path at the
  // culprit's predecessor in either direction.
  bool try_isolate(ClientState& cl, double now) {
    if (!shard_->admission.try_admit(now)) {
      c_probe_deferred_->inc();
      trace_->record(now, obs::TraceKind::kAdmissionDeferred, cl.info.addr);
      return false;
    }
    auto& budget = world_->prober().budget();
    const std::uint64_t before = budget.total();
    const auto tr = world_->prober().traceroute(
        origin_, cl.info.addr, topo::AddressPlan::production_host(origin_));
    shard_->admission.settle(now,
                             static_cast<double>(budget.total() - before));
    const auto cur = tr.responsive_as_path();
    cl.blamed = topo::kInvalidAs;
    for (const AsId as : cl.baseline) {
      if (as == origin_ || as == cl.info.as) continue;
      if (std::find(cur.begin(), cur.end(), as) == cur.end()) {
        cl.blamed = as;
        break;
      }
    }
    cl.isolated = true;
    return true;
  }

  // Selective announcement of a leased slot /28 (§3.1.2 / Fig. 3). The
  // production /24 stays on the baseline and covers the slot — the
  // per-prefix sentinel. When the blamed AS is one of the origin's own
  // providers, the slot is simply withheld from it; otherwise the blamed AS
  // is poisoned into the slot's path for every provider.
  void announce_slot(std::uint8_t slot, AsId blamed) {
    const std::size_t len =
        std::max<std::size_t>(cfg_->episode.remediation.baseline_prepend, 3);
    bgp::OriginPolicy pol;
    if (std::binary_search(providers_.begin(), providers_.end(), blamed)) {
      pol.default_path = bgp::PathRef(bgp::baseline_path(origin_, len));
      pol.per_neighbor[blamed] = std::nullopt;
    } else {
      pol.default_path =
          bgp::PathRef(bgp::poisoned_path(origin_, {blamed}, len));
    }
    world_->engine().originate(origin_, slot_prefix(slot), std::move(pol));
  }

  std::uint8_t find_free_slot() const {
    for (std::size_t s = 0; s < slot_owner_.size(); ++s) {
      if (slot_owner_[s] == kFreeSlot) return static_cast<std::uint8_t>(s);
    }
    return kNoSlot;
  }

  void open_episode(std::size_t i, double now) {
    PrefixState& st = states_[i];
    st.flap_count =
        (now - st.last_closed_at <= cfg_->episode.flap_window_seconds)
            ? static_cast<std::uint16_t>(st.flap_count + 1)
            : 0;
    st.state = EpisodeState::kIsolate;
    st.slot = kNoSlot;
    st.verify_fails = 0;
    st.probe_deferrals = 0;
    st.budget_deferrals = 0;
    st.opened_at = now;
    st.remediated_at = -1.0;
    const ClientState& cl = clients_[universe_[i].client];
    st.span = spans_->begin(now, "service.episode", 0, cl.info.addr,
                            universe_[i].key);
    trace_->record(now, obs::TraceKind::kEpisodeOpened, cl.info.addr,
                   universe_[i].key);
    ++opened_;
    ++open_;
    c_opened_->inc();
  }

  void close_episode(std::size_t i, double now, EpisodeOutcome outcome) {
    PrefixState& st = states_[i];
    const ClientState& cl = clients_[universe_[i].client];
    if (st.slot != kNoSlot) {
      // Reverting is free by convention: the budget bounds poison churn,
      // never the restoration of the baseline.
      world_->engine().withdraw(origin_, slot_prefix(st.slot));
      slot_owner_[st.slot] = kFreeSlot;
    }
    ServiceEpisodeRecord rec;
    rec.key = universe_[i].key;
    rec.client = cl.info.addr;
    rec.client_as = cl.info.as;
    rec.blamed = outcome == EpisodeOutcome::kNoBlame ? topo::kInvalidAs
                                                     : cl.blamed;
    rec.opened_at = st.opened_at;
    rec.remediated_at = st.remediated_at;
    rec.closed_at = now;
    rec.outcome = outcome;
    rec.slot = st.slot == kNoSlot ? -1 : static_cast<std::int16_t>(st.slot);
    rec.flap_generation = st.flap_count;
    rec.probe_deferrals = st.probe_deferrals;
    rec.budget_deferrals = st.budget_deferrals;
    push_record(rec);
    if (st.remediated_at >= 0.0 &&
        outcome == EpisodeOutcome::kRemediated) {
      const double ttr = st.remediated_at - st.opened_at;
      d_ttr_->observe(ttr);
      latencies_.push(ttr);
      c_remediated_->inc();
    }
    if (outcome == EpisodeOutcome::kResolvedSelf) c_resolved_self_->inc();
    outcomes_[static_cast<std::size_t>(outcome)] += 1;
    ++closed_;
    c_closed_->inc();
    trace_->record(now, obs::TraceKind::kEpisodeClosed, cl.info.addr,
                   universe_[i].key, static_cast<double>(outcome));
    if (st.span != 0) {
      spans_->annotate(st.span, "outcome",
                       static_cast<double>(static_cast<int>(outcome)));
      spans_->end(st.span, now);
    }
    st.span = 0;
    st.slot = kNoSlot;
    st.last_closed_at = now;
    st.holddown_until =
        now + EpisodeManager::holddown_duration(cfg_->episode, st.flap_count);
    st.state = EpisodeState::kHolddown;
    --open_;
  }

  void step(std::size_t i, double now) {
    PrefixState& st = states_[i];
    ClientState& cl = clients_[universe_[i].client];
    switch (st.state) {
      case EpisodeState::kMonitor:
        if (cl.down) open_episode(i, now);
        break;
      case EpisodeState::kHolddown:
        if (now >= st.holddown_until) {
          st.state = EpisodeState::kMonitor;
          if (cl.down) open_episode(i, now);
        }
        break;
      case EpisodeState::kSuspect:  // unused by the plane; fall through
      case EpisodeState::kIsolate:
        if (!cl.down) {
          close_episode(i, now, EpisodeOutcome::kResolvedSelf);
          break;
        }
        if (!cl.isolated) {
          if (!try_isolate(cl, now)) {
            if (st.probe_deferrals < 0xffff) ++st.probe_deferrals;
            break;
          }
        }
        if (cl.blamed == topo::kInvalidAs) {
          close_episode(i, now, EpisodeOutcome::kNoBlame);
        } else {
          st.state = EpisodeState::kRemediate;
        }
        break;
      case EpisodeState::kRemediate: {
        if (!cl.down) {
          close_episode(i, now, EpisodeOutcome::kResolvedSelf);
          break;
        }
        const std::uint8_t slot = find_free_slot();
        if (slot == kNoSlot) {
          if (st.budget_deferrals < 0xffff) ++st.budget_deferrals;
          ++slot_waits_;
          break;
        }
        if (!shard_->announce.try_announce(now)) {
          if (st.budget_deferrals < 0xffff) ++st.budget_deferrals;
          c_announce_deferred_->inc();
          trace_->record(now, obs::TraceKind::kAnnounceDeferred, cl.info.addr,
                         universe_[i].key);
          break;
        }
        slot_owner_[slot] = static_cast<std::uint32_t>(i);
        st.slot = slot;
        announce_slot(slot, cl.blamed);
        st.remediated_at = now;
        st.verify_fails = 0;
        st.state = EpisodeState::kVerify;
        ++slot_leases_;
        trace_->record(now, obs::TraceKind::kSelectivePoisonApplied,
                       cl.info.addr, cl.blamed);
        break;
      }
      case EpisodeState::kVerify:
        if (!cl.down) {
          // The original path healed — the §4.2 sentinel observation. The
          // episode was remediated and the repair is confirmed: revert.
          close_episode(i, now, EpisodeOutcome::kRemediated);
          break;
        }
        if (now - st.remediated_at > cfg_->episode.max_verify_seconds) {
          close_episode(i, now, EpisodeOutcome::kVerifyTimeout);
          break;
        }
        if (ping_client(cl, slot_probe_addr(st.slot))) {
          st.verify_fails = 0;
        } else if (++st.verify_fails >=
                   cfg_->episode.verify_fail_threshold) {
          // The remediated path never carried traffic: the blame was wrong
          // or the slot announcement cannot steer around it.
          close_episode(i, now, EpisodeOutcome::kVerifyTimeout);
        }
        break;
    }
  }

  void push_record(const ServiceEpisodeRecord& rec) {
    fnv_.u64(rec.key)
        .u64(rec.client)
        .u64(rec.blamed)
        .u64(static_cast<std::uint64_t>(rec.outcome))
        .u64(rec.flap_generation)
        .f64(rec.opened_at)
        .f64(rec.remediated_at)
        .f64(rec.closed_at);
    records_.push(rec);
  }

  workload::SimWorld* world_;
  const ServiceConfig* cfg_;
  Shard* shard_;  // budgets and identity; world_ and origin_ cache its own
  AsId origin_;
  util::Rng rng_;
  workload::OutageStream stream_;
  topo::Prefix production_;
  std::size_t slots_;
  std::vector<std::uint32_t> slot_owner_;  // prefix index or kFreeSlot
  std::vector<AsId> providers_;
  std::vector<AsId> culprits_;
  std::vector<ClientState> clients_;
  std::vector<ServicedPrefix> universe_;
  std::vector<PrefixState> states_;
  std::vector<ActiveFailure> active_;

  std::uint64_t ticks_ = 0;
  std::uint64_t outages_injected_ = 0;
  std::size_t open_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;
  std::array<std::uint64_t, 7> outcomes_{};
  util::Fnv1a64 fnv_;
  std::uint64_t slot_leases_ = 0;
  std::uint64_t slot_waits_ = 0;
  BoundedRing<ServiceEpisodeRecord> records_;
  BoundedRing<double> latencies_;

  obs::SpanRegistry* spans_;
  obs::TraceRing* trace_;
  obs::Counter* c_opened_;
  obs::Counter* c_closed_;
  obs::Counter* c_remediated_;
  obs::Counter* c_resolved_self_;
  obs::Counter* c_announce_deferred_;
  obs::Counter* c_probe_deferred_;
  obs::Gauge* g_open_;
  obs::Distribution* d_ttr_;
};

// One shard's checkpoint. Sections are applied in this order, with the
// observability registries LAST so nothing the restore path itself does
// leaks into the restored metric values. Plane is const ServicePlane on
// save.
template <typename Io, typename Plane>
void shard_fields(Io& io, Shard& shard, Plane& plane) {
  workload::SimWorld& world = shard.world;
  io.magic(kShardTag, kVersion);
  std::uint64_t blob_shard = shard.index;
  std::uint64_t blob_seed = shard.seed;
  io.u64(blob_shard);
  io.u64(blob_seed);
  if (blob_shard != shard.index || blob_seed != shard.seed) {
    throw std::runtime_error(
        "service checkpoint: shard/seed mismatch (wrong blob for this "
        "shard?)");
  }
  util::Scheduler::State ss = world.scheduler().save_state();
  io.f64(ss.now);
  io.u64(ss.executed);
  io.u64(ss.cancelled);
  io.u64(ss.compactions);
  io.u64(ss.max_pending);
  if constexpr (Io::kReading) {
    world.scheduler().restore_state(ss);
    world.engine().load_snapshot(io);
  } else {
    world.engine().save_snapshot(io);
  }
  ServicePlane::fields(io, plane);
  dp::FailureId next_id = world.failures().next_id();
  io.u64(next_id);
  auto active = world.failures().active();
  io.vec(active, [&](auto& e) {
    io.u64(e.first);
    failure_fields(io, e.second);
  });
  if constexpr (Io::kReading) {
    world.failures().restore(std::move(active), next_id);
  }
  bucket_section(io, shard.announce.bucket());
  bucket_section(io, shard.admission.bucket());
  double estimate = shard.admission.save_estimate();
  io.f64(estimate);
  if constexpr (Io::kReading) shard.admission.restore_estimate(estimate);
  measure::ProbeBudget& pb = world.prober().budget();
  io.u64(pb.pings);
  io.u64(pb.traceroute_probes);
  io.u64(pb.spoofed_pings);
  io.u64(pb.spoofed_traceroute_probes);
  io.u64(pb.option_probes);
  rng_section(io, world.responsiveness().rng());
  if constexpr (Io::kReading) {
    // Registries last: everything the restore path itself touched (converge
    // spans, scheduler metrics, setup probes) is overwritten by the
    // checkpointed truth, which already accounts for the original setup.
    load_metrics(io, obs::MetricsRegistry::current());
    load_spans(io, obs::SpanRegistry::current());
    load_trace(io, obs::TraceRing::current());
    world.sync_scheduler_baseline();
  } else {
    save_metrics(io, obs::MetricsRegistry::current());
    save_spans(io, obs::SpanRegistry::current());
    save_trace(io, obs::TraceRing::current());
  }
}

}  // namespace

ServiceConfig ServiceConfig::from_env(ServiceConfig base) {
  base.prefixes = util::env_size_knob("LG_SERVICE_PREFIXES", base.prefixes);
  base.clients = util::env_size_knob("LG_SERVICE_CLIENTS", base.clients);
  base.horizon_seconds =
      util::env_double_knob("LG_SERVICE_HORIZON", base.horizon_seconds, 1.0);
  base.tick_seconds =
      util::env_double_knob("LG_SERVICE_TICK", base.tick_seconds, 1.0);
  base.outages_per_hour = util::env_double_knob(
      "LG_SERVICE_OUTAGE_RATE", base.outages_per_hour, 0.0);
  base.announce_per_hour = util::env_double_knob(
      "LG_SERVICE_ANNOUNCE_BUDGET", base.announce_per_hour, 0.0);
  base.probe_rate_per_second = util::env_double_knob(
      "LG_SERVICE_PROBE_BUDGET", base.probe_rate_per_second, 0.0);
  return base;
}

ServiceShardReport run_service_shard(const ServiceConfig& cfg,
                                     std::size_t index, std::uint64_t seed,
                                     const ServiceRun& run) {
  // Remediation pacing is the announcement budget's job; a 30 s MRAI would
  // advance the clock past several service ticks on every converge.
  Shard shard(cfg, index, seed, /*default_mrai=*/0.0);
  workload::SimWorld& world = shard.world;
  ServiceShardReport report;
  report.take_identity(shard);
  if (shard.origin == topo::kInvalidAs) return report;  // degenerate; empty

  ServicePlane plane(shard, cfg);
  if (run.restore_blob != nullptr) {
    // Drain the construction-time announcements, then reinstate the
    // checkpointed state wholesale (engine snapshot included — the replayed
    // infrastructure announcements land in the same quiesced RIBs).
    world.converge();
    util::BinReader r(*run.restore_blob);
    shard_fields(r, shard, plane);
    if (!r.at_end()) {
      throw std::runtime_error(
          "service checkpoint: trailing bytes after the shard (corrupt blob)");
    }
  } else {
    plane.setup();
  }

  const double tick = cfg.tick_seconds;
  bool checkpointed = false;
  while (true) {
    const double t = tick * static_cast<double>(plane.ticks() + 1);
    if (t > cfg.horizon_seconds + 1e-9) break;
    if (world.scheduler().now() < t) world.scheduler().run(t);
    plane.tick(std::max(t, world.scheduler().now()));
    world.converge();
    if (run.checkpoint_at > 0.0 && t >= run.checkpoint_at) {
      util::BinWriter w;
      shard_fields(w, shard, std::as_const(plane));
      report.checkpoint = w.take();
      checkpointed = true;
      break;
    }
  }
  if (!checkpointed) {
    // Drain: no new injections (the stream is horizon-gated), active
    // failures expire, in-flight episodes settle, slots revert.
    const double drain_end = cfg.horizon_seconds + cfg.drain_cap_seconds;
    while (!plane.drained()) {
      const double t = tick * static_cast<double>(plane.ticks() + 1);
      if (t > drain_end + 1e-9) break;
      if (world.scheduler().now() < t) world.scheduler().run(t);
      plane.tick(std::max(t, world.scheduler().now()));
      world.converge();
    }
  }
  plane.fill_report(report);
  report.take_budgets(shard, world.scheduler().now());
  return report;
}

ServiceScheduler::ServiceScheduler(ServiceConfig cfg) : cfg_(std::move(cfg)) {}

ServiceResult ServiceScheduler::run_impl(
    const ServiceRun& base, const std::vector<std::string>* blobs) {
  if (blobs != nullptr && blobs->size() != cfg_.shards) {
    throw std::runtime_error(
        "service checkpoint: blob count " + std::to_string(blobs->size()) +
        " does not match shard count " + std::to_string(cfg_.shards));
  }
  return run_shards<ServiceResult>(
      cfg_, [&](std::size_t shard, std::uint64_t seed) {
        ServiceRun r = base;
        if (blobs != nullptr) r.restore_blob = &(*blobs)[shard];
        return run_service_shard(cfg_, shard, seed, r);
      });
}

ServiceResult ServiceScheduler::run() { return run_impl(ServiceRun{}, nullptr); }

ServiceResult ServiceScheduler::run_until(double checkpoint_at) {
  ServiceRun r;
  r.checkpoint_at = checkpoint_at;
  return run_impl(r, nullptr);
}

ServiceResult ServiceScheduler::resume(const std::vector<std::string>& blobs) {
  return run_impl(ServiceRun{}, &blobs);
}

void ServiceScheduler::write_checkpoint(const ServiceResult& result,
                                        const std::string& path) {
  util::BinWriter w;
  w.magic(kFileTag, kVersion);
  w.u64(result.shards.size());
  for (const auto& s : result.shards) {
    if (s.checkpoint.empty()) {
      throw std::runtime_error(
          "service checkpoint: shard " + std::to_string(s.shard) +
          " has no checkpoint blob (was the run made with run_until?)");
    }
    w.str(s.checkpoint);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  const std::string& blob = w.blob();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw std::runtime_error("write failed: " + path);
  }
}

std::vector<std::string> ServiceScheduler::read_checkpoint(
    const std::string& path, std::size_t expect_shards) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string contents = buf.str();
  util::BinReader r(contents);
  r.magic(kFileTag, kVersion);
  const std::size_t n = r.count(1);
  if (n != expect_shards) {
    throw std::runtime_error(
        "service checkpoint: file holds " + std::to_string(n) +
        " shards, config expects " + std::to_string(expect_shards));
  }
  std::vector<std::string> blobs;
  blobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) blobs.push_back(r.str());
  if (!r.at_end()) {
    throw std::runtime_error(
        "service checkpoint: trailing bytes after the last shard (corrupt "
        "file)");
  }
  return blobs;
}

std::vector<double> ServiceResult::remediate_latencies() const {
  std::vector<double> out;
  for (const auto& s : shards) {
    out.insert(out.end(), s.remediate_latencies.begin(),
               s.remediate_latencies.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ServiceResult::fingerprint() const {
  std::ostringstream os;
  for (const auto& s : shards) {
    char fnv[32];
    std::snprintf(fnv, sizeof(fnv), "%016llx",
                  static_cast<unsigned long long>(s.fingerprint));
    os << "shard " << s.shard << " origin " << s.origin << " clients "
       << s.clients << " prefixes " << s.prefixes << " ticks " << s.ticks
       << " outages " << s.outages_injected << " opened " << s.episodes_opened
       << " closed " << s.episodes_closed << " outcomes [";
    // The captive slot prints only when hit, so cooperative-run digests are
    // unchanged from before the outcome array grew it.
    const std::size_t n_outcomes =
        s.outcomes.back() == 0 ? s.outcomes.size() - 1 : s.outcomes.size();
    for (std::size_t i = 0; i < n_outcomes; ++i) {
      if (i != 0) os << ",";
      os << s.outcomes[i];
    }
    os << "] leases " << s.slot_leases << " spent ";
    append_num(os, s.announce_spent);
    os << " util ";
    append_num(os, s.announce_utilization);
    os << " fnv " << fnv << "\n";
    for (const auto& rec : s.records) {
      os << "  key " << rec.key << " " << topo::format_ipv4(rec.client)
         << " as" << rec.client_as << " "
         << episode_outcome_name(rec.outcome) << " blamed"
         << (rec.blamed == topo::kInvalidAs ? 0 : rec.blamed) << " slot"
         << rec.slot << " flap" << rec.flap_generation << " defers "
         << rec.probe_deferrals << "/" << rec.budget_deferrals << " t=[";
      append_num(os, rec.opened_at);
      os << ",";
      append_num(os, rec.remediated_at);
      os << ",";
      append_num(os, rec.closed_at);
      os << "]\n";
    }
  }
  return os.str();
}

}  // namespace lg::fleet
