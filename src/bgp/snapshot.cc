// BGP engine checkpoint/restore (see engine.h / speaker.h declarations).
//
// Format: one engine section (tag "BGEN") holding RNG state, counters, MRAI
// tables, and the per-speaker sections (tag "BSPK") in AS-index order.
// Per-prefix state is keyed by Prefix and written in ascending Prefix order,
// never by PrefixId: ids are engine-internal and a restoring engine may have
// interned its prefixes in a different order. Shared path/community buffers
// go through the SnapshotWriterPools/SnapshotReaderPools intern
// (bgp/snapshot.h) so sharing survives the round trip.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bgp/engine.h"
#include "bgp/snapshot.h"
#include "bgp/speaker.h"
#include "util/codec.h"
#include "util/rng.h"

namespace lg::bgp {

namespace {

constexpr std::uint32_t kEngineTag = 0x4e454742;   // "BGEN"
constexpr std::uint32_t kSpeakerTag = 0x4b505342;  // "BSPK"
// v2: SpeakerConfig grew the adversarial import policies (path_length_limit,
// peerlock_filter) and their rejection counters.
// v3: dense hot path. The Adj-RIB-In learned-from byte is gone (derived from
// the session's relationship), damping state is keyed by neighbor slot, and
// the fault plane's applied-seq maps are folded into the MRAI tables.
constexpr std::uint32_t kVersion = 3;

// Field lists (util/codec.h); each record parameter is const on save.

template <typename Io, typename P>
void prefix_fields(Io& io, P& p) {
  std::uint32_t addr = p.addr();
  std::uint8_t len = p.length();
  io.u32(addr);
  io.u8(len);
  if constexpr (Io::kReading) p = Prefix(addr, len);
}

template <typename Io, typename H>
void hint_fields(Io& io, H& h) {
  io.u32(h.as);
  io.opt(h.link, [&](auto& k) { link_fields(io, k); });
}

// A sparse (slot, hint) side-table entry.
template <typename Io, typename E>
void slot_hint_fields(Io& io, E& e) {
  io.u32(e.first);
  hint_fields(io, e.second);
}

template <typename Io, typename R, typename Pools>
void route_fields(Io& io, R& rt, Pools& pools) {
  prefix_fields(io, rt.prefix);
  pools.path(io, rt.path);
  io.u32(rt.neighbor);
  io.u8(rt.learned);
  pools.comm(io, rt.communities);
  io.opt(rt.avoid_hint, [&](auto& h) { hint_fields(io, h); });
}

template <typename Io, typename P, typename Pools>
void policy_fields(Io& io, P& pol, Pools& pools) {
  io.opt(pol.default_path, [&](auto& path) { pools.path(io, path); });
  // per_neighbor is a hash map: written in ascending neighbor order.
  std::vector<AsId> neighbors;
  if constexpr (!Io::kReading) {
    for (const auto& [as, _] : pol.per_neighbor) neighbors.push_back(as);
    std::sort(neighbors.begin(), neighbors.end());
  }
  std::size_t n = neighbors.size();
  io.count(n, 5);
  for (std::size_t i = 0; i < n; ++i) {
    AsId as = 0;
    std::optional<PathRef> entry;
    if constexpr (!Io::kReading) {
      as = neighbors[i];
      entry = pol.per_neighbor.at(as);
    }
    io.u32(as);
    io.opt(entry, [&](auto& path) { pools.path(io, path); });
    if constexpr (Io::kReading) pol.per_neighbor.emplace(as, std::move(entry));
  }
  io.vec(pol.communities, 4, [&](auto& c) { io.u32(c); });
  io.opt(pol.avoid_hint, [&](auto& h) { hint_fields(io, h); });
}

// A dense per-slot table is either unsized (never touched) or one entry per
// session of this speaker.
void check_width(std::size_t n, std::size_t degree, const char* table) {
  if (n != 0 && n != degree) {
    throw std::runtime_error(std::string("snapshot: ") + table +
                             " width mismatch (different topology?)");
  }
}

}  // namespace

template <typename Io, typename Self, typename Pools>
void BgpSpeaker::snapshot_fields(Io& io, Self& self, Pools& pools) {
  io.magic(kSpeakerTag, kVersion);
  AsId id = self.id_;
  io.u32(id);
  if constexpr (Io::kReading) {
    if (id != self.id_) {
      throw std::runtime_error("snapshot: speaker AS mismatch (snapshot " +
                               std::to_string(id) + ", engine " +
                               std::to_string(self.id_) + ")");
    }
  }

  // Runtime-mutable config (mutable_config() lets harnesses flip policy
  // flags after construction, so the snapshot carries them).
  auto& cfg = self.cfg_;
  io.size(cfg.loop_threshold);
  io.b(cfg.loop_detection_disabled);
  io.b(cfg.reject_customer_routes_containing_my_peers);
  io.b(cfg.has_default_route);
  io.b(cfg.strips_communities);
  io.b(cfg.honors_avoid_hints);
  io.b(cfg.damping_enabled);
  io.f64(cfg.damping_penalty_per_update);
  io.f64(cfg.damping_suppress_threshold);
  io.f64(cfg.damping_reuse_threshold);
  io.f64(cfg.damping_half_life_seconds);
  io.f64(cfg.mrai_seconds);
  io.size(cfg.path_length_limit);
  io.b(cfg.peerlock_filter);

  // Prefix states in ascending prefix order for a deterministic byte
  // stream; a load re-interns each prefix in the restoring engine.
  using State =
      std::conditional_t<std::is_const_v<Self>, const PrefixState, PrefixState>;
  std::vector<std::pair<Prefix, State*>> items;
  if constexpr (Io::kReading) {
    self.states_.clear();
  } else {
    for (PrefixId pid = 0; pid < self.states_.size(); ++pid) {
      if (self.states_[pid]) {
        items.emplace_back(self.prefixes_->prefix(pid), self.states_[pid].get());
      }
    }
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  std::size_t n_prefixes = items.size();
  io.count(n_prefixes, 8);
  for (std::size_t p = 0; p < n_prefixes; ++p) {
    Prefix prefix;
    State* stp = nullptr;
    if constexpr (!Io::kReading) std::tie(prefix, stp) = items[p];
    prefix_fields(io, prefix);
    if constexpr (Io::kReading) {
      const PrefixId pid = self.prefixes_->intern(prefix);
      if (self.find_state(pid) != nullptr) {
        throw std::runtime_error("snapshot: duplicate prefix state");
      }
      stp = &self.state_for(pid);
    }
    State& st = *stp;

    std::size_t n_in = st.in_path.size();
    io.count(n_in, 9);
    if constexpr (Io::kReading) {
      check_width(n_in, self.row_.degree, "Adj-RIB-In");
      st.in_path.resize(n_in);
      st.in_comm.resize(n_in);
      st.in_present.resize(n_in);
    }
    for (std::size_t i = 0; i < n_in; ++i) {
      pools.path(io, st.in_path[i]);
      pools.comm(io, st.in_comm[i]);
      io.u8(st.in_present[i]);
    }
    io.vec(st.in_hints, 9, [&](auto& e) { slot_hint_fields(io, e); });

    io.opt(st.best, [&](auto& rt) { route_fields(io, rt, pools); });
    bool has_origin = st.origin != nullptr;
    io.b(has_origin);
    if (has_origin) {
      if constexpr (Io::kReading) st.origin = std::make_unique<OriginState>();
      policy_fields(io, st.origin->policy, pools);
      pools.comm(io, st.origin->comm);
    }
    pools.path(io, st.export_cache);
    io.b(st.export_cache_valid);

    std::size_t n_out = st.out_tag.size();
    io.count(n_out, 9);
    if constexpr (Io::kReading) {
      check_width(n_out, self.row_.degree, "Adj-RIB-Out");
      st.out_tag.resize(n_out);
      st.out_path.resize(n_out);
      st.out_comm.resize(n_out);
    }
    for (std::size_t i = 0; i < n_out; ++i) {
      io.u8(st.out_tag[i]);
      pools.path(io, st.out_path[i]);
      pools.comm(io, st.out_comm[i]);
    }
    io.vec(st.out_hints, 9, [&](auto& e) { slot_hint_fields(io, e); });

    io.vec(st.damping, 21, [&](auto& e) {
      io.u32(e.first);
      io.f64(e.second.penalty);
      io.f64(e.second.last_update);
      io.b(e.second.suppressed);
    });
  }

  io.opt(self.forced_egress_, [&](auto& as) { io.u32(as); });
  for (auto& present : self.len_present_) io.b(present);
  io.u64(self.rejected_loop_);
  io.u64(self.rejected_peer_filter_);
  io.u64(self.rejected_pathlen_);
  io.u64(self.rejected_peerlock_);
  io.u64(self.avoid_notifications_);
}

void BgpSpeaker::save_snapshot(util::BinWriter& w,
                               SnapshotWriterPools& pools) const {
  snapshot_fields(w, *this, pools);
}

void BgpSpeaker::load_snapshot(util::BinReader& r,
                               SnapshotReaderPools& pools) {
  snapshot_fields(r, *this, pools);
}

template <typename Io, typename Self>
void BgpEngine::snapshot_fields(Io& io, Self& self) {
  if (!self.frontier_.empty() || self.in_flight_ != 0) {
    throw std::runtime_error(
        std::string("BgpEngine::") +
        (Io::kReading ? "load_snapshot" : "save_snapshot") +
        ": updates in flight (quiesce first)");
  }
  io.magic(kEngineTag, kVersion);
  util::rng_fields(io, self.rng_);
  io.u64(self.total_messages_);
  io.f64(self.last_activity_);
  io.u64(self.delivered_total_);
  io.u64(self.pump_delivered_start_);
  io.vec(self.sent_by_, 8, [&](auto& v) { io.u64(v); });
  io.vec(self.best_changes_, 8, [&](auto& v) { io.u64(v); });
  if constexpr (Io::kReading) {
    if (self.sent_by_.size() != self.speakers_.size() ||
        self.best_changes_.size() != self.speakers_.size()) {
      throw std::runtime_error("snapshot: engine counter size mismatch "
                               "(different topology?)");
    }
  }

  // MRAI tables in ascending prefix order.
  using Table = std::conditional_t<std::is_const_v<Self>,
                                   const std::vector<MraiState>,
                                   std::vector<MraiState>>;
  std::vector<std::pair<Prefix, Table*>> tables;
  if constexpr (Io::kReading) {
    self.mrai_.clear();
  } else {
    for (PrefixId pid = 0; pid < self.mrai_.size(); ++pid) {
      if (!self.mrai_[pid].empty()) {
        tables.emplace_back(self.prefixes_.prefix(pid), &self.mrai_[pid]);
      }
    }
    std::sort(tables.begin(), tables.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  std::size_t n_tables = tables.size();
  io.count(n_tables, 13);
  for (std::size_t i = 0; i < n_tables; ++i) {
    Prefix prefix;
    Table* table = nullptr;
    if constexpr (!Io::kReading) std::tie(prefix, table) = tables[i];
    prefix_fields(io, prefix);
    if constexpr (Io::kReading) {
      const PrefixId pid = self.prefixes_.intern(prefix);
      if (pid >= self.mrai_.size()) self.mrai_.resize(pid + 1);
      table = &self.mrai_[pid];
    }
    io.vec(*table, 17, [&](auto& ms) {
      io.f64(ms.ready_at);
      io.b(ms.flush_scheduled);
      io.u32(ms.next_seq);
      io.u32(ms.applied_seq);
    });
    if constexpr (Io::kReading) {
      if (table->size() != self.sess_peer_.size()) {
        throw std::runtime_error("snapshot: MRAI table size mismatch "
                                 "(different topology?)");
      }
    }
  }

  using Pools = std::conditional_t<Io::kReading, SnapshotReaderPools,
                                   SnapshotWriterPools>;
  Pools pools;
  std::size_t n_speakers = self.speakers_.size();
  io.count(n_speakers, 1);
  if (n_speakers != self.speakers_.size()) {
    throw std::runtime_error("snapshot: speaker count mismatch "
                             "(different topology?)");
  }
  for (auto& sp : self.speakers_) {
    if constexpr (Io::kReading) {
      sp.load_snapshot(io, pools);
    } else {
      sp.save_snapshot(io, pools);
    }
  }
}

void BgpEngine::save_snapshot(util::BinWriter& w) const {
  snapshot_fields(w, *this);
}

void BgpEngine::load_snapshot(util::BinReader& r) { snapshot_fields(r, *this); }

}  // namespace lg::bgp
