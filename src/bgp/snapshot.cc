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
#include <utility>
#include <vector>

#include "bgp/engine.h"
#include "bgp/snapshot.h"
#include "bgp/speaker.h"
#include "util/codec.h"

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

void write_prefix(util::BinWriter& w, const Prefix& p) {
  w.u32(p.addr());
  w.u8(p.length());
}

Prefix read_prefix(util::BinReader& r) {
  const std::uint32_t addr = r.u32();
  const std::uint8_t len = r.u8();
  return Prefix(addr, len);
}

void write_hint(util::BinWriter& w, const AvoidHint& h) {
  w.u32(h.as);
  w.b(h.link.has_value());
  if (h.link.has_value()) {
    w.u32(h.link->a);
    w.u32(h.link->b);
  }
}

AvoidHint read_hint(util::BinReader& r) {
  AvoidHint h;
  h.as = r.u32();
  if (r.b()) {
    const AsId a = r.u32();
    const AsId b = r.u32();
    h.link = topo::AsLinkKey(a, b);
  }
  return h;
}

void write_opt_hint(util::BinWriter& w, const std::optional<AvoidHint>& h) {
  w.b(h.has_value());
  if (h.has_value()) write_hint(w, *h);
}

std::optional<AvoidHint> read_opt_hint(util::BinReader& r) {
  if (!r.b()) return std::nullopt;
  return read_hint(r);
}

void write_route(util::BinWriter& w, SnapshotWriterPools& pools,
                 const Route& rt) {
  write_prefix(w, rt.prefix);
  pools.path(w, rt.path);
  w.u32(rt.neighbor);
  w.u8(static_cast<std::uint8_t>(rt.learned));
  pools.comm(w, rt.communities);
  write_opt_hint(w, rt.avoid_hint);
}

Route read_route(util::BinReader& r, SnapshotReaderPools& pools) {
  Route rt;
  rt.prefix = read_prefix(r);
  rt.path = pools.path(r);
  rt.neighbor = r.u32();
  rt.learned = static_cast<LearnedFrom>(r.u8());
  rt.communities = pools.comm(r);
  rt.avoid_hint = read_opt_hint(r);
  return rt;
}

void write_policy(util::BinWriter& w, SnapshotWriterPools& pools,
                  const OriginPolicy& pol) {
  w.b(pol.default_path.has_value());
  if (pol.default_path.has_value()) pools.path(w, *pol.default_path);
  std::vector<AsId> neighbors;
  neighbors.reserve(pol.per_neighbor.size());
  for (const auto& [as, _] : pol.per_neighbor) neighbors.push_back(as);
  std::sort(neighbors.begin(), neighbors.end());
  w.size(neighbors.size());
  for (const AsId as : neighbors) {
    const auto& entry = pol.per_neighbor.at(as);
    w.u32(as);
    w.b(entry.has_value());
    if (entry.has_value()) pools.path(w, *entry);
  }
  w.vec(pol.communities, [&](Community c) { w.u32(c); });
  write_opt_hint(w, pol.avoid_hint);
}

OriginPolicy read_policy(util::BinReader& r, SnapshotReaderPools& pools) {
  OriginPolicy pol;
  if (r.b()) pol.default_path = pools.path(r);
  const std::size_t n = r.count(5);
  for (std::size_t i = 0; i < n; ++i) {
    const AsId as = r.u32();
    std::optional<PathRef> entry;
    if (r.b()) entry = pools.path(r);
    pol.per_neighbor.emplace(as, std::move(entry));
  }
  pol.communities = r.vec<Community>([&] { return r.u32(); });
  pol.avoid_hint = read_opt_hint(r);
  return pol;
}

}  // namespace

void BgpSpeaker::save_snapshot(util::BinWriter& w,
                               SnapshotWriterPools& pools) const {
  w.magic(kSpeakerTag, kVersion);
  w.u32(id_);

  // Runtime-mutable config (mutable_config() lets harnesses flip policy
  // flags after construction, so the snapshot carries them).
  w.size(cfg_.loop_threshold);
  w.b(cfg_.loop_detection_disabled);
  w.b(cfg_.reject_customer_routes_containing_my_peers);
  w.b(cfg_.has_default_route);
  w.b(cfg_.strips_communities);
  w.b(cfg_.honors_avoid_hints);
  w.b(cfg_.damping_enabled);
  w.f64(cfg_.damping_penalty_per_update);
  w.f64(cfg_.damping_suppress_threshold);
  w.f64(cfg_.damping_reuse_threshold);
  w.f64(cfg_.damping_half_life_seconds);
  w.f64(cfg_.mrai_seconds);
  w.size(cfg_.path_length_limit);
  w.b(cfg_.peerlock_filter);

  // Prefix states, sorted by prefix for a deterministic byte stream.
  std::vector<std::pair<Prefix, const PrefixState*>> items;
  for (PrefixId id = 0; id < states_.size(); ++id) {
    if (states_[id]) items.emplace_back(prefixes_->prefix(id), states_[id].get());
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.size(items.size());
  for (const auto& [prefix, stp] : items) {
    write_prefix(w, prefix);
    const PrefixState& st = *stp;

    w.size(st.in_path.size());
    for (std::size_t i = 0; i < st.in_path.size(); ++i) {
      pools.path(w, st.in_path[i]);
      pools.comm(w, st.in_comm[i]);
      w.u8(st.in_present[i]);
    }
    w.size(st.in_hints.size());
    for (const auto& [slot, hint] : st.in_hints) {
      w.u32(slot);
      write_hint(w, hint);
    }

    w.b(st.best.has_value());
    if (st.best.has_value()) write_route(w, pools, *st.best);
    w.b(st.origin != nullptr);
    if (st.origin != nullptr) {
      write_policy(w, pools, st.origin->policy);
      pools.comm(w, st.origin->comm);
    }
    pools.path(w, st.export_cache);
    w.b(st.export_cache_valid);

    w.size(st.out_tag.size());
    for (std::size_t i = 0; i < st.out_tag.size(); ++i) {
      w.u8(st.out_tag[i]);
      pools.path(w, st.out_path[i]);
      pools.comm(w, st.out_comm[i]);
    }
    w.size(st.out_hints.size());
    for (const auto& [slot, hint] : st.out_hints) {
      w.u32(slot);
      write_hint(w, hint);
    }

    w.size(st.damping.size());
    for (const auto& [slot, ds] : st.damping) {
      w.u32(slot);
      w.f64(ds.penalty);
      w.f64(ds.last_update);
      w.b(ds.suppressed);
    }
  }

  w.b(forced_egress_.has_value());
  if (forced_egress_.has_value()) w.u32(*forced_egress_);
  for (const bool present : len_present_) w.b(present);
  w.u64(rejected_loop_);
  w.u64(rejected_peer_filter_);
  w.u64(rejected_pathlen_);
  w.u64(rejected_peerlock_);
  w.u64(avoid_notifications_);
}

void BgpSpeaker::load_snapshot(util::BinReader& r,
                               SnapshotReaderPools& pools) {
  r.magic(kSpeakerTag, kVersion);
  const AsId id = r.u32();
  if (id != id_) {
    throw std::runtime_error("snapshot: speaker AS mismatch (snapshot " +
                             std::to_string(id) + ", engine " +
                             std::to_string(id_) + ")");
  }

  cfg_.loop_threshold = r.size();
  cfg_.loop_detection_disabled = r.b();
  cfg_.reject_customer_routes_containing_my_peers = r.b();
  cfg_.has_default_route = r.b();
  cfg_.strips_communities = r.b();
  cfg_.honors_avoid_hints = r.b();
  cfg_.damping_enabled = r.b();
  cfg_.damping_penalty_per_update = r.f64();
  cfg_.damping_suppress_threshold = r.f64();
  cfg_.damping_reuse_threshold = r.f64();
  cfg_.damping_half_life_seconds = r.f64();
  cfg_.mrai_seconds = r.f64();
  cfg_.path_length_limit = r.size();
  cfg_.peerlock_filter = r.b();

  states_.clear();
  const std::size_t n_prefixes = r.count(8);
  for (std::size_t p = 0; p < n_prefixes; ++p) {
    const PrefixId id = prefixes_->intern(read_prefix(r));
    if (find_state(id) != nullptr) {
      throw std::runtime_error("snapshot: duplicate prefix state");
    }
    PrefixState& st = state_for(id);

    const std::size_t n_in = r.count(9);
    if (n_in != 0 && n_in != row_.degree) {
      throw std::runtime_error("snapshot: Adj-RIB-In width mismatch "
                               "(different topology?)");
    }
    st.in_path.resize(n_in);
    st.in_comm.resize(n_in);
    st.in_present.resize(n_in);
    for (std::size_t i = 0; i < n_in; ++i) {
      st.in_path[i] = pools.path(r);
      st.in_comm[i] = pools.comm(r);
      st.in_present[i] = r.u8();
    }
    const std::size_t n_in_hints = r.count(9);
    st.in_hints.reserve(n_in_hints);
    for (std::size_t i = 0; i < n_in_hints; ++i) {
      const std::uint32_t slot = r.u32();
      st.in_hints.emplace_back(slot, read_hint(r));
    }

    if (r.b()) st.best = read_route(r, pools);
    if (r.b()) {
      st.origin = std::make_unique<OriginState>();
      st.origin->policy = read_policy(r, pools);
      st.origin->comm = pools.comm(r);
    }
    st.export_cache = pools.path(r);
    st.export_cache_valid = r.b();

    const std::size_t n_out = r.count(9);
    if (n_out != 0 && n_out != row_.degree) {
      throw std::runtime_error("snapshot: Adj-RIB-Out width mismatch "
                               "(different topology?)");
    }
    st.out_tag.resize(n_out);
    st.out_path.resize(n_out);
    st.out_comm.resize(n_out);
    for (std::size_t i = 0; i < n_out; ++i) {
      st.out_tag[i] = r.u8();
      st.out_path[i] = pools.path(r);
      st.out_comm[i] = pools.comm(r);
    }
    const std::size_t n_out_hints = r.count(9);
    st.out_hints.reserve(n_out_hints);
    for (std::size_t i = 0; i < n_out_hints; ++i) {
      const std::uint32_t slot = r.u32();
      st.out_hints.emplace_back(slot, read_hint(r));
    }

    const std::size_t n_damp = r.count(21);
    st.damping.reserve(n_damp);
    for (std::size_t i = 0; i < n_damp; ++i) {
      const std::uint32_t slot = r.u32();
      DampingState ds;
      ds.penalty = r.f64();
      ds.last_update = r.f64();
      ds.suppressed = r.b();
      st.damping.emplace_back(slot, ds);
    }
  }

  forced_egress_.reset();
  if (r.b()) forced_egress_ = r.u32();
  for (bool& present : len_present_) present = r.b();
  rejected_loop_ = r.u64();
  rejected_peer_filter_ = r.u64();
  rejected_pathlen_ = r.u64();
  rejected_peerlock_ = r.u64();
  avoid_notifications_ = r.u64();
}

void BgpEngine::save_snapshot(util::BinWriter& w) const {
  if (!frontier_.empty() || in_flight_ != 0) {
    throw std::runtime_error(
        "BgpEngine::save_snapshot: updates in flight (quiesce first)");
  }
  w.magic(kEngineTag, kVersion);

  const util::Rng::State rs = rng_.save_state();
  w.u64(rs.state);
  w.u64(rs.inc);
  w.b(rs.have_cached_normal);
  w.f64(rs.cached_normal);

  w.u64(total_messages_);
  w.f64(last_activity_);
  w.u64(delivered_total_);
  w.u64(pump_delivered_start_);
  w.vec(sent_by_, [&](std::uint64_t v) { w.u64(v); });
  w.vec(best_changes_, [&](std::uint64_t v) { w.u64(v); });

  // MRAI tables, sorted by prefix.
  std::vector<std::pair<Prefix, const std::vector<MraiState>*>> mrai;
  for (PrefixId id = 0; id < mrai_.size(); ++id) {
    if (!mrai_[id].empty()) mrai.emplace_back(prefixes_.prefix(id), &mrai_[id]);
  }
  std::sort(mrai.begin(), mrai.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.size(mrai.size());
  for (const auto& [prefix, table] : mrai) {
    write_prefix(w, prefix);
    w.vec(*table, [&](const MraiState& ms) {
      w.f64(ms.ready_at);
      w.b(ms.flush_scheduled);
      w.u32(ms.next_seq);
      w.u32(ms.applied_seq);
    });
  }

  SnapshotWriterPools pools;
  w.size(speakers_.size());
  for (const BgpSpeaker& sp : speakers_) sp.save_snapshot(w, pools);
}

void BgpEngine::load_snapshot(util::BinReader& r) {
  if (!frontier_.empty() || in_flight_ != 0) {
    throw std::runtime_error(
        "BgpEngine::load_snapshot: updates in flight (quiesce first)");
  }
  r.magic(kEngineTag, kVersion);

  util::Rng::State rs;
  rs.state = r.u64();
  rs.inc = r.u64();
  rs.have_cached_normal = r.b();
  rs.cached_normal = r.f64();
  rng_.restore_state(rs);

  total_messages_ = r.u64();
  last_activity_ = r.f64();
  delivered_total_ = r.u64();
  pump_delivered_start_ = r.u64();
  sent_by_ = r.vec<std::uint64_t>([&] { return r.u64(); });
  best_changes_ = r.vec<std::uint64_t>([&] { return r.u64(); });
  if (sent_by_.size() != speakers_.size() ||
      best_changes_.size() != speakers_.size()) {
    throw std::runtime_error("snapshot: engine counter size mismatch "
                             "(different topology?)");
  }

  mrai_.clear();
  const std::size_t n_mrai = r.count(13);
  for (std::size_t i = 0; i < n_mrai; ++i) {
    const PrefixId id = prefixes_.intern(read_prefix(r));
    auto states = r.vec<MraiState>([&] {
      MraiState ms;
      ms.ready_at = r.f64();
      ms.flush_scheduled = r.b();
      ms.next_seq = r.u32();
      ms.applied_seq = r.u32();
      return ms;
    });
    if (states.size() != sess_peer_.size()) {
      throw std::runtime_error("snapshot: MRAI table size mismatch "
                               "(different topology?)");
    }
    if (id >= mrai_.size()) mrai_.resize(id + 1);
    mrai_[id] = std::move(states);
  }

  SnapshotReaderPools pools;
  const std::size_t n_speakers = r.count(1);
  if (n_speakers != speakers_.size()) {
    throw std::runtime_error("snapshot: speaker count mismatch "
                             "(different topology?)");
  }
  for (BgpSpeaker& sp : speakers_) sp.load_snapshot(r, pools);
}

}  // namespace lg::bgp
