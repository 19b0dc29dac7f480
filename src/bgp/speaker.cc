#include "bgp/speaker.h"

#include <algorithm>
#include <cmath>

namespace lg::bgp {

namespace {
LearnedFrom learned_from_rel(topo::Rel rel) {
  switch (rel) {
    case topo::Rel::kCustomer:
      return LearnedFrom::kCustomer;
    case topo::Rel::kPeer:
      return LearnedFrom::kPeer;
    case topo::Rel::kProvider:
      return LearnedFrom::kProvider;
  }
  return LearnedFrom::kProvider;
}

// Entry for `slot` in a sparse (slot, value) table sorted by slot, or null;
// const-qualified like the table.
template <typename Table>
auto sparse_at(Table& t, std::uint32_t slot) -> decltype(&t.begin()->second) {
  const auto it = std::lower_bound(
      t.begin(), t.end(), slot,
      [](const auto& e, std::uint32_t s) { return e.first < s; });
  if (it == t.end() || it->first != slot) return nullptr;
  return &it->second;
}
}  // namespace

struct BgpSpeaker::Standalone {
  std::vector<AsId> peer;
  std::vector<topo::Rel> rel;
  PrefixInterner prefixes;
};

BgpSpeaker::BgpSpeaker(AsId id, const topo::AsGraph& graph, SpeakerConfig cfg)
    : id_(id), graph_(&graph), cfg_(cfg), own_(std::make_unique<Standalone>()) {
  const auto& ns = graph.neighbors(id);
  std::vector<topo::Neighbor> sorted(ns.begin(), ns.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  own_->peer.reserve(sorted.size());
  own_->rel.reserve(sorted.size());
  for (const auto& n : sorted) {
    own_->peer.push_back(n.id);
    own_->rel.push_back(n.rel);
  }
  row_ = SessionRow{own_->peer.data(), own_->rel.data(),
                    static_cast<std::uint32_t>(sorted.size())};
  prefixes_ = &own_->prefixes;
}

BgpSpeaker::BgpSpeaker(AsId id, const topo::AsGraph& graph, SessionRow row,
                       PrefixInterner& prefixes)
    : id_(id), graph_(&graph), row_(row), prefixes_(&prefixes) {}

BgpSpeaker::BgpSpeaker(BgpSpeaker&&) noexcept = default;
BgpSpeaker& BgpSpeaker::operator=(BgpSpeaker&&) noexcept = default;
BgpSpeaker::~BgpSpeaker() = default;

std::uint32_t BgpSpeaker::slot_of(AsId neighbor) const {
  const AsId* end = row_.peer + row_.degree;
  const AsId* it = std::lower_bound(row_.peer, end, neighbor);
  if (it == end || *it != neighbor) return kNoSlot;
  return static_cast<std::uint32_t>(it - row_.peer);
}

std::optional<topo::Rel> BgpSpeaker::rel_of(AsId neighbor) const {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return std::nullopt;
  return row_.rel[slot];
}

void BgpSpeaker::ensure_in(PrefixState& st) const {
  if (st.in_path.size() == row_.degree) return;  // fixed per speaker
  st.in_path.resize(row_.degree);
  st.in_comm.resize(row_.degree);
  st.in_present.assign(row_.degree, 0);
}

void BgpSpeaker::ensure_out(PrefixState& st) const {
  if (st.out_tag.size() == row_.degree) return;
  st.out_tag.assign(row_.degree, kOutUnset);
  st.out_path.resize(row_.degree);
  st.out_comm.resize(row_.degree);
}

void BgpSpeaker::set_hint(HintTable& t, std::uint32_t slot,
                          const std::optional<AvoidHint>& hint) {
  const auto it = std::lower_bound(
      t.begin(), t.end(), slot,
      [](const auto& e, std::uint32_t s) { return e.first < s; });
  const bool found = it != t.end() && it->first == slot;
  if (hint) {
    if (found) {
      it->second = *hint;
    } else {
      t.insert(it, {slot, *hint});
    }
  } else if (found) {
    t.erase(it);
  }
}

BgpSpeaker::PrefixState& BgpSpeaker::state_for(PrefixId id) {
  if (id >= states_.size()) states_.resize(id + 1);
  std::unique_ptr<PrefixState>& st = states_[id];
  if (!st) {
    st = std::make_unique<PrefixState>();
    len_present_[prefixes_->prefix(id).length()] = true;
  }
  return *st;
}

void BgpSpeaker::set_origin_policy(const Prefix& prefix, OriginPolicy policy) {
  set_origin_policy(prefixes_->intern(prefix), std::move(policy));
}

void BgpSpeaker::set_origin_policy(PrefixId id, OriginPolicy policy) {
  auto& st = state_for(id);
  if (!st.origin) st.origin = std::make_unique<OriginState>();
  st.origin->policy = std::move(policy);
  // Intern the policy's community set once; every export shares the buffer.
  st.origin->comm = CommunitiesRef(st.origin->policy.communities);
}

void BgpSpeaker::clear_origin_policy(const Prefix& prefix) {
  clear_origin_policy(prefixes_->find(prefix));
}

void BgpSpeaker::clear_origin_policy(PrefixId id) {
  if (auto* st = find_state(id)) st->origin.reset();
}

bool BgpSpeaker::originates(const Prefix& prefix) const {
  const auto* st = find_state(prefix);
  return st != nullptr && st->origin != nullptr;
}

const OriginPolicy* BgpSpeaker::origin_policy(const Prefix& prefix) const {
  const auto* st = find_state(prefix);
  return st != nullptr && st->origin ? &st->origin->policy : nullptr;
}

bool BgpSpeaker::import_acceptable(const UpdateMessage& msg,
                                   std::uint32_t slot) {
  // Loop prevention: reject when our ASN appears loop_threshold+ times.
  if (!cfg_.loop_detection_disabled &&
      count_occurrences(msg.path, id_) >= cfg_.loop_threshold) {
    ++rejected_loop_;
    return false;
  }
  if (cfg_.reject_customer_routes_containing_my_peers) {
    if (row_.rel[slot] == topo::Rel::kCustomer) {
      for (const AsId hop : msg.path) {
        if (rel_of(hop) == topo::Rel::kPeer) {
          ++rejected_peer_filter_;
          return false;
        }
      }
    }
  }
  // Path-length filter (lg::adversary): paths longer than the local
  // threshold never make it into the Adj-RIB-In — the practice that limits
  // poisoning reach in the wild.
  if (cfg_.path_length_limit > 0 &&
      msg.path.size() > cfg_.path_length_limit) {
    ++rejected_pathlen_;
    return false;
  }
  // Peerlock/leak filter (lg::adversary): a locked AS appearing behind a
  // hop that is neither locked itself (clique exemption) nor the locked
  // AS's customer is a route leak — exactly the shape a poison O-A-O takes
  // when A is in the clique. Pure const queries against the immutable graph
  // and the engine-owned sorted locked set, so the phase-1 import fan-out
  // stays thread-safe.
  if (cfg_.peerlock_filter && locked_ases_ != nullptr &&
      !locked_ases_->empty()) {
    const AsPath& path = msg.path.get();
    for (std::size_t i = 1; i < path.size(); ++i) {
      const AsId locked = path[i];
      if (locked == id_) continue;
      if (!std::binary_search(locked_ases_->begin(), locked_ases_->end(),
                              locked)) {
        continue;
      }
      const AsId in_front = path[i - 1];
      if (std::binary_search(locked_ases_->begin(), locked_ases_->end(),
                             in_front)) {
        continue;  // clique-internal hop, legitimate
      }
      // relationship(a, b) is b's role from a's view: kProvider means the
      // locked AS provides transit to the hop in front — the customer
      // exemption that keeps ordinary customer-learned routes importable.
      if (graph_->relationship(in_front, locked) == topo::Rel::kProvider) {
        continue;
      }
      ++rejected_peerlock_;
      return false;
    }
  }
  return true;
}

namespace {
void decay_penalty(double& penalty, double& last, double now,
                   double half_life) {
  if (now > last && half_life > 0.0) {
    penalty *= std::exp2(-(now - last) / half_life);
  }
  last = std::max(last, now);
}
}  // namespace

bool BgpSpeaker::process_update(const UpdateMessage& msg, double now) {
  const PrefixId id = msg.prefix_id != kNoPrefixId
                          ? msg.prefix_id
                          : prefixes_->intern(msg.prefix);
  const std::uint32_t slot =
      msg.to_slot != kNoSlot ? msg.to_slot : slot_of(msg.from);
  return process_update(msg, id, slot, now);
}

bool BgpSpeaker::process_update(const UpdateMessage& msg, PrefixId id,
                                std::uint32_t slot, double now) {
  auto& st = state_for(id);
  if (slot == kNoSlot) return false;  // not adjacent: drop

  if (cfg_.damping_enabled) {
    auto it = std::lower_bound(
        st.damping.begin(), st.damping.end(), slot,
        [](const auto& e, std::uint32_t s) { return e.first < s; });
    if (it == st.damping.end() || it->first != slot) {
      it = st.damping.insert(it, {slot, DampingState{}});
    }
    DampingState& damping = it->second;
    decay_penalty(damping.penalty, damping.last_update, now,
                  cfg_.damping_half_life_seconds);
    damping.penalty += cfg_.damping_penalty_per_update;
    if (damping.penalty >= cfg_.damping_suppress_threshold) {
      damping.suppressed = true;
    }
  }

  if (msg.type == MsgType::kAnnounce && import_acceptable(msg, slot)) {
    ensure_in(st);
    st.in_path[slot] = msg.path;
    st.in_comm[slot] = msg.communities;
    st.in_present[slot] = 1;
    set_hint(st.in_hints, slot, msg.avoid_hint);
    if (msg.avoid_hint && msg.avoid_hint->as == id_) {
      ++avoid_notifications_;  // Notification property: we are the problem
    }
  } else if (!st.in_path.empty() && st.in_present[slot] != 0) {
    // Withdrawal, or an announcement rejected by import policy: either way
    // the neighbor's previous route is no longer usable (BGP implicit
    // replacement semantics). Release the shared buffers with the slot.
    st.in_present[slot] = 0;
    st.in_path[slot] = PathRef();
    st.in_comm[slot] = CommunitiesRef();
    set_hint(st.in_hints, slot, std::nullopt);
  }
  return recompute_best(id, st);
}

bool BgpSpeaker::recompute_best(PrefixId id, PrefixState& st) {
  // AVOID_PROBLEM semantics: if any candidate carries a hint, routes whose
  // path hits the hinted AS/link form a lower tier — used only when no
  // clean route exists (Avoidance + Backup properties, §3). The hint table
  // is sorted by slot, so the canonical pick is the lowest-neighbor-id
  // carrier — the same choice the ReferenceBgp oracle makes.
  const AvoidHint* hint = nullptr;
  if (cfg_.honors_avoid_hints && !st.in_hints.empty()) {
    hint = &st.in_hints.front().second;
  }
  const std::size_t n = st.in_path.size();
  std::uint32_t win = kNoSlot;
  int win_pref = 0;
  std::size_t win_len = 0;
  bool win_flagged = false;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (st.in_present[s] == 0) continue;
    if (cfg_.damping_enabled) {
      const DampingState* d = sparse_at(st.damping, s);
      if (d != nullptr && d->suppressed) continue;
    }
    const bool flagged = hint && path_hits_avoid_hint(st.in_path[s], *hint);
    const int pref = local_pref(learned_from_rel(row_.rel[s]));
    const std::size_t len = st.in_path[s].size();
    // Slots scan in ascending neighbor-id order and the comparisons are
    // strict, so ties keep the lowest neighbor — exactly better_route's
    // local-pref desc, path-len asc, neighbor-id asc total order.
    if (win == kNoSlot || (win_flagged && !flagged) ||
        (win_flagged == flagged &&
         (pref > win_pref || (pref == win_pref && len < win_len)))) {
      win = s;
      win_pref = pref;
      win_len = len;
      win_flagged = flagged;
    }
  }

  bool changed;
  if (win == kNoSlot) {
    changed = st.best.has_value();
    if (changed) st.best.reset();
  } else {
    const AsId nbr = row_.peer[win];
    const LearnedFrom learned = learned_from_rel(row_.rel[win]);
    const AvoidHint* win_hint = sparse_at(st.in_hints, win);
    changed =
        !st.best || st.best->neighbor != nbr || st.best->learned != learned ||
        !(st.best->path == st.in_path[win]) ||
        !(st.best->communities == st.in_comm[win]) ||
        st.best->avoid_hint.has_value() != (win_hint != nullptr) ||
        (win_hint != nullptr && st.best->avoid_hint &&
         !(*st.best->avoid_hint == *win_hint));
    if (changed) {
      Route r;
      r.prefix = prefixes_->prefix(id);
      r.path = st.in_path[win];
      r.neighbor = nbr;
      r.learned = learned;
      r.communities = st.in_comm[win];
      if (win_hint != nullptr) r.avoid_hint = *win_hint;
      st.best = std::move(r);
    }
  }
  // The cached self-prepended export path mirrors the Loc-RIB.
  if (changed) st.export_cache_valid = false;
  return changed;
}

const Route* BgpSpeaker::best_route(const Prefix& prefix) const {
  return best_route(prefixes_->find(prefix));
}

const Route* BgpSpeaker::best_route(PrefixId id) const {
  const auto* st = find_state(id);
  return st != nullptr && st->best ? &*st->best : nullptr;
}

std::vector<Route> BgpSpeaker::rib_in(const Prefix& prefix) const {
  std::vector<Route> out;
  if (const auto* st = find_state(prefix)) {
    for (std::uint32_t s = 0; s < st->in_path.size(); ++s) {
      if (st->in_present[s] == 0) continue;
      Route r;
      r.prefix = prefix;
      r.path = st->in_path[s];
      r.neighbor = row_.peer[s];
      r.learned = learned_from_rel(row_.rel[s]);
      r.communities = st->in_comm[s];
      if (const AvoidHint* h = sparse_at(st->in_hints, s)) r.avoid_hint = *h;
      out.push_back(std::move(r));
    }
    std::sort(out.begin(), out.end(), [](const Route& a, const Route& b) {
      return better_route(a, b);
    });
  }
  return out;
}

FibResult BgpSpeaker::fib_lookup(topo::Ipv4 dst) const {
  for (int len = 32; len >= 0; --len) {
    if (!len_present_[len]) continue;
    const Prefix candidate(dst, static_cast<std::uint8_t>(len));
    const auto* st = find_state(candidate);
    if (st == nullptr) continue;
    if (st->origin) {
      return FibResult{.has_route = true,
                       .local = true,
                       .via_default = false,
                       .next_hop = id_,
                       .matched = candidate};
    }
    if (st->best) {
      return FibResult{.has_route = true,
                       .local = false,
                       .via_default = false,
                       .next_hop = forced_egress_.value_or(st->best->neighbor),
                       .matched = candidate};
    }
    // State exists but no usable route: keep searching less specifics —
    // this is exactly how a captive AS falls back onto the sentinel.
  }
  if (cfg_.has_default_route) {
    if (const auto gw = default_gateway()) {
      return FibResult{.has_route = true,
                       .local = false,
                       .via_default = true,
                       .next_hop = *gw,
                       .matched = Prefix(0, 0)};
    }
  }
  return FibResult{};
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::export_path(
    const Prefix& prefix, AsId neighbor) const {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return std::nullopt;
  return export_path(prefixes_->find(prefix), slot);
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::export_path(
    PrefixId id, std::uint32_t slot) const {
  const auto* st = find_state(id);
  if (st == nullptr) return std::nullopt;
  const AsId neighbor = row_.peer[slot];

  if (st->origin) {
    const auto& path = st->origin->policy.path_for(neighbor);
    if (!path) return std::nullopt;
    return ExportUnit{*path, st->origin->comm, st->origin->policy.avoid_hint};
  }

  if (!st->best) return std::nullopt;
  const Route& best = *st->best;
  if (best.neighbor == neighbor) return std::nullopt;  // split horizon
  // Gao-Rexford: customer routes go to everyone; peer/provider routes only
  // to customers.
  const bool allowed = best.learned == LearnedFrom::kCustomer ||
                       row_.rel[slot] == topo::Rel::kCustomer;
  if (!allowed) return std::nullopt;
  // Self-prepended Loc-RIB path, built once per best-route change and shared
  // by every neighbor export, the in-flight update, the receiver RIB, and
  // the Adj-RIB-Out slots (delta encoding: per-neighbor state is refs into
  // this unit, not copies).
  if (!st->export_cache_valid) {
    AsPath prepended;
    prepended.reserve(best.path.size() + 1);
    prepended.push_back(id_);
    prepended.insert(prepended.end(), best.path.begin(), best.path.end());
    auto* mst = const_cast<PrefixState*>(st);
    mst->export_cache = PathRef(std::move(prepended));
    mst->export_cache_valid = true;
  }
  ExportUnit out;
  out.path = st->export_cache;
  if (!cfg_.strips_communities) out.communities = best.communities;
  out.avoid_hint = best.avoid_hint;  // signed hints survive end-to-end
  return out;
}

BgpSpeaker::AdjOutState BgpSpeaker::adj_out_state(const Prefix& prefix,
                                                  AsId neighbor) const {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return AdjOutState::kNeverAdvertised;
  return adj_out_state(prefixes_->find(prefix), slot);
}

BgpSpeaker::AdjOutState BgpSpeaker::adj_out_state(PrefixId id,
                                                  std::uint32_t slot) const {
  const auto* st = find_state(id);
  if (st == nullptr || slot >= st->out_tag.size() ||
      st->out_tag[slot] == kOutUnset) {
    return AdjOutState::kNeverAdvertised;
  }
  return st->out_tag[slot] == kOutNone ? AdjOutState::kWithdrawn
                                       : AdjOutState::kAdvertised;
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::adj_out_unit(
    const Prefix& prefix, AsId neighbor) const {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return std::nullopt;
  return adj_out_unit(prefixes_->find(prefix), slot);
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::adj_out_unit(
    PrefixId id, std::uint32_t slot) const {
  const auto* st = find_state(id);
  if (st == nullptr || slot >= st->out_tag.size() ||
      st->out_tag[slot] != kOutUnit) {
    return std::nullopt;
  }
  ExportUnit out;
  out.path = st->out_path[slot];
  out.communities = st->out_comm[slot];
  if (const AvoidHint* h = sparse_at(st->out_hints, slot)) out.avoid_hint = *h;
  return out;
}

void BgpSpeaker::record_advertised(const Prefix& prefix, AsId neighbor,
                                   std::optional<ExportUnit> unit) {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return;  // engine only records for real sessions
  record_advertised(prefixes_->intern(prefix), slot, std::move(unit));
}

void BgpSpeaker::record_advertised(PrefixId id, std::uint32_t slot,
                                   std::optional<ExportUnit> unit) {
  auto& st = state_for(id);
  ensure_out(st);
  if (unit) {
    st.out_tag[slot] = kOutUnit;
    st.out_path[slot] = std::move(unit->path);
    st.out_comm[slot] = std::move(unit->communities);
    set_hint(st.out_hints, slot, unit->avoid_hint);
  } else {
    st.out_tag[slot] = kOutNone;
    st.out_path[slot] = PathRef();
    st.out_comm[slot] = CommunitiesRef();
    set_hint(st.out_hints, slot, std::nullopt);
  }
}

std::vector<Prefix> BgpSpeaker::known_prefixes() const {
  std::vector<Prefix> out;
  for (PrefixId id = 0; id < states_.size(); ++id) {
    if (states_[id]) out.push_back(prefixes_->prefix(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<double> BgpSpeaker::damping_reuse_delay(const Prefix& prefix,
                                                      AsId neighbor,
                                                      double now) const {
  return damping_reuse_delay(prefixes_->find(prefix), slot_of(neighbor), now);
}

std::optional<double> BgpSpeaker::damping_reuse_delay(PrefixId id,
                                                      std::uint32_t slot,
                                                      double now) const {
  const auto* st = find_state(id);
  if (st == nullptr) return std::nullopt;
  const DampingState* d = sparse_at(st->damping, slot);
  if (d == nullptr || !d->suppressed) return std::nullopt;
  double penalty = d->penalty;
  double last = d->last_update;
  decay_penalty(penalty, last, now, cfg_.damping_half_life_seconds);
  if (penalty <= cfg_.damping_reuse_threshold) return 0.0;
  return cfg_.damping_half_life_seconds *
         std::log2(penalty / cfg_.damping_reuse_threshold);
}

bool BgpSpeaker::recheck_damping(const Prefix& prefix, AsId neighbor,
                                 double now) {
  return recheck_damping(prefixes_->find(prefix), slot_of(neighbor), now);
}

bool BgpSpeaker::recheck_damping(PrefixId id, std::uint32_t slot, double now) {
  auto* st = find_state(id);
  if (st == nullptr) return false;
  DampingState* d = sparse_at(st->damping, slot);
  if (d == nullptr || !d->suppressed) return false;
  decay_penalty(d->penalty, d->last_update, now,
                cfg_.damping_half_life_seconds);
  if (d->penalty > cfg_.damping_reuse_threshold) return false;
  d->suppressed = false;
  return recompute_best(id, *st);
}

bool BgpSpeaker::is_suppressed(const Prefix& prefix, AsId neighbor) const {
  const auto* st = find_state(prefix);
  if (st == nullptr) return false;
  const DampingState* d = sparse_at(st->damping, slot_of(neighbor));
  return d != nullptr && d->suppressed;
}

std::optional<AsId> BgpSpeaker::default_gateway() const {
  // Slots ascend by neighbor id, so the first provider is the lowest ASN.
  for (std::uint32_t s = 0; s < row_.degree; ++s) {
    if (row_.rel[s] == topo::Rel::kProvider) return row_.peer[s];
  }
  return std::nullopt;
}

BgpSpeaker::RibMemory BgpSpeaker::rib_memory() const {
  // Structural bytes only: the session row and the prefix interner belong
  // to the engine, which counts them once (BgpEngine::rib_memory).
  RibMemory m;
  m.bytes += sizeof(*this);
  m.bytes += states_.capacity() * sizeof(states_[0]);
  for (const auto& stp : states_) {
    if (!stp) continue;
    const PrefixState& st = *stp;
    ++m.prefixes;
    m.bytes += sizeof(PrefixState);
    if (st.origin) m.bytes += sizeof(OriginState);
    m.bytes += st.in_path.capacity() * sizeof(PathRef) +
               st.in_comm.capacity() * sizeof(CommunitiesRef) +
               st.in_present.capacity() +
               st.in_hints.capacity() * sizeof(HintTable::value_type);
    m.bytes += st.out_tag.capacity() +
               st.out_path.capacity() * sizeof(PathRef) +
               st.out_comm.capacity() * sizeof(CommunitiesRef) +
               st.out_hints.capacity() * sizeof(HintTable::value_type);
    m.bytes += st.damping.capacity() * sizeof(DampingTable::value_type);
    for (const std::uint8_t present : st.in_present) m.routes += present;
    for (const std::uint8_t tag : st.out_tag) {
      if (tag == kOutUnit) ++m.adj_out_slots;
    }
  }
  return m;
}

}  // namespace lg::bgp
