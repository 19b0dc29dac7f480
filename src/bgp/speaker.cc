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

// First entry of a sparse (key, value) table, sorted by key, whose key is
// not below `key`.
template <typename Table>
auto lower_key(Table& t, std::uint32_t key) {
  return std::lower_bound(
      t.begin(), t.end(), key,
      [](const auto& e, std::uint32_t k) { return e.first < k; });
}

// Entry for `key` in a sparse table, or null; const-qualified like the
// table.
template <typename Table>
auto sparse_at(Table& t, std::uint32_t key) -> decltype(&t.begin()->second) {
  const auto it = lower_key(t, key);
  if (it == t.end() || it->first != key) return nullptr;
  return &it->second;
}
}  // namespace

struct BgpSpeaker::Standalone {
  std::vector<AsId> peer;
  std::vector<topo::Rel> rel;
  RibStore store;
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
  const auto degree = static_cast<std::uint32_t>(sorted.size());
  row_ = SessionRow{own_->peer.data(), own_->rel.data(), degree};
  own_->store = RibStore(1, degree);
  store_ = &own_->store;
}

BgpSpeaker::BgpSpeaker(AsId id, const topo::AsGraph& graph, SessionRow row,
                       RibStore& store, std::uint32_t index,
                       std::uint32_t first)
    : id_(id),
      graph_(&graph),
      row_(row),
      store_(&store),
      index_(index),
      first_(first) {}

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

PrefixRib& BgpSpeaker::hold(PrefixId id) {
  PrefixRib& r = store_->at(id);
  if (!(r.flags[index_] & kHeld)) {
    r.flags[index_] |= kHeld;
    len_present_[store_->prefix(id).length()] = true;
  }
  return r;
}

OriginState* BgpSpeaker::origin_of(const PrefixRib& r) const noexcept {
  const auto* o = sparse_at(r.origins, index_);
  return o != nullptr ? o->get() : nullptr;
}

OriginState& BgpSpeaker::add_origin(PrefixRib& r) const {
  const auto it = lower_key(r.origins, index_);
  return *r.origins.insert(it, {index_, std::make_unique<OriginState>()})
              ->second;
}

void BgpSpeaker::set_hint(std::vector<HintTable>& tables, std::uint32_t slot,
                          const std::optional<AvoidHint>& hint) const {
  HintTable* t = side(tables, hint.has_value());
  if (t == nullptr) return;
  const auto it = lower_key(*t, slot);
  const bool found = it != t->end() && it->first == slot;
  if (hint) {
    if (found) {
      it->second = *hint;
    } else {
      t->insert(it, {slot, *hint});
    }
  } else if (found) {
    t->erase(it);
  }
}

void BgpSpeaker::set_origin_policy(const Prefix& prefix, OriginPolicy policy) {
  set_origin_policy(store_->intern(prefix), std::move(policy));
}

void BgpSpeaker::set_origin_policy(PrefixId id, OriginPolicy policy) {
  PrefixRib& r = hold(id);
  OriginState* origin = origin_of(r);
  if (origin == nullptr) origin = &add_origin(r);
  origin->policy = std::move(policy);
  // Intern the policy's community set once; every export shares the buffer.
  origin->comm = CommunitiesRef(origin->policy.communities);
}

void BgpSpeaker::clear_origin_policy(const Prefix& prefix) {
  clear_origin_policy(store_->find(prefix));
}

void BgpSpeaker::clear_origin_policy(PrefixId id) {
  if (PrefixRib* r = held(id)) {
    std::erase_if(r->origins,
                  [&](const auto& e) { return e.first == index_; });
  }
}

bool BgpSpeaker::originates(const Prefix& prefix) const {
  const PrefixRib* r = held(prefix);
  return r != nullptr && origin_of(*r) != nullptr;
}

const OriginPolicy* BgpSpeaker::origin_policy(const Prefix& prefix) const {
  const PrefixRib* r = held(prefix);
  const OriginState* origin = r != nullptr ? origin_of(*r) : nullptr;
  return origin != nullptr ? &origin->policy : nullptr;
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
  // and the engine-owned sorted locked set.
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
                          : store_->intern(msg.prefix);
  const std::uint32_t slot =
      msg.to_slot != kNoSlot ? msg.to_slot : slot_of(msg.from);
  return process_update(msg, id, slot, now);
}

bool BgpSpeaker::process_update(const UpdateMessage& msg, PrefixId id,
                                std::uint32_t slot, double now) {
  PrefixRib& r = hold(id);
  if (slot == kNoSlot) return false;  // not adjacent: drop

  if (cfg_.damping_enabled) {
    SlotTable<DampingState>& table = *side(r.damping, true);
    auto it = lower_key(table, slot);
    if (it == table.end() || it->first != slot) {
      it = table.insert(it, {slot, DampingState{}});
    }
    DampingState& damping = it->second;
    decay_penalty(damping.penalty, damping.last_update, now,
                  cfg_.damping_half_life_seconds);
    damping.penalty += cfg_.damping_penalty_per_update;
    if (damping.penalty >= cfg_.damping_suppress_threshold) {
      damping.suppressed = true;
    }
  }

  const std::uint32_t s = first_ + slot;
  if (msg.type == MsgType::kAnnounce && import_acceptable(msg, slot)) {
    r.flags[index_] |= kInSized;
    r.in_path[s] = msg.path;
    r.in_comm[s] = msg.communities;
    r.in_present[s] = 1;
    set_hint(r.in_hints, slot, msg.avoid_hint);
    if (msg.avoid_hint && msg.avoid_hint->as == id_) {
      ++avoid_notifications_;  // Notification property: we are the problem
    }
  } else if (r.in_present[s] != 0) {
    // Withdrawal, or an announcement rejected by import policy: either way
    // the neighbor's previous route is no longer usable (BGP implicit
    // replacement semantics). Release the shared buffers with the slot.
    r.in_present[s] = 0;
    r.in_path[s] = PathRef();
    r.in_comm[s] = CommunitiesRef();
    set_hint(r.in_hints, slot, std::nullopt);
  }
  return recompute_best(id, r);
}

bool BgpSpeaker::recompute_best(PrefixId id, PrefixRib& r) {
  // AVOID_PROBLEM semantics: if any candidate carries a hint, routes whose
  // path hits the hinted AS/link form a lower tier — used only when no
  // clean route exists (Avoidance + Backup properties, §3). The hint table
  // is sorted by slot, so the canonical pick is the lowest-neighbor-id
  // carrier — the same choice the ReferenceBgp oracle makes.
  const HintTable* hints = side(r.in_hints);
  const AvoidHint* hint = nullptr;
  if (cfg_.honors_avoid_hints && hints != nullptr && !hints->empty()) {
    hint = &hints->front().second;
  }
  const SlotTable<DampingState>* damping =
      cfg_.damping_enabled ? side(r.damping) : nullptr;
  const PathRef* in_path = r.in_path.data() + first_;
  const std::uint8_t* in_present = r.in_present.data() + first_;
  std::uint32_t win = kNoSlot;
  int win_pref = 0;
  std::size_t win_len = 0;
  bool win_flagged = false;
  for (std::uint32_t s = 0; s < row_.degree; ++s) {
    if (in_present[s] == 0) continue;
    if (damping != nullptr) {
      const DampingState* d = sparse_at(*damping, s);
      if (d != nullptr && d->suppressed) continue;
    }
    const bool flagged = hint && path_hits_avoid_hint(in_path[s], *hint);
    const int pref = local_pref(learned_from_rel(row_.rel[s]));
    const std::size_t len = in_path[s].size();
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

  std::optional<Route>& best = r.best[index_];
  bool changed;
  if (win == kNoSlot) {
    changed = best.has_value();
    if (changed) best.reset();
  } else {
    const AsId nbr = row_.peer[win];
    const LearnedFrom learned = learned_from_rel(row_.rel[win]);
    const PathRef& path = in_path[win];
    const CommunitiesRef& comm = r.in_comm[first_ + win];
    const AvoidHint* win_hint = hints != nullptr ? sparse_at(*hints, win)
                                                 : nullptr;
    changed = !best || best->neighbor != nbr || best->learned != learned ||
              !(best->path == path) || !(best->communities == comm) ||
              best->avoid_hint.has_value() != (win_hint != nullptr) ||
              (win_hint != nullptr && best->avoid_hint &&
               !(*best->avoid_hint == *win_hint));
    if (changed) {
      Route route;
      route.prefix = store_->prefix(id);
      route.path = path;
      route.neighbor = nbr;
      route.learned = learned;
      route.communities = comm;
      if (win_hint != nullptr) route.avoid_hint = *win_hint;
      best = std::move(route);
    }
  }
  // The cached self-prepended export path mirrors the Loc-RIB.
  if (changed) r.flags[index_] &= ~kExportValid;
  return changed;
}

const Route* BgpSpeaker::best_route(const Prefix& prefix) const {
  return best_route(store_->find(prefix));
}

const Route* BgpSpeaker::best_route(PrefixId id) const {
  const PrefixRib* r = store_->find(id);
  if (r == nullptr) return nullptr;
  const std::optional<Route>& best = r->best[index_];
  return best ? &*best : nullptr;
}

std::vector<Route> BgpSpeaker::rib_in(const Prefix& prefix) const {
  std::vector<Route> out;
  if (const PrefixRib* r = held(prefix)) {
    const HintTable* hints = side(r->in_hints);
    for (std::uint32_t s = 0; s < row_.degree; ++s) {
      if (r->in_present[first_ + s] == 0) continue;
      Route route;
      route.prefix = prefix;
      route.path = r->in_path[first_ + s];
      route.neighbor = row_.peer[s];
      route.learned = learned_from_rel(row_.rel[s]);
      route.communities = r->in_comm[first_ + s];
      if (hints != nullptr) {
        if (const AvoidHint* h = sparse_at(*hints, s)) route.avoid_hint = *h;
      }
      out.push_back(std::move(route));
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
    const PrefixRib* r = held(candidate);
    if (r == nullptr) continue;
    if (origin_of(*r) != nullptr) {
      return FibResult{.has_route = true,
                       .local = true,
                       .via_default = false,
                       .next_hop = id_,
                       .matched = candidate};
    }
    if (const std::optional<Route>& best = r->best[index_]) {
      return FibResult{.has_route = true,
                       .local = false,
                       .via_default = false,
                       .next_hop = forced_egress_.value_or(best->neighbor),
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
  return export_path(store_->find(prefix), slot);
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::export_path(
    PrefixId id, std::uint32_t slot) const {
  // The export cache is logically const: the store is reached through a
  // non-const pointer, so the lazy rebuild below needs no cast.
  PrefixRib* r = store_->find(id);
  if (r == nullptr || !(r->flags[index_] & kHeld)) return std::nullopt;
  const AsId neighbor = row_.peer[slot];

  if (const OriginState* origin = origin_of(*r)) {
    const auto& path = origin->policy.path_for(neighbor);
    if (!path) return std::nullopt;
    return ExportUnit{*path, origin->comm, origin->policy.avoid_hint};
  }

  const std::optional<Route>& best = r->best[index_];
  if (!best) return std::nullopt;
  if (best->neighbor == neighbor) return std::nullopt;  // split horizon
  // Gao-Rexford: customer routes go to everyone; peer/provider routes only
  // to customers.
  const bool allowed = best->learned == LearnedFrom::kCustomer ||
                       row_.rel[slot] == topo::Rel::kCustomer;
  if (!allowed) return std::nullopt;
  // Self-prepended Loc-RIB path, built once per best-route change and shared
  // by every neighbor export, the in-flight update, the receiver RIB, and
  // the Adj-RIB-Out slots (delta encoding: per-neighbor state is refs into
  // this unit, not copies).
  if (!(r->flags[index_] & kExportValid)) {
    AsPath prepended;
    prepended.reserve(best->path.size() + 1);
    prepended.push_back(id_);
    prepended.insert(prepended.end(), best->path.begin(), best->path.end());
    r->export_cache[index_] = PathRef(std::move(prepended));
    r->flags[index_] |= kExportValid;
  }
  ExportUnit out;
  out.path = r->export_cache[index_];
  if (!cfg_.strips_communities) out.communities = best->communities;
  out.avoid_hint = best->avoid_hint;  // signed hints survive end-to-end
  return out;
}

BgpSpeaker::AdjOutState BgpSpeaker::adj_out_state(const Prefix& prefix,
                                                  AsId neighbor) const {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return AdjOutState::kNeverAdvertised;
  return adj_out_state(store_->find(prefix), slot);
}

BgpSpeaker::AdjOutState BgpSpeaker::adj_out_state(PrefixId id,
                                                  std::uint32_t slot) const {
  const PrefixRib* r = store_->find(id);
  if (r == nullptr) return AdjOutState::kNeverAdvertised;
  const std::uint8_t tag = r->out_tag[first_ + slot];
  if (tag == kOutUnset) return AdjOutState::kNeverAdvertised;
  return tag == kOutNone ? AdjOutState::kWithdrawn : AdjOutState::kAdvertised;
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::adj_out_unit(
    const Prefix& prefix, AsId neighbor) const {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return std::nullopt;
  return adj_out_unit(store_->find(prefix), slot);
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::adj_out_unit(
    PrefixId id, std::uint32_t slot) const {
  const PrefixRib* r = store_->find(id);
  const std::uint32_t s = first_ + slot;
  if (r == nullptr || r->out_tag[s] != kOutUnit) return std::nullopt;
  ExportUnit out;
  out.path = r->out_path[s];
  out.communities = r->out_comm[s];
  if (const HintTable* hints = side(r->out_hints)) {
    if (const AvoidHint* h = sparse_at(*hints, slot)) out.avoid_hint = *h;
  }
  return out;
}

void BgpSpeaker::record_advertised(const Prefix& prefix, AsId neighbor,
                                   std::optional<ExportUnit> unit) {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return;  // engine only records for real sessions
  record_advertised(store_->intern(prefix), slot, std::move(unit));
}

void BgpSpeaker::record_advertised(PrefixId id, std::uint32_t slot,
                                   std::optional<ExportUnit> unit) {
  PrefixRib& r = hold(id);
  r.flags[index_] |= kOutSized;
  const std::uint32_t s = first_ + slot;
  if (unit) {
    r.out_tag[s] = kOutUnit;
    r.out_path[s] = std::move(unit->path);
    r.out_comm[s] = std::move(unit->communities);
    set_hint(r.out_hints, slot, unit->avoid_hint);
  } else {
    r.out_tag[s] = kOutNone;
    r.out_path[s] = PathRef();
    r.out_comm[s] = CommunitiesRef();
    set_hint(r.out_hints, slot, std::nullopt);
  }
}

std::vector<Prefix> BgpSpeaker::known_prefixes() const {
  std::vector<Prefix> out;
  for (PrefixId id = 0; id < store_->size(); ++id) {
    if (store_->at(id).flags[index_] & kHeld) {
      out.push_back(store_->prefix(id));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<double> BgpSpeaker::damping_reuse_delay(const Prefix& prefix,
                                                      AsId neighbor,
                                                      double now) const {
  return damping_reuse_delay(store_->find(prefix), slot_of(neighbor), now);
}

std::optional<double> BgpSpeaker::damping_reuse_delay(PrefixId id,
                                                      std::uint32_t slot,
                                                      double now) const {
  const PrefixRib* r = held(id);
  const SlotTable<DampingState>* table =
      r != nullptr ? side(r->damping) : nullptr;
  const DampingState* d = table != nullptr ? sparse_at(*table, slot) : nullptr;
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
  return recheck_damping(store_->find(prefix), slot_of(neighbor), now);
}

bool BgpSpeaker::recheck_damping(PrefixId id, std::uint32_t slot, double now) {
  PrefixRib* r = held(id);
  SlotTable<DampingState>* table =
      r != nullptr ? side(r->damping, false) : nullptr;
  DampingState* d = table != nullptr ? sparse_at(*table, slot) : nullptr;
  if (d == nullptr || !d->suppressed) return false;
  decay_penalty(d->penalty, d->last_update, now,
                cfg_.damping_half_life_seconds);
  if (d->penalty > cfg_.damping_reuse_threshold) return false;
  d->suppressed = false;
  return recompute_best(id, *r);
}

bool BgpSpeaker::is_suppressed(const Prefix& prefix, AsId neighbor) const {
  const PrefixRib* r = held(prefix);
  const SlotTable<DampingState>* table =
      r != nullptr ? side(r->damping) : nullptr;
  const DampingState* d =
      table != nullptr ? sparse_at(*table, slot_of(neighbor)) : nullptr;
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
  // Counts over this speaker's row. An engine-attached speaker's bytes are
  // its own object only: the engine counts its store, session CSR and
  // interner once (BgpEngine::rib_memory).
  const RibStore::Usage u =
      store_->usage(index_, index_ + 1, first_, first_ + row_.degree);
  RibMemory m;
  m.bytes = sizeof(*this);
  if (own_) {
    m.bytes += sizeof(Standalone) + own_->store.memory_bytes() +
               own_->peer.capacity() * sizeof(AsId) +
               own_->rel.capacity() * sizeof(topo::Rel);
  }
  m.routes = u.routes;
  m.adj_out_slots = u.adj_out_slots;
  m.prefixes = u.held;
  return m;
}

}  // namespace lg::bgp
