#include "bgp/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "adversary/adversary_plane.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lg::bgp {

BgpEngine::BgpEngine(const topo::AsGraph& graph, util::Scheduler& sched,
                     EngineConfig cfg)
    : graph_(&graph), sched_(&sched), cfg_(cfg), rng_(cfg.seed, 0x62677065ULL) {
  auto& reg = obs::MetricsRegistry::current();
  c_updates_sent_ = &reg.counter("lg.bgp.updates_sent");
  c_announces_sent_ = &reg.counter("lg.bgp.announces_sent");
  c_withdrawals_sent_ = &reg.counter("lg.bgp.withdrawals_sent");
  c_updates_delivered_ = &reg.counter("lg.bgp.updates_delivered");
  c_mrai_deferrals_ = &reg.counter("lg.bgp.mrai_deferrals");
  c_best_path_changes_ = &reg.counter("lg.bgp.best_path_changes");
  trace_ = &obs::TraceRing::current();
  spans_ = &obs::SpanRegistry::current();
  faults_ = &faults::FaultPlane::current();
  // Only an enabled fault plane can lose updates or reorder deliveries, so
  // only then do these counters exist — registering them unconditionally
  // would add zero-valued rows to every fault-free run report.
  if (faults_->enabled()) {
    c_updates_lost_ = &reg.counter("lg.bgp.updates_lost");
    c_updates_stale_dropped_ = &reg.counter("lg.bgp.updates_stale_dropped");
  }

  as_ids_ = graph.as_ids();  // sorted: index order == AS-id order
  const std::size_t n = as_ids_.size();
  if (n != 0) {
    min_id_ = as_ids_.front();
    const std::uint64_t span =
        static_cast<std::uint64_t>(as_ids_.back()) - min_id_ + 1;
    // Generated topologies use contiguous ids, so the offset table is
    // direct-mapped; fall back to a hash map only for pathological id spans
    // (hand-built graphs with, say, real sparse ASNs).
    if (span <= 4 * static_cast<std::uint64_t>(n) + 1024) {
      id_to_index_.assign(static_cast<std::size_t>(span), kNoIndex);
      for (std::size_t i = 0; i < n; ++i) {
        id_to_index_[as_ids_[i] - min_id_] = static_cast<std::uint32_t>(i);
      }
    } else {
      sparse_index_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        sparse_index_.emplace(as_ids_[i], static_cast<std::uint32_t>(i));
      }
    }
  }
  build_sessions(graph);
  speakers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t base = sess_base_[i];
    const SessionRow row{sess_peer_.data() + base, sess_rel_.data() + base,
                         sess_base_[i + 1] - base};
    speakers_.emplace_back(as_ids_[i], graph, row, prefixes_);
  }
  sent_by_.assign(n, 0);
  best_changes_.assign(n, 0);

  // Peerlock locked set: computed unconditionally (cheap const queries
  // against the immutable graph) so every speaker always holds the pointer;
  // the filter is inert unless an adversary profile turns it on.
  locked_ases_ = adversary::locked_ases(graph);
  for (auto& sp : speakers_) sp.set_locked_ases(&locked_ases_);
  // Adversary plane, same resolution idiom as the fault plane above. With
  // the plane enabled, merge every AS's hash-derived behavior profile into
  // its speaker config; check::ReferenceBgp derives the same profiles
  // independently, which is what keeps the differential oracle authoritative
  // under adversarial policies.
  adversary_ = &adversary::AdversaryPlane::current();
  if (adversary_->enabled()) {
    const adversary::RoleTable roles(graph);
    std::size_t n_pathlen = 0, n_defroute = 0, n_peerlock = 0, n_destab = 0;
    for (auto& sp : speakers_) {
      const adversary::Profile p =
          adversary_->profile_for(sp.id(), roles.role(sp.id()));
      if (!p.any()) continue;
      auto& scfg = sp.mutable_config();
      if (p.path_length_limit != 0) {
        scfg.path_length_limit = p.path_length_limit;
        ++n_pathlen;
      }
      if (p.default_route) {
        scfg.has_default_route = true;
        ++n_defroute;
      }
      if (p.peerlock) {
        scfg.peerlock_filter = true;
        ++n_peerlock;
      }
      if (p.destabilizer) ++n_destab;
    }
    adversary_->note_applied(n_pathlen, n_defroute, n_peerlock, n_destab);
  }
}

BgpEngine::~BgpEngine() = default;

std::uint32_t BgpEngine::index_of(AsId id) const noexcept {
  if (!sparse_index_.empty()) {
    const auto it = sparse_index_.find(id);
    return it == sparse_index_.end() ? kNoIndex : it->second;
  }
  if (id < min_id_) return kNoIndex;
  const std::uint64_t off = static_cast<std::uint64_t>(id) - min_id_;
  if (off >= id_to_index_.size()) return kNoIndex;
  return id_to_index_[static_cast<std::size_t>(off)];
}

std::uint32_t BgpEngine::checked_index(AsId id) const {
  const std::uint32_t idx = index_of(id);
  if (idx == kNoIndex) {
    throw std::out_of_range("unknown AS " + std::to_string(id));
  }
  return idx;
}

BgpSpeaker& BgpEngine::speaker(AsId id) { return speakers_[checked_index(id)]; }

const BgpSpeaker& BgpEngine::speaker(AsId id) const {
  return speakers_[checked_index(id)];
}

void BgpEngine::remove_observer(RouteObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void BgpEngine::build_sessions(const topo::AsGraph& graph) {
  const std::size_t n = as_ids_.size();
  std::vector<const std::vector<topo::Neighbor>*> adj(n);
  sess_base_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    adj[i] = &graph.neighbors(as_ids_[i]);
    sess_base_[i + 1] =
        sess_base_[i] + static_cast<std::uint32_t>(adj[i]->size());
  }
  const std::size_t total = sess_base_[n];
  sess_peer_.resize(total);
  sess_rel_.resize(total);
  sess_peer_slot_.resize(total);
  sess_export_.resize(total);
  // Links are symmetric (AsGraph::add_link records both directions), so
  // pushing every AS, in ascending index order, into each neighbor's row
  // fills every row already sorted by id — no per-row sort. Meanwhile each
  // export-order entry (row i, graph position k, neighbor j) notes the
  // session j -> i, whose peer slot below is j's slot in row i.
  std::vector<std::uint32_t> fill(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t k = sess_base_[i];
    for (const topo::Neighbor& nb : *adj[i]) {
      const std::uint32_t j = checked_index(nb.id);
      const std::uint32_t s = sess_base_[j] + fill[j]++;
      sess_peer_[s] = as_ids_[i];
      sess_rel_[s] = topo::reverse(nb.rel);  // what i is to j
      sess_export_[k++] = s;
    }
  }
  // The same ascending sweep over the sorted rows yields each AS's slot in
  // its neighbor's row: when row j is visited, neighbor i's row holds
  // exactly the fill[i] neighbors with ids below j.
  std::fill(fill.begin(), fill.end(), 0);
  for (std::uint32_t j = 0; j < n; ++j) {
    for (std::uint32_t s = sess_base_[j]; s < sess_base_[j + 1]; ++s) {
      sess_peer_slot_[s] = fill[checked_index(sess_peer_[s])]++;
    }
  }
  for (std::uint32_t& e : sess_export_) e = sess_peer_slot_[e];
}

std::uint32_t BgpEngine::session_owner(std::uint32_t session) const noexcept {
  const auto it =
      std::upper_bound(sess_base_.begin(), sess_base_.end(), session);
  return static_cast<std::uint32_t>(it - sess_base_.begin()) - 1;
}

void BgpEngine::originate(AsId as, const Prefix& prefix, OriginPolicy policy) {
  const std::uint32_t idx = checked_index(as);
  const PrefixId id = prefixes_.intern(prefix);
  speakers_[idx].set_origin_policy(id, std::move(policy));
  schedule_exports(idx, id);
}

void BgpEngine::withdraw(AsId as, const Prefix& prefix) {
  const std::uint32_t idx = checked_index(as);
  const PrefixId id = prefixes_.intern(prefix);
  speakers_[idx].clear_origin_policy(id);
  schedule_exports(idx, id);
}

void BgpEngine::schedule_exports(std::uint32_t from, PrefixId prefix) {
  const std::uint32_t base = sess_base_[from];
  const std::uint32_t end = sess_base_[from + 1];
  for (std::uint32_t k = base; k < end; ++k) {
    try_send(from, base + sess_export_[k], prefix);
  }
}

double BgpEngine::mrai_for(std::uint32_t from) {
  const double own = speakers_[from].config().mrai_seconds;
  const double base = own >= 0.0 ? own : cfg_.default_mrai;
  const double lo = base * (1.0 - cfg_.mrai_jitter_frac);
  return rng_.uniform(lo, base);
}

BgpEngine::MraiState& BgpEngine::mrai_state(std::uint32_t session,
                                            PrefixId prefix) {
  // Speakers may intern prefixes through their own Prefix-keyed API, so the
  // outer table grows on demand rather than at intern time.
  if (prefix >= mrai_.size()) mrai_.resize(prefix + 1);
  std::vector<MraiState>& table = mrai_[prefix];
  if (table.empty()) table.resize(sess_peer_.size());
  return table[session];
}

void BgpEngine::try_send(std::uint32_t from, std::uint32_t session,
                         PrefixId prefix) {
  auto& mrai = mrai_state(session, prefix);
  const double now = sched_->now();
  if (now >= mrai.ready_at) {
    send_now(from, session, prefix, mrai);
    return;
  }
  if (!mrai.flush_scheduled) {
    mrai.flush_scheduled = true;
    c_mrai_deferrals_->inc();
    trace_->record(now, obs::TraceKind::kMraiDefer, as_ids_[from],
                   sess_peer_[session], mrai.ready_at - now);
    // Two 32-bit keys and `this`: fits std::function's inline buffer.
    sched_->at(mrai.ready_at, [this, session, prefix] {
      auto& m = mrai_state(session, prefix);
      m.flush_scheduled = false;
      send_now(session_owner(session), session, prefix, m);
    });
  }
}

void BgpEngine::send_now(std::uint32_t from_idx, std::uint32_t session,
                         PrefixId prefix, MraiState& mrai) {
  const AsId from = as_ids_[from_idx];
  const AsId to = sess_peer_[session];
  // Fault plane: a reset session sends nothing. Retry once it is back up —
  // the diff against Adj-RIB-Out then sends whatever is current, so the
  // control plane stays eventually consistent through the outage.
  if (faults_->enabled() && !faults_->session_up(from, to, sched_->now())) {
    faults_->note_session_hit(from, to, sched_->now());
    const double up = faults_->session_restored_at(from, to, sched_->now());
    sched_->at(up + 1e-3, [this, session, prefix] {
      try_send(session_owner(session), session, prefix);
    });
    return;
  }
  BgpSpeaker& sender = speakers_[from_idx];
  const std::uint32_t slot = session - sess_base_[from_idx];
  const auto current = sender.export_path(prefix, slot);
  const auto state = sender.adj_out_state(prefix, slot);
  const bool had_advertised = state == BgpSpeaker::AdjOutState::kAdvertised;
  if (state == BgpSpeaker::AdjOutState::kNeverAdvertised) {
    if (!current) return;  // never advertised, nothing now
  } else if (sender.adj_out_unit(prefix, slot) == current) {
    return;  // nothing new to say
  }

  UpdateMessage msg;
  msg.from = from;
  msg.to = to;
  msg.prefix = prefixes_.prefix(prefix);
  msg.prefix_id = prefix;
  msg.to_slot = sess_peer_slot_[session];
  msg.seq = ++mrai.next_seq;
  if (current) {
    msg.type = MsgType::kAnnounce;
    msg.path = current->path;
    msg.communities = current->communities;
    msg.avoid_hint = current->avoid_hint;
  } else {
    if (!had_advertised) {  // adj-out holds an explicit "withdrawn" marker
      sender.record_advertised(prefix, slot, std::nullopt);
      return;
    }
    msg.type = MsgType::kWithdraw;
  }
  // Fault plane: decide loss BEFORE recording the Adj-RIB-Out. A lost update
  // must leave adj-out untouched, or the retransmit scheduled here would see
  // "already advertised" and never re-send.
  if (faults_->enabled() && faults_->lose_update(from, to, sched_->now())) {
    mrai.ready_at = sched_->now() + mrai_for(from_idx);
    ++total_messages_;
    ++sent_by_[from_idx];
    c_updates_sent_->inc();
    // A lost update is neither an announce nor a withdrawal on the wire;
    // book it under its own counter so sent == announces + withdrawals +
    // lost stays an identity, and leave a trace of the eaten send.
    c_updates_lost_->inc();
    trace_->record(sched_->now(), obs::TraceKind::kUpdateLost, from, to);
    sched_->after(faults_->config().update_retransmit_seconds,
                  [this, session, prefix] {
                    try_send(session_owner(session), session, prefix);
                  });
    return;
  }
  sender.record_advertised(prefix, slot, current);
  mrai.ready_at = sched_->now() + mrai_for(from_idx);

  ++total_messages_;
  ++sent_by_[from_idx];
  c_updates_sent_->inc();
  if (msg.type == MsgType::kAnnounce) {
    c_announces_sent_->inc();
    trace_->record(sched_->now(), obs::TraceKind::kUpdateSent, from, to);
  } else {
    c_withdrawals_sent_->inc();
    trace_->record(sched_->now(), obs::TraceKind::kWithdrawSent, from, to);
  }
  double delay = link_delay();
  if (faults_->enabled()) {
    delay += faults_->update_delay(from, to, sched_->now());
  }
  delivery_scheduled();
  enqueue_delivery(sched_->now() + delay, std::move(msg));
}

void BgpEngine::delivery_scheduled() {
  if (++in_flight_ == 1 && spans_->enabled()) {
    pump_span_ = spans_->begin(sched_->now(), "bgp.pump");
    pump_delivered_start_ = delivered_total_;
  }
}

void BgpEngine::delivery_done() {
  if (--in_flight_ == 0 && pump_span_ != 0) {
    spans_->annotate(
        pump_span_, "updates_delivered",
        static_cast<double>(delivered_total_ - pump_delivered_start_));
    spans_->end(pump_span_, sched_->now());
    pump_span_ = 0;
  }
}

void BgpEngine::enqueue_delivery(double due, UpdateMessage msg) {
  // First quantum boundary at or after the arrival time. One pump tick per
  // live bucket: later arrivals for the same quantum just append. A bucket
  // cannot be resurrected after its tick ran — anything enqueued *during*
  // the tick at the bucket's own instant lands back in the map and
  // re-schedules, and the scheduler's batch extraction runs it in the same
  // step, preserving at-that-instant delivery.
  const auto bucket = static_cast<std::int64_t>(
      std::ceil(due / cfg_.pump_quantum));
  const auto [it, inserted] = frontier_.try_emplace(bucket);
  if (inserted) it->second = msg_pool_.acquire();
  it->second.push_back(std::move(msg));
  if (inserted) {
    sched_->at(static_cast<double>(bucket) * cfg_.pump_quantum,
               [this, bucket] { pump_frontier(bucket); });
  }
}

void BgpEngine::pump_frontier(std::int64_t bucket) {
  const auto fit = frontier_.find(bucket);
  if (fit == frontier_.end()) return;
  std::vector<UpdateMessage> msgs = std::move(fit->second);
  frontier_.erase(fit);
  const double now = sched_->now();

  // One key per message, receiver AS index above arrival index: sorted, the
  // keys list each receiver's run in arrival order, receivers in AS-index
  // order. No receiver's import reads what an earlier receiver's delivery
  // wrote (that receiver's Adj-RIB-Out and MRAI rows, the RNG, counters),
  // and sends made during the pass go to frontier_, never into `msgs`.
  order_.clear();
  for (std::uint32_t i = 0; i < msgs.size(); ++i) {
    order_.push_back(
        static_cast<std::uint64_t>(checked_index(msgs[i].to)) << 32 | i);
  }
  std::sort(order_.begin(), order_.end());
  std::size_t terminal = 0;
  for (std::size_t lo = 0; lo < order_.size();) {
    const auto to = static_cast<std::uint32_t>(order_[lo] >> 32);
    std::size_t hi = lo + 1;
    while (hi < order_.size() && (order_[hi] >> 32) == to) ++hi;
    terminal += deliver_run(to, msgs, lo, hi, now);
    lo = hi;
  }
  // Terminal messages leave flight only after the cascade above: any exports
  // this frontier triggered are already counted, so a still-busy pump span
  // stays open across back-to-back frontiers.
  for (; terminal > 0; --terminal) delivery_done();
  msg_pool_.release(std::move(msgs));
}

std::size_t BgpEngine::deliver_run(std::uint32_t to,
                                   std::vector<UpdateMessage>& msgs,
                                   std::size_t first, std::size_t last,
                                   double now) {
  BgpSpeaker& receiver = speakers_[to];
  const bool faults_on = faults_->enabled();
  // With a single message there is nothing to net out: the frontier outcome
  // is exactly the per-event outcome, so skip the best-route snapshot and
  // the post-loop value comparison (the dominant case in sparse phases of
  // convergence, where copying Routes would swamp the import itself).
  const bool single = last - first == 1;
  touched_.clear();
  std::size_t terminal = 0;
  for (std::size_t k = first; k < last; ++k) {
    UpdateMessage& msg = msgs[static_cast<std::uint32_t>(order_[k])];
    // Fault plane: the session reset while this update was in flight. Model
    // TCP/session recovery by re-queueing delivery for when it comes back
    // up; any newer state sent after restoration diffs against adj-out and
    // supersedes this message shortly after.
    if (faults_on && !faults_->session_up(msg.from, msg.to, now)) {
      const double at = faults_->session_restored_at(msg.from, msg.to, now);
      faults_->note_session_hit(msg.from, msg.to, now);
      enqueue_delivery(at + 1e-3, std::move(msg));
      continue;
    }
    ++terminal;
    // Fault-plane requeues can reorder deliveries on a session: an update
    // requeued across a reset lands at the same quantum the post-restore
    // adj-out retransmit uses, so without this check a stale announce could
    // be applied after (or instead of) the fresh diff and pin the receiver
    // to an outdated path until the next unrelated update. Sequence numbers
    // are per-(session, prefix) and monotone at the sender, so anything at
    // or below the last applied seq is superseded. The applied seq lives in
    // the receiver's own row (the reverse session).
    if (faults_on) {
      std::uint32_t& applied =
          mrai_[msg.prefix_id][sess_base_[to] + msg.to_slot].applied_seq;
      if (msg.seq <= applied) {
        c_updates_stale_dropped_->inc();
        trace_->record(now, obs::TraceKind::kStaleUpdateDropped, msg.from,
                       msg.to);
        continue;
      }
      applied = static_cast<std::uint32_t>(msg.seq);
    }
    // Snapshot the pre-frontier best on first touch of each prefix, so the
    // loop below can detect *net* route changes across the whole frontier.
    std::size_t t = 0;
    while (t < touched_.size() && touched_[t].prefix != msg.prefix_id) ++t;
    if (t == touched_.size()) {
      touched_.push_back(PrefixTouch{msg.prefix_id});
      if (!single) {
        if (const Route* best = receiver.best_route(msg.prefix_id)) {
          touched_.back().before = *best;
        }
      }
    }
    const bool changed =
        receiver.process_update(msg, msg.prefix_id, msg.to_slot, now);
    last_activity_ = now;
    ++delivered_total_;
    c_updates_delivered_->inc();
    trace_->record(now, obs::TraceKind::kUpdateDelivered, msg.from, msg.to);
    if (changed) {
      touched_[t].any_changed = true;
      ++best_changes_[to];
      c_best_path_changes_->inc();
      trace_->record(now, obs::TraceKind::kBestPathChange, msg.to);
    }
    // Flap damping: if this session is suppressed, re-evaluate once the
    // penalty decays to the reuse threshold.
    if (!receiver.config().damping_enabled) continue;
    const std::optional<double> reuse =
        receiver.damping_reuse_delay(msg.prefix_id, msg.to_slot, now);
    if (!reuse) continue;
    const std::uint32_t from_slot = msg.to_slot;
    const PrefixId prefix = msg.prefix_id;
    sched_->after(*reuse + 0.001, [this, to, from_slot, prefix] {
      if (speakers_[to].recheck_damping(prefix, from_slot, sched_->now())) {
        ++best_changes_[to];
        c_best_path_changes_->inc();
        trace_->record(sched_->now(), obs::TraceKind::kBestPathChange,
                       as_ids_[to]);
        notify(to, prefix);
        schedule_exports(to, prefix);
      }
    });
  }
  // Notify + export once per prefix with a *net* best-route change: a
  // frontier that flip-flops a best route inside one quantum produces no
  // spurious route event and no export churn.
  for (const PrefixTouch& touch : touched_) {
    if (!touch.any_changed) continue;
    if (!single) {
      const Route* cur = receiver.best_route(touch.prefix);
      if (cur == nullptr ? !touch.before.has_value()
                         : touch.before.has_value() && *cur == *touch.before) {
        continue;
      }
    }
    notify(to, touch.prefix);
    schedule_exports(to, touch.prefix);
  }
  return terminal;
}

void BgpEngine::notify(std::uint32_t as, PrefixId prefix) {
  if (observers_.empty()) return;
  RouteEvent event;
  event.time = sched_->now();
  event.as = as_ids_[as];
  event.prefix = prefixes_.prefix(prefix);
  if (const Route* best = speakers_[as].best_route(prefix)) {
    event.best = *best;
  }
  for (RouteObserver* obs : observers_) obs->on_route_change(event);
}

void BgpEngine::reset_counters() {
  total_messages_ = 0;
  last_activity_ = sched_->now();
  std::fill(sent_by_.begin(), sent_by_.end(), 0);
  std::fill(best_changes_.begin(), best_changes_.end(), 0);
  // Re-base the pump delta with the phase reset; in-flight count and any
  // open pump span are untouched (messages stay in flight regardless).
  delivered_total_ = 0;
  pump_delivered_start_ = 0;
  // Keep the registry's lg.bgp.* counters in lockstep with the engine-local
  // ones: a run report generated after a reset should only show the phase
  // since the reset, not silently include setup-phase convergence traffic.
  c_updates_sent_->reset();
  c_announces_sent_->reset();
  c_withdrawals_sent_->reset();
  c_updates_delivered_->reset();
  c_mrai_deferrals_->reset();
  c_best_path_changes_->reset();
  if (c_updates_lost_ != nullptr) c_updates_lost_->reset();
  if (c_updates_stale_dropped_ != nullptr) c_updates_stale_dropped_->reset();
}

void BgpEngine::reexport_all() {
  for (std::uint32_t i = 0; i < speakers_.size(); ++i) {
    for (const Prefix& prefix : speakers_[i].known_prefixes()) {
      schedule_exports(i, prefixes_.find(prefix));
    }
  }
}

BgpEngine::RibMemoryTotals BgpEngine::rib_memory() const {
  RibMemoryTotals t;
  for (const BgpSpeaker& spk : speakers_) {
    const BgpSpeaker::RibMemory m = spk.rib_memory();
    t.bytes += m.bytes;
    t.routes += m.routes;
    t.adj_out_slots += m.adj_out_slots;
    t.prefix_states += m.prefixes;
  }
  // Engine-side state: the session CSR, the prefix interner and the flat
  // MRAI tables.
  t.bytes += sess_base_.capacity() * sizeof(std::uint32_t) +
             sess_peer_.capacity() * sizeof(AsId) +
             sess_rel_.capacity() * sizeof(topo::Rel) +
             sess_peer_slot_.capacity() * sizeof(std::uint32_t) +
             sess_export_.capacity() * sizeof(std::uint32_t);
  t.bytes += prefixes_.memory_bytes();
  t.bytes += mrai_.capacity() * sizeof(mrai_[0]);
  for (const auto& table : mrai_) {
    t.bytes += table.capacity() * sizeof(MraiState);
  }
  t.bytes += msg_pool_.spare_bytes();
  return t;
}

std::uint64_t BgpEngine::messages_sent_by(AsId as) const {
  const std::uint32_t idx = index_of(as);
  return idx == kNoIndex ? 0 : sent_by_[idx];
}

std::uint64_t BgpEngine::best_changes_of(AsId as) const {
  const std::uint32_t idx = index_of(as);
  return idx == kNoIndex ? 0 : best_changes_[idx];
}

std::uint64_t BgpEngine::pathlen_rejections() const {
  std::uint64_t n = 0;
  for (const auto& sp : speakers_) n += sp.rejected_pathlen();
  return n;
}

std::uint64_t BgpEngine::peerlock_rejections() const {
  std::uint64_t n = 0;
  for (const auto& sp : speakers_) n += sp.rejected_peerlock();
  return n;
}

}  // namespace lg::bgp
