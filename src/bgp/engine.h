// Event-driven BGP propagation engine.
//
// Drives UPDATE exchange between all speakers over the simulation scheduler:
// per-(session, prefix) MRAI rate limiting (this is what creates the paper's
// multi-minute convergence and path exploration), link propagation delays,
// and bookkeeping for the convergence/update-count measurements of §5.2 and
// the load model of Table 2.
//
// Deliveries run through a *frontier pump*: every in-flight update is
// assigned to the first quantum boundary at or after its arrival time
// (EngineConfig::pump_quantum), and all updates landing in the same quantum
// form one frontier. A frontier is one serial pass over its receivers in
// AS-index order, each receiver's updates in arrival order: import, then
// counters, traces, fault bookkeeping and damping rechecks per update, then
// one route-change notification and export per prefix whose best route
// changed *net* across the frontier. See DESIGN.md "Frontier pump".
//
// Dense keys on the hot path. Every prefix is interned once into a PrefixId
// (originate/withdraw), and every directed session has a dense index in a
// compressed-sparse-row layout over the AS indices (the session CSR). Each
// AS's row lists its neighbors in ascending id order, so a session's offset
// in its row is the neighbor *slot*; speakers read their row instead of
// keeping their own copy.
//
// Prefix-major storage. The engine owns one RibStore (bgp/rib_store.h): a
// record per PrefixId, allocated when the prefix is interned, with arrays
// over all directed sessions (Adj-RIB-In, Adj-RIB-Out, the MRAI row) indexed
// by session, and arrays over the AS indices (best route, export cache,
// flags). Each BgpSpeaker is a view of its AS index and session row over the
// store. Updates carry their PrefixId and the receiver's slot, exports walk a
// per-AS list of slots in graph neighbor order (the order that fixes the RNG
// draws), and MRAI flush closures capture only (session, PrefixId), so they
// fit std::function's inline buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/speaker.h"
#include "bgp/types.h"
#include "mem/pool.h"
#include "obs/span.h"
#include "topology/as_graph.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace lg::obs {
class Counter;
class TraceRing;
}  // namespace lg::obs

namespace lg::faults {
class FaultPlane;
}  // namespace lg::faults

namespace lg::adversary {
class AdversaryPlane;
}  // namespace lg::adversary

namespace lg::util {
class BinWriter;
class BinReader;
}  // namespace lg::util

namespace lg::bgp {

struct EngineConfig {
  double link_delay_min = 0.01;   // seconds, one-way per BGP session
  double link_delay_max = 0.05;
  double default_mrai = 30.0;     // per-session, per-prefix advertisement gap
  double mrai_jitter_frac = 0.25; // effective MRAI in [mrai*(1-f), mrai]
  std::uint64_t seed = 7;
  // Frontier quantum: an update arriving at t is delivered at the first
  // multiple of pump_quantum >= t, batching same-quantum arrivals into one
  // frontier. Part of the simulation semantics; keep it below
  // link_delay_min so cross-session ordering stays delay-driven.
  double pump_quantum = 0.005;
};

// Fired whenever a speaker's best route for a prefix changes (equivalently:
// whenever the AS would send an UPDATE to a route-collector customer).
struct RouteEvent {
  double time = 0.0;
  AsId as = topo::kInvalidAs;
  Prefix prefix;
  std::optional<Route> best;  // nullopt = route lost
};

class RouteObserver {
 public:
  virtual ~RouteObserver() = default;
  virtual void on_route_change(const RouteEvent& event) = 0;
};

class BgpEngine {
 public:
  BgpEngine(const topo::AsGraph& graph, util::Scheduler& sched,
            EngineConfig cfg = {});
  ~BgpEngine();
  BgpEngine(const BgpEngine&) = delete;
  BgpEngine& operator=(const BgpEngine&) = delete;

  const topo::AsGraph& graph() const noexcept { return *graph_; }
  util::Scheduler& scheduler() noexcept { return *sched_; }

  BgpSpeaker& speaker(AsId id);
  const BgpSpeaker& speaker(AsId id) const;

  // The Peerlock locked set (sorted provider-free clique) this engine
  // computed and installed into every speaker; the invariant checker
  // replicates the filter from it.
  const std::vector<AsId>& locked_ases() const noexcept {
    return locked_ases_;
  }
  // Adversarial-import rejection totals across all speakers (diagnostics
  // for bench/sec8_adversarial and the adversary tests).
  std::uint64_t pathlen_rejections() const;
  std::uint64_t peerlock_rejections() const;

  // ---- Origination control (what BGP-Mux gave the paper's authors) ----
  // (Re)announce `prefix` from `as` under `policy`; triggers propagation.
  void originate(AsId as, const Prefix& prefix, OriginPolicy policy);
  // Stop announcing entirely.
  void withdraw(AsId as, const Prefix& prefix);

  // ---- Observation ----
  void add_observer(RouteObserver* observer) { observers_.push_back(observer); }
  void remove_observer(RouteObserver* observer);

  // ---- Queries ----
  const Route* best_route(AsId as, const Prefix& prefix) const {
    return speaker(as).best_route(prefix);
  }
  FibResult fib_lookup(AsId as, topo::Ipv4 dst) const {
    return speaker(as).fib_lookup(dst);
  }

  // Run the scheduler until BGP quiesces (no pending events) or `until`.
  void run_to_quiescence(double until = util::Scheduler::kForever) {
    sched_->run(until);
  }

  // Re-run the export path for every (speaker, prefix) pair. At a true
  // quiesced fixpoint every export diff against Adj-RIB-Out is empty, so
  // this sends zero messages — lg::check uses that as an idempotence
  // invariant (total_messages() unchanged across the call + drain).
  void reexport_all();

  // ---- Counters (resettable; used for U in Table 2 and §5.2) ----
  // Also zeroes this engine's lg.bgp.* counters in the metrics registry it
  // was constructed against, so per-phase run reports do not double-count
  // earlier phases of the same process.
  void reset_counters();
  std::uint64_t total_messages() const noexcept { return total_messages_; }
  std::uint64_t messages_sent_by(AsId as) const;
  std::uint64_t best_changes_of(AsId as) const;
  // Time of the last delivered message since reset (global convergence end).
  double last_activity_time() const noexcept { return last_activity_; }

  // Deterministic structural memory accounting: the RIB store (every
  // speaker's tables and the MRAI rows), the speakers, the session CSR and
  // the frontier pool. Shared path/community buffers are excluded (they
  // cost one allocation per distinct buffer, not per holder); see
  // docs/TOPOLOGIES.md for the model.
  struct RibMemoryTotals {
    std::size_t bytes = 0;          // container footprint in bytes
    std::size_t routes = 0;         // resident Adj-RIB-In entries
    std::size_t adj_out_slots = 0;  // advertised Adj-RIB-Out entries
    std::size_t prefix_states = 0;  // (AS, prefix) states held
  };
  RibMemoryTotals rib_memory() const;

  // ---- Checkpoint/restore (implemented in bgp/snapshot.cc) ----
  // Serialize the full control-plane state: every speaker's RIBs (with
  // engine-wide interning of shared path/community buffers), the per-
  // (session, prefix) MRAI tables, the engine RNG mid-stream (link-delay /
  // MRAI jitter consumption), and the resettable counters. Precondition:
  // the engine is quiesced — no frontier bucket pending and no update in
  // flight (throws std::runtime_error otherwise; in-flight closures cannot
  // be serialized).
  void save_snapshot(util::BinWriter& w) const;
  // Reinstate a snapshot taken by save_snapshot on an engine built over the
  // same topology with the same configuration. Existing speaker state is
  // replaced wholesale; the same quiescence precondition applies.
  void load_snapshot(util::BinReader& r);

 private:
  // Prefix-level before/after snapshot so a frontier that flip-flops a best
  // route inside one quantum produces no spurious route event or export.
  struct PrefixTouch {
    PrefixId prefix = kNoPrefixId;
    std::optional<Route> before;
    bool any_changed = false;
  };

  // The field list behind save_snapshot/load_snapshot (bgp/snapshot.cc);
  // Self is const BgpEngine on save.
  template <typename Io, typename Self>
  static void snapshot_fields(Io& io, Self& self);

  static constexpr std::uint32_t kNoIndex = 0xffffffffu;
  std::uint32_t index_of(AsId id) const noexcept;
  std::uint32_t checked_index(AsId id) const;  // throws std::out_of_range

  // Build the session CSR (sess_*) from the graph.
  void build_sessions(const topo::AsGraph& graph);
  // The AS index owning directed session `session` (binary search over
  // sess_base_; only the rare MRAI-flush and fault-retry paths need it).
  std::uint32_t session_owner(std::uint32_t session) const noexcept;

  // Export `prefix` from AS index `from` to every neighbor, in graph
  // neighbor order.
  void schedule_exports(std::uint32_t from, PrefixId prefix);
  void try_send(std::uint32_t from, std::uint32_t session, PrefixId prefix);
  void send_now(std::uint32_t from, std::uint32_t session, PrefixId prefix,
                MraiState& mrai);
  MraiState& mrai_state(std::uint32_t session, PrefixId prefix);
  // Route the message into its quantum bucket (scheduling the bucket's pump
  // tick if this is the bucket's first message).
  void enqueue_delivery(double due, UpdateMessage msg);
  // Process one frontier: receivers in AS-index order, each receiver's
  // messages in arrival order.
  void pump_frontier(std::int64_t bucket);
  // Deliver one receiver's run, the messages order_[first, last) name, to
  // AS index `to`: per message the fault-plane gate, import, counters,
  // traces and damping recheck, then one notify + export per prefix whose
  // best route changed net. Returns how many messages left flight (all but
  // the fault-plane requeues).
  std::size_t deliver_run(std::uint32_t to, std::vector<UpdateMessage>& msgs,
                          std::size_t first, std::size_t last, double now);
  void notify(std::uint32_t as, PrefixId prefix);
  // Convergence-pump spans: a bgp.pump span covers each maximal period with
  // at least one update in flight (the 0 -> 1 transition opens it, the
  // drain back to 0 closes it with an updates_delivered delta). With spans
  // disabled this is an integer inc/dec plus one branch per message.
  void delivery_scheduled();
  void delivery_done();
  double mrai_for(std::uint32_t from);
  double link_delay() { return rng_.uniform(cfg_.link_delay_min, cfg_.link_delay_max); }

  const topo::AsGraph* graph_;
  util::Scheduler* sched_;
  EngineConfig cfg_;
  util::Rng rng_;
  // Fault plane resolved at construction (faults::FaultPlane::current()).
  // Disabled plane => every hook is one predictable branch; enabled plane
  // injects session downtime, update loss (with retransmit), and delays.
  faults::FaultPlane* faults_;
  // Adversary plane resolved at construction (AdversaryPlane::current()).
  // Disabled plane => no profiles applied, locked set still computed (the
  // filter is inert without a profile switching it on).
  adversary::AdversaryPlane* adversary_;
  std::vector<AsId> locked_ases_;

  // Dense per-AS state: speakers and counters are vectors indexed by the
  // rank of the AS id in sorted order (ids are contiguous in generated
  // topologies, so the offset table below is direct-mapped). Removes hash
  // cost from the hot pump and makes frontier partitioning cache friendly.
  std::vector<AsId> as_ids_;  // sorted
  AsId min_id_ = 0;
  std::vector<std::uint32_t> id_to_index_;  // offset table over the id span
  std::unordered_map<AsId, std::uint32_t> sparse_index_;  // huge-span fallback
  std::vector<BgpSpeaker> speakers_;

  // Directed-session CSR over AS indices: row i spans
  // [sess_base_[i], sess_base_[i+1]) and lists AS i's neighbors in ascending
  // id order, so (session - sess_base_[i]) is the neighbor's slot in every
  // speaker RIB table. Speakers read their row through a SessionRow.
  std::vector<std::uint32_t> sess_base_;   // size n+1
  std::vector<AsId> sess_peer_;            // neighbor id per session
  std::vector<topo::Rel> sess_rel_;        // what the neighbor is to the AS
  // The AS's own slot in the neighbor's row: the receiver's slot that
  // every update sent on the session carries.
  std::vector<std::uint32_t> sess_peer_slot_;
  // Per row, the slots in graph neighbor order: the export order, which
  // fixes the order of MRAI-jitter and link-delay draws.
  std::vector<std::uint32_t> sess_export_;
  // The prefix-major RIB: every speaker's tables and the MRAI rows.
  RibStore store_;
  std::vector<RouteObserver*> observers_;

  // Frontier buckets keyed by quantum index (bucket time = key * quantum).
  // Exactly one pump tick is scheduled per live bucket.
  std::unordered_map<std::int64_t, std::vector<UpdateMessage>> frontier_;
  // Retired bucket vectors, recycled by enqueue_delivery so steady-state
  // pumping allocates no per-bucket storage.
  mem::VectorPool<UpdateMessage> msg_pool_;
  // Reusable pump scratch: one (receiver AS index << 32 | arrival index)
  // key per frontier message, and the touched prefixes of one receiver.
  std::vector<std::uint64_t> order_;
  std::vector<PrefixTouch> touched_;

  std::uint64_t total_messages_ = 0;
  double last_activity_ = 0.0;
  std::vector<std::uint64_t> sent_by_;
  std::vector<std::uint64_t> best_changes_;
  // Pump-span bookkeeping (see delivery_scheduled/delivery_done).
  std::uint64_t in_flight_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t pump_delivered_start_ = 0;
  obs::SpanId pump_span_ = 0;

  // Observability handles, resolved once against the global registry so the
  // per-message cost is a branch plus an add (see obs/metrics.h).
  obs::Counter* c_updates_sent_;
  obs::Counter* c_announces_sent_;
  obs::Counter* c_withdrawals_sent_;
  obs::Counter* c_updates_delivered_;
  obs::Counter* c_mrai_deferrals_;
  obs::Counter* c_best_path_changes_;
  // Fault-plane consequence counters; registered only when the plane is
  // enabled (like lg.faults.*) so fault-free reports stay byte-identical.
  // With them, the identity sent == announces + withdrawals + lost holds.
  obs::Counter* c_updates_lost_ = nullptr;
  obs::Counter* c_updates_stale_dropped_ = nullptr;
  obs::TraceRing* trace_;
  obs::SpanRegistry* spans_;
};

}  // namespace lg::bgp
