// One AS-level BGP speaker: Adj-RIB-In per neighbor, the decision process,
// Gao-Rexford export policy, origin announcement policies (including crafted
// poisoned paths), and a longest-prefix-match FIB view.
//
// Loop prevention is the paper's lever: when the origin announces O-A-O, A's
// import filter sees its own ASN and rejects (treating the update as a
// withdrawal of whatever that neighbor previously advertised), so A and
// everything captive behind it lose the route while other ASes route around.
//
// Storage layout: the speaker is a view. Its RIB lives in a prefix-major
// RibStore (bgp/rib_store.h) that the engine owns: one PrefixRib per
// engine-interned PrefixId, holding arrays over every directed session and
// over every AS index. The speaker is its AS index, its row of the engine's
// directed-session CSR (SessionRow) and a pointer to the store.
//  - Prefixes: the Prefix-keyed public methods make one interner lookup and
//    then take the same PrefixId path the engine uses.
//  - Neighbors: a neighbor's *slot* is the rank of its AS id in this
//    speaker's sorted adjacency, and its session index is the row's first
//    session plus the slot. Neighbor ids and relationships are stored once
//    per world in the CSR. Updates from the engine carry the receiver's
//    slot, so delivery does no search.
//  - RIB tables: Adj-RIB-In paths, interned communities and presence bits,
//    and Adj-RIB-Out tags and refs, are per-session entries of the prefix's
//    record; the best route, the export cache and a flags byte are per-AS
//    entries. The learned-from tag is derived from the slot's relationship,
//    not stored. Iteration order is the ascending-neighbor-id order the
//    decision process ties on. Avoid hints, damping state and origin
//    policies are rare, so they live in sparse side-tables of the record.
// A standalone speaker (tests, microbenchmarks) owns a one-row store. See
// docs/TOPOLOGIES.md for the bytes/route model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/rib_store.h"
#include "bgp/types.h"
#include "topology/as_graph.h"
#include "topology/prefix.h"

namespace lg::util {
class BinWriter;
class BinReader;
}  // namespace lg::util

namespace lg::bgp {

struct SnapshotWriterPools;
struct SnapshotReaderPools;

struct SpeakerConfig {
  // Import is rejected when our own ASN appears >= loop_threshold times in
  // the received path. Real-world default is 1; ASes that use the public
  // Internet between sites raise it (§7.1, e.g. AS286 accepts one own-ASN
  // occurrence, so poisoning them requires inserting their ASN twice).
  std::size_t loop_threshold = 1;
  // §7.1 pathological variant: never reject on own ASN.
  bool loop_detection_disabled = false;
  // Cogent-style policy: refuse updates from *customers* whose path contains
  // one of our settlement-free peers (§7.1).
  bool reject_customer_routes_containing_my_peers = false;
  // Data-plane default route toward the first provider when no FIB entry
  // matches (common at stubs; affects poisoning reach, see Bush et al.).
  bool has_default_route = false;
  // Do not propagate community attributes on re-exported routes — the
  // behaviour the paper observed at tier-1s, which breaks communities as a
  // notification channel (§2.3, [30]).
  bool strips_communities = false;
  // Honor AVOID_PROBLEM hints (§3's hypothetical primitive): deprioritize
  // routes whose paths hit the hinted AS/link, falling back to them only
  // when nothing else exists.
  bool honors_avoid_hints = true;
  // Route-flap damping (RFC 2439 style, simplified): each update from a
  // neighbor adds a penalty that decays exponentially; past the suppress
  // threshold the neighbor's route is unusable until the penalty decays to
  // the reuse threshold. This is why the paper's experiments spaced
  // announcements 90 minutes apart. Off by default.
  bool damping_enabled = false;
  double damping_penalty_per_update = 1000.0;
  double damping_suppress_threshold = 2000.0;
  double damping_reuse_threshold = 750.0;
  double damping_half_life_seconds = 900.0;
  // Per-neighbor MRAI override; <0 means "use engine default".
  double mrai_seconds = -1.0;
  // ---- Adversarial import policies (lg::adversary profiles; merged in by
  // the engine when an AdversaryPlane is enabled, and honored identically
  // by check::ReferenceBgp) ----
  // Reject announcements whose AS_PATH exceeds this many hops — the
  // practice that kills long poisoned/prepended paths (Smith et al.).
  // 0 disables the filter.
  std::size_t path_length_limit = 0;
  // Peerlock/leak filter (McDaniel et al.): reject any path in which a
  // locked AS (tier-1 clique, see BgpSpeaker::set_locked_ases) appears
  // behind a hop that is neither locked itself nor the locked AS's
  // customer — the leak shape poisoned announcements produce.
  bool peerlock_filter = false;
};

// One AS's row of the directed-session CSR: its neighbors in ascending id
// order (a neighbor's slot is its index here) and what each is to the AS.
// The arrays are owned by the engine (or by a standalone speaker).
struct SessionRow {
  const AsId* peer = nullptr;
  const topo::Rel* rel = nullptr;
  std::uint32_t degree = 0;
};

struct FibResult {
  bool has_route = false;
  bool local = false;                 // delivered inside this AS
  bool via_default = false;           // matched only the default route
  AsId next_hop = topo::kInvalidAs;   // valid when has_route && !local
  Prefix matched;                     // matched prefix (unset for default)
};

class BgpSpeaker {
 public:
  // Standalone speaker (tests, microbenchmarks): builds its own sorted
  // neighbor row from `graph` and its own one-row store.
  BgpSpeaker(AsId id, const topo::AsGraph& graph, SpeakerConfig cfg = {});
  // Engine-attached speaker: AS index `index` of the engine's `store`, whose
  // sessions are `row` of the engine's CSR starting at session `first`.
  // The row and the store must outlive the speaker.
  BgpSpeaker(AsId id, const topo::AsGraph& graph, SessionRow row,
             RibStore& store, std::uint32_t index, std::uint32_t first);
  BgpSpeaker(BgpSpeaker&&) noexcept;
  BgpSpeaker& operator=(BgpSpeaker&&) noexcept;
  ~BgpSpeaker();

  AsId id() const noexcept { return id_; }
  const SpeakerConfig& config() const noexcept { return cfg_; }
  SpeakerConfig& mutable_config() noexcept { return cfg_; }

  // ---- Origination ----
  void set_origin_policy(const Prefix& prefix, OriginPolicy policy);
  void clear_origin_policy(const Prefix& prefix);
  bool originates(const Prefix& prefix) const;
  const OriginPolicy* origin_policy(const Prefix& prefix) const;

  // ---- Import (driven by the engine) ----
  // Applies import filters and flap damping (at simulated time `now`),
  // updates Adj-RIB-In, reruns the decision process. Returns true iff the
  // best route for msg.prefix changed.
  bool process_update(const UpdateMessage& msg, double now = 0.0);

  // ---- Flap damping (engine-driven timers) ----
  // Seconds until the suppressed (prefix, neighbor) session decays to its
  // reuse threshold; nullopt when not suppressed.
  std::optional<double> damping_reuse_delay(const Prefix& prefix,
                                            AsId neighbor, double now) const;
  // Decay the penalty; if it crossed the reuse threshold, unsuppress and
  // rerun the decision process. Returns true iff the best route changed.
  bool recheck_damping(const Prefix& prefix, AsId neighbor, double now);
  bool is_suppressed(const Prefix& prefix, AsId neighbor) const;

  // ---- Views ----
  const Route* best_route(const Prefix& prefix) const;
  // All Adj-RIB-In entries for a prefix (diagnostics/tests), best first.
  std::vector<Route> rib_in(const Prefix& prefix) const;
  // Longest-prefix-match over origin + best routes. Falls back to the
  // default route if configured.
  FibResult fib_lookup(topo::Ipv4 dst) const;

  // One advertisable unit: path + attached attributes. Path and communities
  // are shared refs, so the engine's UpdateMessage, the delivery lambda, the
  // receiver's Adj-RIB-In, and every neighbor's Adj-RIB-Out slot share the
  // same buffers.
  struct ExportUnit {
    PathRef path;
    CommunitiesRef communities;
    std::optional<AvoidHint> avoid_hint;
    friend bool operator==(const ExportUnit&, const ExportUnit&) = default;
  };

  // What we would advertise to `neighbor` right now (nullopt = nothing).
  // For re-exported routes the self-prepended path is computed once per
  // Loc-RIB change and shared by every neighbor (Adj-RIB-Out delta
  // encoding: per-neighbor state is a tag plus refs into the shared unit).
  std::optional<ExportUnit> export_path(const Prefix& prefix,
                                        AsId neighbor) const;

  // ---- Adj-RIB-Out bookkeeping (the engine diffs against this when MRAI
  // fires). Encoded per neighbor slot as a one-byte tag; kAdvertised slots
  // additionally hold refs shared with the Loc-RIB export unit.
  enum class AdjOutState : std::uint8_t {
    kNeverAdvertised,  // no update ever sent on this session for this prefix
    kWithdrawn,        // last update was a withdrawal (or explicit "nothing")
    kAdvertised,       // last update announced adj_out_unit()
  };
  AdjOutState adj_out_state(const Prefix& prefix, AsId neighbor) const;
  // The advertised unit; nullopt unless adj_out_state == kAdvertised.
  std::optional<ExportUnit> adj_out_unit(const Prefix& prefix,
                                         AsId neighbor) const;
  void record_advertised(const Prefix& prefix, AsId neighbor,
                         std::optional<ExportUnit> unit);

  // Prefixes this speaker has any state for, ascending by Prefix.
  std::vector<Prefix> known_prefixes() const;

  // Relationship of `neighbor` to this AS, via the session row
  // (O(log degree), no graph hashing).
  std::optional<topo::Rel> rel_of(AsId neighbor) const;

  // Data-plane egress override: force all transit traffic out via this
  // neighbor (the knob an edge network turns to repair *forward* path
  // failures by picking a different provider, §2.3). Cleared with nullopt.
  void set_forced_egress(std::optional<AsId> neighbor) {
    forced_egress_ = neighbor;
  }
  std::optional<AsId> forced_egress() const noexcept { return forced_egress_; }
  // First provider (lowest ASN) — target of the default route.
  std::optional<AsId> default_gateway() const;

  // The Peerlock locked set consulted by peerlock_filter: a sorted vector
  // owned by the engine (one copy per world, shared by every speaker).
  // Null until installed; the filter is inert without it.
  void set_locked_ases(const std::vector<AsId>* locked) noexcept {
    locked_ases_ = locked;
  }

  // Import rejection counters (diagnostics).
  std::uint64_t rejected_loop() const noexcept { return rejected_loop_; }
  std::uint64_t rejected_peer_filter() const noexcept {
    return rejected_peer_filter_;
  }
  std::uint64_t rejected_pathlen() const noexcept { return rejected_pathlen_; }
  std::uint64_t rejected_peerlock() const noexcept {
    return rejected_peerlock_;
  }
  // AVOID_PROBLEM's Notification property: how many announcements named
  // this AS as the problem (its operators would be alerted).
  std::uint64_t avoid_notifications() const noexcept {
    return avoid_notifications_;
  }

  // Deterministic structural memory accounting: resident route counts over
  // this speaker's row, and the bytes of the speaker itself plus, for a
  // standalone speaker, its own store (an engine counts its store once, see
  // BgpEngine::rib_memory). Shared path/community buffers are excluded —
  // they are counted once per distinct buffer, not per holder. Feeds the bytes/route headline of BM_RibMemory and
  // bench/internet_scale; see docs/TOPOLOGIES.md for the model.
  struct RibMemory {
    std::size_t bytes = 0;          // container footprint in bytes
    std::size_t routes = 0;         // present Adj-RIB-In slots
    std::size_t adj_out_slots = 0;  // advertised Adj-RIB-Out slots
    std::size_t prefixes = 0;       // prefixes held
  };
  RibMemory rib_memory() const;

  // ---- Checkpoint/restore (implemented in bgp/snapshot.cc) ----
  // Serialize / reinstate this speaker's complete RIB state: every held
  // prefix's row of the store (Adj-RIB-In and Adj-RIB-Out slots, hints,
  // best route, origin policy, export cache, damping), the runtime-mutable
  // config, the forced
  // egress, and the rejection counters. Shared path/community buffers are
  // interned engine-wide through `pools`, so a buffer held by many slots is
  // written once and the sharing survives the round trip.
  void save_snapshot(util::BinWriter& w, SnapshotWriterPools& pools) const;
  void load_snapshot(util::BinReader& r, SnapshotReaderPools& pools);

  // ---- Id path (the engine's hot path; the Prefix/AsId-keyed methods
  // above resolve their keys once and call these). `slot` is a neighbor
  // slot of this speaker's session row.
  bool process_update(const UpdateMessage& msg, PrefixId id,
                      std::uint32_t slot, double now);
  const Route* best_route(PrefixId id) const;
  std::optional<ExportUnit> export_path(PrefixId id, std::uint32_t slot) const;
  AdjOutState adj_out_state(PrefixId id, std::uint32_t slot) const;
  std::optional<ExportUnit> adj_out_unit(PrefixId id, std::uint32_t slot) const;
  void record_advertised(PrefixId id, std::uint32_t slot,
                         std::optional<ExportUnit> unit);
  void set_origin_policy(PrefixId id, OriginPolicy policy);
  void clear_origin_policy(PrefixId id);
  std::optional<double> damping_reuse_delay(PrefixId id, std::uint32_t slot,
                                            double now) const;
  bool recheck_damping(PrefixId id, std::uint32_t slot, double now);
  // Slot of `neighbor` in the sorted session row, or kNoSlot.
  std::uint32_t slot_of(AsId neighbor) const;

 private:
  using HintTable = SlotTable<AvoidHint>;

  // A standalone speaker's own session row and one-row store.
  struct Standalone;

  // The prefix's record with this AS marked as holding it.
  PrefixRib& hold(PrefixId id);
  // The prefix's record if this AS holds it, else null.
  const PrefixRib* held(PrefixId id) const noexcept {
    const PrefixRib* r = store_->find(id);
    return r != nullptr && (r->flags[index_] & kHeld) ? r : nullptr;
  }
  PrefixRib* held(PrefixId id) noexcept {
    PrefixRib* r = store_->find(id);
    return r != nullptr && (r->flags[index_] & kHeld) ? r : nullptr;
  }
  const PrefixRib* held(const Prefix& prefix) const {
    return held(store_->find(prefix));
  }
  // This AS's origin state in `r`, or null; add_origin inserts an empty one
  // (there must be none yet).
  OriginState* origin_of(const PrefixRib& r) const noexcept;
  OriginState& add_origin(PrefixRib& r) const;
  // This AS's table in a per-AS side-table vector; null when the vector is
  // unallocated, unless `create` allocates it.
  template <typename T>
  SlotTable<T>* side(std::vector<SlotTable<T>>& tables, bool create) const {
    if (tables.empty()) {
      if (!create) return nullptr;
      tables.resize(store_->num_ases());
    }
    return &tables[index_];
  }
  template <typename T>
  const SlotTable<T>* side(const std::vector<SlotTable<T>>& tables) const {
    return tables.empty() ? nullptr : &tables[index_];
  }
  void set_hint(std::vector<HintTable>& tables, std::uint32_t slot,
                const std::optional<AvoidHint>& hint) const;

  // The field list behind save_snapshot/load_snapshot (bgp/snapshot.cc);
  // Self is const BgpSpeaker on save.
  template <typename Io, typename Self, typename Pools>
  static void snapshot_fields(Io& io, Self& self, Pools& pools);

  // Returns true if best changed.
  bool recompute_best(PrefixId id, PrefixRib& r);
  bool import_acceptable(const UpdateMessage& msg, std::uint32_t slot);

  AsId id_;
  const topo::AsGraph* graph_;
  SpeakerConfig cfg_;
  std::unique_ptr<Standalone> own_;  // null when engine-attached
  SessionRow row_;
  RibStore* store_;
  std::uint32_t index_ = 0;  // AS index in the store
  std::uint32_t first_ = 0;  // session index of slot 0
  std::optional<AsId> forced_egress_;
  bool len_present_[33] = {};
  const std::vector<AsId>* locked_ases_ = nullptr;
  std::uint64_t rejected_loop_ = 0;
  std::uint64_t rejected_peer_filter_ = 0;
  std::uint64_t rejected_pathlen_ = 0;
  std::uint64_t rejected_peerlock_ = 0;
  std::uint64_t avoid_notifications_ = 0;
};

}  // namespace lg::bgp
