// Prefix-major RIB storage: one record per interned prefix.
//
// Every AS in a LIFEGUARD world carries every other AS's infrastructure /24
// next to the production prefixes (§3.1), so the RIB is an N x N table of
// (AS, prefix) states. Storing it speaker-major — a heap-allocated state per
// (AS, prefix), each with its own per-neighbor vectors — costs a header and
// half a dozen small allocations per cell. RibStore turns the table around:
// a PrefixRib is allocated once, when its prefix is interned, and holds
//  - arrays over all S directed sessions, indexed by the session-CSR index
//    `sess_base[as] + slot` (BgpEngine builds the CSR; a session's offset in
//    its row is the neighbor slot): Adj-RIB-In, Adj-RIB-Out and the MRAI row;
//  - arrays over the N AS indices: the Loc-RIB best route, the cached
//    self-prepended export path and one flags byte;
//  - sparse side-tables for the rare data: avoid hints, damping state and
//    origin policies.
// A record's arrays are sized once and never resized, so a `const Route*`
// into `best` stays valid while other prefixes are interned. BgpSpeaker is a
// view of one AS index and its session row over the store. See
// docs/TOPOLOGIES.md for the bytes/route model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "bgp/types.h"

namespace lg::bgp {

// Per-(directed session, prefix) MRAI state, in the prefix's MRAI row.
struct MraiState {
  double ready_at = 0.0;
  // Monotone send counter stamped into every UpdateMessage on this session,
  // so delivery can reject superseded in-flight updates. 31 bits; the spare
  // bit is the pending-flush flag.
  std::uint32_t next_seq : 31 = 0;
  std::uint32_t flush_scheduled : 1 = 0;
  // Highest seq applied from the peer on the reverse session. Lives in the
  // receiving AS's own row and is written only when the fault plane is on,
  // the one source of reordering.
  std::uint32_t applied_seq = 0;
};
static_assert(sizeof(MraiState) == 16);

struct DampingState {
  double penalty = 0.0;
  double last_update = 0.0;
  bool suppressed = false;
};

struct OriginState {
  OriginPolicy policy;
  // Interned copy of policy.communities, built once at set_origin_policy so
  // export_path never re-allocates it.
  CommunitiesRef comm;
};

// A sparse (key, value) table, ascending by key.
template <typename T>
using SlotTable = std::vector<std::pair<std::uint32_t, T>>;

// Bits of PrefixRib::flags, one byte per AS index.
enum RibFlag : std::uint8_t {
  kHeld = 1,         // the AS holds state for the prefix (known_prefixes)
  kInSized = 2,      // first accepted import seen: Adj-RIB-In is degree wide
  kOutSized = 4,     // first Adj-RIB-Out record seen
  kExportValid = 8,  // export_cache mirrors the current best route
};

// Adj-RIB-Out tag per session.
enum AdjOutTag : std::uint8_t { kOutUnset = 0, kOutNone = 1, kOutUnit = 2 };

struct PrefixRib {
  // ---- Over directed sessions: Adj-RIB-In, Adj-RIB-Out, MRAI.
  std::vector<PathRef> in_path;
  std::vector<CommunitiesRef> in_comm;
  std::vector<std::uint8_t> in_present;
  // Adj-RIB-Out delta encoding: a tag plus refs aliasing the sender's
  // shared export unit.
  std::vector<std::uint8_t> out_tag;
  std::vector<PathRef> out_path;
  std::vector<CommunitiesRef> out_comm;
  std::vector<MraiState> mrai;
  // Set by the first MRAI access; only live rows are checkpointed.
  bool mrai_live = false;

  // ---- Over AS indices.
  std::vector<std::optional<Route>> best;
  std::vector<PathRef> export_cache;  // kept (stale) when invalidated
  std::vector<std::uint8_t> flags;    // RibFlag bits

  // ---- Sparse. Hint and damping tables are either empty or one table per
  // AS index, keyed by neighbor slot; they are allocated on the prefix's
  // first hint / damping entry. Origins are keyed by AS index.
  std::vector<SlotTable<AvoidHint>> in_hints;
  std::vector<SlotTable<AvoidHint>> out_hints;
  std::vector<SlotTable<DampingState>> damping;
  SlotTable<std::unique_ptr<OriginState>> origins;
};
// Growing the record vector moves records; their arrays stay put.
static_assert(std::is_nothrow_move_constructible_v<PrefixRib>);

class RibStore {
 public:
  RibStore() = default;
  RibStore(std::uint32_t num_ases, std::uint32_t num_sessions)
      : num_ases_(num_ases), num_sessions_(num_sessions) {}

  std::uint32_t num_ases() const noexcept { return num_ases_; }
  std::uint32_t num_sessions() const noexcept { return num_sessions_; }

  // The prefix's id; the first sight allocates its record.
  PrefixId intern(const Prefix& prefix);
  // The prefix's id, or kNoPrefixId if it was never interned.
  PrefixId find(const Prefix& prefix) const noexcept {
    return prefixes_.find(prefix);
  }
  const Prefix& prefix(PrefixId id) const noexcept {
    return prefixes_.prefix(id);
  }
  std::size_t size() const noexcept { return ribs_.size(); }

  PrefixRib& at(PrefixId id) noexcept { return ribs_[id]; }
  const PrefixRib& at(PrefixId id) const noexcept { return ribs_[id]; }
  // Null for kNoPrefixId (or any id never interned).
  PrefixRib* find(PrefixId id) noexcept {
    return id < ribs_.size() ? &ribs_[id] : nullptr;
  }
  const PrefixRib* find(PrefixId id) const noexcept {
    return id < ribs_.size() ? &ribs_[id] : nullptr;
  }

  // Empties AS `index`'s state (sessions [first, first + degree)) in every
  // record: what a speaker's snapshot load starts from.
  void clear_as(std::uint32_t index, std::uint32_t first,
                std::uint32_t degree);
  // Empties every MRAI row.
  void clear_mrai();

  // Resident counts over AS indices [as_lo, as_hi) and sessions
  // [sess_lo, sess_hi).
  struct Usage {
    std::size_t routes = 0;         // present Adj-RIB-In slots
    std::size_t adj_out_slots = 0;  // advertised Adj-RIB-Out slots
    std::size_t held = 0;           // (AS, prefix) states held
  };
  Usage usage(std::uint32_t as_lo, std::uint32_t as_hi, std::uint32_t sess_lo,
              std::uint32_t sess_hi) const;
  // Container footprint of every record plus the interner.
  std::size_t memory_bytes() const noexcept;

 private:
  std::uint32_t num_ases_ = 0;
  std::uint32_t num_sessions_ = 0;
  PrefixInterner prefixes_;
  std::vector<PrefixRib> ribs_;  // indexed by PrefixId
};

}  // namespace lg::bgp
