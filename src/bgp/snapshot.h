// Engine-wide intern pools for BGP snapshot serialization.
//
// PathRef/CommunitiesRef deliberately share one immutable buffer across every
// holder (Adj-RIB-In, Loc-RIB best, export cache, Adj-RIB-Out, origin
// policies). A snapshot must preserve that sharing — both for size (one /24
// universe at 100k prefixes holds millions of holder slots over a few
// thousand distinct paths) and so a restored engine has the same allocation
// shape as the original. The pools intern buffers by *address* on the write
// side (all copies of one ref share the buffer, so the address is the
// identity) and assign dense ids in first-encounter order, which is
// deterministic because every caller walks its state in sorted order. Id 0
// is reserved for the empty ref; a new buffer's contents are written inline
// at its first reference, so the reader can rebuild the pool in one pass.
#pragma once

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/communities_ref.h"
#include "bgp/path_ref.h"
#include "topology/as_graph.h"
#include "util/codec.h"

namespace lg::bgp {

// Field list (util/codec.h) for an AS link key, shared by every snapshot
// that names one. K is const on save; a load re-normalizes the endpoints.
template <typename Io, typename K>
void link_fields(Io& io, K& k) {
  io.u32(k.a);
  io.u32(k.b);
  if constexpr (Io::kReading) k = topo::AsLinkKey(k.a, k.b);
}

// Both pools spell a ref field the same way — `pools.path(io, ref)` — so a
// field list serves save and load alike. A ref is its pool id, followed by
// the buffer's values the first time the id appears.
struct SnapshotWriterPools {
  using Ids = std::unordered_map<const void*, std::uint32_t>;
  Ids path_id;
  Ids comm_id;

  void path(util::BinWriter& w, const PathRef& p) { write(w, path_id, p); }
  void comm(util::BinWriter& w, const CommunitiesRef& c) {
    write(w, comm_id, c);
  }

 private:
  template <typename Ref>
  static void write(util::BinWriter& w, Ids& ids, const Ref& ref) {
    if (ref.empty()) {
      w.u32(0);
      return;
    }
    const auto [it, fresh] = ids.try_emplace(
        &ref.get(), static_cast<std::uint32_t>(ids.size() + 1));
    w.u32(it->second);
    if (fresh) w.vec(ref.get(), [&](std::uint32_t v) { w.u32(v); });
  }
};

struct SnapshotReaderPools {
  // Index 0 is the empty ref.
  std::vector<PathRef> paths{PathRef{}};
  std::vector<CommunitiesRef> comms{CommunitiesRef{}};

  void path(util::BinReader& r, PathRef& out) { read(r, paths, out, "path"); }
  void comm(util::BinReader& r, CommunitiesRef& out) {
    read(r, comms, out, "communities");
  }

 private:
  template <typename Ref>
  static void read(util::BinReader& r, std::vector<Ref>& pool, Ref& out,
                   const char* what) {
    const std::uint32_t id = r.u32();
    if (id == pool.size()) {
      std::vector<std::uint32_t> values;
      r.vec(values, 4, [&](std::uint32_t& v) { r.u32(v); });
      pool.emplace_back(std::move(values));
    } else if (id > pool.size()) {
      throw std::runtime_error(std::string("snapshot: ") + what +
                               " intern id out of order");
    }
    out = pool[id];
  }
};

}  // namespace lg::bgp
