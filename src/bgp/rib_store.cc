#include "bgp/rib_store.h"

#include <algorithm>

namespace lg::bgp {

namespace {
template <typename T>
void clear_side(std::vector<SlotTable<T>>& tables, std::uint32_t index) {
  if (!tables.empty()) SlotTable<T>().swap(tables[index]);
}

template <typename T>
std::size_t side_bytes(const std::vector<SlotTable<T>>& tables) {
  std::size_t bytes = tables.capacity() * sizeof(SlotTable<T>);
  for (const auto& t : tables) {
    bytes += t.capacity() * sizeof(typename SlotTable<T>::value_type);
  }
  return bytes;
}
}  // namespace

PrefixId RibStore::intern(const Prefix& prefix) {
  const PrefixId id = prefixes_.intern(prefix);
  if (id == ribs_.size()) {
    PrefixRib& r = ribs_.emplace_back();
    r.in_path.resize(num_sessions_);
    r.in_comm.resize(num_sessions_);
    r.in_present.resize(num_sessions_);
    r.out_tag.resize(num_sessions_);
    r.out_path.resize(num_sessions_);
    r.out_comm.resize(num_sessions_);
    r.mrai.resize(num_sessions_);
    r.best.resize(num_ases_);
    r.export_cache.resize(num_ases_);
    r.flags.resize(num_ases_);
  }
  return id;
}

void RibStore::clear_as(std::uint32_t index, std::uint32_t first,
                        std::uint32_t degree) {
  for (PrefixRib& r : ribs_) {
    for (std::uint32_t s = first; s < first + degree; ++s) {
      r.in_path[s] = PathRef();
      r.in_comm[s] = CommunitiesRef();
      r.in_present[s] = 0;
      r.out_tag[s] = kOutUnset;
      r.out_path[s] = PathRef();
      r.out_comm[s] = CommunitiesRef();
    }
    r.best[index].reset();
    r.export_cache[index] = PathRef();
    r.flags[index] = 0;
    clear_side(r.in_hints, index);
    clear_side(r.out_hints, index);
    clear_side(r.damping, index);
    std::erase_if(r.origins, [&](const auto& e) { return e.first == index; });
  }
}

void RibStore::clear_mrai() {
  for (PrefixRib& r : ribs_) {
    std::fill(r.mrai.begin(), r.mrai.end(), MraiState{});
    r.mrai_live = false;
  }
}

RibStore::Usage RibStore::usage(std::uint32_t as_lo, std::uint32_t as_hi,
                                std::uint32_t sess_lo,
                                std::uint32_t sess_hi) const {
  Usage u;
  for (const PrefixRib& r : ribs_) {
    for (std::uint32_t s = sess_lo; s < sess_hi; ++s) {
      u.routes += r.in_present[s];
      u.adj_out_slots += r.out_tag[s] == kOutUnit;
    }
    for (std::uint32_t a = as_lo; a < as_hi; ++a) {
      u.held += (r.flags[a] & kHeld) != 0;
    }
  }
  return u;
}

std::size_t RibStore::memory_bytes() const noexcept {
  std::size_t bytes = prefixes_.memory_bytes();
  bytes += ribs_.capacity() * sizeof(PrefixRib);
  for (const PrefixRib& r : ribs_) {
    bytes += r.in_path.capacity() * sizeof(PathRef) +
             r.in_comm.capacity() * sizeof(CommunitiesRef) +
             r.in_present.capacity() + r.out_tag.capacity() +
             r.out_path.capacity() * sizeof(PathRef) +
             r.out_comm.capacity() * sizeof(CommunitiesRef) +
             r.mrai.capacity() * sizeof(MraiState);
    bytes += r.best.capacity() * sizeof(std::optional<Route>) +
             r.export_cache.capacity() * sizeof(PathRef) +
             r.flags.capacity();
    bytes += side_bytes(r.in_hints) + side_bytes(r.out_hints) +
             side_bytes(r.damping);
    bytes += r.origins.capacity() * sizeof(r.origins[0]) +
             r.origins.size() * sizeof(OriginState);
  }
  return bytes;
}

}  // namespace lg::bgp
