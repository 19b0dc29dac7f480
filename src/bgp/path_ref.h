// PathRef: an immutable, ref-counted AS path.
//
// A single BGP announcement fans its AS_PATH out into the UpdateMessage, the
// scheduler lambda that delivers it, the receiver's Adj-RIB-In Route, the
// promoted best Route, and the Adj-RIB-Out entries of every neighbor it is
// re-exported to. With plain std::vector that is one heap copy per hop per
// stage — the dominant allocation source on convergence hot paths. PathRef
// interns the hops into one shared immutable buffer at creation (typically
// in BgpSpeaker::export_path or an origin policy) and every downstream stage
// shares it for the price of a refcount.
//
// The buffer is immutable after construction, so sharing across lg::run
// worker threads is safe (the refcount is atomic, see bgp/shared_vec.h); to
// modify a path, build a new AsPath and wrap it. A PathRef is one pointer.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "bgp/shared_vec.h"
#include "topology/as_graph.h"

namespace lg::bgp {

using AsPath = std::vector<topo::AsId>;

class PathRef {
 public:
  PathRef() = default;  // the empty path, no allocation

  // Implicit by design: every AsPath producer (baseline_path, poisoned_path,
  // literals in tests) yields a PathRef at the assignment site.
  PathRef(AsPath path) : data_(std::move(path)) {}
  PathRef(std::initializer_list<topo::AsId> hops) : PathRef(AsPath(hops)) {}

  // The shared buffer (a static empty vector when unset). The reference is
  // valid as long as any PathRef sharing the buffer lives.
  const AsPath& get() const noexcept {
    const AsPath* p = data_.get();
    return p != nullptr ? *p : empty_path();
  }
  operator const AsPath&() const noexcept { return get(); }

  bool empty() const noexcept { return data_.get() == nullptr; }
  std::size_t size() const noexcept { return get().size(); }
  topo::AsId operator[](std::size_t i) const noexcept { return get()[i]; }
  topo::AsId front() const { return get().front(); }
  topo::AsId back() const { return get().back(); }
  auto begin() const noexcept { return get().begin(); }
  auto end() const noexcept { return get().end(); }

  // Content equality, with a same-buffer fast path.
  friend bool operator==(const PathRef& a, const PathRef& b) noexcept {
    return a.data_.get() == b.data_.get() || a.get() == b.get();
  }
  friend bool operator==(const PathRef& a, const AsPath& b) noexcept {
    return a.get() == b;
  }

 private:
  static const AsPath& empty_path() noexcept;

  SharedVec<topo::AsId> data_;
};

}  // namespace lg::bgp
