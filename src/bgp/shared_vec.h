// SharedVec<T>: an immutable, ref-counted vector buffer one pointer wide.
//
// The storage under PathRef and CommunitiesRef. The RIB holds a ref per
// Adj-RIB-In and Adj-RIB-Out session slot and per best route, so the width
// of a ref multiplies into every (session, prefix) cell: a std::shared_ptr
// is two pointers, this is one. The count lives in the same allocation as
// the values (an intrusive count), so a buffer is also one allocation.
//
// Buffers are immutable after construction and the count is atomic, so
// refs may be shared across lg::run worker threads. An empty vector holds
// no buffer.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace lg::bgp {

template <typename T>
class SharedVec {
 public:
  SharedVec() = default;
  explicit SharedVec(std::vector<T> values)
      : node_(values.empty() ? nullptr : new Node(std::move(values))) {}
  SharedVec(const SharedVec& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) node_->refs.fetch_add(1);
  }
  SharedVec(SharedVec&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)) {}
  // By value: one body for copy and move assignment, self-assignment safe.
  SharedVec& operator=(SharedVec other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~SharedVec() {
    if (node_ != nullptr && node_->refs.fetch_sub(1) == 1) delete node_;
  }

  // The shared buffer, or null when empty.
  const std::vector<T>* get() const noexcept {
    return node_ != nullptr ? &node_->values : nullptr;
  }

 private:
  struct Node {
    explicit Node(std::vector<T> v) : values(std::move(v)) {}
    std::atomic<std::size_t> refs{1};
    const std::vector<T> values;
  };

  Node* node_ = nullptr;
};

}  // namespace lg::bgp
