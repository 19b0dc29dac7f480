// Discrete-event scheduler driving the whole simulation: BGP message
// propagation (with per-session delays and MRAI timers), probe round-trips,
// LIFEGUARD's monitoring rounds, and failure injection all run as events on
// one virtual clock.
//
// Time is a double in *seconds* of simulated time. Events at equal timestamps
// execute in insertion order (stable), which keeps runs deterministic. The
// run loop extracts all events sharing the earliest deadline as one batch
// (step_batch) — same observable order, but one heap scan per *deadline*
// instead of per event, which is what the BGP frontier pump leans on when it
// schedules one tick per delivery quantum.
//
// Callbacks live in a slot vector with a free list. An event id is the
// slot's generation in the high 32 bits and the slot index in the low 32;
// firing or cancelling an event bumps the generation and frees the slot, so
// an old id never matches the event that later reuses its slot. Scheduling,
// firing and cancelling are array accesses, and a closure that fits
// std::function's inline buffer (two words, e.g. `this` plus two 32-bit
// indices) is scheduled without a heap allocation.
//
// Cancelled events leave tombstones in the heap; when tombstones outnumber
// live events the heap is compacted in place, so heavy cancel churn (fleet
// watchdogs, damping re-checks racing withdrawals) cannot grow the queue
// beyond a constant factor of the live event count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace lg::util {

using SimTime = double;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const noexcept { return now_; }

  // Schedule `cb` to run at absolute time `when` (clamped to now()).
  // Returns a nonzero id usable with cancel(), unique over this scheduler's
  // lifetime (restore_state included).
  std::uint64_t at(SimTime when, Callback cb);

  // Schedule `cb` to run `delay` seconds from now.
  std::uint64_t after(SimTime delay, Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  // Cancel a pending event. Returns false if already fired, cancelled or
  // unknown; never touches a later event that reused the slot.
  bool cancel(std::uint64_t id);

  // Run until the queue drains or `until` is reached (whichever first).
  // Returns the number of events executed.
  std::size_t run(SimTime until = kForever);

  // Execute exactly one event if any is pending before `until`.
  bool step(SimTime until = kForever);

  // Batch extraction: execute *every* event sharing the earliest pending
  // deadline (in insertion order), including events that the batch itself
  // schedules at that same instant. Returns the number executed (0 when
  // nothing is due before `until`).
  std::size_t step_batch(SimTime until = kForever);

  bool empty() const noexcept { return live_events_ == 0; }
  std::size_t pending() const noexcept { return live_events_; }
  std::uint64_t executed() const noexcept { return executed_; }
  // High-water mark of pending events (queue depth) over the run.
  std::size_t max_pending() const noexcept { return max_pending_; }
  std::uint64_t cancelled() const noexcept { return cancelled_; }
  // Internal heap depth including tombstones, and how often compaction ran —
  // the regression surface for the tombstone-buildup bound.
  std::size_t queue_depth() const noexcept { return heap_.size(); }
  std::uint64_t compactions() const noexcept { return compactions_; }

  static constexpr SimTime kForever = 1e300;

  // ---- Checkpoint/restore ----
  // A checkpoint barrier is only taken with the queue drained (BGP quiesced,
  // every tick closure retired), so scheduler state reduces to the clock and
  // the lifetime counters. restore_state() throws if events are pending —
  // closures cannot be serialized, and silently dropping them would be a
  // correctness bug, not a restore.
  struct State {
    SimTime now = 0.0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t compactions = 0;
    std::size_t max_pending = 0;
  };
  State save_state() const noexcept {
    return State{now_, executed_, cancelled_, compactions_, max_pending_};
  }
  void restore_state(const State& s);

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint64_t id;   // (generation << 32) | slot
  };
  // One callback slot. `generation` advances every time the slot is freed,
  // so it is odd while the slot holds a pending callback and even while it
  // is on the free list.
  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static std::uint64_t make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<std::uint64_t>(gen) << 32) | slot;
  }
  // True while the event `id` names is still pending.
  bool live(std::uint64_t id) const noexcept {
    const auto slot = static_cast<std::uint32_t>(id);
    return slot < slots_.size() &&
           slots_[slot].generation == static_cast<std::uint32_t>(id >> 32);
  }
  // Retire a live slot: bump its generation and put it on the free list.
  void free_slot(std::uint32_t slot);

  // Drop tombstones off the heap top so heap_.front() (if any) is live.
  void prune_top();
  // Rebuild the heap without tombstones once they outnumber live events.
  void maybe_compact();
  // Pop the top event (assumed live) and run its callback.
  void execute_top();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t live_events_ = 0;
  std::size_t max_pending_ = 0;
  // Binary heap (std::push_heap/pop_heap with Later) rather than
  // std::priority_queue: compaction needs to filter the container in place.
  std::vector<Event> heap_;
  // Callback slots indexed by the low half of an event id, plus the free
  // list of retired slots. Cancelled events stay in the heap as tombstones
  // (their id no longer matches the slot's generation) until popped or
  // compacted away.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace lg::util
