#include "util/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lg::util {

std::uint64_t Scheduler::at(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  ++s.generation;  // odd: pending
  const std::uint64_t id = make_id(slot, s.generation);
  heap_.push_back(Event{when, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_events_;
  if (live_events_ > max_pending_) max_pending_ = live_events_;
  return id;
}

void Scheduler::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  ++s.generation;  // even: free; every outstanding id for it is now stale
  free_slots_.push_back(slot);
  --live_events_;
}

bool Scheduler::cancel(std::uint64_t id) {
  if (!live(id)) return false;
  free_slot(static_cast<std::uint32_t>(id));
  ++cancelled_;
  maybe_compact();
  return true;
}

void Scheduler::maybe_compact() {
  // Compact once tombstones outnumber live events (and there are enough of
  // them to matter): O(n) rebuild amortized against the >= n/2 cancels that
  // created the tombstones, so the heap never holds more than ~2x the live
  // events plus a constant.
  const std::size_t tombstones = heap_.size() - live_events_;
  if (tombstones <= 64 || tombstones <= live_events_) return;
  std::erase_if(heap_, [this](const Event& ev) { return !live(ev.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ++compactions_;
}

void Scheduler::prune_top() {
  while (!heap_.empty() && !live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void Scheduler::execute_top() {
  const Event ev = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  const auto slot = static_cast<std::uint32_t>(ev.id);
  Callback cb = std::move(slots_[slot].cb);
  free_slot(slot);
  now_ = std::max(now_, ev.when);
  ++executed_;
  cb();
}

bool Scheduler::step(SimTime until) {
  prune_top();
  if (heap_.empty() || heap_.front().when > until) return false;
  execute_top();
  return true;
}

std::size_t Scheduler::step_batch(SimTime until) {
  prune_top();
  if (heap_.empty() || heap_.front().when > until) return 0;
  const SimTime due = heap_.front().when;
  std::size_t n = 0;
  // Events scheduled *during* the batch at the same instant join it (they
  // sort after everything already pending at `due`), matching the one-at-a-
  // time loop exactly.
  while (true) {
    prune_top();
    if (heap_.empty() || heap_.front().when != due) break;
    execute_top();
    ++n;
  }
  return n;
}

std::size_t Scheduler::run(SimTime until) {
  std::size_t n = 0;
  for (std::size_t batch = step_batch(until); batch != 0;
       batch = step_batch(until)) {
    n += batch;
  }
  // Advance the clock to the bound: everything due before it has run.
  if (until != kForever && now_ < until) now_ = until;
  return n;
}

void Scheduler::restore_state(const State& s) {
  if (live_events_ != 0) {
    throw std::runtime_error(
        "Scheduler::restore_state: queue not drained (" +
        std::to_string(live_events_) + " pending events)");
  }
  // Every slot is free here; keeping them (and their generations) keeps
  // ids unique across the restore.
  heap_.clear();
  now_ = s.now;
  executed_ = s.executed;
  cancelled_ = s.cancelled;
  compactions_ = s.compactions;
  max_pending_ = s.max_pending;
}

}  // namespace lg::util
