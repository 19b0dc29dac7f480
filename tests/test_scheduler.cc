#include "util/scheduler.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace lg::util {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(3.0, [&] { order.push_back(3); });
  sched.at(1.0, [&] { order.push_back(1); });
  sched.at(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(SchedulerTest, EqualTimestampsAreFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.at(5.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, AfterSchedulesRelative) {
  Scheduler sched;
  double fired_at = -1;
  sched.at(10.0, [&] {
    sched.after(5.0, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler sched;
  double fired_at = -1;
  sched.at(10.0, [&] {
    sched.at(1.0, [&] { fired_at = sched.now(); });  // in the past
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const auto id = sched.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));  // double-cancel is a no-op
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, RunUntilStopsEarly) {
  Scheduler sched;
  int count = 0;
  sched.at(1.0, [&] { ++count; });
  sched.at(10.0, [&] { ++count; });
  sched.run(5.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);  // clock advances to the bound
  sched.run();
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.after(1.0, recurse);
  };
  sched.after(1.0, recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
}

TEST(SchedulerTest, PendingAndExecutedCounters) {
  Scheduler sched;
  sched.at(1.0, [] {});
  sched.at(2.0, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_FALSE(sched.empty());
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.executed(), 2u);
}

TEST(SchedulerTest, StepExecutesExactlyOne) {
  Scheduler sched;
  int count = 0;
  sched.at(1.0, [&] { ++count; });
  sched.at(2.0, [&] { ++count; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, StepBatchRunsAllEventsAtEarliestDeadline) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(1.0, [&] { order.push_back(0); });
  sched.at(1.0, [&] {
    order.push_back(1);
    // Scheduled during the batch at the same instant: joins the batch.
    sched.at(1.0, [&] { order.push_back(3); });
  });
  sched.at(1.0, [&] { order.push_back(2); });
  sched.at(2.0, [&] { order.push_back(9); });
  EXPECT_EQ(sched.step_batch(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sched.step_batch(), 1u);
  EXPECT_EQ(sched.step_batch(), 0u);
}

TEST(SchedulerTest, StepBatchHonorsBound) {
  Scheduler sched;
  int count = 0;
  sched.at(10.0, [&] { ++count; });
  EXPECT_EQ(sched.step_batch(5.0), 0u);
  EXPECT_EQ(count, 0);
}

// Regression: cancel churn must not grow the internal queue unboundedly.
// Tombstones are compacted once they outnumber live events, so the heap
// depth stays within a constant factor of the live count no matter how many
// schedule/cancel cycles run (fleet watchdogs re-arm one timer per probe
// round; before compaction this grew the heap by one tombstone per round).
TEST(SchedulerTest, CancelChurnKeepsQueueDepthBounded) {
  Scheduler sched;
  int fired = 0;
  // A handful of long-lived survivors to keep the heap non-trivial.
  for (int i = 0; i < 8; ++i) {
    sched.at(1e6 + i, [&] { ++fired; });
  }
  std::size_t high_water = 0;
  std::uint64_t watchdog = 0;
  for (int round = 0; round < 100000; ++round) {
    const std::uint64_t previous = watchdog;
    if (watchdog != 0) {
      EXPECT_TRUE(sched.cancel(watchdog));
    }
    watchdog = sched.at(1e7 + round, [] { FAIL() << "cancelled watchdog fired"; });
    // The re-armed watchdog reuses the cancelled one's slot, but under a new
    // id: the stale id must stay dead.
    EXPECT_NE(watchdog, previous);
    if (previous != 0) {
      EXPECT_FALSE(sched.cancel(previous));
    }
    high_water = std::max(high_water, sched.queue_depth());
  }
  // 8 survivors + 1 live watchdog, plus at most max(64, live) + 1 tombstones
  // between compactions — far below the 100008 an uncompacted heap reaches.
  EXPECT_EQ(sched.pending(), 9u);
  EXPECT_LE(high_water, 128u);
  EXPECT_GE(sched.compactions(), 1u);
  sched.cancel(watchdog);
  sched.run();
  EXPECT_EQ(fired, 8);  // survivors unharmed by compaction
}

// Regression for slot reuse: a fired event's slot is recycled by the next
// at(), and cancelling the fired event's (stale) id must neither report
// success nor cancel the new occupant.
TEST(SchedulerTest, CancelOfFiredIdLeavesSlotReuserAlone) {
  Scheduler sched;
  int first = 0;
  int second = 0;
  const std::uint64_t a = sched.at(1.0, [&] { ++first; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(first, 1);
  const std::uint64_t b = sched.at(2.0, [&] { ++second; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(sched.cancel(a));
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(sched.cancelled(), 0u);
  sched.run();
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(sched.cancel(b));  // fired ids stay dead too
}

// Same for an id that was cancelled, not fired: its slot is reused at once.
TEST(SchedulerTest, CancelledIdNeverMatchesSlotReuser) {
  Scheduler sched;
  bool fired = false;
  const std::uint64_t a = sched.at(1.0, [] { FAIL() << "cancelled event fired"; });
  EXPECT_TRUE(sched.cancel(a));
  const std::uint64_t b = sched.at(1.0, [&] { fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(sched.cancel(a));
  sched.run();
  EXPECT_TRUE(fired);
}

// Ids are nonzero (callers use 0 as "no timer") and never repeat over the
// scheduler's lifetime, a checkpoint restore included: restore_state keeps
// the slot generations, so a pre-restore id cannot name a post-restore event.
TEST(SchedulerTest, IdsStayNonzeroAndUniqueAcrossRestore) {
  Scheduler sched;
  std::set<std::uint64_t> ids;
  auto schedule_batch = [&](double at) {
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t id = sched.at(at + i, [] {});
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
    }
  };
  schedule_batch(1.0);
  std::uint64_t stale = 0;
  for (std::uint64_t id : ids) {
    if (stale == 0) {
      stale = id;
      EXPECT_TRUE(sched.cancel(id));
    }
  }
  sched.run();
  const Scheduler::State st = sched.save_state();
  sched.restore_state(st);
  schedule_batch(sched.now() + 1.0);
  EXPECT_FALSE(sched.cancel(stale));
  EXPECT_EQ(sched.pending(), 50u);
  sched.run();
  EXPECT_EQ(ids.size(), 100u);
}

}  // namespace
}  // namespace lg::util
