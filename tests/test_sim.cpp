// Tests for the discrete-event scheduler and statistics collectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

namespace wlan::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(3.0, [&] { order.push_back(3); });
  sched.schedule(1.0, [&] { order.push_back(1); });
  sched.schedule(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, FifoAtEqualTimes) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, NowAdvancesWithEvents) {
  Scheduler sched;
  double seen = -1.0;
  sched.schedule(2.5, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sched.now(), 2.5);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 10) sched.schedule(1.0, [&tick] { tick(); });
  };
  sched.schedule(1.0, [&tick] { tick(); });
  sched.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sched.now(), 10.0);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int executed = 0;
  for (int i = 1; i <= 10; ++i) {
    sched.schedule(static_cast<double>(i), [&] { ++executed; });
  }
  const std::size_t n = sched.run_until(5.0);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(executed, 5);
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
  EXPECT_EQ(sched.pending(), 5u);
}

TEST(Scheduler, RunUntilAdvancesClockWhenQueueEmpty) {
  Scheduler sched;
  sched.run_until(7.0);
  EXPECT_DOUBLE_EQ(sched.now(), 7.0);
}

TEST(Scheduler, NegativeDelayRejected) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule(-1.0, [] {}), wlan::ContractError);
}

TEST(Scheduler, ScheduleAtPastRejected) {
  Scheduler sched;
  sched.schedule(5.0, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(4.0, [] {}), wlan::ContractError);
}

TEST(Scheduler, UrgentLaneRunsFirstAtEqualTimes) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] {
    order.push_back(0);
    // Scheduled at now() by a running normal event: still runs before
    // the normal events already pending at this instant.
    sched.schedule_at_urgent(1.0, [&] { order.push_back(3); });
  });
  sched.schedule_at(1.0, [&] { order.push_back(4); });
  sched.schedule_at_urgent(1.0, [&] { order.push_back(1); });
  sched.schedule_at_urgent(1.0, [&] { order.push_back(2); });
  sched.schedule_at_urgent(0.5, [&] { order.push_back(-1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 1, 2, 0, 3, 4}));
}

TEST(Scheduler, CancelWithdrawsOnlyThePendingEvent) {
  Scheduler sched;
  std::vector<int> order;
  const Scheduler::Handle a = sched.schedule(1.0, [&] { order.push_back(1); });
  const Scheduler::Handle b = sched.schedule(2.0, [&] { order.push_back(2); });
  sched.schedule(3.0, [&] { order.push_back(3); });
  sched.cancel(b);
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(b);                    // already cancelled
  sched.cancel(Scheduler::Handle{});  // names no event
  EXPECT_EQ(sched.pending(), 2u);
  sched.run_until(1.0);
  // `a` ran and its slot is free; the next event reuses it, and the
  // stale handle must not withdraw that newcomer.
  sched.schedule(0.5, [&] { order.push_back(4); });
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_EQ(sched.next_time(), 1.5);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 3}));
  EXPECT_EQ(sched.executed(), 3u);
}

TEST(Scheduler, RunningActionCancelsAnEventAtNow) {
  Scheduler sched;
  std::vector<int> order;
  Scheduler::Handle self;
  Scheduler::Handle later;
  self = sched.schedule_at(1.0, [&] {
    order.push_back(0);
    sched.cancel(self);   // the running event: a no-op
    sched.cancel(later);  // pending at now()
  });
  later = sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(1.0, [&] { order.push_back(2); });
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sched.pending(), 0u);
}

// Cancels from every heap position of a large queue: removing an
// interior key must sift its replacement up or down as the heap needs.
// After each cancel, pending() and next_time() match a reference list,
// and the survivors run in (time, urgent first, scheduling order).
TEST(Scheduler, CancelAtAnyHeapPositionKeepsOrder) {
  struct Ref {
    double time;
    int priority;
    int id;
  };
  const auto earlier = [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.id < b.id;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    wlan::Rng rng(seed);
    Scheduler sched;
    std::vector<Ref> live;
    std::vector<Scheduler::Handle> handles;
    std::vector<int> ran;
    for (int id = 0; id < 300; ++id) {
      const double t = 0.1 * static_cast<double>(rng.uniform_int(60));
      const int priority = static_cast<int>(rng.uniform_int(2));
      const auto action = [&ran, id] { ran.push_back(id); };
      handles.push_back(priority == 0 ? sched.schedule_at_urgent(t, action)
                                      : sched.schedule_at(t, action));
      live.push_back({t, priority, id});
    }
    for (int i = 0; i < 200; ++i) {
      const std::size_t k = rng.uniform_int(live.size());
      sched.cancel(handles[static_cast<std::size_t>(live[k].id)]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      ASSERT_EQ(sched.pending(), live.size());
      ASSERT_EQ(sched.next_time(),
                std::min_element(live.begin(), live.end(), earlier)->time);
    }
    std::sort(live.begin(), live.end(), earlier);
    std::vector<int> expected;
    for (const Ref& r : live) expected.push_back(r.id);
    sched.run();
    EXPECT_EQ(ran, expected);
  }
}

// Actions are stored inline and heap keys are sifted as raw values, so
// both must stay trivially copyable; a key is (time, order, slot).
static_assert(std::is_trivially_copyable_v<Scheduler::Action>);
static_assert(std::is_trivially_copyable_v<Scheduler::Key>);
static_assert(sizeof(Scheduler::Key) == 24);

// Seeded random scripts against a reference model of the queue
// contract: whenever the scheduler runs an event, it must be the first
// pending event of a stable sort by (time, urgent first, scheduling
// order), and each run segment must stop exactly at its bound. Scripts
// mix schedule / schedule_at / schedule_at_urgent on a coarse time grid
// (many equal timestamps), actions that schedule more events at now()
// (urgent ones included) and interleaved run_before / run_until calls.
// They also cancel: random pending events, events at now() from inside
// a running action, the running event itself, events that already ran
// and events already cancelled. The model drops a cancelled id, and
// pending() and next_time() are checked against it after every cancel.
class ContractScript {
 public:
  explicit ContractScript(std::uint64_t seed) : rng_(seed) {}

  void run() {
    double horizon = 0.0;
    for (int segment = 0; segment < 12; ++segment) {
      const int outside = static_cast<int>(rng_.uniform_int(6));
      for (int i = 0; i < outside; ++i) add_random();
      const int cancels = static_cast<int>(rng_.uniform_int(3));
      for (int i = 0; i < cancels; ++i) supersede(kNoId);
      horizon += kGrid * static_cast<double>(rng_.uniform_int(5));
      const bool inclusive = rng_.uniform_int(2) == 0;
      run_segment(horizon, inclusive);
    }
    // Drain whatever is left.
    bound_ = 1e300;
    inclusive_ = true;
    const std::size_t ran = sched_.run();
    EXPECT_EQ(ran, ran_in_segment_);
    ran_in_segment_ = 0;
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(sched_.pending(), 0u);
    EXPECT_EQ(executed_, expected_);
    EXPECT_GT(executed_.size(), 50u);
    EXPECT_GT(cancelled_.size(), 10u);
  }

 private:
  struct Pending {
    double time;
    int priority;  // 0 = urgent, 1 = normal
    std::uint64_t id;
  };
  static constexpr double kGrid = 0.25;
  static constexpr std::uint64_t kMaxEvents = 3000;
  static constexpr std::uint64_t kNoId = ~std::uint64_t{0};

  void run_segment(double end, bool inclusive) {
    bound_ = end;
    inclusive_ = inclusive;
    const double before = sched_.now();
    const std::size_t ran =
        inclusive ? sched_.run_until(end) : sched_.run_before(end);
    EXPECT_EQ(ran, ran_in_segment_);
    ran_in_segment_ = 0;
    // Stopped exactly at the bound: the next pending event is past it.
    if (!model_.empty()) {
      const double next = first_pending()->time;
      EXPECT_EQ(sched_.next_time(), next);
      EXPECT_TRUE(inclusive ? next > end : next >= end);
    }
    if (inclusive) {
      EXPECT_EQ(sched_.now(), std::max(before, end));
    }
  }

  std::vector<Pending>::iterator first_pending() {
    return std::min_element(
        model_.begin(), model_.end(), [](const Pending& a, const Pending& b) {
          if (a.time != b.time) return a.time < b.time;
          if (a.priority != b.priority) return a.priority < b.priority;
          return a.id < b.id;
        });
  }

  void fire(std::uint64_t id, double time) {
    EXPECT_EQ(sched_.now(), time);
    EXPECT_TRUE(inclusive_ ? time <= bound_ : time < bound_);
    executed_.push_back(id);
    ++ran_in_segment_;
    const auto first = first_pending();
    expected_.push_back(first->id);
    model_.erase(first);
    // Children: none, one or two, some of them at now() itself.
    const int children = static_cast<int>(rng_.uniform_int(3));
    for (int c = 0; c < children; ++c) add_random();
    if (rng_.uniform_int(8) == 0) supersede(id);
  }

  // A superseded timer is cancelled and re-armed: cancel one handle,
  // and schedule a replacement when a pending event left.
  void supersede(std::uint64_t running) {
    if (cancel_random(running)) add_random();
  }

  // Cancels one handle, chosen among the pending events (preferring one
  // at now()), the running event `running` (kNoId outside an action),
  // events that already ran and events already cancelled. Only a
  // pending event leaves the model; returns whether one did.
  bool cancel_random(std::uint64_t running) {
    std::uint64_t id = kNoId;
    switch (rng_.uniform_int(5)) {
      case 0:
      case 1:
        if (!model_.empty()) {
          id = model_[rng_.uniform_int(model_.size())].id;
        }
        break;
      case 2:
        for (const Pending& p : model_) {
          if (p.time == sched_.now()) id = p.id;
        }
        break;
      case 3:
        if (running != kNoId) {
          id = running;
        } else if (!executed_.empty()) {
          id = executed_[rng_.uniform_int(executed_.size())];
        }
        break;
      default:
        if (!cancelled_.empty()) {
          id = cancelled_[rng_.uniform_int(cancelled_.size())];
        }
        break;
    }
    if (id == kNoId) return false;
    sched_.cancel(handles_[id]);
    const auto it = std::find_if(model_.begin(), model_.end(),
                                 [id](const Pending& p) { return p.id == id; });
    const bool was_pending = it != model_.end();
    if (was_pending) {
      model_.erase(it);
      cancelled_.push_back(id);
    }
    EXPECT_EQ(sched_.pending(), model_.size());
    EXPECT_EQ(sched_.next_time(),
              model_.empty() ? std::numeric_limits<double>::infinity()
                             : first_pending()->time);
    return was_pending;
  }

  // Schedules one event 0-7 grid steps ahead (at now() a third of the
  // time) through a randomly chosen entry point.
  void add_random() {
    if (next_id_ >= kMaxEvents) return;
    const std::uint64_t id = next_id_++;
    const double offset =
        rng_.uniform_int(3) == 0
            ? 0.0
            : kGrid * static_cast<double>(rng_.uniform_int(8));
    const double t = sched_.now() + offset;
    const auto action = [this, id, t] { fire(id, t); };
    switch (rng_.uniform_int(3)) {
      case 0:
        model_.push_back({t, 1, id});
        handles_.push_back(sched_.schedule(offset, action));
        break;
      case 1:
        model_.push_back({t, 1, id});
        handles_.push_back(sched_.schedule_at(t, action));
        break;
      default:
        model_.push_back({t, 0, id});
        handles_.push_back(sched_.schedule_at_urgent(t, action));
        break;
    }
  }

  Scheduler sched_;
  wlan::Rng rng_;
  std::vector<Pending> model_;
  std::vector<std::uint64_t> executed_;
  std::vector<std::uint64_t> expected_;
  std::vector<Scheduler::Handle> handles_;  // by id
  std::vector<std::uint64_t> cancelled_;
  std::uint64_t next_id_ = 0;
  std::size_t ran_in_segment_ = 0;
  double bound_ = 0.0;
  bool inclusive_ = true;
};

TEST(Scheduler, RandomScriptsMatchReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    ContractScript(seed).run();
  }
}

TEST(Tally, BasicStatistics) {
  Tally t;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) t.add(x);
  EXPECT_EQ(t.count(), 4u);
  EXPECT_DOUBLE_EQ(t.mean(), 2.5);
  EXPECT_DOUBLE_EQ(t.min(), 1.0);
  EXPECT_DOUBLE_EQ(t.max(), 4.0);
  EXPECT_DOUBLE_EQ(t.total(), 10.0);
  EXPECT_NEAR(t.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Tally, EmptyIsSafe) {
  const Tally t;
  EXPECT_EQ(t.count(), 0u);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
  EXPECT_DOUBLE_EQ(t.variance(), 0.0);
}

TEST(Tally, SingleSampleVarianceZero) {
  Tally t;
  t.add(7.0);
  EXPECT_DOUBLE_EQ(t.variance(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 7.0);
}

TEST(TimeAverage, PiecewiseConstantSignal) {
  TimeAverage ta;
  ta.update(0.0, 2.0);  // value 2 from t=0
  ta.update(1.0, 4.0);  // value 4 from t=1
  ta.update(3.0, 0.0);  // measured up to t=3
  // Integral = 2*1 + 4*2 = 10 over 3 seconds.
  EXPECT_DOUBLE_EQ(ta.integral(), 10.0);
  EXPECT_NEAR(ta.average(), 10.0 / 3.0, 1e-12);
}

TEST(TimeAverage, OutOfOrderRejected) {
  TimeAverage ta;
  ta.update(2.0, 1.0);
  EXPECT_THROW(ta.update(1.0, 1.0), wlan::ContractError);
}

}  // namespace
}  // namespace wlan::sim
