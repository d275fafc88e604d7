#include "sim/scheduler.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace wlan::sim {

namespace {

// Heap comparator: true when `a` runs after `b`, so the heap's front is
// the next event to run.
struct Later {
  bool operator()(const Scheduler::Event& a, const Scheduler::Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }
};

}  // namespace

void Scheduler::push(double time, int priority, Action action) {
  heap_.push_back(Event{time, priority, next_seq_++, action});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Scheduler::schedule(double delay, Action action) {
  check(delay >= 0.0, "Scheduler::schedule requires non-negative delay");
  push(now_ + delay, 1, action);
}

void Scheduler::schedule_at(double time, Action action) {
  check(time >= now_, "Scheduler::schedule_at requires a future time");
  push(time, 1, action);
}

void Scheduler::schedule_at_urgent(double time, Action action) {
  check(time >= now_, "Scheduler::schedule_at_urgent requires a future time");
  push(time, 0, action);
}

template <class Before>
std::size_t Scheduler::drain(Before before) {
  std::size_t executed = 0;
  while (!heap_.empty() && before(heap_.front().time)) {
    // Pop by value before running: the action may schedule more events.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = heap_.back();
    heap_.pop_back();
    now_ = ev.time;
    ev.action();
    ++executed;
    after_event();
  }
  return executed;
}

std::size_t Scheduler::run_until(double end_time) {
  const std::size_t executed =
      drain([end_time](double t) { return t <= end_time; });
  if (now_ < end_time) now_ = end_time;
  return executed;
}

std::size_t Scheduler::run_before(double end_time) {
  return drain([end_time](double t) { return t < end_time; });
}

std::size_t Scheduler::run() {
  return drain([](double) { return true; });
}

double Scheduler::next_time() const {
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().time;
}

void Scheduler::bind_metrics(obs::Registry& registry) {
  executed_counter_ = &registry.counter("sim.events_executed");
  // Depth 1 .. 1e6 events, 4 bins per decade; zero depth lands in the
  // underflow bucket.
  queue_depth_hist_ = &registry.histogram("sim.queue_depth", 1.0, 1e6, 24);
}

void Scheduler::after_event() {
  ++executed_;
  if (executed_counter_) executed_counter_->add();
  if (queue_depth_hist_) {
    queue_depth_hist_->record(static_cast<double>(heap_.size()));
  }
  if (hook_) hook_(now_, heap_.size());
}

}  // namespace wlan::sim
