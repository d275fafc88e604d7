#include "sim/scheduler.h"

#include <limits>

#include "common/check.h"

namespace wlan::sim {

namespace {

// True when `a` runs before `b`.
bool runs_before(const Scheduler::Key& a, const Scheduler::Key& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.order < b.order;
}

constexpr std::uint64_t kUrgent = 0;
constexpr std::uint64_t kNormal = 1;

}  // namespace

// Both sifts move a hole instead of swapping, and record each moved
// key's new index in its slot so cancel() can find it.
void Scheduler::sift_up(std::size_t pos, Key key) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!runs_before(key, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slab_[heap_[pos].slot].pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = key;
  slab_[key.slot].pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::sift_down(std::size_t pos, Key key) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && runs_before(heap_[child + 1], heap_[child])) ++child;
    if (!runs_before(heap_[child], key)) break;
    heap_[pos] = heap_[child];
    slab_[heap_[pos].slot].pos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = key;
  slab_[key.slot].pos = static_cast<std::uint32_t>(pos);
}

// Removes the key at heap index `pos`: the last key fills the hole and
// sifts whichever way restores the heap.
void Scheduler::remove_at(std::size_t pos) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && runs_before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

// Frees `slot` and removes its key, which sits at heap index `pos`.
void Scheduler::release(std::uint32_t slot, std::size_t pos) {
  slab_[slot].pos = kNoSlot;
  free_.push_back(slot);
  remove_at(pos);
}

Scheduler::Handle Scheduler::push(double time, std::uint64_t priority,
                                  Action action) {
  std::uint32_t slot;
  if (free_.empty()) {
    check(slab_.size() < kNoSlot, "Scheduler: too many pending events");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(Slot{action, kNoSlot});
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot].action = action;
  }
  const Key key{time, priority << 63 | next_seq_++, slot};
  heap_.push_back(key);
  sift_up(heap_.size() - 1, key);
  return Handle(key.order, slot);
}

Scheduler::Handle Scheduler::schedule(double delay, Action action) {
  check(delay >= 0.0, "Scheduler::schedule requires non-negative delay");
  return push(now_ + delay, kNormal, action);
}

Scheduler::Handle Scheduler::schedule_at(double time, Action action) {
  check(time >= now_, "Scheduler::schedule_at requires a future time");
  return push(time, kNormal, action);
}

Scheduler::Handle Scheduler::schedule_at_urgent(double time, Action action) {
  check(time >= now_, "Scheduler::schedule_at_urgent requires a future time");
  return push(time, kUrgent, action);
}

void Scheduler::cancel(Handle h) {
  if (h.slot_ >= slab_.size()) return;
  const std::uint32_t pos = slab_[h.slot_].pos;
  // A free slot, or one reused by a later event, no longer holds h's key.
  if (pos == kNoSlot || heap_[pos].order != h.order_) return;
  release(h.slot_, pos);
}

template <class Before>
std::size_t Scheduler::drain(Before before) {
  std::size_t executed = 0;
  while (!heap_.empty() && before(heap_.front().time)) {
    // Copy the action out and free its slot before running it: the
    // action may schedule (and reuse the slot) or cancel.
    const Key top = heap_.front();
    const Action action = slab_[top.slot].action;
    release(top.slot, 0);
    now_ = top.time;
    action();
    ++executed;
    if (queue_depth_hist_)
      queue_depth_hist_->record(static_cast<double>(heap_.size()));
  }
  executed_ += executed;
  if (executed_counter_) executed_counter_->add(executed);
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

}  // namespace wlan::sim
