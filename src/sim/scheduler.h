// Discrete-event simulation core: a time-ordered event queue.
//
// Events at equal timestamps run in scheduling (FIFO) order, which keeps
// protocol simulations deterministic. A small "urgent" priority lane
// runs ahead of normally scheduled events at the same timestamp — the
// border-exchange engine uses it to apply cross-shard influence records
// before any local event at the same instant, in every execution mode,
// so fused and per-shard runs order same-time work identically.
//
// A pending event can be withdrawn with cancel(): a protocol timer that
// a later event supersedes leaves the queue instead of running stale.
//
// The queue allocates only when it grows past its largest pending
// count: an Action stores its callable inline in a slab slot, freed
// slots are reused, and the binary heap holds 24-byte keys that name
// their slot.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"

namespace wlan::sim {

/// Simulation clock and event queue. Times are in seconds.
class Scheduler {
 public:
  /// A scheduled callable, stored inline: one function pointer plus
  /// kCapacity bytes. It accepts any trivially copyable callable of at
  /// most kCapacity bytes — in practice a lambda capturing `this`,
  /// indices and doubles by value. Anything else (a std::function, a
  /// capture that owns memory such as a vector or string) fails to
  /// compile, so scheduling never heap-allocates.
  /// Captured references and pointers must outlive the event. To
  /// reschedule a std::function (e.g. a self-rescheduling handler),
  /// capture a reference to it: `sched.schedule(d, [&tick] { tick(); })`.
  class Action {
   public:
    static constexpr std::size_t kCapacity = 32;

    template <class F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, Action>)
    Action(F f) noexcept {  // implicit: call sites pass bare lambdas
      static_assert(std::is_trivially_copyable_v<F>,
                    "Scheduler::Action needs a trivially copyable callable; "
                    "capture owning objects by reference");
      static_assert(sizeof(F) <= kCapacity,
                    "Scheduler::Action callable exceeds its inline storage");
      std::memcpy(storage_, &f, sizeof(F));
      // The callable goes in and out as bytes (memcpy / bit_cast), so
      // the storage needs neither F's alignment nor a live F object.
      invoke_ = [](const unsigned char* s) {
        std::array<unsigned char, sizeof(F)> bytes;
        std::memcpy(bytes.data(), s, sizeof(F));
        std::bit_cast<F>(bytes)();
      };
    }

    void operator()() const { invoke_(storage_); }

   private:
    void (*invoke_)(const unsigned char*);
    unsigned char storage_[kCapacity];
  };

  /// Names one scheduled event for cancel(). A default-constructed
  /// handle names no event. Handles stay safe to cancel after their
  /// event ran or was cancelled: the slot's key order no longer matches.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class Scheduler;
    Handle(std::uint64_t order, std::uint32_t slot)
        : order_(order), slot_(slot) {}
    std::uint64_t order_ = 0;
    std::uint32_t slot_ = kNoSlot;
  };

  /// Current simulation time.
  double now() const { return now_; }

  /// Schedules an action `delay` seconds from now (delay >= 0).
  Handle schedule(double delay, Action action);

  /// Schedules an action at an absolute time (>= now()).
  Handle schedule_at(double time, Action action);

  /// Schedules an urgent action at an absolute time (>= now()). Urgent
  /// actions run before every normally scheduled action at the same
  /// timestamp (still FIFO among themselves).
  Handle schedule_at_urgent(double time, Action action);

  /// Removes the event `h` names from the queue. A no-op when that
  /// event already ran (the running event included) or was already
  /// cancelled. The remaining events keep their relative order.
  void cancel(Handle h);

  /// Runs events until the queue is empty or the clock passes `end_time`.
  /// Returns the number of events executed.
  std::size_t run_until(double end_time);

  /// Runs events with time strictly less than `end_time` and leaves the
  /// clock wherever the last executed event put it (it does NOT advance
  /// to `end_time`). Used by the epoch driver: each epoch simulates
  /// [t, t+lookahead) exclusively so the boundary instant itself is
  /// processed in the next epoch, after border messages arrive.
  std::size_t run_before(double end_time);

  /// Runs until the queue drains completely.
  std::size_t run();

  /// Number of pending events.
  std::size_t pending() const { return heap_.size(); }

  /// Timestamp of the earliest pending event, or +infinity when the
  /// queue is empty. Lets the epoch driver skip fully idle epochs.
  double next_time() const;

  /// Total events executed over the scheduler's lifetime, advanced when
  /// each run call returns.
  std::uint64_t executed() const { return executed_; }

  /// Registers this scheduler's metrics in `registry` and keeps them
  /// updated: counter "sim.events_executed" (advanced at the end of each
  /// run call, like executed()) and log-spaced histogram
  /// "sim.queue_depth" (sampled after each executed event). `registry`
  /// must outlive the scheduler's runs.
  void bind_metrics(obs::Registry& registry);

  /// One heap entry. Ordered by (time, order), where order is
  /// `priority << 63 | seq` (priority 0 = urgent, 1 = normal; seq counts
  /// schedule calls). seq is unique, so the order is total and
  /// independent of heap layout. `slot` names the action's slab slot.
  struct Key {
    double time;
    std::uint64_t order;
    std::uint32_t slot;
  };

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// A slab slot: the action and its key's heap index (kNoSlot while
  /// the slot is free).
  struct Slot {
    Action action;
    std::uint32_t pos;
  };

  Handle push(double time, std::uint64_t priority, Action action);
  void sift_up(std::size_t pos, Key key);
  void sift_down(std::size_t pos, Key key);
  void remove_at(std::size_t pos);
  void release(std::uint32_t slot, std::size_t pos);
  template <class Before>
  std::size_t drain(Before before);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Key> heap_;  // min-heap on (time, order)
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_;  // free slab slots, reused LIFO
  obs::Counter* executed_counter_ = nullptr;
  obs::Histogram* queue_depth_hist_ = nullptr;
};

static_assert(std::is_trivially_copyable_v<Scheduler::Action>);
static_assert(std::is_trivially_copyable_v<Scheduler::Key>);
static_assert(sizeof(Scheduler::Key) == 24);

}  // namespace wlan::sim
