// Discrete-event scheduler: the heart of the network simulator. Events are
// closures ordered by (time, insertion sequence), so simulations are fully
// deterministic — ties break in schedule order, never by allocation address.
//
// Besides plain one-shot events the queue offers cancelable *timers*
// (set_timer / cancel_timer). Timers back every timeout in the query-serving
// engine: protocol retransmission, per-query deadlines, and arrival pacing.
//
// Storage layout (every simulated message passes through here):
//  * Closures live in a slab of slots recycled through a free list, so a
//    steady-state run allocates no queue storage per event. A closure is
//    moved in at schedule time and moved out at delivery, never copied.
//  * The heap orders 24-byte keys (at, seq, slot) in an indexed binary
//    heap; each slot records its key's heap position. Sifting moves keys,
//    never closures.
//  * A TimerId is a slot plus that slot's generation, so an id whose timer
//    fired or was cancelled cancels nothing, even after the slot is reused.
//    cancel_timer removes the key at once (O(log n)) and frees the closure
//    with everything it captured.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace hkws::sim {

/// Simulated time in abstract ticks (we treat one tick as ~1 ms when a unit
/// is needed, but nothing depends on the unit).
using Time = std::uint64_t;

/// An executable simulation event.
using Event = std::function<void()>;

/// Priority queue of timed events with deterministic FIFO tie-breaking.
class EventQueue {
 public:
  /// Handle of a cancelable timer. 0 is never a valid handle.
  using TimerId = std::uint64_t;

  /// Current simulated time (time of the last executed event).
  Time now() const noexcept { return now_; }

  /// Schedules `event` to run at now() + delay.
  void schedule_in(Time delay, Event event);

  /// Schedules `event` at absolute time `at` (must be >= now()).
  void schedule_at(Time at, Event event);

  /// Schedules a cancelable timer to fire at now() + delay. Fires exactly
  /// once unless cancelled first.
  TimerId set_timer(Time delay, Event event);

  /// Cancels a pending timer. Returns true if the timer was still pending
  /// (it will now never fire); false if it already fired, was already
  /// cancelled, or never existed. The timer's closure — and everything it
  /// captured — is released immediately, not at pop time.
  bool cancel_timer(TimerId id);

  /// Runs events until the queue is empty. Returns #events executed
  /// (cancelled timers are gone and not counted).
  std::size_t run();

  /// Runs events with time <= `deadline`. Returns #events executed.
  std::size_t run_until(Time deadline);

  /// Executes just the next event, if any. Returns whether one ran.
  bool step();

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Timers that are still pending (set, not yet fired, not cancelled).
  /// A protocol that cancels every timer on terminal transitions leaves this
  /// at 0 once all its operations have completed — the torture harness's
  /// no-dangling-timer invariant.
  std::size_t live_timer_count() const noexcept { return live_timers_; }

  // --- Storage introspection (tests / diagnostics) -------------------------

  /// Heap keys currently held: exactly the pending events, because a
  /// cancelled timer's key leaves the heap at once.
  std::size_t heap_entries() const noexcept { return heap_.size(); }
  /// Cancelled timers still occupying storage: always 0 (see above).
  std::size_t cancelled_in_heap() const noexcept { return 0; }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Event event;
    /// Heap position of this slot's key while pending; the next free slot
    /// while on the free list.
    std::uint32_t pos = 0;
    /// Bumped on every release, so ids of earlier occupants go stale.
    std::uint32_t generation = 1;
    bool timer = false;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static bool before(const Key& a, const Key& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// Stores `event` in a free slot and pushes its key; returns the slot.
  std::uint32_t push(Time at, Event event, bool timer);
  /// Removes the key at heap position `pos`; returns the slot's closure
  /// and puts the slot back on the free list.
  Event remove(std::size_t pos);
  void place(std::size_t pos, const Key& key);
  void sift_up(std::size_t pos, Key key);
  void sift_down(std::size_t pos, Key key);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNoSlot;  ///< head of the free-slot list
  std::size_t live_timers_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hkws::sim
