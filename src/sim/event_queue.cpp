#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace hkws::sim {

void EventQueue::schedule_in(Time delay, Event event) {
  schedule_at(now_ + delay, std::move(event));
}

void EventQueue::schedule_at(Time at, Event event) {
  if (at < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
  push(at, std::move(event), /*timer=*/false);
}

EventQueue::TimerId EventQueue::set_timer(Time delay, Event event) {
  const std::uint32_t slot = push(now_ + delay, std::move(event), true);
  ++live_timers_;
  return static_cast<TimerId>(slots_[slot].generation) << 32 | slot;
}

bool EventQueue::cancel_timer(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  // A free slot is never a timer; a reused one has a newer generation.
  if (!s.timer || s.generation != static_cast<std::uint32_t>(id >> 32))
    return false;
  remove(s.pos);  // the returned closure dies here, after the bookkeeping
  return true;
}

std::uint32_t EventQueue::push(Time at, Event event, bool timer) {
  std::uint32_t slot = free_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_ = slots_[slot].pos;
  }
  Slot& s = slots_[slot];
  s.event = std::move(event);
  s.timer = timer;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{at, next_seq_++, slot});
  return slot;
}

Event EventQueue::remove(std::size_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    if (pos > 0 && before(last, heap_[(pos - 1) / 2]))
      sift_up(pos, last);
    else
      sift_down(pos, last);
  }
  Slot& s = slots_[slot];
  Event event = std::move(s.event);
  if (s.timer) --live_timers_;
  s.timer = false;
  if (++s.generation == 0) s.generation = 1;  // keep every TimerId nonzero
  s.pos = free_;
  free_ = slot;
  return event;
}

void EventQueue::place(std::size_t pos, const Key& key) {
  heap_[pos] = key;
  slots_[key.slot].pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::size_t pos, Key key) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(key, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void EventQueue::sift_down(std::size_t pos, Key key) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], key)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, key);
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  now_ = heap_.front().at;
  // Out of the queue before it runs: the event may schedule, cancel or
  // step freely, and cancelling its own (fired) timer reports false.
  Event event = remove(0);
  event();
  return true;
}

std::size_t EventQueue::run() {
  std::size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

std::size_t EventQueue::run_until(Time deadline) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().at <= deadline) {
    step();
    ++executed;
  }
  return executed;
}

}  // namespace hkws::sim
