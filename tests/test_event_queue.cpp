#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace hkws::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_in(30, [&] { order.push_back(3); });
  q.schedule_in(10, [&] { order.push_back(1); });
  q.schedule_in(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule_in(5, [&order, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  std::vector<Time> times;
  q.schedule_in(1, [&] {
    times.push_back(q.now());
    q.schedule_in(5, [&] { times.push_back(q.now()); });
  });
  q.run();
  EXPECT_EQ(times, (std::vector<Time>{1, 6}));
}

TEST(EventQueue, ZeroDelayRunsAtCurrentTime) {
  EventQueue q;
  bool ran = false;
  q.schedule_in(7, [&] { q.schedule_in(0, [&] { ran = true; }); });
  q.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 7u);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_in(10, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<Time> times;
  for (Time t : {5, 10, 15, 20})
    q.schedule_at(t, [&, t] { times.push_back(t); });
  EXPECT_EQ(q.run_until(12), 2u);
  EXPECT_EQ(times, (std::vector<Time>{5, 10}));
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_EQ(times.size(), 4u);
}

TEST(EventQueue, StepExecutesExactlyOne) {
  EventQueue q;
  int count = 0;
  q.schedule_in(1, [&] { ++count; });
  q.schedule_in(2, [&] { ++count; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, EmptyQueueRunsZeroEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.run(), 0u);
  EXPECT_EQ(q.now(), 0u);
}

TEST(EventQueue, TimerFiresOnce) {
  EventQueue q;
  int fired = 0;
  const auto id = q.set_timer(10, [&] { ++fired; });
  EXPECT_NE(id, 0u);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 10u);
  // A fired timer cannot be cancelled.
  EXPECT_FALSE(q.cancel_timer(id));
}

TEST(EventQueue, CancelledTimerNeverRuns) {
  EventQueue q;
  int fired = 0;
  const auto id = q.set_timer(10, [&] { ++fired; });
  q.schedule_in(20, [&] {});
  EXPECT_TRUE(q.cancel_timer(id));
  EXPECT_FALSE(q.cancel_timer(id));  // double-cancel reports false
  EXPECT_EQ(q.pending(), 1u);        // only the plain event remains
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.now(), 20u);  // the dead timer did not advance time
}

TEST(EventQueue, CancelUnknownTimerReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel_timer(0));
  EXPECT_FALSE(q.cancel_timer(12345));
}

TEST(EventQueue, QueueOfOnlyCancelledTimersIsEmpty) {
  EventQueue q;
  const auto a = q.set_timer(5, [] {});
  const auto b = q.set_timer(6, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel_timer(a);
  q.cancel_timer(b);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, TimersMayRescheduleThemselves) {
  EventQueue q;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 3) q.set_timer(10, tick);
  };
  q.set_timer(10, tick);
  q.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), 30u);
}

// Same-tick timers and plain events interleave strictly in schedule order
// even though consecutive same-expiry timers share one heap entry.
TEST(EventQueue, SameTickTimersAndEventsKeepScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.set_timer(5, [&] { order.push_back(0); });
  q.set_timer(5, [&] { order.push_back(1); });   // batched with 0
  q.schedule_in(5, [&] { order.push_back(2); }); // closes the batch
  q.set_timer(5, [&] { order.push_back(3); });   // new batch
  q.set_timer(5, [&] { order.push_back(4); });
  q.set_timer(7, [&] { order.push_back(5); });   // different expiry
  EXPECT_EQ(q.run(), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// step() fires exactly one member of a batched timer group per call.
TEST(EventQueue, StepFiresOneBatchedTimerAtATime) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 4; ++i) q.set_timer(3, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_TRUE(q.step());
  EXPECT_TRUE(q.step());
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
  EXPECT_EQ(fired, 4);
}

// Cancelling some members of a batch must not fire them, advance time for
// them, or disturb the survivors' order.
TEST(EventQueue, CancelInsideBatchSkipsOnlyTheCancelled) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::TimerId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(q.set_timer(10, [&order, i] { order.push_back(i); }));
  q.cancel_timer(ids[0]);
  q.cancel_timer(ids[2]);
  q.cancel_timer(ids[5]);
  EXPECT_EQ(q.pending(), 3u);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(q.now(), 10u);
}

// A timer firing may cancel later members of its own (already re-heaped)
// batch; the cancelled members must not run.
TEST(EventQueue, BatchMemberMayCancelItsSiblings) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::TimerId> ids(3, 0);
  ids[0] = q.set_timer(4, [&] {
    order.push_back(0);
    q.cancel_timer(ids[2]);
  });
  ids[1] = q.set_timer(4, [&] { order.push_back(1); });
  ids[2] = q.set_timer(4, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.live_timer_count(), 0u);
}

// Retransmission-style churn: arm-and-cancel cycles at a scale that used to
// leave every tombstone (closure included) in the heap until its expiry came
// up. Storage must stay bounded by compaction, cancelled closures must be
// released immediately, and no cancelled callback may ever fire.
TEST(EventQueue, CancelChurnKeepsHeapBoundedAndSilent) {
  EventQueue q;
  int cancelled_fired = 0;
  int live_fired = 0;
  std::size_t max_entries = 0;
  std::size_t max_tombstones = 0;
  // Shared payload: instrument release so we can prove cancel frees the
  // closure's captures immediately rather than at pop time.
  auto payload = std::make_shared<std::vector<int>>(64, 7);
  for (int round = 0; round < 200; ++round) {
    std::vector<EventQueue::TimerId> ids;
    for (int i = 0; i < 50; ++i)
      ids.push_back(q.set_timer(1000, [&cancelled_fired, payload] {
        ++cancelled_fired;
      }));
    for (const auto id : ids) EXPECT_TRUE(q.cancel_timer(id));
    max_entries = std::max(max_entries, q.heap_entries());
    max_tombstones = std::max(max_tombstones, q.cancelled_in_heap());
    // A sprinkle of live work so time advances like a real run.
    q.set_timer(1, [&live_fired] { ++live_fired; });
    q.run_until(q.now() + 1);
  }
  // 10000 arm/cancel cycles; the old heap would hold every one of them.
  EXPECT_LT(max_entries, 500u);
  EXPECT_LT(max_tombstones, 200u);
  EXPECT_EQ(q.live_timer_count(), 0u);
  // Only our instrumented handle remains: every cancelled closure's capture
  // was released at cancel time.
  EXPECT_EQ(payload.use_count(), 1);
  q.run();
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_EQ(live_fired, 200);
}

// pending()/empty() stay exact while tombstones await compaction.
TEST(EventQueue, CountsIgnoreTombstones) {
  EventQueue q;
  std::vector<EventQueue::TimerId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(q.set_timer(50, [] {}));
  q.schedule_in(60, [] {});
  for (const auto id : ids) q.cancel_timer(id);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(q.empty());
}

// A plain (at, seq)-ordered list: the firing order every queue layout must
// reproduce. Events are labels; what an event does when it fires is fixed
// when it is scheduled, so the queue and this reference run identical
// programs.
struct ReferenceQueue {
  struct Entry {
    Time at;
    std::uint64_t seq;
    int label;
    bool timer;
  };
  std::vector<Entry> entries;
  Time now = 0;
  std::uint64_t next_seq = 0;

  void add(Time at, int label, bool timer) {
    entries.push_back(Entry{at, next_seq++, label, timer});
  }
  bool cancel(int label) {
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const Entry& e) {
                                   return e.timer && e.label == label;
                                 });
    if (it == entries.end()) return false;
    entries.erase(it);
    return true;
  }
  std::vector<Entry>::iterator front() {
    return std::min_element(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.at != b.at ? a.at < b.at
                                                  : a.seq < b.seq;
                            });
  }
  std::size_t live_timers() const {
    return static_cast<std::size_t>(std::count_if(
        entries.begin(), entries.end(),
        [](const Entry& e) { return e.timer; }));
  }
};

// What a fired event does: nothing, cancel a timer (possibly itself, or
// one long gone, whose id is then stale), or schedule a child event.
struct Action {
  enum Kind { kNone, kCancel, kSchedule } kind = kNone;
  int target = 0;  ///< cancel: the timer's label; schedule: the child's
  Time delay = 0;
  bool child_timer = false;
};

class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t roll = rng_.next_below(100);
      if (roll < 30) {
        add(rng_.next_below(25), /*timer=*/false);
      } else if (roll < 60) {
        add(rng_.next_below(25), /*timer=*/true);
      } else if (roll < 75) {
        cancel_from_outside();
      } else if (roll < 90) {
        const bool ran = q_.step();
        bool ref_ran = false;
        if (const auto it = ref_.front(); it != ref_.entries.end()) {
          ref_ran = true;
          fire_reference(it);
        }
        ASSERT_EQ(ran, ref_ran) << "op " << op;
      } else {
        const Time deadline = q_.now() + rng_.next_below(12);
        const std::size_t ran = q_.run_until(deadline);
        std::size_t ref_ran = 0;
        for (auto it = ref_.front();
             it != ref_.entries.end() && it->at <= deadline;
             it = ref_.front()) {
          fire_reference(it);
          ++ref_ran;
        }
        ASSERT_EQ(ran, ref_ran) << "op " << op;
      }
      ASSERT_EQ(log_, ref_log_) << "op " << op;
      ASSERT_EQ(q_.now(), ref_.now) << "op " << op;
      ASSERT_EQ(q_.pending(), ref_.entries.size()) << "op " << op;
      ASSERT_EQ(q_.empty(), ref_.entries.empty()) << "op " << op;
      ASSERT_EQ(q_.live_timer_count(), ref_.live_timers()) << "op " << op;
    }
    // Drain: the tail must agree too.
    q_.run();
    while (!ref_.entries.empty()) fire_reference(ref_.front());
    EXPECT_EQ(log_, ref_log_);
    EXPECT_EQ(q_.now(), ref_.now);
    EXPECT_EQ(q_.live_timer_count(), 0u);
    EXPECT_GT(fired_, 0u);
  }

 private:
  // Schedules a fresh label on both sides, with a random action attached.
  void add(Time delay, bool timer) {
    const int label = next_label_++;
    Action action;
    const std::uint64_t roll = rng_.next_below(10);
    if (roll < 3 && !timer_labels_.empty()) {
      action.kind = Action::kCancel;
      action.target = pick_timer_label();
    } else if (roll < 4 && timer) {
      action.kind = Action::kCancel;  // cancels itself while firing
      action.target = label;
    } else if (roll < 6) {
      action.kind = Action::kSchedule;
      action.target = next_label_++;
      action.delay = rng_.next_below(6);
      action.child_timer = rng_.next_bool(0.5);
    }
    actions_.resize(static_cast<std::size_t>(next_label_));
    actions_[static_cast<std::size_t>(label)] = action;
    schedule_both(delay, label, timer);
  }

  void schedule_both(Time delay, int label, bool timer) {
    auto fire = [this, label] { fire_real(label); };
    if (timer) {
      ids_.resize(std::max(ids_.size(), static_cast<std::size_t>(label) + 1));
      ids_[static_cast<std::size_t>(label)] = q_.set_timer(delay, fire);
      timer_labels_.push_back(label);
    } else {
      q_.schedule_in(delay, fire);
    }
    ref_.add(ref_.now + delay, label, timer);
  }

  int pick_timer_label() {
    return timer_labels_[rng_.next_below(timer_labels_.size())];
  }

  void cancel_from_outside() {
    if (timer_labels_.empty() || rng_.next_bool(0.1)) {
      // Ids no timer ever had.
      EXPECT_FALSE(q_.cancel_timer(0));
      EXPECT_FALSE(q_.cancel_timer(0xfffffff0u));
      return;
    }
    const int label = pick_timer_label();
    const bool real = q_.cancel_timer(ids_[static_cast<std::size_t>(label)]);
    EXPECT_EQ(real, ref_.cancel(label)) << "label " << label;
  }

  void fire_real(int label) {
    ++fired_;
    log_.push_back(label);
    const Action& a = actions_[static_cast<std::size_t>(label)];
    if (a.kind == Action::kCancel) {
      log_.push_back(
          q_.cancel_timer(ids_[static_cast<std::size_t>(a.target)]) ? -1 : -2);
    } else if (a.kind == Action::kSchedule) {
      auto fire = [this, child = a.target] { fire_real(child); };
      if (a.child_timer) {
        ids_.resize(
            std::max(ids_.size(), static_cast<std::size_t>(a.target) + 1));
        ids_[static_cast<std::size_t>(a.target)] = q_.set_timer(a.delay, fire);
      } else {
        q_.schedule_in(a.delay, fire);
      }
    }
  }

  void fire_reference(std::vector<ReferenceQueue::Entry>::iterator it) {
    const ReferenceQueue::Entry e = *it;
    ref_.entries.erase(it);
    ref_.now = e.at;
    ref_log_.push_back(e.label);
    const Action& a = actions_[static_cast<std::size_t>(e.label)];
    if (a.kind == Action::kCancel) {
      ref_log_.push_back(ref_.cancel(a.target) ? -1 : -2);
    } else if (a.kind == Action::kSchedule) {
      ref_.add(ref_.now + a.delay, a.target, a.child_timer);
      if (a.child_timer) timer_labels_.push_back(a.target);
    }
  }

  Rng rng_;
  EventQueue q_;
  ReferenceQueue ref_;
  std::vector<Action> actions_;
  std::vector<EventQueue::TimerId> ids_;  ///< by label; 0 = not a timer
  std::vector<int> timer_labels_;         ///< every timer ever set
  std::vector<int> log_, ref_log_;        ///< labels fired, cancel results
  std::size_t fired_ = 0;
  int next_label_ = 0;
};

// Randomized differential test: the queue and the reference above run the
// same seeded mix of schedule_in, set_timer, cancel_timer (from outside and
// from inside firing events, with live, fired, cancelled and never-issued
// ids), step and run_until, and must agree on firing order, now(),
// pending() and live_timer_count() after every operation.
TEST(EventQueue, MatchesReferenceOrderUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    QueueDifferential(seed).run(1500);
    if (HasFatalFailure()) return;
  }
}

// A slot reused after its timer fired or was cancelled gets a new
// generation, so the old id cancels nothing.
TEST(EventQueue, StaleIdDoesNotCancelReusedSlot) {
  EventQueue q;
  int fired = 0;
  const auto a = q.set_timer(5, [] {});
  ASSERT_TRUE(q.cancel_timer(a));
  const auto b = q.set_timer(5, [&] { ++fired; });  // reuses a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel_timer(a));
  q.run();
  EXPECT_EQ(fired, 1);
  const auto c = q.set_timer(1, [&] { ++fired; });
  EXPECT_FALSE(q.cancel_timer(b));  // fired: stale
  EXPECT_EQ(q.live_timer_count(), 1u);
  EXPECT_TRUE(q.cancel_timer(c));
}

}  // namespace
}  // namespace hkws::sim
