// Unit tests for the discrete-event scheduler and deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace express::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time{0});
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(seconds(3), [&] { order.push_back(3); });
  s.schedule_at(seconds(1), [&] { order.push_back(1); });
  s.schedule_at(seconds(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), seconds(3));
}

TEST(Scheduler, EqualTimesFireInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(seconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  Time fired{};
  s.schedule_at(seconds(10), [&] {
    s.schedule_after(seconds(5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, seconds(15));
}

TEST(Scheduler, NextEventTimePeeksWithoutRunning) {
  Scheduler s;
  EXPECT_EQ(s.next_event_time(), std::nullopt);
  s.schedule_at(seconds(4), [] {});
  s.schedule_at(seconds(2), [] {});
  EXPECT_EQ(s.next_event_time(), std::optional<Time>(seconds(2)));
  EXPECT_EQ(s.now(), Time{0});  // peeking advances nothing
  s.run();
  EXPECT_EQ(s.next_event_time(), std::nullopt);
}

TEST(Scheduler, NextEventTimeSeesThroughCancelledTops) {
  Scheduler s;
  auto first = s.schedule_at(seconds(1), [] {});
  auto second = s.schedule_at(seconds(2), [] {});
  s.schedule_at(seconds(3), [] {});
  first.cancel();
  second.cancel();
  // Both dead entries at the top of the heap are reclaimed in passing.
  EXPECT_EQ(s.next_event_time(), std::optional<Time>(seconds(3)));
  auto cancelled_all = s.schedule_at(seconds(10), [] {});
  s.run();
  cancelled_all.cancel();
  EXPECT_EQ(s.next_event_time(), std::nullopt);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(seconds(1), [&] { ++fired; });
  s.schedule_at(seconds(10), [&] { ++fired; });
  s.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), seconds(5));  // clock advances to the deadline
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PastSchedulingClampsToNow) {
  Scheduler s;
  Time fired = kNever;
  s.schedule_at(seconds(10), [&] {
    s.schedule_at(seconds(2), [&] { fired = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(fired, seconds(10));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventHandle h = s.schedule_at(seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.executed_events(), 0u);
}

TEST(Scheduler, FiredEventNoLongerPending) {
  Scheduler s;
  EventHandle h = s.schedule_at(seconds(1), [] {});
  s.run();
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, CancelAfterFireIsSafe) {
  Scheduler s;
  EventHandle h = s.schedule_at(seconds(1), [] {});
  s.run();
  h.cancel();  // no-op
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, EmptyHandleIsSafe) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Scheduler, PastSchedulingIsCounted) {
  Scheduler s;
  EXPECT_EQ(s.clamped_past_events(), 0u);
  s.schedule_at(seconds(10), [&] {
    s.schedule_at(seconds(2), [] {});  // in the past: clamped + counted
    s.schedule_at(seconds(11), [] {});  // in the future: not counted
  });
  s.run();
  EXPECT_EQ(s.clamped_past_events(), 1u);
  EXPECT_EQ(s.stats().clamped_past_events, 1u);
}

TEST(Scheduler, HandleToRecycledSlotIsInert) {
  // After an event fires, its slab slot is recycled for the next event.
  // A stale handle to the fired event must not report pending and must
  // not cancel the slot's new occupant.
  Scheduler s;
  bool first = false;
  bool second = false;
  EventHandle stale = s.schedule_at(seconds(1), [&] { first = true; });
  s.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(stale.pending());

  EventHandle fresh = s.schedule_at(seconds(2), [&] { second = true; });
  EXPECT_TRUE(fresh.pending());
  stale.cancel();  // must be a no-op on the recycled slot
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_TRUE(second);
  EXPECT_FALSE(fresh.pending());
}

TEST(Scheduler, CopiedHandlesSeeTheSameEvent) {
  Scheduler s;
  bool fired = false;
  EventHandle a = s.schedule_at(seconds(1), [&] { fired = true; });
  EventHandle b = a;
  EXPECT_TRUE(b.pending());
  a.cancel();
  EXPECT_FALSE(b.pending());
  b.cancel();  // safe double-cancel through the copy
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, StatsCountScheduledCancelledExecuted) {
  Scheduler s;
  EventHandle h1 = s.schedule_at(seconds(1), [] {});
  s.schedule_at(seconds(2), [] {});
  s.schedule_at(seconds(3), [] {});
  h1.cancel();
  s.run();
  const SchedulerStats st = s.stats();
  EXPECT_EQ(st.scheduled, 3u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.executed, 2u);
  EXPECT_EQ(st.pending, 0u);
  EXPECT_GE(st.peak_pending, 3u);
  EXPECT_EQ(st.slab_slots, st.free_slots);  // everything recycled
}

TEST(Scheduler, SlabStopsGrowingInSteadyState) {
  // The zero-allocation property: once the high-water mark of
  // concurrent events is reached, schedule/dispatch cycles recycle
  // slots instead of allocating new ones.
  Scheduler s;
  for (int round = 0; round < 3; ++round) {  // warm up the slab
    for (int i = 0; i < 16; ++i) s.schedule_after(seconds(1), [] {});
    s.run();
  }
  const std::uint64_t high_water = s.stats().slab_slots;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 16; ++i) s.schedule_after(seconds(1), [] {});
    s.run();
  }
  EXPECT_EQ(s.stats().slab_slots, high_water);
  EXPECT_EQ(s.stats().free_slots, high_water);
}

TEST(Scheduler, CancelledSlotsAreRecycledToo) {
  Scheduler s;
  for (int round = 0; round < 3; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(s.schedule_after(seconds(1), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }
  const std::uint64_t high_water = s.stats().slab_slots;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(s.schedule_after(seconds(1), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }
  EXPECT_EQ(s.stats().slab_slots, high_water);
  EXPECT_EQ(s.stats().cancelled, 53u * 8u);
  EXPECT_EQ(s.executed_events(), 0u);
}

TEST(Scheduler, FifoTieBreakSurvivesCancellationsInBetween) {
  // Cancel every other event at one instant; survivors must still fire
  // in insertion order.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(s.schedule_at(seconds(5), [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9}));
}

// Independent oracle for dispatch order: every schedule call is logged
// as (when, call index, id), every cancel marks the call it cancelled,
// and the fired sequence must equal the non-cancelled log stable-sorted
// by (when, call index) — time order, then schedule order.
class MixedLoad {
 public:
  // Scheduled actions hold `this`.
  MixedLoad() = default;
  MixedLoad(const MixedLoad&) = delete;
  MixedLoad& operator=(const MixedLoad&) = delete;

  struct Fired {
    Time at{};
    std::uint64_t id = 0;
    bool operator==(const Fired&) const = default;
  };

  /// Schedules event `id` after `delay`; returns its call index.
  std::size_t schedule_after(Duration delay, std::uint64_t id) {
    return log(s_.now() + delay, id,
               s_.schedule_after(delay, [this, id] { fire(id); }));
  }

  std::size_t schedule_at(Time when, std::uint64_t id) {
    return log(when, id, s_.schedule_at(when, [this, id] { fire(id); }));
  }

  /// A timer that fires after `delay`, then re-arms itself every
  /// `period` until it has fired `times` times.
  void hop(Duration delay, Duration period, std::uint64_t id, int times) {
    log(s_.now() + delay, id,
        s_.schedule_after(delay, [this, period, id, times] {
          fire(id);
          if (times > 1) hop(period, period, id, times - 1);
        }));
  }

  void cancel(std::size_t call) {
    log_[call].handle.cancel();
    log_[call].cancelled = true;
  }

  [[nodiscard]] bool pending(std::size_t call) const {
    return log_[call].handle.pending();
  }

  /// What should have fired by `deadline`: every non-cancelled call due
  /// at or before it, in (when, call index) order.
  [[nodiscard]] std::vector<Fired> expected(Time deadline) const {
    std::vector<Entry> due;
    for (const Entry& e : log_) {
      if (!e.cancelled && e.when <= deadline) due.push_back(e);
    }
    std::stable_sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
      return a.when != b.when ? a.when < b.when : a.call < b.call;
    });
    std::vector<Fired> out;
    for (const Entry& e : due) out.push_back({e.when, e.id});
    return out;
  }

  Scheduler& scheduler() { return s_; }
  [[nodiscard]] const std::vector<Fired>& fired() const { return fired_; }

 private:
  struct Entry {
    Time when{};
    std::size_t call = 0;
    std::uint64_t id = 0;
    EventHandle handle;
    bool cancelled = false;
  };

  std::size_t log(Time when, std::uint64_t id, EventHandle handle) {
    log_.push_back({when, log_.size(), id, handle, false});
    return log_.size() - 1;
  }

  void fire(std::uint64_t id) { fired_.push_back({s_.now(), id}); }

  Scheduler s_;
  std::vector<Entry> log_;
  std::vector<Fired> fired_;
};

void ExpectSameFiring(const std::vector<MixedLoad::Fired>& fired,
                      const std::vector<MixedLoad::Fired>& expected) {
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(fired[i] == expected[i])
        << "divergence at event " << i << ": fired id " << fired[i].id
        << " at " << fired[i].at.count() << " ns, oracle expects id "
        << expected[i].id << " at " << expected[i].at.count() << " ns";
  }
}

TEST(Scheduler, MixedLoadFiresInTimeThenScheduleOrder) {
  MixedLoad load;
  Rng rng(99);
  std::uint64_t id = 0;

  // A spread of near (µs), mid (ms to a minute) and far (hours) delays.
  std::vector<std::size_t> calls;
  for (int i = 0; i < 2000; ++i) {
    Duration d{};
    switch (rng.below(4)) {
      case 0: d = microseconds(rng.below(2000)); break;
      case 1: d = milliseconds(rng.below(200)); break;
      case 2: d = milliseconds(200 + rng.below(60000)); break;
      default: d = seconds(60 + rng.below(10000)); break;
    }
    calls.push_back(load.schedule_after(d, id++));
  }

  // Equal-time burst: the FIFO tie-break among identical timestamps.
  for (int i = 0; i < 50; ++i) load.schedule_at(Time{milliseconds(500)}, id++);

  // Cancel a deterministic subset across every delay class.
  for (std::size_t i = 0; i < calls.size(); i += 7) {
    load.cancel(calls[i]);
    EXPECT_FALSE(load.pending(calls[i]));
  }

  // A 37 s timer that re-arms itself from inside its own action.
  load.hop(milliseconds(1), seconds(37), id++, 40);

  // Run in deadline slices, checking the prefix fired by each, then drain.
  Scheduler& s = load.scheduler();
  for (const Time deadline : {Time{seconds(1)}, Time{seconds(120)}}) {
    s.run_until(deadline);
    EXPECT_EQ(s.now(), deadline);
    ExpectSameFiring(load.fired(), load.expected(deadline));
    if (HasFatalFailure()) return;
  }
  s.run();
  ExpectSameFiring(load.fired(), load.expected(kNever));
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, EventsScheduledDuringRunAreExecuted) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(seconds(1), recurse);
  };
  s.schedule_at(Time{0}, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), seconds(99));
}

TEST(Scheduler, CancellingTheInFlightEventIsANoOp) {
  // The ecmp::Batcher pattern: a timer action that flushes state and, in
  // doing so, cancels its *own* handle. Dispatch recycles the slot
  // before the action runs, so the stranger scheduled inside the action
  // reuses it — the self-cancel must never reach that stranger.
  Scheduler s;
  bool pending_during_fire = false;
  bool stranger_fired = false;
  EventHandle self;
  self = s.schedule_at(Time{10}, [&] {
    s.schedule_at(Time{20}, [&stranger_fired] { stranger_fired = true; });
    pending_during_fire = self.pending();
    self.cancel();
  });
  s.run();
  EXPECT_FALSE(pending_during_fire);  // in-flight event is not pending
  EXPECT_TRUE(stranger_fired);
  EXPECT_EQ(s.stats().cancelled, 0u);
}

TEST(Scheduler, SelfCancelStaysInertUnderHeavySlotRecycling) {
  // Regression stress for the firing-identity guard: a long chain of
  // self-rescheduling timers, each firing cancels its own handle after
  // scheduling a stranger that recycles the just-freed slot. No round
  // may observe itself pending, cancel a stranger, or bump the
  // cancelled counter.
  Scheduler s;
  constexpr int kRounds = 5000;
  int rounds = 0;
  int strangers = 0;
  int pending_seen = 0;
  EventHandle self;
  std::function<void()> round = [&] {
    ++rounds;
    s.schedule_after(Duration{1}, [&strangers] { ++strangers; });
    if (self.pending()) ++pending_seen;
    self.cancel();
    if (rounds < kRounds) {
      self = s.schedule_after(Duration{2}, [&] { round(); });
    }
  };
  self = s.schedule_at(Time{1}, [&] { round(); });
  s.run();
  EXPECT_EQ(rounds, kRounds);
  EXPECT_EQ(strangers, kRounds);
  EXPECT_EQ(pending_seen, 0);
  EXPECT_EQ(s.stats().cancelled, 0u);
  EXPECT_EQ(s.stats().executed, static_cast<std::uint64_t>(2 * kRounds));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(seconds(2), milliseconds(2000));
  EXPECT_EQ(milliseconds(3), microseconds(3000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds_f(1.5)), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(7)), 7.0);
}

}  // namespace
}  // namespace express::sim
