// Heap-traffic tests for the simulator core and the data path above it.
//
// This file overrides global operator new/delete to count allocations,
// proving two steady-state properties: once warmed up, the slab
// scheduler's schedule → dispatch cycle touches the allocator zero
// times, and so does a whole channel send → fan-out → forward →
// deliver cycle through routers and hosts (memory grows with the
// network, never with run length). It lives in its own test binary so
// the counting overrides cannot perturb (or be perturbed by) the other
// suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/scheduler.hpp"
#include "testbed/testbed.hpp"
#include "workload/topo_gen.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

// Counting overrides. gtest and the runtime allocate freely around the
// measured regions; only the deltas inside them matter. All five are
// noinline: once one is inlined into a caller, GCC sees the malloc/free
// inside and warns -Wmismatched-new-delete on every new/delete pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace express::sim {
namespace {

// A capture the size of the real transmit closures: a packet-sized blob
// plus a couple of pointers. Must fit InlineFunction's inline buffer.
struct Blob {
  unsigned char bytes[64];
};

TEST(SchedulerAllocation, SteadyStateDispatchIsAllocationFree) {
  Scheduler s;
  std::uint64_t fired = 0;
  Blob blob{};

  // Warm up: grow the slab, free list, and heap to their high-water
  // mark, and let the closure machinery settle.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) {
      s.schedule_after(milliseconds(i), [&fired, blob] {
        ++fired;
        (void)blob;
      });
    }
    s.run();
  }

  const std::uint64_t before = allocation_count();
  const std::uint64_t fired_before = fired;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) {
      s.schedule_after(milliseconds(i), [&fired, blob] {
        ++fired;
        (void)blob;
      });
    }
    s.run();
  }
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u) << "steady-state dispatch hit the heap";
  EXPECT_EQ(fired - fired_before, 100u * 64u);
}

TEST(SchedulerAllocation, SelfReschedulingTimerIsAllocationFree) {
  // The common protocol-timer pattern: a handler that re-arms itself.
  // The slot is recycled before the handler runs, so the timer reuses
  // its own record forever.
  Scheduler s;
  std::uint64_t ticks = 0;

  struct TimerLoop {
    Scheduler& s;
    std::uint64_t& ticks;
    std::uint64_t remaining;
    Blob blob{};
    void operator()() {
      ++ticks;
      if (--remaining > 0) {
        s.schedule_after(milliseconds(10), TimerLoop{s, ticks, remaining});
      }
    }
  };

  s.schedule_after(milliseconds(10), TimerLoop{s, ticks, 8});
  s.run();  // warm-up ticks

  const std::uint64_t before = allocation_count();
  s.schedule_after(milliseconds(10), TimerLoop{s, ticks, 1000});
  s.run();
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(ticks, 8u + 1000u);
  EXPECT_EQ(after - before, 0u) << "timer re-arm hit the heap";
}

TEST(SchedulerAllocation, CancellationIsAllocationFree) {
  Scheduler s;
  for (int round = 0; round < 4; ++round) {  // warm up
    std::vector<EventHandle> handles;
    handles.reserve(32);
    for (int i = 0; i < 32; ++i) {
      handles.push_back(s.schedule_after(milliseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }

  std::vector<EventHandle> handles;
  handles.reserve(32);
  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 50; ++round) {
    handles.clear();
    for (int i = 0; i < 32; ++i) {
      handles.push_back(s.schedule_after(milliseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "cancel path hit the heap";
}

TEST(SchedulerAllocation, SimulationClosuresStayInline) {
  // InlineFunction heap-boxes closures larger than its inline buffer.
  // None of the simulator's own closures should ever be boxed; the
  // counter is cumulative, so by the time this binary's tests have
  // exercised the scheduler it must still read zero.
  EXPECT_EQ(InlineFunction::boxed_count(), 0u);

  // Sanity-check that the counter works at all: an oversized closure
  // must be boxed (and allocate).
  struct Huge {
    unsigned char bytes[256];
  };
  const std::uint64_t before = allocation_count();
  Huge huge{};
  InlineFunction f{[huge] { (void)huge; }};
  f();
  EXPECT_EQ(InlineFunction::boxed_count(), 1u);
  EXPECT_GT(allocation_count(), before);
}

}  // namespace
}  // namespace express::sim

namespace express {
namespace {

TEST(HostAllocation, SteadyStateDeliveryIsAllocationFree) {
  // 64 receivers on a 4-ary tree all subscribe to one channel; each
  // send fans out down 85 routers and ends in 64 host deliveries.
  Testbed bed(workload::make_kary_tree(4, 3));
  const ip::ChannelId ch = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).new_subscription(ch);
  }
  bed.run_for(sim::seconds(1));
  ASSERT_EQ(bed.receiver_count(), 64u);

  std::uint64_t sequence = 0;
  auto send_burst = [&](int packets) {
    for (int p = 0; p < packets; ++p) {
      bed.source().send(ch, 1000, ++sequence);
      bed.run_for(sim::milliseconds(5));
    }
  };
  send_burst(3000);  // warm up: queues, slabs and heaps reach high water

  const std::uint64_t received_before = bed.receiver(0).stats().data_received;
  const std::uint64_t before = allocation_count();
  send_burst(5000);
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u) << "steady-state delivery hit the heap";
  EXPECT_EQ(bed.receiver(0).stats().data_received - received_before, 5000u);
}

}  // namespace
}  // namespace express
