// Unit tests for the discrete-event engine: fibers, clock, resources,
// completions, channels, barriers, determinism.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "des/completion.hpp"
#include "des/engine.hpp"
#include "des/fiber.hpp"
#include "des/resource.hpp"
#include "des/sync.hpp"
#include "des/timer.hpp"
#include "util/assert.hpp"
#include "util/prng.hpp"

namespace colcom::des {
namespace {

TEST(Fiber, RunsBodyOnResume) {
  int steps = 0;
  Fiber f(64 * 1024, [&] {
    ++steps;
    Fiber::current()->yield();
    ++steps;
  });
  EXPECT_EQ(steps, 0);
  f.resume();
  EXPECT_EQ(steps, 1);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(steps, 2);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CapturesException) {
  Fiber f(64 * 1024, [] { throw std::runtime_error("boom"); });
  f.resume();
  EXPECT_TRUE(f.finished());
  ASSERT_TRUE(f.exception() != nullptr);
  EXPECT_THROW(std::rethrow_exception(f.exception()), std::runtime_error);
}

// Mixes integer, stack-array and floating-point state through `yields`
// rounds, calling `yield` between rounds so every local is live across each
// switch. Run once on the host stack and once per fiber: the results match
// only if every switch restores the fiber's registers and stack intact.
template <typename Yield>
std::uint64_t churn(int id, int yields, Yield yield) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(id);
  std::array<std::uint32_t, 16> ring{};
  double acc = id;
  for (int k = 0; k < yields; ++k) {
    const auto slot = static_cast<std::size_t>(k) % ring.size();
    ring[slot] += static_cast<std::uint32_t>(h >> 7);
    h = (h ^ ring[(slot * 7 + 3) % ring.size()] ^
         static_cast<std::uint64_t>(k)) *
        0x100000001b3ULL;
    acc = acc * 0.5 + static_cast<double>(k);
    yield();
  }
  for (const std::uint32_t v : ring) h = (h ^ v) * 0x100000001b3ULL;
  return h ^ std::bit_cast<std::uint64_t>(acc);
}

TEST(Fiber, ManyFibersKeepLocalsAcrossSwitches) {
  constexpr int kFibers = 1000;
  constexpr int kYields = 100;
  std::vector<std::uint64_t> sums(kFibers, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int id = 0; id < kFibers; ++id) {
    fibers.push_back(std::make_unique<Fiber>(32 * 1024, [id, &sums] {
      sums[static_cast<std::size_t>(id)] =
          churn(id, kYields, [] { Fiber::current()->yield(); });
    }));
  }
  // Resume in a fresh random order each round so neighbouring stacks
  // interleave arbitrarily.
  Prng rng(7);
  std::vector<std::size_t> order(kFibers);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::uint64_t resumes = 0;
  for (bool live = true; live;) {
    live = false;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const std::size_t i : order) {
      if (fibers[i]->finished()) continue;
      fibers[i]->resume();
      ++resumes;
      live = true;
    }
  }
  EXPECT_EQ(resumes, static_cast<std::uint64_t>(kFibers) * (kYields + 1));
  for (int id = 0; id < kFibers; ++id) {
    ASSERT_EQ(sums[static_cast<std::size_t>(id)], churn(id, kYields, [] {}))
        << "fiber " << id;
  }
}

// Recurses `depth` levels through frames of 1 KiB of locals the compiler
// must keep (volatile), and not as a tail call (each frame is read again
// after the call returns), so every level takes more stack.
int recurse(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  return recurse(depth - 1) + frame[0];
}

TEST(Fiber, StackOverflowHitsGuardPage) {
  // A 64 KiB stack holds fewer than 64 such frames; recurse 128 deep. The
  // guard page below the stack turns the overflow into an immediate fault,
  // where it would otherwise write silently over whatever memory lies below.
  volatile int depth = 128;
  EXPECT_DEATH(
      {
        Fiber f(64 * 1024, [&depth] { recurse(depth); });
        f.resume();
      },
      "");
}

// Address of a local in a fiber of `stack_bytes`, run to completion and
// destroyed: every fiber that runs on the same stack puts it at one address.
std::uintptr_t local_address(std::size_t stack_bytes) {
  std::uintptr_t at = 0;
  Fiber f(stack_bytes, [&at] {
    volatile int local = 0;
    at = reinterpret_cast<std::uintptr_t>(&local);
  });
  f.resume();
  return at;
}

TEST(Fiber, DestroyedStacksAreReused) {
  const std::uintptr_t first = local_address(64 * 1024);
  EXPECT_EQ(local_address(64 * 1024), first);
  // A fiber of another size runs on a stack of its own: its local lies
  // outside the freed 64 KiB stack, which stays free for the next fiber of
  // its size.
  const std::uintptr_t other = local_address(32 * 1024);
  EXPECT_TRUE(other > first || other < first - 60 * 1024)
      << std::hex << other << " inside the stack of " << first;
  EXPECT_EQ(local_address(64 * 1024), first);
}

// Parks the calling actor `depth` frames deep. Frames hold only trivially
// destructible locals: a parked fiber's frames are freed, never unwound.
int park_deep(Engine& e, int depth, bool forever) {
  if (depth == 0) {
    if (forever) {
      e.block();
    } else {
      e.advance(5.0);
    }
    return 0;
  }
  volatile int local = depth;
  const int below = park_deep(e, depth - 1, forever);
  return below + local;
}

// The page holding the calling fiber's first frames: its stack's top page,
// the same for every fiber that runs on that stack.
std::uintptr_t top_page() {
  volatile char probe = 0;
  return reinterpret_cast<std::uintptr_t>(&probe) /
         static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
}

// Runs `fibers` fresh actors, actor i through park_deep `base + i` frames
// deep, to completion; returns their stacks' top pages, sorted.
std::vector<std::uintptr_t> run_deep(int fibers, int base) {
  Engine e;
  std::vector<std::uintptr_t> tops;
  int done = 0;
  for (int i = 0; i < fibers; ++i) {
    e.spawn("fresh" + std::to_string(i), 0, [&e, &tops, &done, base, i] {
      tops.push_back(top_page());
      park_deep(e, base + i, false);
      ++done;
    });
  }
  e.run();
  EXPECT_EQ(done, fibers);
  std::sort(tops.begin(), tops.end());
  return tops;
}

TEST(Engine, ThrowWhileOthersSuspendedLeavesThemDestructible) {
  struct Guard {
    int* unwound;
    ~Guard() { ++*unwound; }
  };
  int unwound = 0;
  std::vector<std::uintptr_t> tops;
  {
    Engine e;
    for (int i = 0; i < 8; ++i) {
      e.spawn("deep" + std::to_string(i), 0, [&e, &tops, i] {
        tops.push_back(top_page());
        park_deep(e, 10 + i, i % 2 == 0);
      });
    }
    e.spawn("bad", 0, [&e, &tops, &unwound] {
      tops.push_back(top_page());
      const Guard g{&unwound};
      e.advance(1.0);
      throw std::runtime_error("actor failed");
    });
    EXPECT_THROW(e.run(), std::runtime_error);
    EXPECT_EQ(unwound, 1);  // the throwing fiber's own stack unwound
    EXPECT_DOUBLE_EQ(e.now(), 1.0);
    for (int i = 0; i < 8; ++i) EXPECT_FALSE(e.actor_finished(i));
  }  // frees the eight suspended stacks without resuming them
  // Fresh fibers run to completion on the nine freed stacks, through frames
  // where the abandoned ones were parked.
  std::sort(tops.begin(), tops.end());
  EXPECT_EQ(run_deep(9, 10), tops);
}

TEST(Engine, DestroyedWithSuspendedFibers) {
  // Schedule exploration abandons an execution by throwing out of run()
  // from the scheduler; the engine is then destroyed with actors parked at
  // arbitrary depths, blocked or mid-advance.
  struct Abandon {};
  std::vector<std::uintptr_t> tops;
  {
    Engine e;
    for (int i = 0; i < 16; ++i) {
      e.spawn("a" + std::to_string(i), i % 4, [&e, &tops, i] {
        tops.push_back(top_page());
        park_deep(e, i, i % 3 == 0);
      });
    }
    e.schedule(2.0, [] { throw Abandon{}; });
    EXPECT_THROW(e.run(), Abandon);
    EXPECT_FALSE(e.in_actor());
  }
  EXPECT_EQ(Fiber::current(), nullptr);
  // The sixteen freed stacks run fresh fibers to completion.
  std::sort(tops.begin(), tops.end());
  EXPECT_EQ(run_deep(16, 0), tops);
}

TEST(Engine, AdvanceMovesVirtualClock) {
  Engine e;
  SimTime seen = -1;
  e.spawn("a", 0, [&] {
    e.advance(1.5);
    seen = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 1.5);
}

TEST(Engine, ActorsInterleaveByTime) {
  Engine e;
  std::vector<std::string> order;
  e.spawn("slow", 0, [&] {
    e.advance(2.0);
    order.push_back("slow");
  });
  e.spawn("fast", 0, [&] {
    e.advance(1.0);
    order.push_back("fast");
  });
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "fast");
  EXPECT_EQ(order[1], "slow");
}

TEST(Engine, TieBreakIsSpawnOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn("a" + std::to_string(i), 0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, SleepUntilWakesAtExactTime) {
  Engine e;
  SimTime woke = -1;
  e.spawn("s", 0, [&] {
    e.sleep_until(3.25);
    woke = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(woke, 3.25);
}

TEST(Engine, ExceptionInActorPropagates) {
  Engine e;
  e.spawn("bad", 0, [] { throw std::runtime_error("actor failed"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, SchedulingInPastIsContractViolation) {
  Engine e;
  e.spawn("a", 0, [&] {
    e.advance(1.0);
    EXPECT_THROW(e.schedule(0.5, [] {}), ContractViolation);
  });
  e.run();
}

TEST(Engine, BlockAndWakeRoundTrip) {
  Engine e;
  int waiter_id = -1;
  bool resumed = false;
  e.spawn("waiter", 0, [&] {
    waiter_id = e.current_actor();
    e.block();
    resumed = true;
  });
  e.spawn("waker", 1, [&] {
    e.advance(2.0);
    e.wake(waiter_id);
  });
  e.run();
  EXPECT_TRUE(resumed);
}

TEST(Engine, CpuListenerReceivesIntervals) {
  struct Rec : TraceSink {
    std::vector<std::tuple<int, CpuKind, SimTime, SimTime>> intervals;
    void on_interval(int node, int, CpuKind kind, SimTime b,
                     SimTime en) override {
      intervals.emplace_back(node, kind, b, en);
    }
  } rec;
  Engine e;
  e.add_trace_sink(&rec);
  e.spawn("a", 3, [&] {
    e.advance(1.0, CpuKind::user);
    e.advance(0.5, CpuKind::sys);
    e.sleep_until(4.0);
  });
  e.run();
  ASSERT_EQ(rec.intervals.size(), 3u);
  EXPECT_EQ(std::get<0>(rec.intervals[0]), 3);
  EXPECT_EQ(std::get<1>(rec.intervals[0]), CpuKind::user);
  EXPECT_DOUBLE_EQ(std::get<3>(rec.intervals[0]), 1.0);
  EXPECT_EQ(std::get<1>(rec.intervals[1]), CpuKind::sys);
  EXPECT_EQ(std::get<1>(rec.intervals[2]), CpuKind::wait);
  EXPECT_DOUBLE_EQ(std::get<3>(rec.intervals[2]), 4.0);
}

TEST(Resource, FifoSerializesRequests) {
  Engine e;
  std::vector<SimTime> done;
  FifoResource r(e, "disk");
  for (int i = 0; i < 3; ++i) {
    e.spawn("u" + std::to_string(i), 0, [&] {
      r.use(1.0);
      done.push_back(e.now());
    });
  }
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 3.0);
  EXPECT_EQ(r.ops(), 3u);
}

TEST(Resource, AsyncOverlapsWithCompute) {
  Engine e;
  SimTime finish = -1;
  FifoResource r(e, "disk");
  e.spawn("overlap", 0, [&] {
    Completion c = r.use_async(2.0);  // disk works 0..2
    e.advance(1.5);                   // compute 0..1.5 in parallel
    c.wait();                         // done at 2, not 3.5
    finish = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(finish, 2.0);
}

TEST(Completion, ReadyIsImmediate) {
  Engine e;
  SimTime t = -1;
  e.spawn("a", 0, [&] {
    Completion c = Completion::ready(e);
    c.wait();
    t = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Completion, MultipleWaiters) {
  Engine e;
  CompletionSource src(e);
  int woken = 0;
  for (int i = 0; i < 4; ++i) {
    e.spawn("w" + std::to_string(i), 0, [&] {
      src.completion().wait();
      ++woken;
    });
  }
  e.spawn("firer", 0, [&] {
    e.advance(5.0);
    src.fire();
  });
  e.run();
  EXPECT_EQ(woken, 4);
}

TEST(Completion, WaitAllWaitsForSlowest) {
  Engine e;
  FifoResource a(e, "a"), b(e, "b");
  SimTime t = -1;
  e.spawn("w", 0, [&] {
    std::vector<Completion> cs{a.use_async(1.0), b.use_async(3.0)};
    wait_all(cs);
    t = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(t, 3.0);
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  int inside = 0, peak = 0;
  for (int i = 0; i < 6; ++i) {
    e.spawn("s" + std::to_string(i), 0, [&] {
      sem.acquire();
      peak = std::max(peak, ++inside);
      e.advance(1.0);
      --inside;
      sem.release();
    });
  }
  e.run();
  EXPECT_EQ(peak, 2);
}

TEST(Sync, ChannelTransfersInOrder) {
  Engine e;
  Channel<int> ch(e, 2);
  std::vector<int> got;
  e.spawn("producer", 0, [&] {
    for (int i = 0; i < 10; ++i) {
      ch.push(i);
      e.advance(0.1);
    }
    ch.close();
  });
  e.spawn("consumer", 1, [&] {
    while (auto v = ch.pop()) got.push_back(*v);
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Sync, ChannelCapacityBlocksProducer) {
  Engine e;
  Channel<int> ch(e, 1);
  SimTime second_push_done = -1;
  e.spawn("producer", 0, [&] {
    ch.push(1);
    ch.push(2);  // must wait until consumer pops at t=5
    second_push_done = e.now();
    ch.close();
  });
  e.spawn("consumer", 1, [&] {
    e.advance(5.0);
    (void)ch.pop();
    (void)ch.pop();
  });
  e.run();
  EXPECT_DOUBLE_EQ(second_push_done, 5.0);
}

TEST(Sync, BarrierReleasesTogetherAndIsCyclic) {
  Engine e;
  FiberBarrier bar(e, 3);
  std::vector<SimTime> times;
  for (int i = 0; i < 3; ++i) {
    e.spawn("b" + std::to_string(i), 0, [&, i] {
      e.advance(static_cast<SimTime>(i));  // arrive at 0, 1, 2
      bar.arrive_and_wait();
      times.push_back(e.now());
      bar.arrive_and_wait();  // reuse in a second cycle
      times.push_back(e.now());
    });
  }
  e.run();
  ASSERT_EQ(times.size(), 6u);
  for (const SimTime t : times) EXPECT_DOUBLE_EQ(t, 2.0);
}

// Determinism: two identical simulations dispatch identical event counts and
// end at identical virtual times.
TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    FifoResource disk(e, "d");
    Channel<int> ch(e, 4);
    for (int i = 0; i < 8; ++i) {
      e.spawn("p" + std::to_string(i), i % 2, [&e, &disk, &ch, i] {
        for (int k = 0; k < 5; ++k) {
          disk.use(0.01 * (i + 1));
          ch.push(i);
          e.advance(0.002);
        }
      });
    }
    e.spawn("drain", 0, [&] {
      for (int k = 0; k < 40; ++k) (void)ch.pop();
    });
    e.run();
    return std::pair<SimTime, std::uint64_t>{e.now(), e.events_dispatched()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Timer, FiresAtArmedTime) {
  Engine e;
  Timer t(e);
  SimTime fired_at = -1;
  t.arm(0.5, [&] { fired_at = e.now(); });
  EXPECT_TRUE(t.armed());
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 0.5);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelPreventsFire) {
  Engine e;
  Timer t(e);
  bool fired = false;
  t.arm(0.5, [&] { fired = true; });
  e.schedule(0.25, [&] { t.cancel(); });
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(t.armed());
  // The tombstoned event still advanced the clock to its deadline.
  EXPECT_DOUBLE_EQ(e.now(), 0.5);
}

TEST(Timer, RearmReplacesPendingFire) {
  Engine e;
  Timer t(e);
  std::vector<SimTime> fires;
  t.arm(0.5, [&] { fires.push_back(e.now()); });
  e.schedule(0.1, [&] { t.arm(0.9, [&] { fires.push_back(e.now()); }); });
  e.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_DOUBLE_EQ(fires[0], 0.9);
}

TEST(Timer, DestructorCancels) {
  Engine e;
  bool fired = false;
  {
    Timer t(e);
    t.arm(0.5, [&] { fired = true; });
  }
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, SleepForAdvancesWallClockOnly) {
  Engine e;
  SimTime woke = -1;
  e.spawn("sleeper", 0, [&] {
    e.sleep_for(0.25);
    e.sleep_for(0.25);
    woke = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(woke, 0.5);
}

}  // namespace
}  // namespace colcom::des
