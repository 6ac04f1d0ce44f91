// Unit tests for the discrete-event engine: event ordering, the InlineFn callback type,
// execution contexts, statistics, and deterministic RNG.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/base/result.h"
#include "src/sim/event_loop.h"
#include "src/sim/exec_context.h"
#include "src/sim/inline_fn.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"

namespace fractos {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::micros(3), [&]() { order.push_back(3); });
  loop.schedule_after(Duration::micros(1), [&]() { order.push_back(1); });
  loop.schedule_after(Duration::micros(2), [&]() { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().ns(), 3000);
}

TEST(EventLoopTest, EqualTimesFireInSubmissionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(Time::from_ns(100), [&order, i]() { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, PostRunsAtCurrentTime) {
  EventLoop loop;
  Time posted_at;
  loop.schedule_after(Duration::micros(5), [&]() {
    loop.post([&]() { posted_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(posted_at.ns(), 5000);
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 100) {
      loop.schedule_after(Duration::nanos(10), chain);
    }
  };
  loop.schedule_after(Duration::nanos(10), chain);
  loop.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(loop.now().ns(), 1000);
}

TEST(EventLoopTest, RunUntilPredicate) {
  EventLoop loop;
  int count = 0;
  for (int i = 0; i < 50; ++i) {
    loop.schedule_after(Duration::nanos(i), [&]() { ++count; });
  }
  const bool hit = loop.run_until([&]() { return count == 10; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(count, 10);
  loop.run();
  EXPECT_EQ(count, 50);
}

TEST(EventLoopTest, RunUntilPredicateFalseWhenDrained) {
  EventLoop loop;
  loop.schedule_after(Duration::nanos(1), []() {});
  EXPECT_FALSE(loop.run_until([]() { return false; }));
}

TEST(EventLoopTest, RunUntilTimeAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(Time::from_ns(100), [&]() { ++fired; });
  loop.schedule_at(Time::from_ns(500), [&]() { ++fired; });
  loop.run_until_time(Time::from_ns(250));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now().ns(), 250);
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, MaxStepsBoundsExecution) {
  EventLoop loop;
  int count = 0;
  std::function<void()> forever = [&]() {
    ++count;
    loop.schedule_after(Duration::nanos(1), forever);
  };
  loop.schedule_after(Duration::nanos(1), forever);
  loop.run(1000);
  EXPECT_EQ(count, 1000);
}

// --- InlineFn --------------------------------------------------------------------------------

// A capture that records where each of its instances lives, so a test can check that every
// instance InlineFn creates (by construction or relocation) is destroyed exactly once.
class Tracked {
 public:
  explicit Tracked(std::set<const void*>* live) : live_(live) { enter(); }
  Tracked(Tracked&& o) noexcept : live_(o.live_) { enter(); }
  Tracked(const Tracked& o) : live_(o.live_) { enter(); }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { EXPECT_EQ(live_->erase(this), 1u) << "destroyed twice, or never built"; }

  const void* addr() const { return this; }

 private:
  void enter() { EXPECT_TRUE(live_->insert(this).second); }
  std::set<const void*>* live_;
};

// Whether the capture at `p` lives inside `fn`'s own storage (no allocation).
template <typename Fn>
bool stored_inline(const Fn& fn, const void* p) {
  const auto* lo = reinterpret_cast<const unsigned char*>(&fn);
  const auto* at = static_cast<const unsigned char*>(p);
  return at >= lo && at < lo + sizeof(fn);
}

TEST(InlineFnTest, MoveOnlyCaptureMovesWithTheCallback) {
  InlineFn<int()> f = [p = std::make_unique<int>(7)]() { return *p; };
  EXPECT_EQ(f(), 7);
  InlineFn<int()> g = std::move(f);
  EXPECT_TRUE(f == nullptr);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(g(), 7);
}

TEST(InlineFnTest, SmallCapturesStayInlineLargerOnesUseThePoolThenTheHeap) {
  std::set<const void*> live;
  const std::vector<void*>& free_blocks = internal_inline_fn::pool().free_blocks;
  InlineFn<const void*()> small = [t = Tracked(&live)]() { return t.addr(); };
  InlineFn<const void*()> pooled = [t = Tracked(&live), pad = std::array<uint8_t, 128>{}]() {
    static_cast<void>(pad);
    return t.addr();
  };
  InlineFn<const void*()> oversized = [t = Tracked(&live), pad = std::array<uint8_t, 512>{}]() {
    static_cast<void>(pad);
    return t.addr();
  };
  EXPECT_TRUE(stored_inline(small, small()));
  EXPECT_FALSE(stored_inline(pooled, pooled()));
  EXPECT_FALSE(stored_inline(oversized, oversized()));
  EXPECT_EQ(live.size(), 3u);

  // A pooled callback's block goes back on the freelist; an oversized one is too big for a
  // block and returns to the heap.
  const size_t parked = free_blocks.size();
  pooled.reset();
  EXPECT_EQ(free_blocks.size(), parked + 1);
  oversized.reset();
  EXPECT_EQ(free_blocks.size(), parked + 1);
  small.reset();
  EXPECT_TRUE(live.empty());
}

TEST(InlineFnTest, ReturnsNonVoidResults) {
  const InlineFn<Status(int)> check = [](int v) -> Status {
    return v > 0 ? ok_status() : Status(ErrorCode::kInvalidArgument);
  };
  EXPECT_TRUE(check(1).ok());
  EXPECT_EQ(check(0).error(), ErrorCode::kInvalidArgument);
  // A callable returning a convertible type adapts, as a kernel returning Duration would.
  const InlineFn<Duration(int64_t)> cost = [](int64_t n) { return Duration::nanos(n * 2); };
  EXPECT_EQ(cost(21).ns(), 42);
}

TEST(InlineFnTest, ForwardsReferenceAndMoveOnlyArguments) {
  std::unique_ptr<int> sink;
  const InlineFn<void(std::unique_ptr<int>&&)> take = [&](std::unique_ptr<int>&& p) {
    sink = std::move(p);
  };
  auto owned = std::make_unique<int>(5);
  take(std::move(owned));
  EXPECT_EQ(owned, nullptr);
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(*sink, 5);

  // A const T& parameter reaches the callable as the caller's object, not a copy.
  const std::vector<int> big(100, 1);
  const void* seen = nullptr;
  const InlineFn<void(const std::vector<int>&)> peek = [&](const std::vector<int>& v) {
    seen = &v;
  };
  peek(big);
  EXPECT_EQ(seen, &big);

  // By-value parameters move through: a move-only argument works too.
  const InlineFn<int(std::unique_ptr<int>)> unwrap = [](std::unique_ptr<int> p) { return *p; };
  EXPECT_EQ(unwrap(std::make_unique<int>(9)), 9);
}

TEST(InlineFnTest, EmptyFromNullptrAndComparesWithIt) {
  InlineFn<void()> a;
  InlineFn<void(int)> b = nullptr;
  EXPECT_TRUE(a == nullptr);
  EXPECT_TRUE(b == nullptr);
  EXPECT_FALSE(static_cast<bool>(a));
  int hits = 0;
  b = [&](int v) { hits += v; };
  EXPECT_TRUE(b != nullptr);
  b(3);
  EXPECT_EQ(hits, 3);
  b = nullptr;
  EXPECT_TRUE(b == nullptr);
}

TEST(InlineFnTest, ConstCallRunsStatefulCallableManyTimes) {
  const InlineFn<int()> next = [n = 0]() mutable { return ++n; };
  int last = 0;
  for (int i = 0; i < 1000; ++i) {
    last = next();
  }
  EXPECT_EQ(last, 1000);
}

TEST(InlineFnTest, RelocatesThroughAGrowingVectorDestroyingEachCaptureOnce) {
  std::set<const void*> live;
  {
    std::vector<InlineFn<int()>> fns;  // no reserve: every growth relocates all elements
    for (int i = 0; i < 200; ++i) {
      switch (i % 4) {
        case 0:  // trivially copyable, inline: relocated by memcpy
          fns.emplace_back([i]() { return i; });
          break;
        case 1:  // non-trivial, inline: relocated by its move constructor
          fns.emplace_back([i, t = Tracked(&live)]() { return i; });
          break;
        case 2:  // pooled
          fns.emplace_back([i, t = Tracked(&live), pad = std::array<uint8_t, 100>{}]() {
            return i + pad[0];
          });
          break;
        default:  // oversized
          fns.emplace_back([i, t = Tracked(&live), pad = std::array<uint8_t, 400>{}]() {
            return i + pad[0];
          });
          break;
      }
    }
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(fns[static_cast<size_t>(i)](), i);
    }
    EXPECT_EQ(live.size(), 150u);
  }
  EXPECT_TRUE(live.empty());
}

TEST(ExecContextTest, SerializesWork) {
  EventLoop loop;
  ExecContext cpu(&loop, "cpu");
  std::vector<int64_t> finish_ns;
  cpu.run(Duration::micros(1), [&]() { finish_ns.push_back(loop.now().ns()); });
  cpu.run(Duration::micros(2), [&]() { finish_ns.push_back(loop.now().ns()); });
  cpu.run(Duration::micros(3), [&]() { finish_ns.push_back(loop.now().ns()); });
  loop.run();
  ASSERT_EQ(finish_ns.size(), 3u);
  EXPECT_EQ(finish_ns[0], 1000);
  EXPECT_EQ(finish_ns[1], 3000);  // starts only after the first finishes
  EXPECT_EQ(finish_ns[2], 6000);
  EXPECT_EQ(cpu.busy_time().ns(), 6000);
}

TEST(ExecContextTest, SpeedFactorScalesCost) {
  EventLoop loop;
  ExecContext slow(&loop, "arm", 0.5);
  int64_t finish = 0;
  slow.run(Duration::micros(1), [&]() { finish = loop.now().ns(); });
  loop.run();
  EXPECT_EQ(finish, 2000);
}

TEST(ExecContextTest, IdleGapDoesNotAccumulateBusyTime) {
  EventLoop loop;
  ExecContext cpu(&loop, "cpu");
  cpu.run(Duration::micros(1), []() {});
  loop.run();
  loop.schedule_after(Duration::micros(10), [&]() { cpu.run(Duration::micros(1), []() {}); });
  loop.run();
  EXPECT_EQ(cpu.busy_time().ns(), 2000);
  EXPECT_EQ(cpu.free_at().ns(), 12000);
}

TEST(DurationTest, ArithmeticAndConversions) {
  const Duration a = Duration::micros(1.5);
  EXPECT_EQ(a.ns(), 1500);
  EXPECT_DOUBLE_EQ(a.to_us(), 1.5);
  EXPECT_EQ((a + Duration::nanos(500)).ns(), 2000);
  EXPECT_EQ((a * 2.0).ns(), 3000);
  EXPECT_EQ((a / 2.0).ns(), 750);
  EXPECT_DOUBLE_EQ(Duration::micros(3) / Duration::micros(1.5), 2.0);
  EXPECT_LT(Duration::micros(1), Duration::micros(2));
  EXPECT_EQ(Duration::seconds(1).ns(), 1000000000);
  EXPECT_EQ(Duration::millis(2.5).ns(), 2500000);
}

TEST(StatsTest, SummaryMeanStddev) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.rel_stddev(), 2.138 / 5.0, 0.001);
}

TEST(StatsTest, SummaryEmptyAndSingle) {
  Summary s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.add(42.0);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(StatsTest, Log2Histogram) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(10), 1u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true;
  bool any_diff_seed = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next_u64();
    all_equal = all_equal && (va == b.next_u64());
    any_diff_seed = any_diff_seed || (va != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const uint64_t r = rng.next_range(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformishDistribution) {
  Rng rng(99);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++buckets[rng.next_below(10)];
  }
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 100);
  }
}

}  // namespace
}  // namespace fractos
