// Ordering properties of the two-level scheduler (timer wheel + far-future heap).
//
// The engine's contract is exact priority-queue semantics: events fire in globally
// ascending (when, seq) order, where seq is submission order. Every recorded bench number
// and every same-seed golden depends on this, so these tests pin it down at the seams the
// wheel introduces — equal timestamps within one bucket, equal timestamps split between the
// heap and a wheel bucket, mid-drain insertion into the current bucket, and wrap-around far
// beyond the wheel horizon — plus a randomized differential run against a reference
// std::priority_queue implementation.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_loop.h"

namespace fractos {
namespace {

// The wheel horizon in ns (kept in sync with event_loop.h: 2^(7+11) ns ≈ 262 us). Only used
// to pick test times that definitely land beyond / within the wheel; the assertions
// themselves never depend on the geometry.
constexpr int64_t kHorizonNs = int64_t{1} << 18;

TEST(SchedulerOrder, EqualTimestampsFireInSubmissionOrderWithinBucket) {
  EventLoop loop;
  std::vector<int> fired;
  const Time when = Time::from_ns(1000);
  for (int i = 0; i < 100; ++i) {
    loop.schedule_at(when, [&fired, i]() { fired.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[i], i) << "equal-timestamp events reordered within a bucket";
  }
}

// Events at the same timestamp T, where the first half is scheduled while T is beyond the
// wheel horizon (so they start life in the heap) and the second half is scheduled once T is
// within the horizon (so they go straight into a wheel bucket). The heap half has smaller
// seqs, so it must fire first — the drain must merge heap and bucket by (when, seq), not
// concatenate them.
TEST(SchedulerOrder, EqualTimestampsMergeAcrossWheelHeapBoundary) {
  EventLoop loop;
  std::vector<int> fired;
  const Time target = Time::from_ns(4 * kHorizonNs);  // far beyond the horizon at t=0
  for (int i = 0; i < 50; ++i) {
    loop.schedule_at(target, [&fired, i]() { fired.push_back(i); });  // heap residents
  }
  // At target - horizon/2 the target bucket is within the wheel, so these go to the bucket.
  loop.schedule_at(Time::from_ns(4 * kHorizonNs - kHorizonNs / 2), [&loop, &fired, target]() {
    for (int i = 50; i < 100; ++i) {
      loop.schedule_at(target, [&fired, i]() { fired.push_back(i); });
    }
  });
  loop.run();
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[i], i) << "heap residents must fire before later wheel arrivals at the "
                              "same timestamp";
  }
}

// Scheduling *at the current time* from inside a firing event must append behind events
// already pending at that time (mid-drain insertion into the bucket being drained).
TEST(SchedulerOrder, MidDrainInsertionKeepsSeqOrder) {
  EventLoop loop;
  std::vector<int> fired;
  const Time when = Time::from_ns(500);
  loop.schedule_at(when, [&]() {
    fired.push_back(0);
    loop.post([&fired]() { fired.push_back(3); });  // same time, largest seq -> fires last
  });
  loop.schedule_at(when, [&fired]() { fired.push_back(1); });
  loop.schedule_at(when, [&fired]() { fired.push_back(2); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

// Reference implementation: the plain single priority queue the wheel replaced. Exact
// (when, seq) semantics by construction.
class ReferenceLoop {
 public:
  using Fn = std::function<void()>;

  int64_t now_ns() const { return now_; }

  void schedule_at_ns(int64_t when, Fn fn) {
    if (when < now_) {
      when = now_;
    }
    queue_.push(Item{when, seq_++, std::move(fn)});
  }

  void run() {
    while (!queue_.empty()) {
      // std::priority_queue::top is const; the callback is moved out via const_cast, which
      // is fine because the element is popped immediately after.
      Item& item = const_cast<Item&>(queue_.top());
      now_ = item.when;
      Fn fn = std::move(item.fn);
      queue_.pop();
      fn();
    }
  }

 private:
  struct Item {
    int64_t when;
    uint64_t seq;
    Fn fn;
    bool operator>(const Item& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue_;
  int64_t now_ = 0;
  uint64_t seq_ = 0;
};

// Adapter so the random program below can drive EventLoop and ReferenceLoop identically.
class RealLoop {
 public:
  int64_t now_ns() const { return loop_.now().ns(); }
  void schedule_at_ns(int64_t when, std::function<void()> fn) {
    loop_.schedule_at(Time::from_ns(when), std::move(fn));
  }
  void run() { loop_.run(); }

 private:
  EventLoop loop_;
};

// Runs a deterministic, self-expanding random program: each fired event logs
// (id, fire time) and schedules 0-3 children with delays drawn from a mix of zero, sub-
// bucket, sub-horizon, and far-beyond-horizon ranges (plus occasional in-the-past times,
// which must clamp to now). The rng is shared mutable state — if the two loops ever fire in
// different orders, the draws diverge and the logs differ loudly.
template <typename Loop>
std::vector<std::pair<int, int64_t>> run_random_program(Loop& loop, uint32_t seed) {
  std::vector<std::pair<int, int64_t>> log;
  auto rng = std::make_shared<std::mt19937_64>(seed);
  auto next_id = std::make_shared<int>(0);
  constexpr int kMaxEvents = 20000;

  struct Spawner {
    Loop* loop;
    std::shared_ptr<std::mt19937_64> rng;
    std::shared_ptr<int> next_id;
    std::vector<std::pair<int, int64_t>>* log;

    void fire(int id) {
      log->emplace_back(id, loop->now_ns());
      if (*next_id >= kMaxEvents) {
        return;
      }
      const int children = static_cast<int>((*rng)() % 4);
      for (int c = 0; c < children && *next_id < kMaxEvents; ++c) {
        const int child = (*next_id)++;
        int64_t delay = 0;
        switch ((*rng)() % 5) {
          case 0:
            delay = 0;  // same-time: pure seq ordering
            break;
          case 1:
            delay = static_cast<int64_t>((*rng)() % 128);  // within one bucket
            break;
          case 2:
            delay = static_cast<int64_t>((*rng)() % kHorizonNs);  // within the wheel
            break;
          case 3:
            delay = static_cast<int64_t>((*rng)() % (20 * kHorizonNs));  // heap territory
            break;
          case 4:
            delay = -static_cast<int64_t>((*rng)() % 1000);  // in the past: clamps to now
            break;
        }
        Spawner self = *this;
        loop->schedule_at_ns(loop->now_ns() + delay,
                             [self, child]() mutable { self.fire(child); });
      }
    }
  };

  Spawner root{&loop, rng, next_id, &log};
  for (int i = 0; i < 64; ++i) {
    const int id = (*next_id)++;
    Spawner self = root;
    loop.schedule_at_ns(static_cast<int64_t>((*rng)() % (4 * kHorizonNs)),
                        [self, id]() mutable { self.fire(id); });
  }
  loop.run();
  return log;
}

TEST(SchedulerDifferential, MatchesPriorityQueueSemanticsOnRandomPrograms) {
  for (uint32_t seed : {1u, 7u, 42u, 1234u}) {
    RealLoop real;
    ReferenceLoop ref;
    const auto real_log = run_random_program(real, seed);
    const auto ref_log = run_random_program(ref, seed);
    ASSERT_EQ(real_log.size(), ref_log.size()) << "seed " << seed;
    for (size_t i = 0; i < real_log.size(); ++i) {
      ASSERT_EQ(real_log[i], ref_log[i])
          << "divergence at event " << i << " of seed " << seed << ": wheel fired id "
          << real_log[i].first << " at " << real_log[i].second << ", reference fired id "
          << ref_log[i].first << " at " << ref_log[i].second;
    }
  }
}

// Equal timestamps exactly on the wheel horizon boundary, scheduled both before and after
// the wheel has wrapped several times — exercises bucket reuse after wrap.
TEST(SchedulerOrder, WrapAroundPreservesOrder) {
  EventLoop loop;
  std::vector<int> fired;
  // March time forward through > 3 full wheel revolutions with sparse ticks, then land a
  // cluster of same-time events.
  const int64_t step = kHorizonNs / 3;
  for (int i = 0; i < 12; ++i) {
    loop.schedule_at(Time::from_ns(i * step), [&fired, i]() { fired.push_back(i); });
  }
  const Time cluster = Time::from_ns(12 * step);
  for (int i = 100; i < 110; ++i) {
    loop.schedule_at(cluster, [&fired, i]() { fired.push_back(i); });
  }
  loop.run();
  std::vector<int> expect;
  for (int i = 0; i < 12; ++i) expect.push_back(i);
  for (int i = 100; i < 110; ++i) expect.push_back(i);
  EXPECT_EQ(fired, expect);
}

}  // namespace
}  // namespace fractos
