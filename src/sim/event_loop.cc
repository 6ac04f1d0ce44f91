#include "src/sim/event_loop.h"

#include <algorithm>
#include <barrier>
#include <bit>
#include <cstddef>
#include <thread>
#include <utility>

#include "src/base/assert.h"

namespace fractos {

EventLoop::EventLoop() {
  shards_.push_back(std::make_unique<Shard>());
  shard0_ = shards_[0].get();
}

void EventLoop::schedule_at(Time when, Callback cb) {
  FRACTOS_DCHECK(static_cast<bool>(cb));
  if (!sharded_) {
    Shard& sh = *shard0_;
    if (when < sh.now) {
      when = sh.now;
    }
    Event ev{when, next_seq_++, 0, std::move(cb), SpanContext{}};
    if (span_tracing_active()) {
      ev.ctx = ambient_span_context();
    }
    sh.insert(std::move(ev));
    return;
  }
  const uint32_t rack = internal_engine::g_rack;
  FRACTOS_DCHECK(rack < num_racks_);
  Shard& sh = *shards_[shard_of_rack(rack)];
  // During event execution the ambient rack always lives on the executing shard, so this
  // insert is thread-local; outside event execution (setup, RackScope'd drivers) no worker
  // threads are running.
  FRACTOS_DCHECK(internal_engine::g_shard < 0 ||
                 shards_[static_cast<size_t>(internal_engine::g_shard)].get() == &sh);
  const Time now = this->now();
  if (when < now) {
    when = now;
  }
  Event ev{when, make_seq(rack), rack, std::move(cb), SpanContext{}};
  if (span_tracing_active()) {
    ev.ctx = ambient_span_context();
  }
  sh.insert(std::move(ev));
}

void EventLoop::schedule_after(Duration delay, Callback cb) {
  FRACTOS_DCHECK(delay >= Duration::zero());
  schedule_at(now() + delay, std::move(cb));
}

void EventLoop::post(Callback cb) { schedule_at(now(), std::move(cb)); }

void EventLoop::Shard::insert(Event&& ev) {
  ++pending;
  const uint64_t b = bucket_no(ev.when);
  if (draining && b <= wheel_pos) {
    // The event lands in the bucket currently being drained (or an already-scanned empty
    // one): splice it into the unfired remainder at its exact (when, seq) position. New
    // events are always ordered after the event currently firing (their when is clamped to
    // shard now, and a fresh seq in any rack namespace beats only *later* stamps), so the
    // splice point is never before drain_pos. Unsharded, the fresh seq is the global maximum
    // and lands after every remaining equal-when event — identical to what a single global
    // priority queue would do. Sharded, mailbox deliveries and other-rack stamps may order
    // *between* remaining events, which the (when, seq) upper_bound handles.
    if (drain_pos > 64 && drain_pos * 2 > drain.size()) {
      // A long-draining bucket (e.g. the cursor parked on a far-future event while near-time
      // work churns through here) would otherwise accumulate fired slots without bound.
      drain.erase(drain.begin(), drain.begin() + static_cast<ptrdiff_t>(drain_pos));
      drain_pos = 0;
    }
    const auto it = std::upper_bound(
        drain.begin() + static_cast<ptrdiff_t>(drain_pos), drain.end(), ev,
        [](const Event& a, const Event& e) {
          return a.when != e.when ? a.when < e.when : a.seq < e.seq;
        });
    drain.insert(it, std::move(ev));
    return;
  }
  if (b < wheel_pos + kNumBuckets) {
    std::vector<Event>& bucket = buckets[b & kWheelMask];
    if (bucket.empty()) {
      occupancy[(b & kWheelMask) >> 6] |= uint64_t{1} << (b & 63);
    }
    bucket.push_back(std::move(ev));
    ++wheel_count;
  } else {
    heap.push_back(std::move(ev));
    std::push_heap(heap.begin(), heap.end(), [](const Event& a, const Event& b2) {
      return a.when != b2.when ? a.when > b2.when : a.seq > b2.seq;
    });
  }
}

uint64_t EventLoop::Shard::next_occupied_bucket(uint64_t pos) const {
  const uint64_t start = pos & kWheelMask;
  uint64_t word_i = start >> 6;
  uint64_t w = occupancy[word_i] & (~uint64_t{0} << (start & 63));
  for (uint64_t n = 0; n <= kNumBuckets / 64; ++n) {
    if (w != 0) {
      const uint64_t idx = (word_i << 6) + static_cast<uint64_t>(std::countr_zero(w));
      return pos + ((idx - start) & kWheelMask);
    }
    word_i = (word_i + 1) & (kNumBuckets / 64 - 1);
    w = occupancy[word_i];
  }
  FRACTOS_CHECK(false);  // unreachable: wheel_count > 0 guarantees an occupied bucket
  return pos;
}

bool EventLoop::Shard::prepare() {
  if (drain_pos < drain.size()) {
    return true;
  }
  if (draining) {
    drain.clear();
    drain_pos = 0;
    draining = false;
  }
  if (pending == 0) {
    return false;
  }

  // The next bucket to drain: the nearest non-empty wheel bucket, unless the heap's minimum
  // is due sooner (possible after the cursor advanced past a heap event's bucket, or when
  // the wheel is empty and the cursor must jump — the re-base case).
  uint64_t b = UINT64_MAX;
  if (wheel_count > 0) {
    b = next_occupied_bucket(wheel_pos);
  }
  if (!heap.empty()) {
    const uint64_t heap_b = bucket_no(heap.front().when);
    if (heap_b < b) {
      b = heap_b;
    }
  }
  wheel_pos = b;

  // Load the bucket (swap keeps the retired drain vector's capacity warm inside the ring),
  // merge in every heap event due in it, and establish the exact firing order once.
  std::vector<Event>& bucket = buckets[b & kWheelMask];
  occupancy[(b & kWheelMask) >> 6] &= ~(uint64_t{1} << (b & 63));
  drain.swap(bucket);
  wheel_count -= drain.size();
  const auto later = [](const Event& a, const Event& b2) {
    return a.when != b2.when ? a.when > b2.when : a.seq > b2.seq;
  };
  while (!heap.empty() && bucket_no(heap.front().when) <= b) {
    std::pop_heap(heap.begin(), heap.end(), later);
    drain.push_back(std::move(heap.back()));
    heap.pop_back();
  }
  std::sort(drain.begin(), drain.end(), [](const Event& a, const Event& b2) {
    return a.when != b2.when ? a.when < b2.when : a.seq < b2.seq;
  });
  drain_pos = 0;
  draining = true;
  return true;
}

bool EventLoop::prepare_next() {
  if (!sharded_) {
    coop_shard_ = 0;
    return shard0_->prepare();
  }
  FRACTOS_CHECK(!parallel_active_);  // cooperative stepping is main-thread-only
  // Cooperative min-scan: stage the global (when, seq) minimum across shards. Because seqs
  // carry (src_rack, rack_seq), this is the canonical order — the same for any shard count.
  int best = -1;
  Time best_when;
  uint64_t best_seq = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    if (!sh.prepare()) {
      continue;
    }
    const Event& e = sh.peek();
    if (best < 0 || e.when < best_when || (e.when == best_when && e.seq < best_seq)) {
      best = static_cast<int>(i);
      best_when = e.when;
      best_seq = e.seq;
    }
  }
  if (best < 0) {
    return false;
  }
  coop_shard_ = static_cast<uint32_t>(best);
  return true;
}

void EventLoop::fire_shard(Shard& sh, int32_t idx) {
  // The event must be moved out before running: the callback may schedule into the current
  // bucket and reallocate drain's storage.
  Event ev = std::move(sh.drain[sh.drain_pos]);
  ++sh.drain_pos;
  --sh.pending;
  FRACTOS_DCHECK(ev.when >= sh.now);
  sh.now = ev.when;
  ++sh.steps;
  if (sharded_) {
    internal_engine::g_shard = idx;
    internal_engine::g_rack = ev.rack;
  }
  if (span_tracing_active()) {
    SpanScope scope(ev.ctx);
    ev.cb();
  } else {
    ev.cb();
  }
  if (sharded_) {
    internal_engine::g_shard = -1;
  }
}

void EventLoop::fire_next() {
  fire_shard(*shards_[coop_shard_], static_cast<int32_t>(coop_shard_));
}

uint64_t EventLoop::run(uint64_t max_steps) {
  uint64_t processed = 0;
  while (processed < max_steps && prepare_next()) {
    fire_next();
    ++processed;
  }
  return processed;
}

void EventLoop::run_until_time(Time deadline) {
  while (prepare_next() && shards_[coop_shard_]->peek().when <= deadline) {
    fire_next();
  }
  for (auto& sh : shards_) {
    if (sh->now < deadline) {
      sh->now = deadline;
    }
  }
}

Time EventLoop::global_now() const {
  Time t = shards_[0]->now;
  for (size_t i = 1; i < shards_.size(); ++i) {
    if (shards_[i]->now > t) {
      t = shards_[i]->now;
    }
  }
  return t;
}

void EventLoop::enable_sharding(uint32_t num_shards, uint32_t num_racks, Duration lookahead) {
  FRACTOS_CHECK(!sharded_);
  FRACTOS_CHECK(num_shards >= 1);
  FRACTOS_CHECK(num_racks >= num_shards);
  FRACTOS_CHECK(num_racks < (uint32_t{1} << (64 - kRackSeqBits)));
  FRACTOS_CHECK(lookahead > Duration::zero());
  // Only a pristine loop may be sharded: already-issued legacy seqs would not interleave
  // deterministically with rack-namespaced ones.
  FRACTOS_CHECK(shard0_->pending == 0 && shard0_->steps == 0 && next_seq_ == 0);
  FRACTOS_CHECK(span_tracer_ == nullptr);  // use set_rack_span_tracer instead
  FRACTOS_CHECK(metrics_ == nullptr);      // use set_rack_metrics instead
  sharded_ = true;
  num_racks_ = num_racks;
  lookahead_ = lookahead;
  rack_seq_.assign(num_racks, 0);
  rack_tracers_.assign(num_racks, nullptr);
  rack_metrics_.assign(num_racks, nullptr);
  for (uint32_t i = 1; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void EventLoop::post_remote(uint32_t dst_rack, Time when, Callback cb) {
  FRACTOS_CHECK(sharded_);
  FRACTOS_DCHECK(dst_rack < num_racks_);
  // The conservative-synchronization contract: a delivery closer than lookahead could land
  // inside a window another shard has already executed past.
  FRACTOS_CHECK(when >= now() + lookahead_);
  const uint32_t src_rack = internal_engine::g_rack;
  Event ev{when, make_seq(src_rack), dst_rack, std::move(cb), SpanContext{}};
  if (span_tracing_active()) {
    ev.ctx = ambient_span_context();
  }
  const uint32_t dst_shard = shard_of_rack(dst_rack);
  const int32_t src_shard = internal_engine::g_shard;
  if (parallel_active_ && src_shard >= 0 &&
      static_cast<uint32_t>(src_shard) != dst_shard) {
    std::vector<Event>& q =
        mail_[static_cast<size_t>(src_shard) * shards_.size() + dst_shard];
    FRACTOS_CHECK_MSG(q.size() < kMailboxCap, "cross-shard mailbox overflow");
    q.push_back(std::move(ev));
  } else {
    shards_[dst_shard]->insert(std::move(ev));
  }
}

void EventLoop::advance_window(uint32_t num_shards) {
  // Runs inside the barrier completion: exactly one thread, all workers parked. Drain every
  // mailbox into its destination shard — insertion order across source shards is irrelevant
  // because buckets sort and the heap pops by the globally unique (when, seq) stamp.
  for (uint32_t src = 0; src < num_shards; ++src) {
    for (uint32_t dst = 0; dst < num_shards; ++dst) {
      std::vector<Event>& q = mail_[static_cast<size_t>(src) * num_shards + dst];
      if (q.size() > mailbox_hwm_) {
        mailbox_hwm_ = q.size();
      }
      for (Event& ev : q) {
        shards_[dst]->insert(std::move(ev));
      }
      q.clear();
    }
  }
  bool any = false;
  Time t_min;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    if (!sh.prepare()) {
      continue;
    }
    const Time t = sh.peek().when;
    if (!any || t < t_min) {
      any = true;
      t_min = t;
    }
  }
  if (!any) {
    par_done_ = true;  // every shard drained and every mailbox empty: quiescent
    return;
  }
  // The shard holding t_min always has work strictly below the horizon (lookahead > 0), so
  // every window fires at least one event — the loop cannot stall.
  par_horizon_ = t_min + lookahead_;
}

uint64_t EventLoop::run_parallel() {
  FRACTOS_CHECK(sharded_);
  FRACTOS_CHECK(!parallel_active_);
  const uint64_t start_steps = steps();
  const uint32_t S = static_cast<uint32_t>(shards_.size());
  if (S == 1) {
    run();
    return steps() - start_steps;
  }
  mail_.clear();
  mail_.resize(static_cast<size_t>(S) * S);
  par_done_ = false;
  parallel_active_ = true;

  auto on_window = [this, S]() noexcept { advance_window(S); };
  std::barrier<decltype(on_window)> window(static_cast<ptrdiff_t>(S), on_window);
  auto worker = [this, &window](uint32_t s) {
    Shard& sh = *shards_[s];
    for (;;) {
      // The completion (mailbox drain + horizon computation) runs between every arrival and
      // release, so reads of par_done_/par_horizon_ below are ordered after it.
      window.arrive_and_wait();
      if (par_done_) {
        return;
      }
      while (sh.prepare() && sh.peek().when < par_horizon_) {
        fire_shard(sh, static_cast<int32_t>(s));
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(S - 1);
  for (uint32_t s = 1; s < S; ++s) {
    threads.emplace_back(worker, s);
  }
  worker(0);
  for (auto& t : threads) {
    t.join();
  }
  parallel_active_ = false;
  return steps() - start_steps;
}

}  // namespace fractos
