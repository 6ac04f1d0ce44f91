// Deterministic discrete-event loop, optionally sharded across worker threads.
//
// Every latency in the FractOS reproduction — network hops, PCIe crossings, controller compute,
// device service times — is realized by scheduling a callback at a future simulated Time. Events
// with equal timestamps fire in submission order (a monotonically increasing sequence number
// breaks ties), which makes whole-cluster runs bit-for-bit reproducible.
//
// The scheduler is two-level (see DESIGN.md §4e): a bucketed timer wheel covers the near
// future (kNumBuckets buckets of 2^kBucketBits ns each — most fabric/device latencies land
// here at O(1) insert), and a binary heap holds everything beyond the wheel horizon. A bucket
// is sorted by (when, seq) only when the cursor reaches it, and heap events are merged into
// their bucket at the same point, so the exact global (when, seq) firing order of a single
// priority queue is preserved — that ordering is the bit-identical-results invariant every
// recorded bench number depends on. Callbacks are InlineFn (src/sim/inline_fn.h): no heap
// allocation per event for small captures, freelist-recycled blocks for large ones.
//
// Sharded mode (DESIGN.md §4j). enable_sharding() partitions the loop into one scheduler
// shard per worker (rack r maps to shard r % num_shards) and switches sequence numbers to
// per-rack namespaces packed into the seq integer: seq = (src_rack << kRackSeqBits) |
// rack_counter. The (when, seq) comparator then realizes the canonical global order
// (when, src_rack, rack_seq), which does not depend on the shard count — a 1-, 2-, or
// 8-shard run fires the same events with the same timestamps in the same per-rack order.
// Cross-rack work whose delivery time is at least lookahead() in the future is posted with
// post_remote(); run_parallel() executes shards on threads under conservative (Graphite-style
// lax) synchronization: every shard may advance to min-next-event + lookahead, cross-shard
// posts travel through phase-exclusive mailboxes drained at the window barrier, and mailbox
// events are ordered by their (when, seq) stamp — never by wall-clock arrival.

#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/assert.h"
#include "src/sim/inline_fn.h"
#include "src/sim/span.h"
#include "src/sim/time.h"

namespace fractos {

class MetricsRegistry;

namespace internal_engine {
// Ambient rack of the code currently running: the destination rack of the firing event in
// sharded mode, or whatever the enclosing RackScope pinned on a non-event thread. Rack 0 by
// default, which keeps legacy (unsharded) mode oblivious to racks entirely.
inline thread_local uint32_t g_rack = 0;
// Index of the shard whose event is currently executing on this thread; -1 outside event
// execution (setup code, barrier completions, the driver thread between run calls).
inline thread_local int32_t g_shard = -1;
}  // namespace internal_engine

// Pins the ambient rack for code that schedules work from outside event execution (bench
// drivers issuing the initial closed-loop requests, test setup). Restores on destruction.
class RackScope {
 public:
  explicit RackScope(uint32_t rack) : saved_(internal_engine::g_rack) {
    internal_engine::g_rack = rack;
  }
  ~RackScope() { internal_engine::g_rack = saved_; }
  RackScope(const RackScope&) = delete;
  RackScope& operator=(const RackScope&) = delete;

 private:
  uint32_t saved_;
};

class EventLoop {
 public:
  using Callback = InlineFn<void()>;

  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Unsharded: the time of the last fired event. Sharded: the executing shard's local time
  // during event execution, else the maximum across shards (the time of the last event fired
  // anywhere — identical for every shard count because the canonical firing order is).
  Time now() const {
    if (!sharded_) {
      return shard0_->now;
    }
    const int32_t s = internal_engine::g_shard;
    return s >= 0 ? shards_[static_cast<size_t>(s)]->now : global_now();
  }

  // Schedules `cb` to run at absolute time `when` (clamped to now()) on the ambient rack.
  void schedule_at(Time when, Callback cb);

  // Schedules `cb` to run `delay` after now().
  void schedule_after(Duration delay, Callback cb);

  // Schedules `cb` to run at the current time, after already-pending same-time events.
  void post(Callback cb);

  // Runs events until the queue is empty or `max_steps` events have fired.
  // Returns the number of events processed.
  uint64_t run(uint64_t max_steps = UINT64_MAX);

  // Runs events until `pred()` holds (checked after every event) or the queue drains.
  // Returns true iff the predicate was satisfied. `pred` is invoked directly (no type-erased
  // indirection), so hot soak loops pay one inlineable call per event.
  // In sharded mode this runs cooperatively on the calling thread (exact canonical order),
  // which is what System::await and all setup-phase code use.
  template <typename Pred>
  bool run_until(Pred&& pred, uint64_t max_steps = UINT64_MAX) {
    if (pred()) {
      return true;
    }
    uint64_t processed = 0;
    while (processed < max_steps && prepare_next()) {
      fire_next();
      ++processed;
      if (pred()) {
        return true;
      }
    }
    return false;
  }

  // Runs all events scheduled at or before `deadline`, then sets now() to `deadline` if the
  // simulation has not already advanced past it.
  void run_until_time(Time deadline);

  bool empty() const { return pending() == 0; }
  size_t pending() const {
    if (!sharded_) {
      return shard0_->pending;
    }
    size_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->pending;
    }
    return n;
  }
  uint64_t steps() const {
    if (!sharded_) {
      return shard0_->steps;
    }
    uint64_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->steps;
    }
    return n;
  }

  // --- sharding (DESIGN.md §4j) ---
  //
  // Must be called on a pristine loop (nothing scheduled or fired yet), before any component
  // is built on top of it. Racks are assigned to shards round-robin: shard_of_rack(r) =
  // r % num_shards. `lookahead` is the conservative window — post_remote() deliveries must be
  // at least this far in the future; Topology::min_cross_rack_latency() is the provably safe
  // value for fat-tree fabrics.
  void enable_sharding(uint32_t num_shards, uint32_t num_racks, Duration lookahead);
  bool sharded() const { return sharded_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t num_racks() const { return num_racks_; }
  uint32_t shard_of_rack(uint32_t rack) const {
    return rack % static_cast<uint32_t>(shards_.size());
  }
  Duration lookahead() const { return lookahead_; }
  static uint32_t current_rack() { return internal_engine::g_rack; }

  // Schedules `cb` at `when` on `dst_rack`. Requires when >= now() + lookahead() — that slack
  // is what makes the parallel window safe. The event is stamped with the *source* rack's
  // sequence namespace, so cross-shard deliveries merge in (when, src_rack, rack_seq) order
  // regardless of thread interleaving.
  void post_remote(uint32_t dst_rack, Time when, Callback cb);

  // Runs to quiescence with one worker thread per shard under conservative synchronization.
  // Requires sharded mode; with a single shard this degenerates to run(). Returns the number
  // of events processed. Every run with the same initial state fires the identical canonical
  // event sequence (per-rack state, metrics, spans, counters are run-to-run byte-stable);
  // only wall-clock timing varies with thread scheduling.
  uint64_t run_parallel();

  // Largest cross-shard mailbox depth observed at any window barrier (diagnostics).
  uint64_t mailbox_high_water() const { return mailbox_hwm_; }

  // True while run_parallel() is inside its multi-threaded region. Only mutated outside
  // that region, so reads from worker threads are race-free. Guards setup-time-only
  // operations (e.g. lazy Controller peer meshing) that must not mutate cross-rack state
  // from inside a window.
  bool parallel_active() const { return parallel_active_; }

  // --- structured spans & metrics (see src/sim/span.h, src/sim/metrics.h) ---
  //
  // While any SpanTracer is alive, every scheduled Event captures the ambient SpanContext
  // and restores it when it fires, so trace context flows through timers and wire deliveries
  // for free. Neither hook ever schedules events or advances time: attaching a tracer or a
  // registry cannot shift a single simulated timestamp.
  //
  // Sharded mode uses per-rack arenas instead of the single pointers: attach one tracer /
  // registry per rack (set_rack_*) and the accessors resolve through the ambient rack, so
  // every component transparently records into its own rack's arena with no locks. Rack
  // placement of every record is shard-count-invariant, so merged snapshots are too.
  void set_span_tracer(SpanTracer* tracer) {
    FRACTOS_CHECK(!sharded_ || tracer == nullptr);
    span_tracer_ = tracer;
  }
  SpanTracer* span_tracer() const {
    if (!sharded_) {
      return span_tracer_;
    }
    return rack_tracers_[internal_engine::g_rack];
  }
  void set_metrics(MetricsRegistry* metrics) {
    FRACTOS_CHECK(!sharded_ || metrics == nullptr);
    metrics_ = metrics;
  }
  MetricsRegistry* metrics() const {
    if (!sharded_) {
      return metrics_;
    }
    return rack_metrics_[internal_engine::g_rack];
  }
  void set_rack_span_tracer(uint32_t rack, SpanTracer* tracer) {
    FRACTOS_CHECK(sharded_ && rack < num_racks_);
    rack_tracers_[rack] = tracer;
  }
  void set_rack_metrics(uint32_t rack, MetricsRegistry* metrics) {
    FRACTOS_CHECK(sharded_ && rack < num_racks_);
    rack_metrics_[rack] = metrics;
  }

 private:
  struct Event {
    Time when;
    uint64_t seq;
    uint32_t rack;  // destination rack: selects the shard and the ambient rack while firing
    Callback cb;
    SpanContext ctx;  // ambient span context at schedule time (empty when tracing is off)
  };

  // Wheel geometry: 2^kBucketBits ns per bucket, kNumBuckets buckets — a ~262 us horizon
  // with 128 ns buckets, which covers the fabric/device latency range of this simulation.
  // (Chosen empirically via bench_simspeed's timer soak: smaller buckets mean smaller
  // drain sorts; 2048 slots keep the horizon wide enough that device latencies stay O(1).)
  static constexpr int kBucketBits = 7;
  static constexpr int kWheelBits = 11;
  static constexpr uint64_t kNumBuckets = uint64_t{1} << kWheelBits;
  static constexpr uint64_t kWheelMask = kNumBuckets - 1;

  // Sharded seqs: low bits count events issued by a rack, high bits carry the source rack.
  // (when, seq) comparisons then order equal-time events by (src_rack, per-rack issue order),
  // a total order independent of both shard count and thread interleaving.
  static constexpr int kRackSeqBits = 40;

  // Backstop for runaway cross-shard fan-out. post_remote CHECK-fails instead of blocking —
  // a blocking bound could deadlock the window barrier.
  static constexpr size_t kMailboxCap = size_t{1} << 20;

  static uint64_t bucket_no(Time t) { return static_cast<uint64_t>(t.ns()) >> kBucketBits; }

  // One complete two-level scheduler: the unsharded loop is exactly shards_[0].
  struct Shard {
    // Near future: ring of append-only buckets. buckets[b & kWheelMask] holds events whose
    // bucket number is b, for b in [wheel_pos, wheel_pos + kNumBuckets). occupancy mirrors
    // which ring slots are non-empty so the cursor skips empty stretches word-at-a-time.
    std::vector<Event> buckets[kNumBuckets];
    uint64_t occupancy[kNumBuckets / 64] = {};
    uint64_t wheel_pos = 0;  // absolute bucket number the cursor is at
    size_t wheel_count = 0;  // events currently filed in buckets

    // Far future (beyond the wheel horizon): min-heap on (when, seq).
    std::vector<Event> heap;

    // The bucket being drained: sorted by (when, seq); drain_pos is the next unfired event.
    // Events scheduled into the current bucket mid-drain are inserted in order.
    std::vector<Event> drain;
    size_t drain_pos = 0;
    bool draining = false;

    size_t pending = 0;  // total unfired events across drain, buckets, and heap
    Time now;            // time of this shard's last fired event
    uint64_t steps = 0;

    // Files `ev` into the draining bucket, the wheel, or the far-future heap.
    void insert(Event&& ev);

    // Ensures drain[drain_pos] is this shard's next (when, seq) event; false iff no events
    // are pending. Advances the wheel cursor and merges due heap events, but never fires.
    bool prepare();

    const Event& peek() const { return drain[drain_pos]; }

    // Returns the absolute number of the first non-empty bucket at or after `pos` (ring
    // space). Only valid while wheel_count > 0.
    uint64_t next_occupied_bucket(uint64_t pos) const;
  };

  uint64_t make_seq(uint32_t src_rack) {
    if (!sharded_) {
      return next_seq_++;
    }
    FRACTOS_DCHECK(src_rack < num_racks_);
    return (uint64_t{src_rack} << kRackSeqBits) | rack_seq_[src_rack]++;
  }

  // Ensures the globally next (when, seq) event is staged (coop_shard_ points at its shard);
  // false iff no events are pending anywhere. Unsharded: exactly the legacy single-scheduler
  // path. Sharded: cooperative min-scan across shards — the canonical order for any count.
  bool prepare_next();

  // Fires the event staged by prepare_next().
  void fire_next();

  void fire_shard(Shard& sh, int32_t idx);
  Time global_now() const;
  void advance_window(uint32_t num_shards);

  std::vector<std::unique_ptr<Shard>> shards_;  // size 1 until enable_sharding
  Shard* shard0_ = nullptr;                     // cached shards_[0].get() for the hot path
  uint32_t coop_shard_ = 0;                     // shard staged by the last prepare_next()

  bool sharded_ = false;
  uint32_t num_racks_ = 1;
  Duration lookahead_;
  std::vector<uint64_t> rack_seq_;  // per-rack issue counters (sharded mode)
  std::vector<SpanTracer*> rack_tracers_;
  std::vector<MetricsRegistry*> rack_metrics_;

  // Parallel-run state. mail_[src_shard * S + dst_shard] is written only by src_shard's
  // worker during a window and drained only inside the barrier completion, so each slot is
  // single-producer/single-consumer with the barrier as the synchronization edge.
  bool parallel_active_ = false;
  bool par_done_ = false;
  Time par_horizon_;  // exclusive: a shard fires while peek().when < par_horizon_
  std::vector<std::vector<Event>> mail_;
  uint64_t mailbox_hwm_ = 0;

  SpanTracer* span_tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  uint64_t next_seq_ = 0;  // legacy (unsharded) global sequence counter
};

}  // namespace fractos

#endif  // SRC_SIM_EVENT_LOOP_H_
