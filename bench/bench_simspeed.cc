// Wall-clock engine speed: how many simulated events (and end-to-end requests) per real
// second the engine sustains. This is the one bench that measures the simulator itself, not
// the simulated system — the ROADMAP's "runs as fast as the hardware allows" applies to the
// reproduction too: chaos soaks and throughput sweeps scale with events/sec.
//
// Three soaks:
//   * timer    — pure scheduler churn: self-rescheduling actors with deterministic pseudo-
//                random delays spanning bucket-local, cross-bucket, and far-future horizons.
//   * facever  — the full face-verification pipeline (FS + GPU + controllers), 8 in flight.
//   * storage  — FractOS FS random reads through the block adaptor, payload-heavy.
//
// Every soak reports the final simulated clock and step count; those are engine-version
// invariants (same-seed runs must be bit-identical), so the JSON doubles as a determinism
// guard when comparing engines. Emits BENCH_simspeed.json (override: FRACTOS_BENCH_JSON).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/face_verify.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt;

struct SoakResult {
  std::string name;
  uint64_t events = 0;       // engine steps consumed by the soak
  uint64_t requests = 0;     // end-to-end requests completed (0 for the timer soak)
  double wall_ms = 0.0;
  int64_t sim_now_ns = 0;    // engine-version invariant: must not change with the engine
  uint64_t sim_steps = 0;    // ditto

  double events_per_sec() const { return wall_ms > 0 ? events / (wall_ms / 1e3) : 0.0; }
  double requests_per_sec() const { return wall_ms > 0 ? requests / (wall_ms / 1e3) : 0.0; }
};

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Pure scheduler churn. Actors re-schedule themselves with delays drawn from a deterministic
// Rng: mostly sub-microsecond (same / neighboring wheel buckets), some tens of microseconds
// (cross-bucket), and an occasional millisecond hop (far-future heap on a wheel-based
// engine). A slice of callbacks carries a fat capture so both the inline and the overflow
// callback paths are exercised.
SoakResult timer_soak(uint64_t total_events) {
  EventLoop loop;
  Rng rng(42);
  uint64_t fired = 0;
  uint64_t checksum = 0;

  struct Actor {
    EventLoop* loop;
    Rng* rng;
    uint64_t* fired;
    uint64_t* checksum;
    uint64_t budget;
    void fire() {
      ++*fired;
      *checksum += *fired;
      if (budget-- == 0) {
        return;
      }
      const uint64_t draw = rng->next_u64();
      Duration delay;
      switch (draw & 0xF) {
        case 0:
          delay = Duration::nanos(static_cast<int64_t>(draw >> 4 & 0xFFFFF));  // up to ~1 ms
          break;
        case 1:
        case 2:
          delay = Duration::nanos(static_cast<int64_t>(draw >> 4 & 0xFFFF));  // up to ~65 us
          break;
        default:
          delay = Duration::nanos(static_cast<int64_t>(draw >> 4 & 0x3FF));  // up to ~1 us
      }
      if ((draw & 0x70) == 0) {
        // Fat capture: pushes the callback past any small-buffer optimization.
        uint64_t pad[12] = {draw, *fired};
        loop->schedule_after(delay, [this, pad]() {
          *checksum += pad[0] & 1;
          fire();
        });
      } else {
        loop->schedule_after(delay, [this]() { fire(); });
      }
    }
  };

  constexpr int kActors = 64;
  std::vector<Actor> actors;
  actors.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(Actor{&loop, &rng, &fired, &checksum, total_events / kActors});
    loop.schedule_after(Duration::nanos(i), [a = &actors.back()]() { a->fire(); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  SoakResult r;
  r.name = "timer";
  r.wall_ms = wall_ms_since(t0);
  r.events = loop.steps();
  r.sim_now_ns = loop.now().ns();
  r.sim_steps = loop.steps();
  FRACTOS_CHECK(checksum != 0);
  return r;
}

// Full face-verification pipeline: frontend -> FS(DAX) -> block adaptor -> GPU -> respond.
SoakResult facever_soak(int total_requests) {
  System sys;
  auto cluster = FaceVerifyCluster::build(&sys);
  FaceVerifyParams params;
  params.image_bytes = 64 << 10;
  params.images_per_batch = 8;
  params.num_batches = 8;
  params.pool_slots = 8;
  params.per_image_compute = Duration::micros(120);
  FaceVerifyFractos app(&sys, &cluster, Loc::kHost, params);
  app.ingest_database();
  sys.await_ok(app.verify(0));  // warm-up

  int issued = 0;
  int done = 0;
  std::function<void()> next = [&]() {
    if (issued == total_requests) {
      return;
    }
    const uint32_t batch = static_cast<uint32_t>(issued++ % 8);
    app.verify(batch).on_ready([&](Result<bool>&& r) {
      FRACTOS_CHECK(r.ok() && r.value());
      ++done;
      next();
    });
  };

  const uint64_t steps0 = sys.loop().steps();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) {
    next();
  }
  sys.loop().run_until([&]() { return done == total_requests; });
  SoakResult r;
  r.name = "facever";
  r.wall_ms = wall_ms_since(t0);
  r.events = sys.loop().steps() - steps0;
  r.requests = static_cast<uint64_t>(total_requests);
  r.sim_now_ns = sys.loop().now().ns();
  r.sim_steps = sys.loop().steps();
  return r;
}

// Payload-heavy storage path: FractOS FS random reads (256 KiB) through the block adaptor.
SoakResult storage_soak(int total_ios) {
  constexpr uint64_t kIo = 256 << 10;
  constexpr int kInflight = 4;
  constexpr uint64_t kFileBytes = 64ull << 20;

  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t fn = sys.add_node("fs");
  const uint32_t sn = sys.add_node("storage");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& cf = sys.add_controller(fn, Loc::kHost);
  Controller& cs = sys.add_controller(sn, Loc::kHost);
  (void)cc;
  auto nvme = std::make_unique<SimNvme>(&sys.loop());
  BlockAdaptor block(&sys, sn, cs, nvme.get());
  auto fs = FsService::bootstrap(&sys, fn, cf, block.process(), block.mgmt_endpoint());
  Process& client = sys.spawn("client", cn, cc, kInflight * kIo + (2 << 20));
  const CapId create_ep =
      sys.bootstrap_grant(fs->process(), fs->create_endpoint(), client).value();
  const CapId open_ep = sys.bootstrap_grant(fs->process(), fs->open_endpoint(), client).value();
  FRACTOS_CHECK(sys.await(FsClient::create(client, create_ep, "bench", kFileBytes)).ok());
  auto file = sys.await_ok(FsClient::open(client, open_ep, "bench", false, false));
  std::vector<CapId> bufs;
  for (int i = 0; i < kInflight; ++i) {
    bufs.push_back(
        sys.await_ok(client.memory_create(client.alloc(kIo), kIo, Perms::kReadWrite)));
  }

  Rng rng(7);
  int issued = 0;
  int done = 0;
  std::function<void()> next = [&]() {
    if (issued == total_ios) {
      return;
    }
    const int idx = issued++;
    const uint64_t slots = kFileBytes / kIo;
    const uint64_t off = rng.next_below(slots) * kIo;
    FsClient::read(client, file, off, kIo, bufs[static_cast<size_t>(idx % kInflight)])
        .on_ready([&](Status s) {
          FRACTOS_CHECK(s.ok());
          ++done;
          next();
        });
  };

  const uint64_t steps0 = sys.loop().steps();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kInflight; ++i) {
    next();
  }
  sys.loop().run_until([&]() { return done == total_ios; });
  SoakResult r;
  r.name = "storage";
  r.wall_ms = wall_ms_since(t0);
  r.events = sys.loop().steps() - steps0;
  r.requests = static_cast<uint64_t>(total_ios);
  r.sim_now_ns = sys.loop().now().ns();
  r.sim_steps = sys.loop().steps();
  return r;
}

// --- sharded-engine A/B (DESIGN.md §4j) -------------------------------------------------------
//
// 1024-node fat tree (16 racks x 64 nodes, 4 spines) saturated with rack-crossing send
// chains, run at 1/2/4/8 shards through run_parallel(). `events` and `sim_now_ns` are
// shard-count invariants — the engine fires the identical canonical event sequence at every
// width — so CI gates them exactly; only wall_ms (and thus events_per_sec) may vary.

struct ShardPoint {
  uint32_t shards = 0;
  uint64_t events = 0;
  int64_t sim_now_ns = 0;
  double wall_ms = 0.0;
  double events_per_sec() const { return wall_ms > 0 ? events / (wall_ms / 1e3) : 0.0; }
};

ShardPoint shard_soak(uint32_t shards) {
  constexpr uint32_t kRacks = 16;
  constexpr uint32_t kPerRack = 64;
  constexpr uint32_t kNodes = kRacks * kPerRack;  // 1024
  constexpr int kChainsPerRack = 48;
  constexpr int kHops = 400;

  const TopologySpec spec = TopologySpec::fat_tree(kPerRack, /*num_spines=*/4);
  EventLoop loop;
  loop.enable_sharding(shards, kRacks, spec.min_cross_rack_latency());
  Network net(&loop, {}, spec);
  for (uint32_t i = 0; i < kNodes; ++i) {
    net.add_node("n" + std::to_string(i));
  }

  // Each chain hops node -> node: mostly cross-rack (the two-phase sharded fabric path, a
  // fresh spine per flow hash), every fourth hop rack-local (the shard-internal path). The
  // payload is one shared 4 KiB rep — each send costs a refcount bump, not a copy.
  struct Chains {
    Network* net;
    Payload payload{std::vector<uint8_t>(4096, 0xab)};
    void step(uint32_t node, int left) {
      if (left == 0) {
        return;
      }
      uint32_t dst;
      if ((left & 3) == 0) {
        dst = (node / kPerRack) * kPerRack + (node + 7) % kPerRack;
      } else {
        dst = (node + kPerRack * (1 + static_cast<uint32_t>(left) % 5)) % kNodes;
      }
      net->send(Endpoint{node, Loc::kHost}, Endpoint{dst, Loc::kHost}, Traffic::kData,
                payload, [this, dst, left](Payload) { step(dst, left - 1); });
    }
  };
  Chains chains{&net};
  for (uint32_t r = 0; r < kRacks; ++r) {
    RackScope scope(r);
    for (int c = 0; c < kChainsPerRack; ++c) {
      const uint32_t start = r * kPerRack + static_cast<uint32_t>(c);
      loop.schedule_at(Time::from_ns(c), [&chains, start]() { chains.step(start, kHops); });
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t fired = loop.run_parallel();
  ShardPoint p;
  p.shards = shards;
  p.events = fired;
  p.sim_now_ns = loop.now().ns();
  p.wall_ms = wall_ms_since(t0);
  FRACTOS_CHECK(net.counters().total_cross_rack_messages() > 0);
  return p;
}

void write_json(const std::vector<SoakResult>& soaks, const std::vector<ShardPoint>& sweep) {
  char buf[512];
  std::string out;
  uint64_t total_events = 0;
  double total_ms = 0;
  out += "{\n  \"bench\": \"simspeed\",\n  \"soaks\": [\n";
  for (size_t i = 0; i < soaks.size(); ++i) {
    const SoakResult& s = soaks[i];
    total_events += s.events;
    total_ms += s.wall_ms;
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"events\": %" PRIu64 ", \"requests\": %" PRIu64
                  ", \"wall_ms\": %.3f, \"events_per_sec\": %.0f, \"requests_per_sec\": %.0f"
                  ", \"sim_now_ns\": %" PRId64 ", \"sim_steps\": %" PRIu64 "}%s\n",
                  s.name.c_str(), s.events, s.requests, s.wall_ms, s.events_per_sec(),
                  s.requests_per_sec(), s.sim_now_ns, s.sim_steps,
                  i + 1 < soaks.size() ? "," : "");
    out += buf;
  }
  const double base = sweep.empty() || sweep.front().wall_ms <= 0
                          ? 0.0
                          : sweep.front().events_per_sec();
  std::snprintf(buf, sizeof(buf), "  ],\n  \"cores\": %u,\n  \"shard_sweep\": [\n",
                std::thread::hardware_concurrency());
  out += buf;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const ShardPoint& p = sweep[i];
    const double speedup = base > 0 ? p.events_per_sec() / base : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "    {\"shards\": %u, \"events\": %" PRIu64 ", \"sim_now_ns\": %" PRId64
                  ", \"wall_ms\": %.3f, \"events_per_sec\": %.0f, \"speedup\": %.2f}%s\n",
                  p.shards, p.events, p.sim_now_ns, p.wall_ms, p.events_per_sec(), speedup,
                  i + 1 < sweep.size() ? "," : "");
    out += buf;
  }
  const double aggregate = total_ms > 0 ? total_events / (total_ms / 1e3) : 0.0;
  std::snprintf(buf, sizeof(buf), "  ],\n  \"aggregate_events_per_sec\": %.0f\n}\n", aggregate);
  out += buf;
  bench::emit_bench_json("bench_simspeed", "BENCH_simspeed.json", out);
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  std::printf("Engine wall-clock speed: events/sec and requests/sec by soak\n");

  std::vector<SoakResult> soaks;
  soaks.push_back(timer_soak(2'000'000));
  soaks.push_back(facever_soak(256));
  soaks.push_back(storage_soak(192));

  Table t("simspeed — wall-clock engine throughput",
          {"soak", "events", "wall ms", "events/s", "requests/s", "sim steps", "sim ns"});
  for (const SoakResult& s : soaks) {
    t.row({s.name, std::to_string(s.events), fmt(s.wall_ms, 1), fmt(s.events_per_sec(), 0),
           fmt(s.requests_per_sec(), 0), std::to_string(s.sim_steps),
           std::to_string(s.sim_now_ns)});
  }
  t.print();

  std::vector<ShardPoint> sweep;
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    sweep.push_back(shard_soak(shards));
    // Shard-count invariance: every width must fire the identical canonical event sequence.
    FRACTOS_CHECK(sweep.back().events == sweep.front().events);
    FRACTOS_CHECK(sweep.back().sim_now_ns == sweep.front().sim_now_ns);
  }
  Table st("simspeed — sharded engine, 1024-node fat tree (16 racks)",
           {"shards", "events", "wall ms", "events/s", "speedup", "sim ns"});
  for (const ShardPoint& p : sweep) {
    st.row({std::to_string(p.shards), std::to_string(p.events), fmt(p.wall_ms, 1),
            fmt(p.events_per_sec(), 0),
            fmt(p.events_per_sec() / sweep.front().events_per_sec(), 2),
            std::to_string(p.sim_now_ns)});
  }
  st.print();

  write_json(soaks, sweep);
  return 0;
}
