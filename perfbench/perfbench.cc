// The FractOS performance benchmark: one closed-loop workload per invocation.
//
//   perfbench --workload <facever|storage_rw|fattree1024> --seed N --seconds S --trace 0|1
//             [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. It repeats the whole run (build
// the deployment, then a measured pass whose length is a fixed function of --seconds) a few
// times, each in its own process, and reports host metrics as medians over the repetitions;
// the request rate is the median over equal slices of every measured pass. Sharded workloads
// run the sharded engine on one thread here, so the rate does not hinge on how many cores the
// host grants at that moment; --trace 1 reports the multi-thread speedup.
// Simulated results depend only on (workload, seed, seconds) and must repeat exactly.
//
// --trace 1 gives the per-layer metrics. It runs the workload untraced, for sharded workloads
// again on one shard, then on a fresh deployment with SpanTracers (per rack when sharded) and
// MetricsRegistries attached; every simulated result must be bit-identical across the three.
// It folds every traced request into tax buckets (which must sum to its traced latency) and
// runs the layer probes shaped from what the runs saw. With --out it writes the benchmark's
// own host-time spans and a Chrome trace of the p50 and p99 exemplar requests.
//
// Two products are kept apart: "sim" values are simulated (deterministic; a simulator-only
// change must leave them bit-identical), "host" values are wall clock.
//
// The last line of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "perfbench/host_spans.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/span.h"
#include "src/sim/tax_report.h"

namespace perfbench {

using namespace fractos;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

// --- closed loop ---------------------------------------------------------------------------

// Sums of every Controller's counters (deltas over a pass are taken field by field).
struct CtrlTotals {
  uint64_t syscalls = 0, deliveries = 0, invokes_forwarded = 0, copy_bytes = 0;
  uint64_t peer_retries = 0, peer_op_timeouts = 0;
  uint64_t caps = 0;          // capabilities installed across all capability spaces
  uint64_t objects_live = 0;  // live objects across all object tables
  uint64_t max_table_live = 0;

  static CtrlTotals of(System& sys) {
    CtrlTotals t;
    const std::vector<Controller*> ctrls = sys.controllers();
    for (Controller* c : ctrls) {
      const ControllerStats& s = c->stats();
      t.syscalls += s.syscalls;
      t.deliveries += s.deliveries;
      t.invokes_forwarded += s.invokes_forwarded;
      t.copy_bytes += s.copy_bytes;
      t.peer_retries += s.peer_retries;
      t.peer_op_timeouts += s.peer_op_timeouts;
      const uint64_t live = c->table().live_count();
      t.objects_live += live;
      t.max_table_live = std::max(t.max_table_live, live);
    }
    for (const auto& p : sys.processes()) {
      for (Controller* c : ctrls) {
        t.caps += c->cap_space_size(p->pid());
      }
    }
    return t;
  }
};

// Everything one measured pass produced, in two parts so that a forked child can hand it
// back through a pipe. Fields marked sim are deterministic.
struct PassStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  int64_t sim_ns = 0;        // sim, first issue to last completion
  uint64_t events = 0;       // sim
  double host_s = 0;         // measured phase
  // Host seconds of each of kWindows equal slices (by completions) of the measured phase.
  static constexpr uint32_t kWindows = 10;
  double window_s[kWindows] = {};
  double peak_rss_mb = 0;    // of the process that ran the pass
  TrafficCounters traffic;   // sim, delta over the pass
  CtrlTotals before, after;  // sim
  uint64_t max_port_queue_bytes = 0;
  uint64_t mailbox_hwm = 0;
  // Host seconds of the deployment's set-up: total, and the core / services calls in it.
  double setup_s = 0;
  double core_setup_s = 0;
  double services_setup_s = 0;
  double teardown_s = 0;
};
static_assert(std::is_trivially_copyable_v<PassStats>);

struct Pass {
  PassStats s;
  std::vector<int64_t> lat_ns;  // sim, completion order
  std::vector<OpClass> op;      // completion order
  std::vector<uint64_t> roots;  // trace root per request (0 untraced); not sent by children

  // True iff every simulated result of the two passes is identical.
  bool same_sim_results(const Pass& o) const {
    const auto same = [](const auto& a, const auto& b) {
      static_assert(std::has_unique_object_representations_v<std::decay_t<decltype(a)>>);
      return std::memcmp(&a, &b, sizeof(a)) == 0;
    };
    return lat_ns == o.lat_ns && op == o.op && s.sim_ns == o.s.sim_ns &&
           s.events == o.s.events && s.max_port_queue_bytes == o.s.max_port_queue_bytes &&
           same(s.traffic, o.s.traffic) && same(s.before, o.s.before) &&
           same(s.after, o.s.after);
  }
};

TrafficCounters traffic_delta(const TrafficCounters& a, const TrafficCounters& b) {
  TrafficCounters d;
  for (size_t i = 0; i < 2; ++i) {
    d.messages[i] = b.messages[i] - a.messages[i];
    d.bytes[i] = b.bytes[i] - a.bytes[i];
    d.cross_messages[i] = b.cross_messages[i] - a.cross_messages[i];
    d.cross_bytes[i] = b.cross_bytes[i] - a.cross_bytes[i];
    d.rack_local_messages[i] = b.rack_local_messages[i] - a.rack_local_messages[i];
    d.rack_local_bytes[i] = b.rack_local_bytes[i] - a.rack_local_bytes[i];
  }
  return d;
}

// Runs `total` requests (split evenly over the clients) closed loop. When a SpanTracer is
// attached, every request gets a trace root.
Pass run_closed_loop(Deployment& d, const WorkloadSpec& spec, uint64_t seed, uint64_t total,
                     HostSpans& spans, const std::string& label) {
  System& sys = d.sys();
  const uint32_t clients = d.clients();
  const uint64_t quota = total / clients;
  std::vector<uint64_t> issued(clients, 0);
  std::vector<Rng> think;
  for (uint32_t c = 0; c < clients; ++c) {
    think.emplace_back(~seed ^ (0xbf58476d1ce4e5b9ULL * (c + 1)));
  }
  Pass p;
  p.s.attempted = quota * clients;
  p.lat_ns.reserve(p.s.attempted);
  p.op.reserve(p.s.attempted);
  p.roots.reserve(p.s.attempted);
  Time last_done;
  // Host time at the end of each window of the measured phase.
  const uint64_t window = std::max<uint64_t>(1, p.s.attempted / PassStats::kWindows);
  double window_end[PassStats::kWindows] = {};
  static const NameId kActor = intern_name("perfbench");
  static const NameId kRequest = intern_name("request");

  std::function<void(uint32_t)> next = [&](uint32_t c) {
    if (issued[c] == quota) {
      return;
    }
    ++issued[c];
    const Time t0 = sys.loop().now();
    SpanTracer* tracer = sys.loop().span_tracer();
    const uint64_t root = tracer != nullptr ? tracer->start_trace(kActor, kRequest, t0) : 0;
    std::optional<SpanScope> scope;
    if (root != 0) {
      scope.emplace(tracer->context_of(root));
    }
    d.issue(c, [&, c, t0, tracer, root](Completion r) {
      const Time now = sys.loop().now();
      if (root != 0) {
        tracer->end(root, now);
      }
      last_done = now;
      p.lat_ns.push_back((now - t0).ns());
      if (p.lat_ns.size() % window == 0 && p.lat_ns.size() / window <= PassStats::kWindows) {
        window_end[p.lat_ns.size() / window - 1] = spans.now();
      }
      p.op.push_back(r.op);
      p.roots.push_back(root);
      p.s.failed += r.outcome == Outcome::kError ? 1 : 0;
      p.s.wrong += r.outcome == Outcome::kWrong ? 1 : 0;
      if (spec.think_mean_ns == 0) {
        next(c);
        return;
      }
      const double u = think[c].next_double();
      const auto wait = static_cast<int64_t>(-std::log1p(-u) * spec.think_mean_ns);
      sys.loop().schedule_after(Duration::nanos(wait), [&next, c]() { next(c); });
    });
  };

  p.s.before = CtrlTotals::of(sys);
  const TrafficCounters traffic0 = sys.net().counters();
  const uint64_t steps0 = sys.loop().steps();
  const Time start = sys.loop().now();
  {
    HostSpans::Scope t(spans, "sim", label);
    const double h0 = spans.now();
    {
      RackScope rack(0);  // every deployment's clients live in rack 0
      for (uint32_t c = 0; c < clients; ++c) {
        for (uint32_t i = 0; i < d.inflight(); ++i) {
          next(c);
        }
      }
    }
    if (sys.loop().sharded()) {
      sys.loop().run_parallel();
    } else {
      sys.loop().run_until([&]() { return p.lat_ns.size() == p.s.attempted; });
    }
    p.s.host_s = spans.now() - h0;
    double prev = h0;
    for (uint32_t w = 0; w < PassStats::kWindows; ++w) {
      p.s.window_s[w] = window_end[w] - prev;
      prev = window_end[w];
    }
  }
  FRACTOS_CHECK_MSG(p.lat_ns.size() == p.s.attempted, "closed loop drained before completing");
  p.s.sim_ns = (last_done - start).ns();
  p.s.events = sys.loop().steps() - steps0;
  p.s.traffic = traffic_delta(traffic0, sys.net().counters());
  p.s.after = CtrlTotals::of(sys);
  p.s.max_port_queue_bytes = sys.net().topology().max_port_queue_bytes();
  p.s.mailbox_hwm = sys.loop().mailbox_high_water();
  return p;
}

// Builds a deployment (timed) and runs one untraced pass on it. With `teardown` the deployment
// is destroyed (timed); without, it is left to the exit of the forked child this runs in,
// which discards the whole process image at once.
Pass deploy_and_run(const WorkloadSpec& spec, uint64_t seed, uint32_t shards, uint64_t requests,
                    bool teardown, HostSpans& spans) {
  const double core0 = spans.total("core");
  const double services0 = spans.total("services");
  const double t0 = spans.now();
  std::unique_ptr<Deployment> d = build_deployment(spec, seed, shards, spans);
  const double setup_s = spans.now() - t0;
  Pass p = run_closed_loop(*d, spec, seed, requests, spans, "measured");
  p.s.setup_s = setup_s;
  p.s.core_setup_s = spans.total("core") - core0;
  p.s.services_setup_s = spans.total("services") - services0;
  if (teardown) {
    const double t1 = spans.now();
    HostSpans::Scope t(spans, "teardown", "deployment");
    d.reset();
    p.s.teardown_s = spans.now() - t1;
  } else {
    (void)d.release();
  }
  return p;
}

bool write_all(int fd, const void* data, size_t len) {
  const char* c = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = write(fd, c, len);
    if (n <= 0) {
      return false;
    }
    c += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, size_t len) {
  char* c = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = read(fd, c, len);
    if (n <= 0) {
      return false;
    }
    c += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// Runs `fn` in a forked child and returns its Pass (without trace roots). Every deployment
// gets a fresh address space this way: building a second 1024-node deployment in a process
// that had freed the first took resident memory past 16 GB (one alone peaks near 6-7 GB), as
// recycled allocator memory is touched again. Must be called before any thread starts.
Pass in_child(const std::function<Pass()>& fn) {
  int fds[2];
  FRACTOS_CHECK(pipe(fds) == 0);
  std::fflush(stdout);
  const pid_t pid = fork();
  FRACTOS_CHECK(pid >= 0);
  if (pid == 0) {
    close(fds[0]);
    const Pass p = fn();
    const uint64_t n = p.lat_ns.size();
    const bool ok = write_all(fds[1], &p.s, sizeof(p.s)) && write_all(fds[1], &n, sizeof(n)) &&
                    write_all(fds[1], p.lat_ns.data(), n * sizeof(int64_t)) &&
                    write_all(fds[1], p.op.data(), n * sizeof(OpClass));
    std::fflush(stdout);
    _exit(ok ? 0 : 3);  // skip destructors: the process image is discarded whole
  }
  close(fds[1]);
  Pass p;
  uint64_t n = 0;
  bool ok = read_all(fds[0], &p.s, sizeof(p.s)) && read_all(fds[0], &n, sizeof(n));
  if (ok) {
    p.lat_ns.resize(n);
    p.op.resize(n);
    ok = read_all(fds[0], p.lat_ns.data(), n * sizeof(int64_t)) &&
         read_all(fds[0], p.op.data(), n * sizeof(OpClass));
  }
  close(fds[0]);
  int status = 0;
  FRACTOS_CHECK(waitpid(pid, &status, 0) == pid);
  FRACTOS_CHECK_MSG(ok && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                    "benchmark child process failed");
  return p;
}

// --- statistics ---------------------------------------------------------------------------

// Index (into lat) of the request at percentile `pct` (nearest rank, ties by completion order).
size_t exemplar(const std::vector<int64_t>& lat, double pct) {
  std::vector<size_t> idx(lat.size());
  for (size_t i = 0; i < idx.size(); ++i) {
    idx[i] = i;
  }
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) { return lat[a] < lat[b]; });
  const size_t rank = static_cast<size_t>(static_cast<double>(idx.size() - 1) * pct / 100.0);
  return idx[rank];
}

double percentile_us(const std::vector<int64_t>& lat, double pct) {
  return lat.empty() ? 0 : static_cast<double>(lat[exemplar(lat, pct)]) / 1e3;
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- output -------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                                  ", \"metrics\": {",
                attempted, failed);
  json += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
}

// Chrome trace of the given requests' spans (one pid per request, one tid per actor).
bool write_exemplars(const std::string& path, const std::vector<const SpanTracer*>& tracers,
                     const std::vector<std::pair<std::string, uint64_t>>& requests) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[192];
  for (size_t r = 0; r < requests.size(); ++r) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,\"args\":{\"name\":"
                  "\"%s\"}}",
                  first ? "" : ",", r + 1, requests[r].first.c_str());
    out += buf;
    first = false;
    for (const SpanTracer* t : tracers) {
      for (const Span* s : t->trace(requests[r].second)) {
        out += ",\n{\"name\":";
        append_json_string(out, s->name());
        std::snprintf(buf, sizeof(buf),
                      ",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%zu,"
                      "\"tid\":",
                      span_kind_name(s->kind), static_cast<double>(s->t_start.ns()) / 1e3,
                      static_cast<double>((s->t_end - s->t_start).ns()) / 1e3, r + 1);
        out += buf;
        append_json_string(out, s->actor());
        out += "}";
      }
    }
  }
  out += "\n]}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  return std::fclose(f) == 0;
}

// --- runs ---------------------------------------------------------------------------------

// Requests in one measured pass: --seconds of work at the workload's reference rate, split
// over its repetitions.
uint64_t pass_requests(const WorkloadSpec& spec, double seconds) {
  return std::max<uint64_t>(
      spec.min_requests,
      static_cast<uint64_t>(seconds * spec.requests_per_second / spec.reps + 0.5));
}

// Sim-side end-to-end metrics of one pass.
void add_sim_metrics(const Pass& p, std::vector<Metric>& m) {
  const double n = static_cast<double>(p.lat_ns.size());
  m.push_back({"sim_p50_us", percentile_us(p.lat_ns, 50), "us"});
  m.push_back({"sim_p99_us", percentile_us(p.lat_ns, 99), "us"});
  m.push_back({"sim_rps", per(n, static_cast<double>(p.s.sim_ns) / 1e9), "1/s"});
  m.push_back({"fabric_bytes_per_req",
               per(static_cast<double>(p.s.traffic.total_cross_bytes()), n), "B"});
}

// Repeats the whole untraced run (set-up and measured pass, same seed) spec.reps times, each
// in its own process. Host metrics are medians over the repetitions, the request rate over
// every window of every repetition, so a burst of load from elsewhere on the host moves a few
// windows and not the median. The simulated results must repeat exactly. The sharded engine
// runs on one thread (its cooperative mode, same simulated results as any shard count).
int run_end_to_end(const Args& args, const WorkloadSpec& spec) {
  HostSpans spans;
  const uint32_t shards = 1;
  const uint64_t requests = pass_requests(spec, args.seconds);
  std::vector<Pass> reps;
  std::vector<double> rates, setups, rss;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  bool repeatable = true;
  for (uint32_t r = 0; r < spec.reps; ++r) {
    reps.push_back(in_child([&]() {
      Pass p = deploy_and_run(spec, args.seed, shards, requests, /*teardown=*/false, spans);
      p.s.peak_rss_mb = peak_rss_mb();
      return p;
    }));
    const Pass& p = reps.back();
    const double per_window = static_cast<double>(p.s.attempted / PassStats::kWindows);
    for (double w : p.s.window_s) {
      rates.push_back(per(per_window, w));
    }
    setups.push_back(p.s.setup_s);
    rss.push_back(p.s.peak_rss_mb);
    attempted += p.s.attempted;
    failed += p.s.failed;
    wrong += p.s.wrong;
    repeatable = repeatable && p.same_sim_results(reps.front());
  }

  std::vector<Metric> m;
  m.push_back({"req_per_host_s", median(rates), "1/s"});
  m.push_back({"setup_s", median(setups), "s"});
  m.push_back({"peak_rss_mb", median(rss), "MB"});
  add_sim_metrics(reps.front(), m);
  std::printf("%s: seed %" PRIu64 ", %u x %" PRIu64 " requests, %u shard(s)\n", spec.name,
              args.seed, spec.reps, reps.front().s.attempted, shards);
  if (!repeatable) {
    std::printf("CHECK FAILED: simulated results differ between repetitions of one seed\n");
  }
  if (wrong > 0) {
    std::printf("CHECK FAILED: %" PRIu64 " wrong outputs\n", wrong);
  }
  const bool correct = repeatable && wrong == 0;
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

// Tracers and registries for one traced pass: one of each per rack when sharded.
struct Instruments {
  std::vector<std::unique_ptr<SpanTracer>> tracers;
  std::vector<std::unique_ptr<MetricsRegistry>> registries;

  void attach(EventLoop& loop) {
    const uint32_t racks = loop.sharded() ? loop.num_racks() : 1;
    for (uint32_t r = 0; r < racks; ++r) {
      tracers.push_back(std::make_unique<SpanTracer>(uint64_t{r} << 40));
      registries.push_back(std::make_unique<MetricsRegistry>());
      if (loop.sharded()) {
        loop.set_rack_span_tracer(r, tracers.back().get());
        loop.set_rack_metrics(r, registries.back().get());
      } else {
        loop.set_span_tracer(tracers.back().get());
        loop.set_metrics(registries.back().get());
      }
    }
  }

  void detach(EventLoop& loop) {
    for (uint32_t r = 0; r < tracers.size(); ++r) {
      if (loop.sharded()) {
        loop.set_rack_span_tracer(r, nullptr);
        loop.set_rack_metrics(r, nullptr);
      } else {
        loop.set_span_tracer(nullptr);
        loop.set_metrics(nullptr);
      }
    }
  }

  std::vector<const SpanTracer*> tracer_list() const {
    std::vector<const SpanTracer*> out;
    for (const auto& t : tracers) {
      out.push_back(t.get());
    }
    return out;
  }

  MetricsRegistry merged() const {
    MetricsRegistry m;
    for (const auto& r : registries) {
      m.merge_from(*r);
    }
    return m;
  }
};

// Sum of every snapshot value whose key starts with `prefix` and ends with `suffix`.
double sum_keys(const std::map<std::string, int64_t>& snap, const std::string& prefix,
                const std::string& suffix) {
  double s = 0;
  for (const auto& [key, v] : snap) {
    if (key.size() >= prefix.size() + suffix.size() && key.compare(0, prefix.size(), prefix) == 0 &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      s += static_cast<double>(v);
    }
  }
  return s;
}

// MsgType named by a Controller handler span ("RequestInvoke" or "peer-RemoteInvoke").
std::optional<MsgType> frame_type_of(const std::string& span_name) {
  const std::string name =
      span_name.compare(0, 5, "peer-") == 0 ? span_name.substr(5) : span_name;
  for (int t = 0; t <= static_cast<int>(MsgType::kReplSnapshot); ++t) {
    if (name == msg_type_name(static_cast<MsgType>(t))) {
      return static_cast<MsgType>(t);
    }
  }
  return std::nullopt;
}

int run_traced(const Args& args, const WorkloadSpec& spec) {
  HostSpans spans;
  const uint32_t shards = default_shards(spec);
  bool correct = true;
  std::vector<std::string> problems;
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  };
  const uint64_t total = std::min(pass_requests(spec, args.seconds), spec.traced_requests);

  // 1. Untraced reference pass, and for sharded workloads the same pass on one shard
  //    (shard-count invariance, and the speedup of the workload's shard count).
  Pass plain;
  {
    HostSpans::Scope t(spans, "sim", "untraced (child)");
    plain = in_child(
        [&]() { return deploy_and_run(spec, args.seed, shards, total, /*teardown=*/true, spans); });
  }
  double shard_speedup = 1;
  uint64_t attempted = plain.s.attempted;
  uint64_t failed = plain.s.failed;
  uint64_t wrong = plain.s.wrong;
  if (spec.sharded) {
    HostSpans::Scope t(spans, "sim", "one-shard (child)");
    const Pass single = in_child(
        [&]() { return deploy_and_run(spec, args.seed, 1, total, /*teardown=*/false, spans); });
    require(single.same_sim_results(plain), "one-shard run differs from the sharded run");
    shard_speedup = per(single.s.host_s, plain.s.host_s);
    attempted += single.s.attempted;
    failed += single.s.failed;
    wrong += single.s.wrong;
  }

  // 2. Traced pass on a fresh deployment: must reproduce the untraced pass exactly.
  std::unique_ptr<Deployment> d = build_deployment(spec, args.seed, shards, spans);
  const TopologySpec topology = d->sys().config().topology;
  const uint32_t nodes = static_cast<uint32_t>(d->sys().net().num_nodes());
  const uint32_t concurrency = d->clients() * d->inflight();
  const double payload_per_req = static_cast<double>(d->payload_bytes());
  auto inst = std::make_unique<Instruments>();
  inst->attach(d->sys().loop());
  const Pass traced = run_closed_loop(*d, spec, args.seed, total, spans, "traced");
  inst->detach(d->sys().loop());
  require(traced.same_sim_results(plain), "traced run differs from the untraced run");
  attempted += traced.s.attempted;
  failed += traced.s.failed;
  wrong += traced.s.wrong;
  require(wrong == 0, "wrong output");

  const std::vector<const SpanTracer*> tracers = inst->tracer_list();
  const size_t n = traced.lat_ns.size();
  TaxBreakdown mean;
  std::vector<TaxBreakdown> per_request(n);
  uint64_t trailing = 0;
  {
    HostSpans::Scope t(spans, "sim", "fold_tax");
    for (size_t i = 0; i < n; ++i) {
      per_request[i] = fold_tax(tracers, traced.roots[i]);
      // The buckets must sum exactly to the traced latency: the root span, which starts at issue
      // and is closed at completion. The tracer extends a closed span over children that end
      // later, so a request whose trace has work trailing its completion (e.g. a service's own
      // continuation-invoke syscall still awaiting its reply) has a longer root; such requests
      // are counted, never folded short.
      const TaxBreakdown& b = per_request[i];
      require(b.sum_ns() == b.total_ns && b.total_ns >= traced.lat_ns[i],
              "tax buckets of request " + std::to_string(i) + " sum to " +
                  std::to_string(b.sum_ns()) + " ns, traced latency " +
                  std::to_string(b.total_ns) + " ns, observed " +
                  std::to_string(traced.lat_ns[i]) + " ns");
      trailing += b.total_ns > traced.lat_ns[i] ? 1 : 0;
      mean += b;
    }
  }
  uint64_t span_count = 0;
  std::map<MsgType, uint64_t> frame_mix;
  for (const SpanTracer* t : tracers) {
    span_count += t->spans().size();
    for (const Span& s : t->spans()) {
      if (s.kind == SpanKind::kController) {
        if (const std::optional<MsgType> type = frame_type_of(s.name())) {
          ++frame_mix[*type];
        }
      }
    }
  }
  const size_t p50 = exemplar(traced.lat_ns, 50);
  const size_t p99 = exemplar(traced.lat_ns, 99);
  if (!args.out.empty()) {
    std::filesystem::create_directories(args.out);
    require(write_exemplars(args.out + "/exemplars.chrome.json", tracers,
                            {{"p50", traced.roots[p50]}, {"p99", traced.roots[p99]}}),
            "cannot write " + args.out + "/exemplars.chrome.json");
  }
  const std::map<std::string, int64_t> snap = inst->merged().snapshot();
  {
    HostSpans::Scope t(spans, "teardown", "traced deployment");
    d.reset();
    inst.reset();
  }

  // 3. Layer probes shaped from the runs above.
  const double req = static_cast<double>(n);
  const double events = static_cast<double>(plain.s.events);
  const double data_msgs = static_cast<double>(plain.s.traffic.messages[1]);
  double sim_probe = 0, fabric_probe = 0, wire_probe = 0, cap_probe = 0;
  {
    HostSpans::Scope t(spans, "sim", "probe");
    const int64_t mean_delay =
        static_cast<int64_t>(per(static_cast<double>(plain.s.sim_ns) * concurrency, events));
    sim_probe = probe_event_loop(concurrency, mean_delay, args.seed);
  }
  {
    HostSpans::Scope t(spans, "fabric", "probe");
    const uint64_t msg_bytes =
        static_cast<uint64_t>(per(static_cast<double>(plain.s.traffic.bytes[1]), data_msgs));
    fabric_probe = probe_network(topology, nodes, concurrency, msg_bytes, args.seed);
  }
  {
    HostSpans::Scope t(spans, "wire", "probe");
    wire_probe = probe_wire(frame_mix, args.seed);
  }
  {
    HostSpans::Scope t(spans, "cap", "probe");
    cap_probe = probe_object_table(plain.s.after.max_table_live, args.seed);
  }

  // 4. Metrics.
  std::vector<int64_t> write_lat;
  for (size_t i = 0; i < n; ++i) {
    if (traced.op[i] == OpClass::kWrite) {
      write_lat.push_back(traced.lat_ns[i]);
    }
  }
  const CtrlTotals& a = plain.s.before;
  const CtrlTotals& b = plain.s.after;
  const auto delta = [&](uint64_t CtrlTotals::*f) { return static_cast<double>(b.*f - a.*f); };
  const double nvme_ops = sum_keys(snap, "nvme.reads", "") + sum_keys(snap, "nvme.writes", "");
  const double nvme_bytes =
      sum_keys(snap, "nvme.read_bytes", "") + sum_keys(snap, "nvme.write_bytes", "");

  std::vector<Metric> m;
  m.push_back({"sim.events_per_req", per(events, req), "count"});
  m.push_back({"sim.host_ns_per_event", per(plain.s.host_s * 1e9, events), "ns"});
  m.push_back({"sim.shard_speedup", shard_speedup, "x"});
  m.push_back({"sim.mailbox_hwm", static_cast<double>(plain.s.mailbox_hwm), "count"});
  m.push_back({"sim.spans_per_req", per(static_cast<double>(span_count), req), "count"});
  m.push_back({"sim.trailing_trace_reqs", static_cast<double>(trailing), "count"});
  m.push_back({"sim.trace_overhead", per(traced.s.host_s, plain.s.host_s), "x"});
  m.push_back({"sim.probe_ns_per_event", sim_probe, "ns"});
  m.push_back({"fabric.msgs_per_req",
               per(static_cast<double>(plain.s.traffic.total_messages()), req), "count"});
  m.push_back({"fabric.ctrl_msgs_per_req",
               per(static_cast<double>(plain.s.traffic.control_messages()), req), "count"});
  m.push_back({"fabric.probe_ns_per_msg", fabric_probe, "ns"});
  m.push_back({"fabric.cross_rack_bytes_per_req",
               per(static_cast<double>(plain.s.traffic.total_cross_rack_bytes()), req), "B"});
  m.push_back({"fabric.max_port_queue_bytes", static_cast<double>(plain.s.max_port_queue_bytes),
               "B"});
  m.push_back({"fabric.retransmits",
               sum_keys(snap, "qp.retransmits", "") +
                   sum_keys(snap, "net.faults.rdma_retransmits", ""),
               "count"});
  m.push_back({"wire.probe_ns_per_frame", wire_probe, "ns"});
  m.push_back({"cap.translations_per_req", per(sum_keys(snap, "ctrl.", ".translations"), req),
               "count"});
  m.push_back({"cap.probe_ns_per_op", cap_probe, "ns"});
  m.push_back({"cap.live_caps_per_req", per(delta(&CtrlTotals::caps), req), "count"});
  m.push_back({"cap.objects_live_end", static_cast<double>(b.objects_live), "count"});
  m.push_back({"core.syscalls_per_req", per(delta(&CtrlTotals::syscalls), req), "count"});
  m.push_back({"core.deliveries_per_req", per(delta(&CtrlTotals::deliveries), req), "count"});
  m.push_back({"core.invokes_forwarded_per_req", per(delta(&CtrlTotals::invokes_forwarded), req),
               "count"});
  m.push_back({"core.copy_bytes_per_req", per(delta(&CtrlTotals::copy_bytes), req), "B"});
  m.push_back({"core.copy_amplification",
               per(delta(&CtrlTotals::copy_bytes), payload_per_req * req), "x"});
  m.push_back({"core.peer_retries", delta(&CtrlTotals::peer_retries), "count"});
  m.push_back({"core.peer_op_timeouts", delta(&CtrlTotals::peer_op_timeouts), "count"});
  m.push_back({"core.setup_host_s", plain.s.core_setup_s, "s"});
  m.push_back({"core.teardown_host_s", plain.s.teardown_s, "s"});
  m.push_back({"services.setup_host_s", plain.s.services_setup_s, "s"});
  m.push_back({"services.fs_reads_per_req", per(sum_keys(snap, "fs.reads", ""), req), "count"});
  m.push_back({"services.fs_writes_per_req", per(sum_keys(snap, "fs.writes", ""), req), "count"});
  m.push_back({"services.slot_acquires_per_req", per(sum_keys(snap, "slots.", ".acquires"), req),
               "count"});
  m.push_back({"services.write_p99_us", percentile_us(write_lat, 99), "us"});
  m.push_back({"devices.nvme_ops_per_req", per(nvme_ops, req), "count"});
  m.push_back({"devices.nvme_bytes_per_req", per(nvme_bytes, req), "B"});
  m.push_back({"devices.gpu_launches_per_req", per(sum_keys(snap, "gpu.launches", ""), req),
               "count"});
  const std::pair<const char*, TaxBucket> buckets[] = {
      {"fabric", TaxBucket::kFabric},         {"fabric_queue", TaxBucket::kFabricQueue},
      {"controller", TaxBucket::kController}, {"translation", TaxBucket::kTranslation},
      {"queue", TaxBucket::kQueue},           {"device", TaxBucket::kDevice},
      {"other", TaxBucket::kOther}};
  for (const auto& [name, bucket] : buckets) {
    const size_t bi = static_cast<size_t>(bucket);
    m.push_back({std::string("tax.") + name + "_mean_us",
                 per(static_cast<double>(mean.ns[bi]) / 1e3, req), "us"});
    m.push_back({std::string("tax.") + name + "_p99req_us",
                 static_cast<double>(per_request[p99].ns[bi]) / 1e3, "us"});
  }

  std::printf("%s (traced): seed %" PRIu64 ", %zu requests per pass, %u shard(s)\n", spec.name,
              args.seed, n, shards);
  for (const std::string& what : problems) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  if (!args.out.empty() && !spans.write_chrome(args.out + "/host_spans.chrome.json")) {
    correct = false;
    std::printf("CHECK FAILED: cannot write %s/host_spans.chrome.json\n", args.out.c_str());
  }
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) {
        return false;
      }
    } else if (key == "--out") {
      a.out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if defined(__GLIBC__) && defined(M_MMAP_THRESHOLD)
  // Same allocator tuning as the bench/ binaries: keep the 256 KiB+ payload buffers in the
  // arena instead of an mmap/munmap round trip each (host time only; simulated time is
  // unaffected).
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <facever|storage_rw|fattree1024> --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? run_traced(args, *spec) : run_end_to_end(args, *spec);
}
