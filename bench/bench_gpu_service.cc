// Fig. 9: the disaggregated GPU service vs rCUDA.
//
// Left: latency of executing the face-verification kernel vs image batch size, with a
// breakdown into data transfer and system overhead. Paper shape: FractOS substantially
// faster than rCUDA (single round-trip Request invocation vs interposed driver calls), and
// even the sNIC deployment beats rCUDA.
//
// Right: throughput at a fixed batch vs in-flight requests. Paper shape: FractOS reaches
// near-optimal throughput (on par with the local GPU) with more than one request in flight.

#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/face_verify.h"
#include "src/baselines/rcuda.h"
#include "src/services/gpu_adaptor.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt;
using bench::fmt_us;

constexpr uint64_t kImageBytes = 4096;
const Duration kPerImage = Duration::micros(40);

// One request: upload batch data to the GPU, run the kernel, get the (tiny) verdicts back.
// `batch` images of kImageBytes each.

struct FractosGpuBench {
  System sys;
  std::unique_ptr<SimGpu> gpu;
  std::unique_ptr<GpuAdaptor> adaptor;
  Process* client = nullptr;
  GpuClient::Session session;
  struct Slot {
    bool busy = false;
    GpuClient::Buffer probe, db, result_buf;
    CapId probe_src = kInvalidCap;
    CapId result_dst = kInvalidCap;
    CapId kernel_req = kInvalidCap;  // pre-derived: "a single roundtrip Request invocation"
    std::function<void(Status)> completion;
  };
  std::vector<Slot> slots;
  uint64_t batch_bytes = 0;

  FractosGpuBench(Loc ctrl_loc, uint32_t batch, size_t n_slots = 8) {
    const uint32_t cn = sys.add_node("client");
    const uint32_t gn = sys.add_node("gpu");
    Controller& cc = sys.add_controller(cn, ctrl_loc);
    Controller& cg = sys.add_controller(gn, ctrl_loc);
    gpu = std::make_unique<SimGpu>(&sys.net(), gn);
    adaptor = std::make_unique<GpuAdaptor>(&sys, cg, gpu.get());
    adaptor->register_kernel("face_verify", make_face_verify_kernel(kPerImage));
    batch_bytes = kImageBytes * batch;
    client = &sys.spawn("client", cn, cc, n_slots * (batch_bytes + 8192) + (2 << 20));

    const CapId init =
        sys.bootstrap_grant(adaptor->process(), adaptor->init_endpoint(), *client).value();
    session = sys.await_ok(GpuClient::init(*client, init));
    const CapId kernel = sys.await_ok(GpuClient::load(*client, session, "face_verify"));
    slots.resize(n_slots);
    for (size_t i = 0; i < n_slots; ++i) {
      Slot& sl = slots[i];
      sl.probe = sys.await_ok(GpuClient::alloc(*client, session, batch_bytes));
      sl.db = sys.await_ok(GpuClient::alloc(*client, session, batch_bytes));
      sl.result_buf = sys.await_ok(GpuClient::alloc(*client, session, 4096));
      const uint64_t src_addr = client->alloc(batch_bytes);
      sl.probe_src = sys.await_ok(client->memory_create(src_addr, batch_bytes, Perms::kRead));
      const uint64_t res_addr = client->alloc(4096);
      sl.result_dst =
          sys.await_ok(client->memory_create(res_addr, 4096, Perms::kReadWrite));
      const CapId respond = sys.await_ok(client->serve({}, [this, i](Process::Received) {
        if (slots[i].completion) {
          auto done = std::move(slots[i].completion);
          slots[i].completion = nullptr;
          done(ok_status());
        }
      }));
      const CapId error = sys.await_ok(client->serve({}, [this, i](Process::Received) {
        if (slots[i].completion) {
          auto done = std::move(slots[i].completion);
          slots[i].completion = nullptr;
          done(Status(ErrorCode::kInternal));
        }
      }));
      Process::Args kargs = GpuClient::pack_args({sl.probe.device_addr, sl.db.device_addr,
                                                  sl.result_buf.device_addr, batch,
                                                  kImageBytes});
      kargs.cap(sl.result_buf.mem).cap(sl.result_dst).cap(respond).cap(error);
      sl.kernel_req = sys.await_ok(client->request_derive(kernel, std::move(kargs)));
      // Preload the database side once (this bench isolates the GPU service).
      FRACTOS_CHECK(sys.await(client->memory_copy(sl.probe_src, sl.db.mem)).ok());
    }
  }

  // One request on a free slot: upload the probe batch, invoke the pre-derived kernel
  // Request (one message to the GPU Controller), completion arrives via the respond Request.
  Future<Status> one_request(uint32_t batch) {
    (void)batch;
    size_t idx = slots.size();
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].busy) {
        idx = i;
        break;
      }
    }
    FRACTOS_CHECK_MSG(idx < slots.size(), "increase n_slots for this in-flight level");
    Slot& sl = slots[idx];
    sl.busy = true;
    Promise<Status> p;
    sl.completion = [this, idx, p](Status s) {
      slots[idx].busy = false;
      p.set(s);
    };
    client->memory_copy(sl.probe_src, sl.probe.mem).on_ready([this, idx](Status cs) {
      Slot& s2 = slots[idx];
      if (!cs.ok()) {
        if (s2.completion) {
          auto done = std::move(s2.completion);
          s2.completion = nullptr;
          done(cs);
        }
        return;
      }
      client->request_invoke(s2.kernel_req);
    });
    return p.future();
  }

  double latency_us(uint32_t batch, int iters = 20) {
    Summary s;
    for (int i = 0; i < iters; ++i) {
      const Time start = sys.loop().now();
      FRACTOS_CHECK(sys.await(one_request(batch)).ok());
      s.add(sys.loop().now() - start);
    }
    return s.mean();
  }

  // Requests/second with `inflight` outstanding requests over `total` completions.
  double throughput_rps(uint32_t batch, int inflight, int total = 64) {
    int issued = 0;
    int done = 0;
    const Time start = sys.loop().now();
    std::function<void()> launch = [&]() {
      if (issued == total) {
        return;
      }
      ++issued;
      one_request(batch).on_ready([&](Status s) {
        FRACTOS_CHECK(s.ok());
        ++done;
        launch();
      });
    };
    for (int i = 0; i < inflight; ++i) {
      launch();
    }
    sys.loop().run_until([&]() { return done == total; });
    const double secs = (sys.loop().now() - start).to_seconds();
    return total / secs;
  }
};

struct RcudaGpuBench {
  EventLoop loop;
  Network net;
  std::unique_ptr<SimGpu> gpu;
  std::unique_ptr<RcudaDaemon> daemon;
  std::unique_ptr<RcudaClient> client;
  uint64_t fn = 0;
  uint64_t d_probe = 0, d_db = 0, d_result = 0;
  uint64_t batch_bytes = 0;

  explicit RcudaGpuBench(uint32_t batch) : net(&loop) {
    const uint32_t cn = net.add_node("client");
    const uint32_t gn = net.add_node("gpu");
    (void)cn;
    gpu = std::make_unique<SimGpu>(&net, gn);
    daemon = std::make_unique<RcudaDaemon>(&net, gpu.get());
    daemon->register_kernel("face_verify", make_face_verify_kernel(kPerImage));
    client = std::make_unique<RcudaClient>(&net, 0, daemon.get());
    batch_bytes = kImageBytes * batch;
    fn = await(client->cu_module_get_function("face_verify")).value();
    d_probe = await(client->cu_mem_alloc(batch_bytes)).value();
    d_db = await(client->cu_mem_alloc(batch_bytes)).value();
    d_result = await(client->cu_mem_alloc(4096)).value();
    FRACTOS_CHECK(await(client->cu_memcpy_htod(d_db, std::vector<uint8_t>(batch_bytes))).ok());
  }

  template <typename T>
  T await(Future<T> f) {
    loop.run_until([&]() { return f.ready(); });
    return f.take();
  }

  double latency_us(uint32_t batch, int iters = 20) {
    Summary s;
    std::vector<uint8_t> data(batch_bytes);
    for (int i = 0; i < iters; ++i) {
      const Time start = loop.now();
      FRACTOS_CHECK(await(client->cu_memcpy_htod(d_probe, data)).ok());
      FRACTOS_CHECK(
          await(client->cu_launch_kernel(fn, {d_probe, d_db, d_result, batch, kImageBytes}))
              .ok());
      FRACTOS_CHECK(await(client->cu_ctx_synchronize()).ok());
      FRACTOS_CHECK(await(client->cu_memcpy_dtoh(d_result, batch)).ok());
      s.add(loop.now() - start);
    }
    return s.mean();
  }

  // rCUDA "in flight" is limited by the driver-call serialization on one connection: each
  // request is the same 4-call sequence; concurrency only overlaps distinct clients'
  // connections, which the paper's single-client setup does not have.
  double throughput_rps(uint32_t batch, int total = 64) {
    const Time start = loop.now();
    std::vector<uint8_t> data(batch_bytes);
    for (int i = 0; i < total; ++i) {
      FRACTOS_CHECK(await(client->cu_memcpy_htod(d_probe, data)).ok());
      FRACTOS_CHECK(
          await(client->cu_launch_kernel(fn, {d_probe, d_db, d_result, batch, kImageBytes}))
              .ok());
      FRACTOS_CHECK(await(client->cu_ctx_synchronize()).ok());
      FRACTOS_CHECK(await(client->cu_memcpy_dtoh(d_result, batch)).ok());
    }
    return total / (loop.now() - start).to_seconds();
  }
};

// Local GPU lower bound: kernel time only, no network.
double local_gpu_latency_us(uint32_t batch) {
  EventLoop loop;
  Network net(&loop);
  const uint32_t gn = net.add_node("gpu");
  SimGpu gpu(&net, gn);
  const auto kid = gpu.load_kernel("face_verify", make_face_verify_kernel(kPerImage));
  const auto ctx = gpu.create_context();
  const uint64_t buf = gpu.alloc(ctx, kImageBytes * batch * 2 + 4096).value();
  Summary s;
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    const Time start = loop.now();
    gpu.launch(kid, {buf, buf + kImageBytes * batch, buf + 2 * kImageBytes * batch, batch,
                     kImageBytes},
               [&](Status) { done = true; });
    loop.run_until([&]() { return done; });
    s.add(loop.now() - start);
  }
  return s.mean();
}

double local_gpu_throughput_rps(uint32_t batch, int inflight, int total = 64) {
  EventLoop loop;
  Network net(&loop);
  SimGpu gpu(&net, net.add_node("gpu"));
  const auto kid = gpu.load_kernel("face_verify", make_face_verify_kernel(kPerImage));
  int issued = 0, done = 0;
  const Time start = loop.now();
  std::function<void()> launch = [&]() {
    if (issued == total) {
      return;
    }
    ++issued;
    gpu.launch(kid, {0, 0, 0, batch, kImageBytes}, [&](Status) {
      ++done;
      launch();
    });
  };
  for (int i = 0; i < inflight; ++i) {
    launch();
  }
  loop.run_until([&]() { return done == total; });
  return total / (loop.now() - start).to_seconds();
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  std::printf("Fig. 9: remote GPU service — FractOS vs rCUDA vs local GPU\n");
  std::printf("(paper: FractOS substantially faster than rCUDA, sNIC deployment still beats\n");
  std::printf(" rCUDA; throughput on par with the local GPU at >1 in-flight request)\n");

  // Breakdown columns mirror the paper's stacked bars: kernel time (== local GPU), the
  // unavoidable wire time of the batch upload, and everything else (FractOS overheads).
  Table lat("Fig. 9 left — kernel-execution latency vs batch size (4 KiB images)",
            {"batch", "local GPU", "FractOS CPU", "= kernel", "+ transfer", "+ overhead",
             "FractOS sNIC", "rCUDA", "rCUDA/FractOS"});
  for (const uint32_t batch : {1u, 4u, 16u, 64u, 256u}) {
    const double local = local_gpu_latency_us(batch);
    FractosGpuBench f_cpu(Loc::kHost, batch);
    const double cpu = f_cpu.latency_us(batch);
    FractosGpuBench f_snic(Loc::kSnic, batch);
    const double snic = f_snic.latency_us(batch);
    RcudaGpuBench rc(batch);
    const double rcuda = rc.latency_us(batch);
    const double transfer =
        static_cast<double>(batch) * kImageBytes / 1.25 / 1000.0;  // wire time, us
    lat.row({std::to_string(batch), fmt_us(local), fmt_us(cpu), fmt_us(local),
             fmt_us(transfer), fmt_us(cpu - local - transfer), fmt_us(snic), fmt_us(rcuda),
             fmt(rcuda / cpu, 2) + "x"});
  }
  lat.print();

  Table tp("Fig. 9 right — throughput, batch = 256, vs in-flight requests (req/s)",
           {"in-flight", "local GPU", "FractOS CPU", "FractOS sNIC", "rCUDA"});
  const uint32_t batch = 256;
  RcudaGpuBench rc_tp(batch);
  const double rcuda_rps = rc_tp.throughput_rps(batch);
  for (const int inflight : {1, 2, 4, 8}) {
    FractosGpuBench f_cpu(Loc::kHost, batch);
    FractosGpuBench f_snic(Loc::kSnic, batch);
    tp.row({std::to_string(inflight), fmt(local_gpu_throughput_rps(batch, inflight), 0),
            fmt(f_cpu.throughput_rps(batch, inflight), 0),
            fmt(f_snic.throughput_rps(batch, inflight), 0), fmt(rcuda_rps, 0)});
  }
  tp.print();
  return 0;
}
