// Fig. 13: end-to-end throughput of the face-verification application vs in-flight requests
// (single client), for FractOS (CPU / sNIC / Shared HAL Controllers) and the baseline.
//
// Paper shape: baseline throughput bottlenecked by rCUDA; with four requests in flight the
// GPU itself becomes FractOS's bottleneck.

#include <functional>

#include "bench/bench_util.h"
#include "src/apps/face_verify.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt;

FaceVerifyParams bench_params() {
  FaceVerifyParams p;
  p.image_bytes = 64 << 10;
  p.images_per_batch = 8;
  p.num_batches = 8;
  p.pool_slots = 8;
  p.per_image_compute = Duration::micros(120);
  return p;
}

template <typename App>
double throughput_rps(System& sys, App& app, int inflight, int total = 48) {
  int issued = 0;
  int done = 0;
  const Time start = sys.loop().now();
  std::function<void()> next = [&]() {
    if (issued == total) {
      return;
    }
    const uint32_t batch = static_cast<uint32_t>(issued++ % 8);
    app.verify(batch).on_ready([&](Result<bool>&& r) {
      FRACTOS_CHECK(r.ok() && r.value());
      ++done;
      next();
    });
  };
  for (int i = 0; i < inflight; ++i) {
    next();
  }
  sys.loop().run_until([&]() { return done == total; });
  return total / (sys.loop().now() - start).to_seconds();
}

double fractos_rps(Loc loc, bool shared, int inflight) {
  System sys;
  auto cluster = FaceVerifyCluster::build(&sys);
  Controller* shared_ctrl = shared ? &sys.add_controller(cluster.fs_node, Loc::kHost) : nullptr;
  FaceVerifyFractos app(&sys, &cluster, loc, bench_params(), shared_ctrl);
  app.ingest_database();
  sys.await_ok(app.verify(0));  // warm-up
  return throughput_rps(sys, app, inflight);
}

double baseline_rps(int inflight) {
  System sys;
  auto cluster = FaceVerifyCluster::build(&sys);
  FaceVerifyBaseline app(&sys, &cluster, bench_params());
  app.ingest_database();
  sys.await_ok(app.verify(0));
  return throughput_rps(sys, app, inflight);
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  std::printf("Fig. 13: end-to-end face-verification throughput vs in-flight requests\n");
  std::printf("(paper: baseline bottlenecked by rCUDA; FractOS hits the GPU bottleneck at 4\n");
  std::printf(" in-flight requests)\n");

  Table t("Fig. 13 — throughput (requests/s), batch = 8 images of 64 KiB",
          {"in-flight", "FractOS CPU", "FractOS sNIC", "Shared HAL", "Baseline"});
  for (const int inflight : {1, 2, 4, 8}) {
    t.row({std::to_string(inflight),
           fmt(fractos_rps(Loc::kHost, false, inflight), 0),
           fmt(fractos_rps(Loc::kSnic, false, inflight), 0),
           fmt(fractos_rps(Loc::kHost, true, inflight), 0),
           fmt(baseline_rps(inflight), 0)});
  }
  t.print();
  return 0;
}
