// Fig. 11: storage throughput — random and sequential reads, 1 MiB block size, 4 requests in
// flight, for FractOS FS, FractOS DAX, and the Disaggregated Baseline.
//
// Paper shape: DAX saturates the network line rate; FS and the Disaggregated Baseline yield
// roughly 20% less.

#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/baselines/baseline_fs.h"
#include "src/baselines/nvmeof.h"
#include "src/baselines/page_cache.h"
#include "src/services/fs.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

using bench::Table;
using bench::fmt;

constexpr uint64_t kIo = 1 << 20;          // 1 MiB block size
constexpr int kInflight = 4;               // 4 requests in flight
constexpr int kTotalIos = 64;
constexpr uint64_t kFileBytes = 256ull << 20;

// Generic driver: issues kTotalIos reads with kInflight outstanding, returns MB/s.
template <typename IssueFn>
double throughput_mbps(System& sys, IssueFn issue) {
  int issued = 0;
  int done = 0;
  const Time start = sys.loop().now();
  std::function<void()> next = [&]() {
    if (issued == kTotalIos) {
      return;
    }
    const int idx = issued++;
    issue(idx, [&](Status s) {
      FRACTOS_CHECK(s.ok());
      ++done;
      next();
    });
  };
  for (int i = 0; i < kInflight; ++i) {
    next();
  }
  sys.loop().run_until([&]() { return done == kTotalIos; });
  const double us = (sys.loop().now() - start).to_us();
  return static_cast<double>(kIo) * kTotalIos / us;  // bytes/us == MB/s
}

uint64_t offset_for(int idx, bool sequential, Rng& rng, uint64_t extent_bytes) {
  if (sequential) {
    return static_cast<uint64_t>(idx) * kIo;
  }
  // Random, 1 MiB aligned, within one extent per I/O.
  const uint64_t extents = kFileBytes / extent_bytes;
  const uint64_t e = rng.next_below(extents);
  const uint64_t slots = extent_bytes / kIo;
  return e * extent_bytes + rng.next_below(slots) * kIo;
}

double fractos_tput(bool dax, bool sequential) {
  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t fn = sys.add_node("fs");
  const uint32_t sn = sys.add_node("storage");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& cf = sys.add_controller(fn, Loc::kHost);
  Controller& cs = sys.add_controller(sn, Loc::kHost);
  auto nvme = std::make_unique<SimNvme>(&sys.loop());
  BlockAdaptor block(&sys, sn, cs, nvme.get());
  auto fs = FsService::bootstrap(&sys, fn, cf, block.process(), block.mgmt_endpoint());
  Process& client = sys.spawn("client", cn, cc, kInflight * kIo + (2 << 20));
  const CapId create_ep =
      sys.bootstrap_grant(fs->process(), fs->create_endpoint(), client).value();
  const CapId open_ep = sys.bootstrap_grant(fs->process(), fs->open_endpoint(), client).value();
  FRACTOS_CHECK(sys.await(FsClient::create(client, create_ep, "bench", kFileBytes)).ok());
  auto file = sys.await_ok(FsClient::open(client, open_ep, "bench", false, dax));
  // One buffer per in-flight slot.
  std::vector<CapId> bufs;
  for (int i = 0; i < kInflight; ++i) {
    bufs.push_back(sys.await_ok(client.memory_create(client.alloc(kIo), kIo, Perms::kReadWrite)));
  }
  Rng rng(7);
  return throughput_mbps(sys, [&](int idx, std::function<void(Status)> done) {
    const uint64_t off = offset_for(idx, sequential, rng, file.extent_bytes);
    FsClient::read(client, file, off, kIo, bufs[static_cast<size_t>(idx % kInflight)])
        .on_ready([done = std::move(done)](Status s) { done(s); });
  });
}

double baseline_tput(bool sequential) {
  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t fn = sys.add_node("fs");
  const uint32_t sn = sys.add_node("storage");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& cf = sys.add_controller(fn, Loc::kHost);
  auto nvme = std::make_unique<SimNvme>(&sys.loop());
  NvmeofTarget target(&sys.net(), sn, nvme.get());
  NvmeofInitiator initiator(&sys.net(), fn, &target);
  PageCache cache(&sys.loop(), &initiator);
  BaselineFs fs(&sys, fn, cf, &cache);
  Process& client = sys.spawn("client", cn, cc, kInflight * kIo + (2 << 20));
  const CapId create_ep =
      sys.bootstrap_grant(fs.process(), fs.create_endpoint(), client).value();
  const CapId open_ep = sys.bootstrap_grant(fs.process(), fs.open_endpoint(), client).value();
  FRACTOS_CHECK(sys.await(FsClient::create(client, create_ep, "bench", kFileBytes)).ok());
  auto file = sys.await_ok(FsClient::open(client, open_ep, "bench", false, false));
  std::vector<CapId> bufs;
  for (int i = 0; i < kInflight; ++i) {
    bufs.push_back(sys.await_ok(client.memory_create(client.alloc(kIo), kIo, Perms::kReadWrite)));
  }
  Rng rng(8);
  return throughput_mbps(sys, [&](int idx, std::function<void(Status)> done) {
    const uint64_t off = offset_for(idx, sequential, rng, file.extent_bytes);
    FsClient::read(client, file, off, kIo, bufs[static_cast<size_t>(idx % kInflight)])
        .on_ready([done = std::move(done)](Status s) { done(s); });
  });
}

}  // namespace
}  // namespace fractos

int main() {
  using namespace fractos;
  std::printf("Fig. 11: storage throughput — 1 MiB reads, 4 in flight\n");
  std::printf("(paper: DAX saturates the 10 Gbps line rate (~1250 MB/s); FS and the\n");
  std::printf(" Disaggregated Baseline yield roughly 20%% less)\n");

  Table t("Fig. 11 — read throughput (MB/s)",
          {"pattern", "FractOS FS", "FractOS DAX", "Disagg. Baseline"});
  for (const bool sequential : {false, true}) {
    t.row({sequential ? "sequential" : "random",
           fmt(fractos_tput(false, sequential), 0),
           fmt(fractos_tput(true, sequential), 0),
           fmt(baseline_tput(sequential), 0)});
  }
  t.print();
  return 0;
}
