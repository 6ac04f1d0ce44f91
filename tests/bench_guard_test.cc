// Bench guard: the fault-injection machinery must be invisible on a clean fabric.
//
// A fixed cross-node workload (syscall, memory create, 64 KiB copy, request invoke round
// trip) is recorded here as exact simulated timestamps and traffic counters. Two properties
// are pinned:
//
//   1. A System with no FaultPlan reproduces the recorded numbers bit-for-bit — so the
//      reliability layer added by the chaos work cannot silently shift any recorded bench
//      number in EXPERIMENTS.md (they all run through the same Network/QueuePair paths).
//   2. A System with an *empty* FaultPlan installed (all probabilities zero, no schedules)
//      matches the clean run exactly: an injector that has nothing to do draws no random
//      numbers, schedules no events, and perturbs nothing.
//
// If a deliberate model change shifts these numbers, re-record them together with the bench
// tables in EXPERIMENTS.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/system.h"
#include "src/devices/nvme.h"
#include "src/services/block_adaptor.h"
#include "src/services/fs.h"

namespace fractos {
namespace {

struct GuardRun {
  int64_t null_op_ns = 0;   // null syscall round trip
  int64_t copy_ns = 0;      // 64 KiB cross-node memory_copy
  int64_t invoke_ns = 0;    // cross-node request_invoke until delivery
  int64_t end_ns = 0;       // loop time after full drain
  TrafficCounters traffic;
};

GuardRun run_workload(SystemConfig cfg) {
  System sys(cfg);
  const uint32_t n0 = sys.add_node("a");
  const uint32_t n1 = sys.add_node("b");
  Controller& c0 = sys.add_controller(n0, Loc::kHost);
  Controller& c1 = sys.add_controller(n1, Loc::kHost);
  Process& p = sys.spawn("p", n0, c0);
  Process& q = sys.spawn("q", n1, c1);

  GuardRun out;
  int64_t t0 = sys.loop().now().ns();
  FRACTOS_CHECK(sys.await_status(p.null_op()).ok());
  out.null_op_ns = sys.loop().now().ns() - t0;

  constexpr uint64_t kCopyBytes = 64 << 10;
  const CapId src = sys.await_ok(p.memory_create(p.alloc(kCopyBytes), kCopyBytes,
                                                 Perms::kReadWrite));
  const CapId dst_q = sys.await_ok(q.memory_create(q.alloc(kCopyBytes), kCopyBytes,
                                                   Perms::kReadWrite));
  const CapId dst = sys.bootstrap_grant(q, dst_q, p).value();
  t0 = sys.loop().now().ns();
  FRACTOS_CHECK(sys.await_status(p.memory_copy(src, dst)).ok());
  out.copy_ns = sys.loop().now().ns() - t0;

  bool delivered = false;
  const CapId ep = sys.await_ok(q.serve({}, [&](Process::Received) { delivered = true; }));
  const CapId ep_p = sys.bootstrap_grant(q, ep, p).value();
  t0 = sys.loop().now().ns();
  FRACTOS_CHECK(sys.await_status(p.request_invoke(ep_p, Process::Args{}.imm_u64(0, 7))).ok());
  sys.loop().run_until([&]() { return delivered; });
  out.invoke_ns = sys.loop().now().ns() - t0;

  sys.loop().run();
  out.end_ns = sys.loop().now().ns();
  out.traffic = sys.net().counters();
  return out;
}

void expect_same(const GuardRun& a, const GuardRun& b) {
  EXPECT_EQ(a.null_op_ns, b.null_op_ns);
  EXPECT_EQ(a.copy_ns, b.copy_ns);
  EXPECT_EQ(a.invoke_ns, b.invoke_ns);
  EXPECT_EQ(a.end_ns, b.end_ns);
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(a.traffic.messages[c], b.traffic.messages[c]) << "cat " << c;
    EXPECT_EQ(a.traffic.bytes[c], b.traffic.bytes[c]) << "cat " << c;
    EXPECT_EQ(a.traffic.cross_messages[c], b.traffic.cross_messages[c]) << "cat " << c;
    EXPECT_EQ(a.traffic.cross_bytes[c], b.traffic.cross_bytes[c]) << "cat " << c;
  }
}

TEST(BenchGuard, CleanFabricMatchesRecordedNumbers) {
  const GuardRun r = run_workload(SystemConfig{});
  // Recorded from the seed model (see EXPERIMENTS.md). An unexpected diff here means the
  // fault-injection layer leaked into the clean-fabric fast path.
  GuardRun want;
  want.null_op_ns = 3020;   // Table 3: FractOS @ CPU null op 3.02 us
  want.copy_ns = 73501;     // 64 KiB bounce-buffer copy (Fig. 5 regime)
  want.invoke_ns = 7805;    // cross-node request_invoke to delivery
  want.end_ns = 93823;
  want.traffic.messages[0] = 15;
  want.traffic.bytes[0] = 1398;
  want.traffic.cross_messages[0] = 1;
  want.traffic.cross_bytes[0] = 127;
  want.traffic.messages[1] = 4;
  want.traffic.bytes[1] = 133316;
  want.traffic.cross_messages[1] = 2;
  want.traffic.cross_bytes[1] = 66658;
  expect_same(r, want);
}

TEST(BenchGuard, EmptyFaultPlanIsByteIdenticalToClean) {
  const GuardRun clean = run_workload(SystemConfig{});
  SystemConfig faulted;
  faulted.faults = FaultPlan{};  // installed but with nothing to do
  const GuardRun empty_plan = run_workload(faulted);
  expect_same(clean, empty_plan);
}

// The streamed data paths: the Controller's chunked bounce copy, the BlockAdaptor's device
// and wire pipelines, FS-mode chunking across an extent boundary, and the DAX client's
// extent split. Each op's simulated latency and the run's traffic are pinned, so a change
// to how chunks are issued, windowed or completed cannot shift a Fig. 5/10/11 number
// unnoticed.

std::vector<uint64_t> traffic_of(const TrafficCounters& t) {
  return {t.messages[0],       t.messages[1],       t.bytes[0],       t.bytes[1],
          t.cross_messages[0], t.cross_messages[1], t.cross_bytes[0], t.cross_bytes[1]};
}

struct CopyPin {
  int64_t copy_ns = 0;
  std::vector<uint64_t> traffic;
};

// One cross-node memory_copy of `bytes` on a fresh two-node System.
CopyPin run_copy(uint64_t bytes) {
  System sys;
  const uint32_t n0 = sys.add_node("a");
  const uint32_t n1 = sys.add_node("b");
  Controller& c0 = sys.add_controller(n0, Loc::kHost);
  Controller& c1 = sys.add_controller(n1, Loc::kHost);
  Process& p = sys.spawn("p", n0, c0, bytes + (1 << 20));
  Process& q = sys.spawn("q", n1, c1, bytes + (1 << 20));
  const CapId src = sys.await_ok(p.memory_create(p.alloc(bytes), bytes, Perms::kReadWrite));
  const CapId dst_q = sys.await_ok(q.memory_create(q.alloc(bytes), bytes, Perms::kReadWrite));
  const CapId dst = sys.bootstrap_grant(q, dst_q, p).value();
  CopyPin out;
  const int64_t t0 = sys.loop().now().ns();
  FRACTOS_CHECK(sys.await_status(p.memory_copy(src, dst)).ok());
  out.copy_ns = sys.loop().now().ns() - t0;
  sys.loop().run();
  out.traffic = traffic_of(sys.net().counters());
  return out;
}

TEST(BenchGuard, MultiChunkBounceCopyMatchesRecordedNumbers) {
  // 1 MiB at the default 64 KiB copy_chunk_bytes: 16 chunks, two reads in flight.
  const CopyPin r = run_copy(1 << 20);
  EXPECT_EQ(r.copy_ns, 872596);  // Fig. 5: 1 MiB, CPU Controllers, 872.60 us
  EXPECT_EQ(r.traffic, (std::vector<uint64_t>{6, 64, 563, 2133056, 0, 32, 0, 1066528}));
}

TEST(BenchGuard, BelowThresholdCopyMatchesRecordedNumbers) {
  // 8 KiB is below the 16 KiB double-buffering threshold: one read, then one write.
  const CopyPin r = run_copy(8 << 10);
  EXPECT_EQ(r.copy_ns, 19603);
  EXPECT_EQ(r.traffic, (std::vector<uint64_t>{6, 4, 563, 16780, 0, 2, 0, 8390}));
}

TEST(BenchGuard, StorageStreamsMatchRecordedNumbers) {
  System sys;
  const uint32_t cn = sys.add_node("client");
  const uint32_t fn = sys.add_node("fs");
  const uint32_t sn = sys.add_node("storage");
  Controller& cc = sys.add_controller(cn, Loc::kHost);
  Controller& cf = sys.add_controller(fn, Loc::kHost);
  Controller& cs = sys.add_controller(sn, Loc::kHost);
  SimNvme nvme(&sys.loop());
  BlockAdaptor block(&sys, sn, cs, &nvme);
  auto fs = FsService::bootstrap(&sys, fn, cf, block.process(), block.mgmt_endpoint());
  Process& client = sys.spawn("client", cn, cc, 4 << 20);
  const CapId create = sys.bootstrap_grant(fs->process(), fs->create_endpoint(), client).value();
  const CapId open = sys.bootstrap_grant(fs->process(), fs->open_endpoint(), client).value();
  FRACTOS_CHECK(sys.await_status(FsClient::create(client, create, "f", 8 << 20)).ok());
  const auto fs_file = sys.await_ok(FsClient::open(client, open, "f", true, false));
  const auto dax_file = sys.await_ok(FsClient::open(client, open, "f", false, true));

  // 1 MiB starting 384 KiB before the first 4 MiB extent boundary: FS mode splits it into
  // 256 + 128 | 256 + 256 + 128 KiB chunks, DAX into 384 | 640 KiB extent pieces.
  constexpr uint64_t kSize = 1 << 20;
  constexpr uint64_t kOff = (4 << 20) - (384 << 10);
  const uint64_t addr = client.alloc(kSize);
  std::vector<uint8_t> data(kSize);
  for (uint64_t i = 0; i < kSize; ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  client.write_mem(addr, data);
  const CapId buf = sys.await_ok(client.memory_create(addr, kSize, Perms::kReadWrite));

  int64_t t0 = sys.loop().now().ns();
  FRACTOS_CHECK(sys.await_status(FsClient::write(client, fs_file, kOff, kSize, buf)).ok());
  const int64_t fs_write_ns = sys.loop().now().ns() - t0;
  client.write_mem(addr, std::vector<uint8_t>(kSize, 0));
  t0 = sys.loop().now().ns();
  FRACTOS_CHECK(sys.await_status(FsClient::read(client, fs_file, kOff, kSize, buf)).ok());
  const int64_t fs_read_ns = sys.loop().now().ns() - t0;
  EXPECT_EQ(client.read_mem(addr, kSize), data);
  client.write_mem(addr, std::vector<uint8_t>(kSize, 0));
  t0 = sys.loop().now().ns();
  FRACTOS_CHECK(sys.await_status(FsClient::read(client, dax_file, kOff, kSize, buf)).ok());
  const int64_t dax_read_ns = sys.loop().now().ns() - t0;
  EXPECT_EQ(client.read_mem(addr, kSize), data);
  sys.loop().run();

  EXPECT_EQ(fs_write_ns, 1836568);
  EXPECT_EQ(fs_read_ns, 1690545);
  EXPECT_EQ(dax_read_ns, 1125989);
  EXPECT_EQ(sys.loop().now().ns(), 4914441);
  EXPECT_EQ(traffic_of(sys.net().counters()),
            (std::vector<uint64_t>{432, 320, 45700, 10665280, 42, 160, 8070, 5332640}));
}

}  // namespace
}  // namespace fractos
