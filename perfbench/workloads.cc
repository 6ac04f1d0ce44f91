#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "src/apps/face_verify.h"
#include "src/services/fs.h"
#include "src/sim/rng.h"

namespace perfbench {

using namespace fractos;

namespace {

// Independent per-client streams from one seed.
Rng client_rng(uint64_t seed, uint64_t client) {
  return Rng(seed ^ (0x9e3779b97f4a7c15ULL * (client + 1)));
}

// The face-verify request shape of bench_scaleout, shared by facever and fattree1024 so that
// their per-request control-plane work is the same: a gain seen only on fattree1024 is a
// scale or engine gain.
FaceVerifyParams facever_params() {
  FaceVerifyParams p;
  p.image_bytes = 32 << 10;
  p.images_per_batch = 4;
  p.num_batches = 4;
  p.pool_slots = 2;
  p.per_image_compute = Duration::micros(120);
  return p;
}

uint64_t facever_payload_bytes() {
  const FaceVerifyParams p = facever_params();
  // Probe upload + database read (both one batch) + the verdict bytes.
  return 2 * p.image_bytes * p.images_per_batch + p.images_per_batch;
}

// One verify: a seeded batch, and a seeded share of tampered probes. FaceVerifyFractos
// resolves true iff every verdict is as expected, which for a tampered probe means image 0
// came back as a mismatch; anything else is a wrong output.
void issue_verify(FaceVerifyFractos& app, Rng& rng, Done done) {
  const uint32_t batch =
      static_cast<uint32_t>(rng.next_below(facever_params().num_batches));
  const bool tamper = rng.next_below(8) == 0;
  app.verify(batch, tamper).on_ready([done = std::move(done)](Result<bool>&& r) {
    Completion c;
    c.outcome = !r.ok() ? Outcome::kError : (r.value() ? Outcome::kOk : Outcome::kWrong);
    done(c);
  });
}

// --- facever ------------------------------------------------------------------------------

class Facever : public Deployment {
 public:
  Facever(uint64_t seed, HostSpans& spans) : rng_(client_rng(seed, 0)) {
    {
      HostSpans::Scope t(spans, "core", "system");
      sys_ = std::make_unique<System>();
      cluster_ = FaceVerifyCluster::build(sys_.get());
    }
    {
      HostSpans::Scope t(spans, "services", "app");
      app_ = std::make_unique<FaceVerifyFractos>(sys_.get(), &cluster_, Loc::kHost,
                                                 facever_params());
    }
    {
      HostSpans::Scope t(spans, "services", "ingest");
      app_->ingest_database();
    }
    HostSpans::Scope t(spans, "sim", "warmup");
    FRACTOS_CHECK(sys_->await_ok(app_->verify(0)));
  }

  System& sys() override { return *sys_; }
  uint32_t clients() const override { return 1; }
  uint32_t inflight() const override { return 8; }
  void issue(uint32_t, Done done) override { issue_verify(*app_, rng_, std::move(done)); }
  uint64_t payload_bytes() const override { return facever_payload_bytes(); }

 private:
  std::unique_ptr<System> sys_;
  FaceVerifyCluster cluster_;
  std::unique_ptr<FaceVerifyFractos> app_;
  Rng rng_;
};

// --- storage_rw ---------------------------------------------------------------------------

class StorageRw : public Deployment {
 public:
  static constexpr uint64_t kIo = 256 << 10;
  static constexpr uint64_t kFileBytes = 64ull << 20;
  static constexpr uint32_t kInflight = 4;
  static constexpr double kWriteShare = 0.3;

  StorageRw(uint64_t seed, HostSpans& spans)
      : rng_(client_rng(seed, 0)),
        shadow_(kFileBytes, 0),
        block_busy_(kFileBytes / kIo, 0) {
    Controller* cc = nullptr;
    Controller* cf = nullptr;
    Controller* cs = nullptr;
    uint32_t fn = 0;
    uint32_t sn = 0;
    {
      HostSpans::Scope t(spans, "core", "system");
      sys_ = std::make_unique<System>();
      const uint32_t cn = sys_->add_node("client");
      fn = sys_->add_node("fs");
      sn = sys_->add_node("storage");
      cc = &sys_->add_controller(cn, Loc::kHost);
      cf = &sys_->add_controller(fn, Loc::kHost);
      cs = &sys_->add_controller(sn, Loc::kHost);
      client_ = &sys_->spawn("client", cn, *cc, kInflight * kIo + (2 << 20));
    }
    {
      HostSpans::Scope t(spans, "devices", "nvme");
      nvme_ = std::make_unique<SimNvme>(&sys_->loop());
    }
    CapId create_ep = kInvalidCap;
    CapId open_ep = kInvalidCap;
    {
      HostSpans::Scope t(spans, "services", "fs");
      block_ = std::make_unique<BlockAdaptor>(sys_.get(), sn, *cs, nvme_.get());
      fs_ = FsService::bootstrap(sys_.get(), fn, *cf, block_->process(),
                                 block_->mgmt_endpoint());
    }
    {
      HostSpans::Scope t(spans, "core", "grant");
      create_ep = sys_->bootstrap_grant(fs_->process(), fs_->create_endpoint(), *client_).value();
      open_ep = sys_->bootstrap_grant(fs_->process(), fs_->open_endpoint(), *client_).value();
    }
    {
      HostSpans::Scope t(spans, "services", "open");
      FRACTOS_CHECK(sys_->await(FsClient::create(*client_, create_ep, "bench", kFileBytes)).ok());
      file_ = sys_->await_ok(FsClient::open(*client_, open_ep, "bench", /*rw=*/true,
                                            /*dax=*/false));
      for (uint32_t i = 0; i < kInflight; ++i) {
        Lane lane;
        lane.addr = client_->alloc(kIo);
        lane.mem = sys_->await_ok(client_->memory_create(lane.addr, kIo, Perms::kReadWrite));
        lane.stage.resize(kIo);
        lanes_.push_back(std::move(lane));
      }
    }
    HostSpans::Scope t(spans, "sim", "warmup");
    for (const Lane& lane : lanes_) {
      FRACTOS_CHECK(sys_->await(FsClient::read(*client_, file_, 0, kIo, lane.mem)).ok());
    }
  }

  System& sys() override { return *sys_; }
  uint32_t clients() const override { return 1; }
  uint32_t inflight() const override { return kInflight; }
  uint64_t payload_bytes() const override { return kIo; }

  void issue(uint32_t, Done done) override {
    size_t l = 0;
    while (lanes_[l].busy) {
      ++l;
    }
    Lane& lane = lanes_[l];
    lane.busy = true;
    const bool write = rng_.next_double() < kWriteShare;
    // In-flight I/Os never overlap, so each read has exactly one correct answer.
    uint64_t block;
    do {
      block = rng_.next_below(block_busy_.size());
    } while (block_busy_[block] != 0);
    block_busy_[block] = 1;
    const uint64_t off = block * kIo;

    if (write) {
      // Seeded pattern, distinct per write: stamp + word index * golden ratio.
      const uint64_t stamp = rng_.next_u64();
      for (uint64_t w = 0; w < kIo / 8; ++w) {
        const uint64_t v = stamp + w * 0x9e3779b97f4a7c15ULL;
        std::memcpy(lane.stage.data() + w * 8, &v, 8);
      }
      client_->write_mem(lane.addr, lane.stage);
      FsClient::write(*client_, file_, off, kIo, lane.mem)
          .on_ready([this, l, block, off, done = std::move(done)](Status st) {
            Lane& ln = lanes_[l];
            if (st.ok()) {
              std::memcpy(shadow_.data() + off, ln.stage.data(), kIo);
            }
            ln.busy = false;
            block_busy_[block] = 0;
            done(Completion{OpClass::kWrite, st.ok() ? Outcome::kOk : Outcome::kError});
          });
      return;
    }
    FsClient::read(*client_, file_, off, kIo, lane.mem)
        .on_ready([this, l, block, off, done = std::move(done)](Status st) {
          Lane& ln = lanes_[l];
          Completion c{OpClass::kRead, Outcome::kError};
          if (st.ok()) {
            const std::vector<uint8_t> got = client_->read_mem(ln.addr, kIo);
            c.outcome = std::memcmp(got.data(), shadow_.data() + off, kIo) == 0
                            ? Outcome::kOk
                            : Outcome::kWrong;
          }
          ln.busy = false;
          block_busy_[block] = 0;
          done(c);
        });
  }

 private:
  struct Lane {
    uint64_t addr = 0;
    CapId mem = kInvalidCap;
    std::vector<uint8_t> stage;
    bool busy = false;
  };

  std::unique_ptr<System> sys_;
  std::unique_ptr<SimNvme> nvme_;
  std::unique_ptr<BlockAdaptor> block_;
  std::unique_ptr<FsService> fs_;
  Process* client_ = nullptr;
  FsClient::OpenFile file_;
  std::vector<Lane> lanes_;
  Rng rng_;
  std::vector<uint8_t> shadow_;      // expected file contents
  std::vector<uint8_t> block_busy_;  // 1 while an I/O on that block is in flight
};

// --- fattree1024 --------------------------------------------------------------------------

class FatTree1024 : public Deployment {
 public:
  static constexpr uint32_t kPods = 256;  // 1024 nodes
  static constexpr uint32_t kRacks = 4;

  FatTree1024(uint64_t seed, uint32_t shards, HostSpans& spans) {
    {
      HostSpans::Scope t(spans, "core", "system");
      SystemConfig cfg;
      // 16 spines: with 2, a 256-node rack would be 128:1 oversubscribed (bench_scaleout).
      cfg.topology = TopologySpec::fat_tree(kPods, 16);
      cfg.engine_shards = shards;
      cfg.engine_racks = kRacks;
      cfg.lazy_controller_mesh = true;
      sys_ = std::make_unique<System>(cfg);
      // Node ids fix rack placement: all frontends in rack 0, FS in 1, storage in 2, GPU in 3.
      for (const char* role : {"frontend", "fs", "storage", "gpu"}) {
        for (uint32_t p = 0; p < kPods; ++p) {
          sys_->add_node(std::string(role) + std::to_string(p));
        }
      }
    }
    {
      HostSpans::Scope t(spans, "devices", "cluster");
      for (uint32_t p = 0; p < kPods; ++p) {
        auto c = std::make_unique<FaceVerifyCluster>();
        c->frontend_node = p;
        c->fs_node = kPods + p;
        c->storage_node = 2 * kPods + p;
        c->gpu_node = 3 * kPods + p;
        c->nvme = std::make_unique<SimNvme>(&sys_->loop());
        c->gpu = std::make_unique<SimGpu>(&sys_->net(), c->gpu_node);
        clusters_.push_back(std::move(c));
        rngs_.push_back(client_rng(seed, p));
      }
    }
    {
      HostSpans::Scope t(spans, "services", "app");
      for (uint32_t p = 0; p < kPods; ++p) {
        apps_.push_back(std::make_unique<FaceVerifyFractos>(sys_.get(), clusters_[p].get(),
                                                            Loc::kHost, facever_params()));
      }
    }
    {
      HostSpans::Scope t(spans, "services", "ingest");
      for (auto& app : apps_) {
        app->ingest_database();
      }
    }
    HostSpans::Scope t(spans, "sim", "warmup");
    for (auto& app : apps_) {
      FRACTOS_CHECK(sys_->await_ok(app->verify(0)));
    }
  }

  System& sys() override { return *sys_; }
  uint32_t clients() const override { return kPods; }
  uint32_t inflight() const override { return 2; }
  void issue(uint32_t pod, Done done) override {
    issue_verify(*apps_[pod], rngs_[pod], std::move(done));
  }
  uint64_t payload_bytes() const override { return facever_payload_bytes(); }

 private:
  std::unique_ptr<System> sys_;
  std::vector<std::unique_ptr<FaceVerifyCluster>> clusters_;
  std::vector<std::unique_ptr<FaceVerifyFractos>> apps_;
  std::vector<Rng> rngs_;
};

const WorkloadSpec kWorkloads[] = {
    {.name = "facever", .reps = 10, .requests_per_second = 4000, .min_requests = 2000,
     .traced_requests = 2000, .sharded = false, .think_mean_ns = 200000},
    // Repetitions of 16500 I/Os at 15 s: long enough that host time per I/O shows its growth
    // with run length (capability spaces only grow).
    {.name = "storage_rw", .reps = 3, .requests_per_second = 3300, .min_requests = 2000,
     .traced_requests = 3500, .sharded = false, .think_mean_ns = 0},
    {.name = "fattree1024", .reps = 3, .requests_per_second = 2050, .min_requests = 1024,
     .traced_requests = 1024, .sharded = true, .think_mean_ns = 0},
};

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

uint32_t default_shards(const WorkloadSpec& spec) {
  if (!spec.sharded) {
    return 1;
  }
  return std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::unique_ptr<Deployment> build_deployment(const WorkloadSpec& spec, uint64_t seed,
                                             uint32_t shards, HostSpans& spans) {
  const std::string name = spec.name;
  if (name == "facever") {
    return std::make_unique<Facever>(seed, spans);
  }
  if (name == "storage_rw") {
    return std::make_unique<StorageRw>(seed, spans);
  }
  return std::make_unique<FatTree1024>(seed, shards, spans);
}

}  // namespace perfbench
