// The benchmark's three FractOS deployments, each driven closed loop from one process.
//
//   facever     — face verification on the 4-node single-switch cluster (frontend, FS, block
//                 adaptor + NVMe, GPU adaptor), host Controllers, 8 requests in flight.
//                 Control-plane heavy: every request is a chain of syscalls, capability
//                 translations and request_invoke continuations across 4 Controllers.
//   storage_rw  — FS-mode (non-DAX) random 256 KiB I/O on the 3-node cluster (client, FS,
//                 storage), 70% reads / 30% writes, 4 in flight. Payload heavy: the
//                 Controller bounce copy, the BlockAdaptor pump and FsService::run_chunk carry
//                 every byte, reads and writes in opposite directions.
//   fattree1024 — 256 four-node face-verify pods striped over the 4 racks of a 16-spine fat
//                 tree, lazy Controller mesh, sharded engine, 2 in flight per pod. The only
//                 workload where set-up, memory, switch queueing and the sharded engine weigh.
//
// Every input (batch choice, tamper probes, read/write mix, offsets, write patterns) is drawn
// from the seed, so one seed always yields the same simulated run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "perfbench/host_spans.h"
#include "src/core/system.h"

namespace perfbench {

enum class Outcome : uint8_t {
  kOk = 0,
  kError = 1,  // the system returned an error code (counts toward the error rate)
  kWrong = 2,  // the system returned a wrong result (fails the run)
};

// Request classes; only storage_rw issues writes.
enum class OpClass : uint8_t { kRead = 0, kWrite = 1 };

struct Completion {
  OpClass op = OpClass::kRead;
  Outcome outcome = Outcome::kOk;
};

using Done = std::function<void(Completion)>;

class Deployment {
 public:
  virtual ~Deployment() = default;

  virtual fractos::System& sys() = 0;

  // Closed-loop shape: `clients()` clients each keep `inflight()` requests outstanding.
  virtual uint32_t clients() const = 0;
  virtual uint32_t inflight() const = 0;

  // Starts the next request of `client`; `done` runs exactly once, in simulated time.
  virtual void issue(uint32_t client, Done done) = 0;

  // Application payload bytes one request moves (the base of copy amplification).
  virtual uint64_t payload_bytes() const = 0;
};

struct WorkloadSpec {
  const char* name;
  // Repetitions of the untraced run (set-up + measured pass) per invocation; host metrics are
  // their medians.
  uint32_t reps;
  // Requests measured per `--seconds`, over all repetitions: about the untraced request rate
  // of this workload on the reference machine (4-core x86 VM at 2.1 GHz, Release build), so
  // the measured passes last about `--seconds` there. A fixed function of the arguments, never
  // of the host's speed, so the simulated results depend only on (seed, seconds).
  double requests_per_second;
  // Floor on requests per pass: at least ten samples beyond p99 for any --seconds.
  uint64_t min_requests;
  // Requests in the traced run (and its untraced twin). fold_tax scans a whole tracer per
  // request, so the traced run is kept short; it is still long enough for a p99 exemplar.
  uint64_t traced_requests;
  bool sharded;
  // Mean of the seeded exponential think time a client waits between a completion and its
  // next request (0: none). A closed loop of identical requests without it settles into a
  // periodic schedule in which every request has the same latency whatever the seed.
  int64_t think_mean_ns;
};

// nullptr for an unknown workload name.
const WorkloadSpec* find_workload(const std::string& name);

// Engine shards the workload runs on at full speed (1 for unsharded workloads).
uint32_t default_shards(const WorkloadSpec& spec);

// Builds a deployment up to (and including) its warm-up requests, recording host spans per
// layer. `shards` only matters for sharded workloads.
std::unique_ptr<Deployment> build_deployment(const WorkloadSpec& spec, uint64_t seed,
                                             uint32_t shards, HostSpans& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
