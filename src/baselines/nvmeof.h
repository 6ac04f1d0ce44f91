// NVMe-over-Fabrics model: the disaggregation technology the paper's storage baselines use
// (Table 2 / Section 6.4 "Disaggregated Baseline", Section 6.5 baseline).
//
// Target: co-located with the SSD, hardware-accelerated command processing (the paper calls
// the real thing "existing hardware-accelerated NVMe-oF" — per-command cost is small and
// there is no user-level software on the data path).
// Initiator: the in-kernel driver on the consuming node; one round trip per command, data
// rides the fabric at line rate. Wrap it in a PageCache to get the Linux block-cache
// behaviour of the baselines.

#ifndef SRC_BASELINES_NVMEOF_H_
#define SRC_BASELINES_NVMEOF_H_

#include <memory>
#include <unordered_map>

#include "src/baselines/block_device.h"
#include "src/fabric/queue_pair.h"
#include "src/sim/inline_fn.h"

namespace fractos {

class NvmeofTarget {
 public:
  struct Params {
    // Per-command processing at the target (hardware-offloaded).
    Duration command_cost = Duration::micros(2.0);
  };

  NvmeofTarget(Network* net, uint32_t node, SimNvme* nvme);
  NvmeofTarget(Network* net, uint32_t node, SimNvme* nvme, Params params);

  uint32_t node() const { return node_; }
  SimNvme& nvme() { return *nvme_; }

  // Wires a new initiator connection; called by NvmeofInitiator.
  QueuePair& accept(Endpoint initiator_ep);

 private:
  void on_command(QueuePair* qp, const Payload& bytes);

  Network* net_;
  uint32_t node_;
  SimNvme* nvme_;
  Params params_;
  std::vector<std::unique_ptr<QueuePair>> connections_;
};

// The initiator IS a BlockDevice: the kernel presents the remote namespace as a local disk.
class NvmeofInitiator : public BlockDevice {
 public:
  NvmeofInitiator(Network* net, uint32_t node, NvmeofTarget* target);

  void read(uint64_t off, uint64_t size, InlineFn<void(Result<Payload>)> done) override;
  void write(uint64_t off, Payload data, InlineFn<void(Status)> done) override;
  uint64_t capacity() const override { return target_->nvme().capacity(); }

 private:
  void on_completion(const Payload& bytes);

  Network* net_;
  NvmeofTarget* target_;
  QueuePair qp_;
  uint64_t next_seq_ = 1;
  std::unordered_map<uint64_t, InlineFn<void(Result<Payload>)>> pending_;
};

}  // namespace fractos

#endif  // SRC_BASELINES_NVMEOF_H_
