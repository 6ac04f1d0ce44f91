// Baseline file-system service: the same client-facing FractOS FS interface as FsService's
// FS mode (so FsClient works unchanged), but backed by a conventional BlockDevice — a remote
// NVMe-oF namespace behind the Linux page cache ("Disaggregated Baseline", Section 6.4) or a
// directly attached NVMe ("Local Baseline").
//
// There is deliberately NO DAX mode here: a kernel block device cannot delegate authority
// over sub-ranges to third parties — that composition is exactly what FractOS adds.

#ifndef SRC_BASELINES_BASELINE_FS_H_
#define SRC_BASELINES_BASELINE_FS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/baselines/block_device.h"
#include "src/core/system.h"
#include "src/futures/slot_pool.h"
#include "src/futures/stream.h"

namespace fractos {

class BaselineFs {
 public:
  struct Params {
    uint64_t extent_bytes = 4ull << 20;
    uint32_t staging_slots = 8;
    uint64_t slot_bytes = 2ull << 20;
  };

  BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device);
  BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device,
             Params params);

  Process& process() { return *proc_; }
  CapId create_endpoint() const { return create_ep_; }
  CapId open_endpoint() const { return open_ep_; }

 private:
  struct File {
    uint64_t size = 0;
    uint64_t base = 0;  // contiguous region on the device (bump-allocated)
  };
  struct Open {
    std::string name;
    bool rw = false;
    CapId read_ep = kInvalidCap;
    CapId write_ep = kInvalidCap;
    CapId close_ep = kInvalidCap;
  };
  struct Slot {
    uint64_t addr = 0;
    CapId mem = kInvalidCap;
  };

  void handle_create(Process::Received r);
  void handle_open(Process::Received r);
  void handle_io(uint32_t open_id, bool is_write, Process::Received r);
  void handle_close(uint32_t open_id, Process::Received r);
  void fail_op(const Process::Received& r, ErrorCode code);
  // Moves one chunk of a streamed I/O through staging slot `slot_idx`.
  void run_chunk(std::shared_ptr<struct BaselineIo> io, const Stream::Chunk& c, size_t slot_idx);

  System* sys_;
  Process* proc_;
  BlockDevice* device_;
  Params params_;
  CapId create_ep_ = kInvalidCap;
  CapId open_ep_ = kInvalidCap;
  std::unordered_map<std::string, File> files_;
  std::unordered_map<uint32_t, Open> opens_;
  uint32_t next_open_ = 1;
  uint64_t next_base_ = 0;
  SlotPool slot_pool_;
  std::vector<Slot> slots_;
};

}  // namespace fractos

#endif  // SRC_BASELINES_BASELINE_FS_H_
