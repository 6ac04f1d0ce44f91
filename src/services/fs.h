// The file-system service: the upper tier of the paper's two-tier storage stack (Section 5).
//
// "We implement a simple FS layer ... The FS Process exposes Requests to open extent-based
// files. A successful completion returns Requests to read/write the file contents.
// Internally, the FS uses one logical volume in the block device for each file extent."
//
// Two modes (Fig. 4):
//  * FS mode: every read/write is mediated by the FS Process — block-device I/O lands in FS
//    staging memory and is then copied to/from the client's Memory capability (two network
//    data transfers, the red path).
//  * DAX mode: on open, the FS hands the client revocation-tree CHILDREN of the block
//    adaptor's per-volume Requests — filtered by the open mode's permissions — so the client
//    talks to the block device directly (one transfer, the green path), without the FS giving
//    up the ability to revoke on close/unlink. This is the dynamic service composition the
//    paper cuts the disaggregation tax with.
//
// Request conventions:
//   create: imm@0 u64 size, imm@8 name, caps=[reply].    reply: imm@0 status
//   open:   imm@0 u64 mode (0 RO / 1 RW), imm@8 u64 dax (0/1), imm@16 name, caps=[reply].
//           reply: imm@0 status, imm@8 file_size, imm@16 extent_bytes,
//                  imm@24 n_read_eps, imm@32 n_write_eps,
//                  caps = [close_ep, read endpoints..., write endpoints...]
//           (FS mode: one fs_read / fs_write endpoint; DAX: one per extent.)
//   fs_read / fs_write (per open): imm@0 u64 off, imm@8 u64 size,
//           caps = [client Memory, continuation] or [mem, continuation, error].
//   close (per open): caps=[reply]. FS mode: revokes the per-open endpoints. DAX: drops a
//           reference; the cached extent children are revoked when the last open closes.
//   unlink: imm@0 name, caps=[reply]. Destroys the file's volumes (the block adaptor revokes
//           the per-volume endpoints, killing every outstanding DAX capability).

#ifndef SRC_SERVICES_FS_H_
#define SRC_SERVICES_FS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/system.h"
#include "src/futures/slot_pool.h"
#include "src/futures/stream.h"
#include "src/services/block_adaptor.h"
#include "src/sim/inline_fn.h"

namespace fractos {

class FsService {
 public:
  struct Params {
    uint64_t extent_bytes = 4ull << 20;  // one block-device volume per extent
    uint32_t staging_slots = 8;
    uint64_t slot_bytes = 2ull << 20;
  };

  // Spawns the FS Process on `node`; `block_mgmt_ep` must already be installed in ITS
  // capability space (use FsService::bootstrap to wire it).
  static std::unique_ptr<FsService> bootstrap(System* sys, uint32_t node, Controller& controller,
                                              Process& block_proc, CapId block_mgmt_ep);
  static std::unique_ptr<FsService> bootstrap(System* sys, uint32_t node, Controller& controller,
                                              Process& block_proc, CapId block_mgmt_ep,
                                              Params params);
  // Fails in-flight chunks and queued slot acquires with kAborted, in a controlled order.
  ~FsService();

  Process& process() { return *proc_; }
  CapId create_endpoint() const { return create_ep_; }
  CapId open_endpoint() const { return open_ep_; }
  CapId unlink_endpoint() const { return unlink_ep_; }
  size_t num_files() const { return files_.size(); }

 private:
  struct File {
    uint64_t size = 0;
    std::vector<BlockClient::Volume> extents;
    // Cached DAX revocation-tree children (created lazily, shared across opens, refcounted).
    std::vector<CapId> dax_read;
    std::vector<CapId> dax_write;
    uint32_t dax_refs = 0;
  };
  struct Open {
    std::string name;
    bool rw = false;
    bool dax = false;
    CapId read_ep = kInvalidCap;   // FS mode
    CapId write_ep = kInvalidCap;  // FS mode (RW only)
    CapId close_ep = kInvalidCap;
  };
  // A staging slot with its own block-RPC completion endpoints (created once; the per-slot
  // `pending` promise routes completions to the chunk currently using the slot).
  struct Slot {
    uint64_t addr = 0;
    CapId mem = kInvalidCap;
    CapId ok_ep = kInvalidCap;
    CapId err_ep = kInvalidCap;
    std::optional<Promise<Status>> pending;
  };

  FsService(System* sys, uint32_t node, Controller& controller, Params params);
  void init_endpoints(CapId block_mgmt);

  void handle_create(Process::Received r);
  void create_extents(File file, const std::string& name, uint64_t size, uint64_t n_extents,
                      uint64_t i, CapId reply);
  void handle_open(Process::Received r);
  void handle_unlink(Process::Received r);
  void destroy_extents(std::vector<BlockClient::Volume> extents, size_t i, CapId reply);
  void handle_io(uint32_t open_id, bool is_write, Process::Received r);
  void handle_close(uint32_t open_id, Process::Received r);

  void open_fs_mode(const std::string& name, File& f, bool rw, CapId reply);
  void open_dax_mode(const std::string& name, File& f, bool rw, CapId reply);
  void reply_open(const File& f, CapId close_ep, std::vector<CapId> read_eps,
                  std::vector<CapId> write_eps, CapId reply);

  // Completes the slot's pending promise (if any) with `s`.
  void finish_slot(size_t slot, Status s);
  // Sends a block read/write of `len` bytes at extent offset `eoff` through slot `slot_idx`;
  // `done` runs with the adaptor's completion, or with the error of a rejected invoke.
  void block_rpc(size_t slot_idx, CapId ep, uint64_t eoff, uint64_t len,
                 InlineFn<void(Status)> done);
  void fail_op(const Process::Received& r, ErrorCode code);

  // Moves one chunk of a streamed FS-mode I/O through staging slot `slot_idx`.
  void run_chunk(std::shared_ptr<struct FsIo> io, const Stream::Chunk& c, size_t slot_idx);

  System* sys_;
  Process* proc_;
  Params params_;
  CapId block_mgmt_ = kInvalidCap;
  CapId create_ep_ = kInvalidCap;
  CapId open_ep_ = kInvalidCap;
  CapId unlink_ep_ = kInvalidCap;
  std::unordered_map<std::string, File> files_;
  std::unordered_map<uint32_t, Open> opens_;
  uint32_t next_open_ = 1;
  // Declared before slots_ so teardown closes the pool before any Slot state goes away.
  SlotPool slot_pool_;
  std::vector<Slot> slots_;
};

// Client-side helpers.
struct FsClient {
  struct OpenFile {
    bool dax = false;
    bool rw = false;
    uint64_t size = 0;
    uint64_t extent_bytes = 0;
    CapId close_ep = kInvalidCap;
    std::vector<CapId> read_eps;   // FS mode: [fs_read]; DAX: per extent
    std::vector<CapId> write_eps;  // FS mode: [fs_write] (RW); DAX: per extent (RW)
  };

  static Future<Status> create(Process& proc, CapId create_ep, const std::string& name,
                               uint64_t size);
  static Future<Result<OpenFile>> open(Process& proc, CapId open_ep, const std::string& name,
                                       bool rw, bool dax);
  // Synchronous reads/writes against `mem` (sized >= `size`); handles DAX extent spanning.
  static Future<Status> read(Process& proc, const OpenFile& f, uint64_t off, uint64_t size,
                             CapId mem);
  static Future<Status> write(Process& proc, const OpenFile& f, uint64_t off, uint64_t size,
                              CapId mem);
  static Future<Status> close(Process& proc, const OpenFile& f);
  static Future<Status> unlink(Process& proc, CapId unlink_ep, const std::string& name);
};

}  // namespace fractos

#endif  // SRC_SERVICES_FS_H_
