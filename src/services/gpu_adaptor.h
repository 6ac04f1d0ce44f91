// The GPU adaptor: exposes a disaggregated GPU as a FractOS service (Section 5).
//
// "The GPU adaptor runs on the host CPU, using the OS GPU driver, and offers several RPCs
// exposed through Requests: GPU context initialization, memory de/allocation, kernel loading,
// kernel invocation, and cleanup."
//
// Request conventions (all replies/continuations follow the last-capability convention):
//
//   init:     caps = [reply].             reply: caps = [alloc_ep, load_ep, cleanup_ep]
//   alloc:    imm@0 u64 size, caps = [reply].
//             reply: imm@0 u64 device_addr, caps = [Memory cap over the GPU buffer]
//   load:     imm@0 kernel name, caps = [reply].  reply: caps = [kernel invoke endpoint]
//   invoke:   imms  = packed u64 kernel arguments (forwarded to the kernel, paper: "all
//             other immediate arguments are forwarded to the GPU kernel itself");
//             caps  = zero or one (src, dst) Memory pairs to copy after completion (the
//             result copy-back of the face-verification pipeline), then [success, error]
//             Requests ("the GPU-kernel invocation Requests expect two Request arguments
//             used to signal success/error of the kernel invocation").
//   cleanup:  caps = [reply]. Destroys the context, frees device memory, and REVOKES every
//             capability the context handed out (delegated copies die with them).

#ifndef SRC_SERVICES_GPU_ADAPTOR_H_
#define SRC_SERVICES_GPU_ADAPTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/system.h"
#include "src/devices/gpu.h"

namespace fractos {

class GpuAdaptor {
 public:
  // Spawns the adaptor Process on the GPU's node, attached to `controller`.
  GpuAdaptor(System* sys, Controller& controller, SimGpu* gpu);

  Process& process() { return *proc_; }
  CapId init_endpoint() const { return init_ep_; }
  SimGpu& gpu() { return *gpu_; }

  // Host-side kernel registry (stands for the CUDA module the driver would load). The kernel
  // is loaded into the GPU once, here; each context's load request hands out an endpoint
  // that launches it.
  void register_kernel(const std::string& name, SimGpu::Kernel kernel);

  size_t num_contexts() const { return contexts_.size(); }

 private:
  struct Context {
    SimGpu::ContextId gpu_ctx = 0;
    CapId alloc_ep = kInvalidCap;
    CapId load_ep = kInvalidCap;
    CapId cleanup_ep = kInvalidCap;
    std::vector<CapId> handed_out;  // memory + kernel caps to revoke on cleanup
    std::vector<uint64_t> buffers;  // device addresses to free
  };

  void handle_init(Process::Received r);
  void handle_alloc(uint32_t ctx_id, Process::Received r);
  void handle_load(uint32_t ctx_id, Process::Received r);
  void handle_invoke(uint32_t ctx_id, SimGpu::KernelId kernel, Process::Received r);
  // Result copy-back after a launch: copies the (src, dst) pairs mems[i], mems[i + 1], ...
  // in order, then invokes `success`; the first failed copy invokes `error` instead.
  void copy_back(std::vector<CapId> mems, size_t i, CapId success, CapId error);
  void handle_cleanup(uint32_t ctx_id, Process::Received r);

  System* sys_;
  Process* proc_;
  SimGpu* gpu_;
  CapId init_ep_ = kInvalidCap;
  std::unordered_map<std::string, SimGpu::KernelId> kernel_registry_;
  std::unordered_map<uint32_t, Context> contexts_;
  uint32_t next_ctx_ = 1;
};

// Client-side helpers wrapping the adaptor's wire conventions.
struct GpuClient {
  struct Session {
    CapId alloc_ep = kInvalidCap;
    CapId load_ep = kInvalidCap;
    CapId cleanup_ep = kInvalidCap;
  };
  struct Buffer {
    CapId mem = kInvalidCap;
    uint64_t device_addr = 0;
    uint64_t size = 0;
  };

  static Future<Result<Session>> init(Process& proc, CapId init_ep);
  static Future<Result<Buffer>> alloc(Process& proc, const Session& s, uint64_t size);
  static Future<Result<CapId>> load(Process& proc, const Session& s, const std::string& name);
  // Synchronous kernel run: creates one-shot success/error endpoints and resolves when one
  // fires. `copy` optionally appends a (src, dst) result copy-back pair.
  static Future<Status> run(Process& proc, CapId kernel_ep, const std::vector<uint64_t>& args,
                            CapId copy_src = kInvalidCap, CapId copy_dst = kInvalidCap);
  static Future<Status> cleanup(Process& proc, const Session& s);

  // Packs u64 kernel arguments into the invoke imm layout.
  static Process::Args pack_args(const std::vector<uint64_t>& args);
};

}  // namespace fractos

#endif  // SRC_SERVICES_GPU_ADAPTOR_H_
