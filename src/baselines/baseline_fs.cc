#include "src/baselines/baseline_fs.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"

namespace fractos {

// I/O is streamed like the kernel block layer does: chunks of at most kStreamChunk bytes,
// kStreamWindow in flight (each holding one staging slot).
constexpr uint64_t kStreamChunk = 256ull << 10;
constexpr uint32_t kStreamWindow = 2;

// What the chunks of one baseline-FS I/O share.
struct BaselineIo {
  bool is_write = false;
  uint64_t dev_off = 0;  // device offset of the op's first byte
  CapId mem = kInvalidCap;
  // Stage-1 legs (device side) run one at a time within an op so chunk completions stagger
  // and the client-side leg overlaps the next chunk's device leg.
  SlotPool stage1{1};
};

BaselineFs::BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device)
    : BaselineFs(sys, node, controller, device, Params{}) {}

BaselineFs::BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device,
                       Params params)
    : sys_(sys), device_(device), params_(params), slot_pool_(params.staging_slots) {
  const uint64_t heap = params_.staging_slots * params_.slot_bytes + (1 << 20);
  proc_ = &sys->spawn("baseline-fs", node, controller, heap);
  slots_.resize(params_.staging_slots);
  for (uint32_t i = 0; i < params_.staging_slots; ++i) {
    Slot& slot = slots_[i];
    slot.addr = proc_->alloc(params_.slot_bytes);
    slot.mem =
        sys->await_ok(proc_->memory_create(slot.addr, params_.slot_bytes, Perms::kReadWrite));
  }
  create_ep_ = sys->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_create(std::move(r));
  }));
  open_ep_ = sys->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_open(std::move(r));
  }));
}

void BaselineFs::fail_op(const Process::Received& r, ErrorCode code) {
  std::vector<CapId> reqs;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kRequest) {
      reqs.push_back(c.cid);
    }
  }
  if (reqs.size() >= 2) {
    proc_->request_invoke(reqs[1], Process::Args{}.imm_u64(0, static_cast<uint64_t>(code)));
  }
}

void BaselineFs::handle_create(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const uint64_t size = r.imm_u64(0).value_or(0);
  auto name = r.imm_str(8);
  const uint64_t aligned = (size + 4095) & ~4095ull;
  if (!name.has_value() || size == 0 || files_.contains(*name) ||
      next_base_ + aligned > device_->capacity()) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  files_[*name] = File{size, next_base_};
  next_base_ += aligned;
  proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
}

void BaselineFs::handle_open(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const bool rw = r.imm_u64(0).value_or(0) != 0;
  // imm@8 is the dax flag in the FsService convention; the baseline cannot do DAX.
  auto name = r.imm_str(16);
  auto fit = name.has_value() ? files_.find(*name) : files_.end();
  if (fit == files_.end() || r.imm_u64(8).value_or(0) != 0) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  const uint32_t open_id = next_open_++;
  std::vector<Future<Result<CapId>>> eps;
  eps.push_back(proc_->serve({}, [this, open_id](Process::Received rr) {
    handle_io(open_id, /*is_write=*/false, std::move(rr));
  }));
  if (rw) {
    eps.push_back(proc_->serve({}, [this, open_id](Process::Received rr) {
      handle_io(open_id, /*is_write=*/true, std::move(rr));
    }));
  }
  eps.push_back(proc_->serve({}, [this, open_id](Process::Received rr) {
    handle_close(open_id, std::move(rr));
  }));
  const std::string fname = *name;
  when_all(std::move(eps)).on_ready([this, open_id, fname, rw, reply](
                                        std::vector<Result<CapId>>&& cids) {
    auto fit2 = files_.find(fname);
    if (fit2 == files_.end()) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
      return;
    }
    for (const auto& c : cids) {
      if (!c.ok()) {
        proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
        return;
      }
    }
    Open o;
    o.name = fname;
    o.rw = rw;
    o.read_ep = cids[0].value();
    o.write_ep = rw ? cids[1].value() : kInvalidCap;
    o.close_ep = cids.back().value();
    opens_[open_id] = o;
    Process::Args args;
    args.imm_u64(0, 0)
        .imm_u64(8, fit2->second.size)
        .imm_u64(16, params_.extent_bytes)
        .imm_u64(24, 1)
        .imm_u64(32, rw ? 1 : 0)
        .cap(o.close_ep)
        .cap(o.read_ep);
    if (rw) {
      args.cap(o.write_ep);
    }
    proc_->request_invoke(reply, std::move(args));
  });
}

void BaselineFs::handle_io(uint32_t open_id, bool is_write, Process::Received r) {
  auto oit = opens_.find(open_id);
  if (oit == opens_.end()) {
    fail_op(r, ErrorCode::kRevoked);
    return;
  }
  const Open& o = oit->second;
  auto fit = files_.find(o.name);
  if (fit == files_.end() || (is_write && !o.rw)) {
    fail_op(r, ErrorCode::kPermissionDenied);
    return;
  }
  const File& f = fit->second;
  const uint64_t off = r.imm_u64(0).value_or(~0ull);
  const uint64_t size = r.imm_u64(8).value_or(0);
  CapId mem = kInvalidCap;
  uint64_t mem_size = 0;
  CapId cont = kInvalidCap;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kMemory && mem == kInvalidCap) {
      mem = c.cid;
      mem_size = c.mem_size;
    } else if (c.kind == ObjectKind::kRequest && cont == kInvalidCap) {
      cont = c.cid;
    }
  }
  if (mem == kInvalidCap || cont == kInvalidCap || size == 0 || off + size > f.size ||
      mem_size < size) {
    fail_op(r, ErrorCode::kInvalidArgument);
    return;
  }
  CapId err = kInvalidCap;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kRequest && c.cid != cont) {
      err = c.cid;
      break;
    }
  }
  auto io = std::make_shared<BaselineIo>();
  io->is_write = is_write;
  io->dev_off = f.base + off;
  io->mem = mem;
  Stream::run(
      {.total = size, .chunk = std::min(params_.slot_bytes, kStreamChunk), .window = kStreamWindow},
      [this, io](const Stream::Chunk& c) {
        slot_pool_.acquire()
            .and_then([this, io, c](size_t slot) { run_chunk(io, c, slot); })
            .or_else([c](ErrorCode e) { c.done(e); });
      },
      [this, cont, err](Status s) {
        if (s.ok()) {
          proc_->request_invoke(cont);
        } else if (err != kInvalidCap) {
          proc_->request_invoke(err, Process::Args{}.imm_u64(0, static_cast<uint64_t>(s.error())));
        }
      });
}

void BaselineFs::run_chunk(std::shared_ptr<BaselineIo> io, const Stream::Chunk& c,
                           size_t slot_idx) {
  auto chunk_finished = [this, slot_idx, c](Status s) {
    slot_pool_.release(slot_idx);
    c.done(s);
  };
  const uint64_t dev_off = io->dev_off + c.offset();

  if (io->is_write) {
    io->stage1.acquire().and_then([this, io, slot_idx, dev_off, c, chunk_finished](size_t) {
      proc_->memory_copy(io->mem, slots_[slot_idx].mem, c.length(), c.offset(), 0)
          .on_ready([this, io, slot_idx, dev_off, c, chunk_finished](Status cs) {
            io->stage1.release(0);
            if (!cs.ok()) {
              chunk_finished(cs);
              return;
            }
            device_->write(dev_off, proc_->read_mem(slots_[slot_idx].addr, c.length()),
                           [chunk_finished](Status ws) { chunk_finished(ws); });
          });
    });
    return;
  }

  io->stage1.acquire().and_then([this, io, slot_idx, dev_off, c, chunk_finished](size_t) {
    device_->read(dev_off, c.length(), [this, io, slot_idx, c, chunk_finished](
                                           Result<Payload> data) {
      io->stage1.release(0);
      if (!data.ok()) {
        chunk_finished(data.error());
        return;
      }
      proc_->write_mem(slots_[slot_idx].addr, data.value().bytes());
      proc_->memory_copy(slots_[slot_idx].mem, io->mem, c.length(), 0, c.offset())
          .on_ready([chunk_finished](Status cs) { chunk_finished(cs); });
    });
  });
}

void BaselineFs::handle_close(uint32_t open_id, Process::Received r) {
  const CapId reply = r.num_caps() >= 1 ? r.cap(r.num_caps() - 1) : kInvalidCap;
  auto oit = opens_.find(open_id);
  if (oit == opens_.end()) {
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    }
    return;
  }
  const Open o = oit->second;
  opens_.erase(oit);
  proc_->remove_endpoint(o.read_ep);
  std::vector<Future<Status>> revokes;
  revokes.push_back(proc_->cap_revoke(o.read_ep));
  if (o.write_ep != kInvalidCap) {
    proc_->remove_endpoint(o.write_ep);
    revokes.push_back(proc_->cap_revoke(o.write_ep));
  }
  proc_->remove_endpoint(o.close_ep);
  when_all(std::move(revokes)).on_ready([this, o, reply](std::vector<Status>&&) {
    proc_->cap_revoke(o.close_ep);
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
    }
  });
}

}  // namespace fractos
