#include "src/services/block_adaptor.h"

#include <utility>

#include "src/base/assert.h"
#include "src/futures/stream.h"

namespace fractos {

BlockAdaptor::BlockAdaptor(System* sys, uint32_t node, Controller& controller, SimNvme* nvme)
    : BlockAdaptor(sys, node, controller, nvme, Params{}) {}

BlockAdaptor::BlockAdaptor(System* sys, uint32_t node, Controller& controller, SimNvme* nvme,
                           Params params)
    : sys_(sys), nvme_(nvme), params_(params), slot_pool_(params.staging_slots) {
  const uint64_t heap = params_.staging_slots * params_.slot_bytes + (1 << 20);
  proc_ = &sys->spawn("block-adaptor", node, controller, heap);
  for (uint32_t i = 0; i < params_.staging_slots; ++i) {
    Slot slot;
    slot.idx = i;
    slot.addr = proc_->alloc(params_.slot_bytes);
    slot.mem =
        sys->await_ok(proc_->memory_create(slot.addr, params_.slot_bytes, Perms::kReadWrite));
    slots_.push_back(slot);
  }
  mgmt_ep_ = sys->await_ok(proc_->serve({}, [this](Process::Received r) {
    handle_mgmt(std::move(r));
  }));
}

void BlockAdaptor::fail_op(const Process::Received& r, ErrorCode code) {
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

void BlockAdaptor::handle_mgmt(Process::Received r) {
  if (r.num_caps() < 1) {
    return;
  }
  const CapId reply = r.cap(r.num_caps() - 1);
  const uint64_t size = r.imm_u64(0).value_or(0);
  const uint64_t aligned = (size + 4095) & ~4095ull;
  if (size == 0 || next_lba_ + aligned > nvme_->capacity()) {
    proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    return;
  }
  const uint32_t vol_id = next_vol_++;
  const uint64_t base = next_lba_;
  next_lba_ += aligned;

  std::vector<Future<Result<CapId>>> eps;
  eps.push_back(proc_->serve({}, [this, vol_id](Process::Received rr) {
    handle_read(vol_id, std::move(rr));
  }));
  eps.push_back(proc_->serve({}, [this, vol_id](Process::Received rr) {
    handle_write(vol_id, std::move(rr));
  }));
  eps.push_back(proc_->serve({}, [this, vol_id](Process::Received rr) {
    handle_delete(vol_id, std::move(rr));
  }));
  when_all(std::move(eps)).on_ready([this, vol_id, base, size, reply](
                                        std::vector<Result<CapId>>&& cids) {
    for (const auto& c : cids) {
      if (!c.ok()) {
        proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
        return;
      }
    }
    Volume v;
    v.base = base;
    v.size = size;
    v.read_ep = cids[0].value();
    v.write_ep = cids[1].value();
    v.delete_ep = cids[2].value();
    volumes_[vol_id] = v;
    proc_->request_invoke(
        reply,
        Process::Args{}.imm_u64(0, 0).cap(v.read_ep).cap(v.write_ep).cap(v.delete_ep));
  });
}

void BlockAdaptor::handle_read(uint32_t vol_id, Process::Received r) {
  auto vit = volumes_.find(vol_id);
  if (vit == volumes_.end()) {
    fail_op(r, ErrorCode::kRevoked);
    return;
  }
  const Volume& vol = vit->second;
  const uint64_t off = r.imm_u64(0).value_or(~0ull);
  const uint64_t size = r.imm_u64(8).value_or(0);
  CapId dst = kInvalidCap;
  uint64_t dst_size = 0;
  CapId cont = kInvalidCap;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kMemory && dst == kInvalidCap) {
      dst = c.cid;
      dst_size = c.mem_size;
    } else if (c.kind == ObjectKind::kRequest && cont == kInvalidCap) {
      cont = c.cid;
    }
  }
  if (dst == kInvalidCap || cont == kInvalidCap || size == 0 || size > params_.slot_bytes ||
      off + size > vol.size || dst_size < size) {
    fail_op(r, ErrorCode::kInvalidArgument);
    return;
  }
  const uint64_t device_off = vol.base + off;
  slot_pool_.acquire().and_then([this, device_off, size, dst, cont, r](size_t slot_idx) {
    const Slot slot = slots_[slot_idx];
    // Stream the read: device DMA of sub-chunk k+1 overlaps the network copy of sub-chunk k
    // (each lands at its own offset inside the staging slot). Up to two device reads are in
    // flight: the device has parallel flash channels.
    Stream::run(
        {.total = size, .chunk = params_.stream_chunk, .window = 2},
        [this, slot, device_off, dst](const Stream::Chunk& c) {
          nvme_->read(device_off + c.offset(), c.length(),
                      [this, slot, dst, c](Result<Payload> data) {
                        if (!data.ok()) {
                          c.done(data.error());
                          return;
                        }
                        // DMA from the device lands in the staging slot...
                        proc_->write_mem(slot.addr + c.offset(), data.value().bytes());
                        // ...and moves on to the destination — which may be GPU memory on
                        // another node (the b step of Fig. 2) — while the next sub-chunk
                        // reads.
                        proc_->memory_copy(slot.mem, dst, c.length(), c.offset(), c.offset())
                            .on_ready([c](Status cs) { c.done(cs); });
                        c.ack();
                      });
        },
        [this, slot, cont, r](Status s) { finish_io(slot, cont, r, s); });
  }).or_else([this, r](ErrorCode e) { fail_op(r, e); });
}

void BlockAdaptor::handle_write(uint32_t vol_id, Process::Received r) {
  auto vit = volumes_.find(vol_id);
  if (vit == volumes_.end()) {
    fail_op(r, ErrorCode::kRevoked);
    return;
  }
  const Volume& vol = vit->second;
  const uint64_t off = r.imm_u64(0).value_or(~0ull);
  const uint64_t size = r.imm_u64(8).value_or(0);
  CapId src = kInvalidCap;
  uint64_t src_size = 0;
  CapId cont = kInvalidCap;
  for (const auto& c : r.caps) {
    if (c.kind == ObjectKind::kMemory && src == kInvalidCap) {
      src = c.cid;
      src_size = c.mem_size;
    } else if (c.kind == ObjectKind::kRequest && cont == kInvalidCap) {
      cont = c.cid;
    }
  }
  if (src == kInvalidCap || cont == kInvalidCap || size == 0 || size > params_.slot_bytes ||
      off + size > vol.size || src_size < size) {
    fail_op(r, ErrorCode::kInvalidArgument);
    return;
  }
  const uint64_t device_off = vol.base + off;
  slot_pool_.acquire().and_then([this, device_off, size, src, cont, r](size_t slot_idx) {
    const Slot slot = slots_[slot_idx];
    // Stream the write: the network pull of sub-chunk k+1 overlaps the device program of
    // sub-chunk k. One pull is on the wire at a time.
    Stream::run(
        {.total = size, .chunk = params_.stream_chunk, .window = 1},
        [this, slot, device_off, src](const Stream::Chunk& c) {
          // Pull the client data into the staging slot (one network transfer)...
          proc_->memory_copy(src, slot.mem, c.length(), c.offset(), c.offset())
              .on_ready([this, slot, device_off, c](Status cs) {
                if (!cs.ok()) {
                  c.done(cs);
                  return;
                }
                // ...then DMA it into the device while the next sub-chunk pulls.
                nvme_->write(device_off + c.offset(),
                             proc_->read_mem(slot.addr + c.offset(), c.length()),
                             [c](Status st) { c.done(st); });
                c.ack();
              });
        },
        [this, slot, cont, r](Status s) { finish_io(slot, cont, r, s); });
  }).or_else([this, r](ErrorCode e) { fail_op(r, e); });
}

void BlockAdaptor::finish_io(const Slot& slot, CapId cont, const Process::Received& r,
                             Status s) {
  slot_pool_.release(slot.idx);
  if (!s.ok()) {
    fail_op(r, s.error());
    return;
  }
  // Invoke the continuation VERBATIM (decentralized control flow).
  proc_->request_invoke(cont);
}

void BlockAdaptor::handle_delete(uint32_t vol_id, Process::Received r) {
  const CapId reply = r.num_caps() >= 1 ? r.cap(r.num_caps() - 1) : kInvalidCap;
  auto vit = volumes_.find(vol_id);
  if (vit == volumes_.end()) {
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 1));
    }
    return;
  }
  const Volume vol = vit->second;
  volumes_.erase(vit);
  // "the SSD Process must selectively revoke all capabilities granting access to the freed
  // block, and must do so as fast as possible" (Section 3.5).
  proc_->remove_endpoint(vol.read_ep);
  proc_->remove_endpoint(vol.write_ep);
  proc_->remove_endpoint(vol.delete_ep);
  std::vector<Future<Status>> revokes;
  revokes.push_back(proc_->cap_revoke(vol.read_ep));
  revokes.push_back(proc_->cap_revoke(vol.write_ep));
  revokes.push_back(proc_->cap_revoke(vol.delete_ep));
  when_all(std::move(revokes)).on_ready([this, reply](std::vector<Status>&&) {
    if (reply != kInvalidCap) {
      proc_->request_invoke(reply, Process::Args{}.imm_u64(0, 0));
    }
  });
}

// --- client helpers --------------------------------------------------------------------------

Future<Result<BlockClient::Volume>> BlockClient::create_volume(Process& proc, CapId mgmt_ep,
                                                               uint64_t size) {
  return proc.call(mgmt_ep, Process::Args{}.imm_u64(0, size))
      .then([size](Result<Process::Received>&& r) -> Result<Volume> {
        if (!r.ok()) {
          return r.error();
        }
        if (r.value().imm_u64(0).value_or(1) != 0 || r.value().num_caps() < 3) {
          return ErrorCode::kResourceExhausted;
        }
        Volume v;
        v.read_ep = r.value().cap(0);
        v.write_ep = r.value().cap(1);
        v.delete_ep = r.value().cap(2);
        v.size = size;
        return v;
      });
}

namespace {

// Shared by read/write: invoke `ep` with [mem, ok, err] continuations and resolve on either.
Future<Status> block_io(Process& proc, CapId ep, uint64_t off, uint64_t size, CapId mem) {
  Promise<Status> promise;
  auto ok_f = proc.request_create({});
  auto err_f = proc.request_create({});
  when_all(std::vector<Future<Result<CapId>>>{std::move(ok_f), std::move(err_f)})
      .on_ready([&proc, ep, off, size, mem, promise](std::vector<Result<CapId>>&& eps) {
        if (!eps[0].ok() || !eps[1].ok()) {
          promise.set(Status(ErrorCode::kResourceExhausted));
          return;
        }
        const CapId ok_ep = eps[0].value();
        const CapId err_ep = eps[1].value();
        proc.on_endpoint(ok_ep, [&proc, ok_ep, err_ep, promise](Process::Received) {
          proc.remove_endpoint(ok_ep);
          proc.remove_endpoint(err_ep);
          promise.set(ok_status());
        });
        proc.on_endpoint(err_ep, [&proc, ok_ep, err_ep, promise](Process::Received rr) {
          proc.remove_endpoint(ok_ep);
          proc.remove_endpoint(err_ep);
          promise.set(Status(static_cast<ErrorCode>(
              rr.imm_u64(0).value_or(static_cast<uint64_t>(ErrorCode::kInternal)))));
        });
        proc.request_invoke(ep, Process::Args{}
                                    .imm_u64(0, off)
                                    .imm_u64(8, size)
                                    .cap(mem)
                                    .cap(ok_ep)
                                    .cap(err_ep))
            .on_ready([promise](Status s) {
              if (!s.ok()) {
                promise.set(s);
              }
            });
      });
  return promise.future();
}

}  // namespace

Future<Status> BlockClient::read(Process& proc, const Volume& v, uint64_t off, uint64_t size,
                                 CapId dst_mem) {
  return block_io(proc, v.read_ep, off, size, dst_mem);
}

Future<Status> BlockClient::write(Process& proc, const Volume& v, uint64_t off, uint64_t size,
                                  CapId src_mem) {
  return block_io(proc, v.write_ep, off, size, src_mem);
}

Future<Status> BlockClient::destroy(Process& proc, const Volume& v) {
  return proc.call(v.delete_ep).then([](Result<Process::Received>&& r) -> Status {
    if (!r.ok()) {
      return r.error();
    }
    return r.value().imm_u64(0).value_or(1) == 0 ? ok_status() : Status(ErrorCode::kNotFound);
  });
}

}  // namespace fractos
