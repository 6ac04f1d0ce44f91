#include "src/core/bootstrap.h"

#include <utility>

namespace fractos {

namespace {
constexpr uint8_t kStatusOk = 0;
constexpr uint8_t kStatusNotFound = 1;
constexpr uint8_t kStatusBadArgs = 2;
}  // namespace

KvStore::KvStore(System* sys, uint32_t node, Controller& controller) : sys_(sys) {
  proc_ = &sys->spawn("kvstore", node, controller, 1 << 20);
  put_ep_ =
      sys->await_ok(proc_->serve({}, [this](Process::Received r) { handle_put(std::move(r)); }));
  get_ep_ =
      sys->await_ok(proc_->serve({}, [this](Process::Received r) { handle_get(std::move(r)); }));
}

KvStore::Endpoints KvStore::grant_to(Process& p) {
  Endpoints eps;
  eps.put = sys_->bootstrap_grant(*proc_, put_ep_, p).value();
  eps.get = sys_->bootstrap_grant(*proc_, get_ep_, p).value();
  return eps;
}

void KvStore::handle_put(Process::Received r) {
  // caps = [stored capability, reply Request]
  auto name = r.imm_str(0);
  const CapId reply = r.num_caps() >= 1 ? r.cap(r.num_caps() - 1) : kInvalidCap;
  uint8_t status = kStatusOk;
  if (!name.has_value() || r.num_caps() != 2) {
    status = kStatusBadArgs;
  } else {
    store_[*name] = r.cap(0);
  }
  if (reply != kInvalidCap) {
    proc_->request_invoke(reply, Process::Args{}.imm(0, {status}));
  }
}

void KvStore::handle_get(Process::Received r) {
  auto name = r.imm_str(0);
  const CapId reply = r.num_caps() >= 1 ? r.cap(r.num_caps() - 1) : kInvalidCap;
  if (reply == kInvalidCap) {
    return;
  }
  if (!name.has_value()) {
    proc_->request_invoke(reply, Process::Args{}.imm(0, {kStatusBadArgs}));
    return;
  }
  auto it = store_.find(*name);
  if (it == store_.end()) {
    proc_->request_invoke(reply, Process::Args{}.imm(0, {kStatusNotFound}));
    return;
  }
  proc_->request_invoke(reply, Process::Args{}.imm(0, {kStatusOk}).cap(it->second));
}

Future<Status> KvStore::put(Process& client, CapId kv_put, const std::string& name, CapId cid) {
  return client.call(kv_put, Process::Args{}.imm_str(0, name).cap(cid))
      .then([](Result<Process::Received> r) -> Status {
        if (!r.ok()) {
          return r.error();
        }
        auto status = r.value().imm_bytes(0, 1);
        if (!status.has_value()) {
          return ErrorCode::kInternal;
        }
        return (*status)[0] == kStatusOk ? ok_status() : Status(ErrorCode::kInvalidArgument);
      });
}

Future<Result<CapId>> KvStore::get(Process& client, CapId kv_get, const std::string& name) {
  return client.call(kv_get, Process::Args{}.imm_str(0, name))
      .then([](Result<Process::Received> r) -> Result<CapId> {
        if (!r.ok()) {
          return r.error();
        }
        auto status = r.value().imm_bytes(0, 1);
        if (!status.has_value()) {
          return ErrorCode::kInternal;
        }
        if ((*status)[0] != kStatusOk) {
          return ErrorCode::kNotFound;
        }
        if (r.value().num_caps() < 1) {
          return ErrorCode::kInternal;
        }
        return r.value().cap(0);
      });
}

}  // namespace fractos
