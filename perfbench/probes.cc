#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "src/cap/object_table.h"
#include "src/fabric/network.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"

namespace perfbench {

using namespace fractos;

namespace {

constexpr int kReps = 5;

// Host ns per operation since construction.
class Stopwatch {
 public:
  double ns_per(uint64_t ops) const {
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0_).count();
    return ns / static_cast<double>(std::max<uint64_t>(ops, 1));
  }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

// Median over kReps of `rep(r)`, each returning ns per operation of its timed part.
template <typename Rep>
double median_of_reps(Rep&& rep) {
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    per_op.push_back(rep(r));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

std::vector<ImmExtent> imms(size_t n, size_t bytes) {
  std::vector<ImmExtent> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ImmExtent{static_cast<uint32_t>(i * bytes), std::vector<uint8_t>(bytes, 7)});
  }
  return out;
}

WireCap wire_cap(uint64_t i) {
  WireCap c;
  c.ref = ObjectRef{1, 100 + i, 1};
  c.perms = Perms::kReadWrite;
  c.mem = MemoryDesc{1, 2, 4096 * i, 4096};
  return c;
}

// A representative frame of each type the workloads exchange: request-carrying frames hold
// the two 8-byte immediates and a few capabilities a storage or GPU invoke carries.
Envelope sample_frame(MsgType t, uint64_t seq) {
  switch (t) {
    case MsgType::kNullOp:
      return make_envelope(seq, NullOpMsg{});
    case MsgType::kMemoryCreate:
      return make_envelope(seq, MemoryCreateMsg{1, 4096, 1 << 20, Perms::kReadWrite});
    case MsgType::kMemoryDiminish:
      return make_envelope(seq, MemoryDiminishMsg{3, 0, 4096, Perms::kWrite});
    case MsgType::kMemoryCopy:
      return make_envelope(seq, MemoryCopyMsg{3, 4, 0, 0, 128 << 10});
    case MsgType::kRequestCreate:
      return make_envelope(seq, RequestCreateMsg{true, 5, imms(2, 8), {6, 7}});
    case MsgType::kRequestInvoke:
      return make_envelope(seq, RequestInvokeMsg{5, imms(2, 8), {6, 7}});
    case MsgType::kCapCreateRevtree:
      return make_envelope(seq, CapCreateRevtreeMsg{5});
    case MsgType::kCapRevoke:
      return make_envelope(seq, CapRevokeMsg{5});
    case MsgType::kMonitorDelegate:
      return make_envelope(seq, MonitorMsg{5, 9}, /*delegate_mode=*/true);
    case MsgType::kMonitorReceive:
      return make_envelope(seq, MonitorMsg{5, 9}, /*delegate_mode=*/false);
    case MsgType::kSyscallReply:
      return make_envelope(seq, SyscallReplyMsg{seq, ErrorCode::kOk, 8});
    case MsgType::kDeliverRequest: {
      DeliverRequestMsg m{5, imms(2, 8), {}};
      for (CapId c = 0; c < 3; ++c) {
        m.caps.push_back(DeliveredCap{c, ObjectKind::kMemory, Perms::kReadWrite, 4096});
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kDeliverAck:
      return make_envelope(seq, DeliverAckMsg{});
    case MsgType::kMonitorCallback:
      return make_envelope(seq, MonitorCallbackMsg{9, true});
    case MsgType::kRemoteInvoke: {
      RemoteInvokeMsg m;
      m.target = ObjectRef{2, 42, 1};
      m.imms = imms(2, 8);
      m.caps = {wire_cap(0), wire_cap(1), wire_cap(2)};
      m.origin = 1;
      m.invoke_id = seq;
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kRemoteInvokeError:
      return make_envelope(seq, RemoteInvokeErrorMsg{seq, ErrorCode::kInternal});
    case MsgType::kRemoteDerive: {
      RemoteDeriveMsg m;
      m.op_id = seq;
      m.base = ObjectRef{2, 42, 1};
      m.op = RemoteDeriveMsg::Op::kRevtreeChild;
      m.requester = 3;
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kPeerReply:
      return make_envelope(seq, PeerReplyMsg{seq, ErrorCode::kOk, wire_cap(0)});
    case MsgType::kRevokeBroadcast:
      return make_envelope(seq, RevokeBroadcastMsg{seq, {ObjectRef{2, 42, 1}}});
    case MsgType::kRevokeAck:
      return make_envelope(seq, RevokeAckMsg{seq});
    default:
      // Replication and batching frames: off in every workload.
      return make_envelope(seq, NullOpMsg{});
  }
}

}  // namespace

double probe_event_loop(uint32_t chains, int64_t mean_delay_ns, uint64_t seed) {
  constexpr uint64_t kEvents = 200000;
  const uint64_t max_delay = static_cast<uint64_t>(std::max<int64_t>(2 * mean_delay_ns, 2));
  return median_of_reps([&](int rep) {
    EventLoop loop;
    Rng rng(seed + static_cast<uint64_t>(rep));
    uint64_t fired = 0;
    std::function<void()> tick = [&]() {
      if (++fired + chains > kEvents) {
        return;
      }
      loop.schedule_after(Duration::nanos(static_cast<int64_t>(rng.next_range(1, max_delay))),
                          [&tick]() { tick(); });
    };
    for (uint32_t c = 0; c < std::max<uint32_t>(chains, 1); ++c) {
      loop.post([&tick]() { tick(); });
    }
    const Stopwatch sw;
    return sw.ns_per(loop.run());
  });
}

double probe_network(const TopologySpec& topology, uint32_t nodes, uint32_t chains,
                     uint64_t msg_bytes, uint64_t seed) {
  constexpr uint64_t kMessages = 100000;
  nodes = std::max<uint32_t>(nodes, 2);
  return median_of_reps([&](int rep) {
    EventLoop loop;
    Network net(&loop, FabricParams{}, topology);
    for (uint32_t n = 0; n < nodes; ++n) {
      net.add_node("n" + std::to_string(n));
    }
    const Payload payload = Payload::zeros(msg_bytes);
    Rng rng(seed + static_cast<uint64_t>(rep));
    uint64_t sent = 0;
    const Stopwatch sw;
    std::function<void()> send_one = [&]() {
      if (sent == kMessages) {
        return;
      }
      ++sent;
      const uint32_t src = static_cast<uint32_t>(rng.next_below(nodes));
      const uint32_t dst =
          (src + 1 + static_cast<uint32_t>(rng.next_below(nodes - 1))) % nodes;
      net.send(Endpoint{src, Loc::kHost}, Endpoint{dst, Loc::kHost}, Traffic::kData, payload,
               [&send_one](Payload) { send_one(); });
    };
    for (uint32_t c = 0; c < std::max<uint32_t>(chains, 1); ++c) {
      send_one();
    }
    loop.run();
    return sw.ns_per(sent);
  });
}

double probe_wire(const std::map<MsgType, uint64_t>& mix, uint64_t seed) {
  constexpr size_t kFrames = 4096;
  constexpr int kPasses = 8;
  uint64_t total = 0;
  for (const auto& [type, count] : mix) {
    total += count;
  }
  std::vector<Envelope> frames;
  Rng rng(seed);
  while (frames.size() < kFrames) {
    uint64_t pick = total == 0 ? 0 : rng.next_below(total);
    MsgType type = MsgType::kNullOp;
    for (const auto& [t, count] : mix) {
      if (pick < count) {
        type = t;
        break;
      }
      pick -= count;
    }
    frames.push_back(sample_frame(type, frames.size() + 1));
  }
  return median_of_reps([&](int) {
    const Stopwatch sw;
    uint64_t ok = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const Envelope& env : frames) {
        ok += decode_envelope(encode_envelope(env)).ok() ? 1 : 0;
      }
    }
    FRACTOS_CHECK(ok == kFrames * kPasses);
    return sw.ns_per(ok);
  });
}

double probe_object_table(uint64_t live, uint64_t seed) {
  constexpr uint64_t kIters = 50000;
  constexpr ProcessId kCreator = 1;
  const auto desc = [](uint64_t i) { return MemoryDesc{0, 1, 4096 * i, 4096}; };
  return median_of_reps([&](int rep) {
    ObjectTable table(1);
    std::vector<ObjectIndex> objects;
    objects.reserve(live);
    for (uint64_t i = 0; i < live; ++i) {
      objects.push_back(table.create_memory(kCreator, desc(i), Perms::kReadWrite).value());
    }
    Rng rng(seed + static_cast<uint64_t>(rep));
    const uint32_t reboot = table.reboot_count();
    const Stopwatch sw;
    for (uint64_t i = 0; i < kIters; ++i) {
      const ObjectIndex fresh =
          table.create_memory(kCreator, desc(live + i), Perms::kReadWrite).value();
      const ObjectIndex probe =
          objects.empty() ? fresh : objects[rng.next_below(objects.size())];
      FRACTOS_CHECK(table.resolve_memory(probe, reboot).ok());
      auto revoked = table.revoke(fresh, reboot);
      FRACTOS_CHECK(revoked.ok());
      table.erase_objects(revoked.value().invalidated);
    }
    const double ns = sw.ns_per(3 * kIters);
    FRACTOS_CHECK(table.live_count() == live);
    return ns;
  });
}

}  // namespace perfbench
