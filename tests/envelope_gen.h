// Random well-formed Envelopes of every MsgType, for the wire property test and the typed-
// frame channel test. Every field gets a value its encoding can hold, so a generated envelope
// must round-trip through encode_envelope/decode_envelope exactly.

#ifndef TESTS_ENVELOPE_GEN_H_
#define TESTS_ENVELOPE_GEN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/wire/message.h"

namespace fractos::testing_gen {

// MsgType values are dense from kNullOp; kReplSnapshot is the last.
constexpr int kMsgTypeCount = static_cast<int>(MsgType::kReplSnapshot) + 1;

inline ObjectRef random_ref(Rng& rng) {
  return ObjectRef{static_cast<ControllerAddr>(rng.next_below(100)), rng.next_u64() % 10000,
                   static_cast<uint32_t>(rng.next_below(5))};
}

inline std::vector<uint8_t> random_bytes(Rng& rng, uint64_t max_len) {
  std::vector<uint8_t> bytes(rng.next_below(max_len + 1));
  for (auto& b : bytes) {
    b = rng.next_byte();
  }
  return bytes;
}

inline std::vector<ImmExtent> random_imms(Rng& rng) {
  std::vector<ImmExtent> imms;
  const uint64_t n = rng.next_below(4);
  uint32_t off = 0;
  for (uint64_t i = 0; i < n; ++i) {
    ImmExtent e;
    e.offset = off;
    e.bytes = random_bytes(rng, 63);
    off = e.end() + static_cast<uint32_t>(rng.next_below(16));
    imms.push_back(std::move(e));
  }
  return imms;
}

inline CapId random_cid(Rng& rng) { return static_cast<CapId>(rng.next_below(1000)); }
inline Perms random_perms(Rng& rng) { return static_cast<Perms>(rng.next_below(4)); }
inline ErrorCode random_status(Rng& rng) {
  return rng.next_bool() ? ErrorCode::kOk : ErrorCode::kRevoked;
}

inline MemoryDesc random_mem(Rng& rng) {
  return MemoryDesc{static_cast<uint32_t>(rng.next_below(8)),
                    static_cast<uint32_t>(rng.next_below(8)), rng.next_u64() % 100000,
                    1 + rng.next_u64() % 100000};
}

inline WireCap random_cap(Rng& rng) {
  WireCap c;
  c.ref = random_ref(rng);
  c.kind = rng.next_bool() ? ObjectKind::kMemory : ObjectKind::kRequest;
  c.perms = random_perms(rng);
  c.mem = random_mem(rng);
  c.tracked = rng.next_bool();
  return c;
}

inline std::vector<WireCap> random_caps(Rng& rng, uint64_t max) {
  std::vector<WireCap> caps(rng.next_below(max + 1));
  for (auto& c : caps) {
    c = random_cap(rng);
  }
  return caps;
}

inline std::vector<CapId> random_cids(Rng& rng) {
  std::vector<CapId> cids(rng.next_below(5));
  for (auto& c : cids) {
    c = random_cid(rng);
  }
  return cids;
}

inline RemoteDeriveMsg random_derive_msg(Rng& rng) {
  RemoteDeriveMsg m;
  m.op_id = rng.next_u64();
  m.base = random_ref(rng);
  m.op = static_cast<RemoteDeriveMsg::Op>(rng.next_below(4));
  m.requester = rng.next_u64() % 1000;
  m.imms = random_imms(rng);
  m.caps = random_caps(rng, 2);
  m.offset = rng.next_u64() % 100000;
  m.size = rng.next_u64() % 100000;
  m.drop_perms = random_perms(rng);
  return m;
}

inline PeerReplyMsg random_peer_reply(Rng& rng) {
  return PeerReplyMsg{rng.next_u64(), random_status(rng), random_cap(rng)};
}

inline ReplicatedOp random_repl_op(Rng& rng) {
  ReplicatedOp op;
  op.kind = static_cast<ReplicatedOp::Kind>(rng.next_below(13));
  op.requester = rng.next_u64() % 1000;
  op.base = rng.next_u64() % 10000;
  op.result_index = rng.next_u64() % 10000;
  op.mem = random_mem(rng);
  op.perms = random_perms(rng);
  op.offset = rng.next_u64() % 100000;
  op.size = rng.next_u64() % 100000;
  op.cid = random_cid(rng);
  op.callback_id = rng.next_u64();
  op.sub_controller = static_cast<ControllerAddr>(rng.next_below(100));
  op.sub_process = rng.next_u64() % 1000;
  op.imms = random_imms(rng);
  op.caps = random_caps(rng, 2);
  op.indices.resize(rng.next_below(4));
  for (auto& idx : op.indices) {
    idx = rng.next_u64() % 10000;
  }
  return op;
}

// A random envelope of `type` with sequence number `seq`.
inline Envelope random_envelope(Rng& rng, MsgType type, uint64_t seq) {
  const auto controller = [&rng]() { return static_cast<ControllerAddr>(rng.next_below(100)); };
  switch (type) {
    case MsgType::kNullOp:
      return make_envelope(seq, NullOpMsg{});
    case MsgType::kMemoryCreate:
      return make_envelope(seq, MemoryCreateMsg{static_cast<uint32_t>(rng.next_below(8)),
                                                rng.next_u64(), rng.next_u64() % 100000,
                                                random_perms(rng)});
    case MsgType::kMemoryDiminish:
      return make_envelope(seq, MemoryDiminishMsg{random_cid(rng), rng.next_u64() % 100000,
                                                  rng.next_u64() % 100000, random_perms(rng)});
    case MsgType::kMemoryCopy:
      return make_envelope(seq, MemoryCopyMsg{random_cid(rng), random_cid(rng),
                                              rng.next_u64() % 100000, rng.next_u64() % 100000,
                                              rng.next_u64() % 100000});
    case MsgType::kRequestCreate: {
      RequestCreateMsg m;
      m.has_base = rng.next_bool();
      m.base = random_cid(rng);
      m.imms = random_imms(rng);
      m.caps = random_cids(rng);
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kRequestInvoke: {
      RequestInvokeMsg m;
      m.cid = random_cid(rng);
      m.imms = random_imms(rng);
      m.caps = random_cids(rng);
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kCapCreateRevtree:
      return make_envelope(seq, CapCreateRevtreeMsg{random_cid(rng)});
    case MsgType::kCapRevoke:
      return make_envelope(seq, CapRevokeMsg{random_cid(rng)});
    case MsgType::kMonitorDelegate:
    case MsgType::kMonitorReceive:
      return make_envelope(seq, MonitorMsg{random_cid(rng), rng.next_u64()},
                           type == MsgType::kMonitorDelegate);
    case MsgType::kSyscallReply:
      return make_envelope(seq,
                           SyscallReplyMsg{rng.next_u64(), random_status(rng), random_cid(rng)});
    case MsgType::kDeliverRequest: {
      DeliverRequestMsg m;
      m.endpoint_cid = random_cid(rng);
      m.imms = random_imms(rng);
      m.caps.resize(rng.next_below(4));
      for (auto& c : m.caps) {
        c = DeliveredCap{random_cid(rng),
                         rng.next_bool() ? ObjectKind::kMemory : ObjectKind::kRequest,
                         random_perms(rng), rng.next_u64() % 100000};
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kDeliverAck:
      return make_envelope(seq, DeliverAckMsg{});
    case MsgType::kMonitorCallback:
      return make_envelope(seq, MonitorCallbackMsg{rng.next_u64(), rng.next_bool()});
    case MsgType::kRemoteInvoke: {
      RemoteInvokeMsg m;
      m.target = random_ref(rng);
      m.imms = random_imms(rng);
      m.caps = random_caps(rng, 3);
      m.origin = controller();
      m.invoke_id = rng.next_u64();
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kRemoteInvokeError:
      return make_envelope(seq, RemoteInvokeErrorMsg{rng.next_u64(), random_status(rng)});
    case MsgType::kRemoteDerive:
      return make_envelope(seq, random_derive_msg(rng));
    case MsgType::kPeerReply:
      return make_envelope(seq, random_peer_reply(rng));
    case MsgType::kRevokeBroadcast: {
      RevokeBroadcastMsg m;
      m.cleanup_id = rng.next_u64();
      m.revoked.resize(rng.next_below(8));
      for (auto& ref : m.revoked) {
        ref = random_ref(rng);
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kRevokeAck:
      return make_envelope(seq, RevokeAckMsg{rng.next_u64()});
    case MsgType::kRegisterMonitor:
      return make_envelope(seq, RegisterMonitorMsg{random_ref(rng), rng.next_bool(),
                                                   rng.next_u64(), controller(),
                                                   rng.next_u64() % 1000});
    case MsgType::kMonitorFired:
      return make_envelope(seq,
                           MonitorFiredMsg{rng.next_u64() % 1000, rng.next_u64(), rng.next_bool()});
    case MsgType::kRemoteDeriveBatch: {
      RemoteDeriveBatchMsg m;
      m.ops.resize(1 + rng.next_below(6));
      for (auto& op : m.ops) {
        op = random_derive_msg(rng);
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kPeerReplyBatch: {
      PeerReplyBatchMsg m;
      m.replies.resize(1 + rng.next_below(6));
      for (auto& r : m.replies) {
        r = random_peer_reply(rng);
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kReplAppend: {
      ReplAppendMsg m;
      m.seat = controller();
      m.leader = controller();
      m.term = rng.next_u64();
      m.prev_index = rng.next_u64();
      m.prev_term = rng.next_u64();
      m.commit_index = rng.next_u64();
      m.entries.resize(rng.next_below(4));
      for (auto& entry : m.entries) {
        entry = ReplLogEntry{rng.next_u64(), rng.next_u64(), random_repl_op(rng)};
      }
      return make_envelope(seq, std::move(m));
    }
    case MsgType::kReplAppendReply:
      return make_envelope(seq, ReplAppendReplyMsg{controller(), controller(), rng.next_u64(),
                                                   rng.next_bool(), rng.next_u64(),
                                                   rng.next_bool()});
    case MsgType::kReplVote:
      return make_envelope(seq, ReplVoteMsg{controller(), controller(), rng.next_u64(),
                                            rng.next_u64(), rng.next_u64()});
    case MsgType::kReplVoteReply:
      return make_envelope(
          seq, ReplVoteReplyMsg{controller(), controller(), rng.next_u64(), rng.next_bool()});
    case MsgType::kReplLeaderAnnounce:
      return make_envelope(seq,
                           ReplLeaderAnnounceMsg{controller(), controller(), rng.next_u64()});
    case MsgType::kReplSnapshot:
      return make_envelope(seq, ReplSnapshotMsg{controller(), controller(), rng.next_u64(),
                                                rng.next_u64(), rng.next_u64(),
                                                random_bytes(rng, 256)});
  }
  return make_envelope(seq, NullOpMsg{});
}

}  // namespace fractos::testing_gen

#endif  // TESTS_ENVELOPE_GEN_H_
