// PeerRpc: the reliability half of Controller-to-Controller RPC (DESIGN.md §4c).
//
// Owner-bound ops (kRemoteDerive, kRegisterMonitor) carry an idempotent op id. The caller
// side keeps one pending-op table (op id -> promise, peer, span); a reply, a deadline, a
// severed peer or teardown completes each entry exactly once. On a lossy fabric a request
// frame is resent with exponential backoff while any op it carries is pending, and every op
// is bounded by with_timeout(peer_op_deadline). With Config::peer_op_batch_max > 0,
// RemoteDerive ops queue per peer and leave as one kRemoteDeriveBatch frame.
//
// The receiver side is the completed-reply cache: lookup() answers a resent request from it,
// so no op executes twice, and remember() stores a reply (lossy fabric only; entries age
// out after peer_op_dedup_ttl and the cache never exceeds kCompletedPeerOpCacheCap).
//
// PeerRpc owns no channels. It reaches the wire through one send hook, so a test can drive
// it over a fake lossy link (tests/peer_rpc_test.cc). Each op or batch is framed once; the
// first send and every resend share that frame.

#ifndef SRC_CORE_PEER_RPC_H_
#define SRC_CORE_PEER_RPC_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fabric/payload.h"
#include "src/futures/future.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_fn.h"
#include "src/sim/intern.h"
#include "src/wire/message.h"

namespace fractos {

struct ControllerStats;

class PeerRpc {
 public:
  using Reply = Result<PeerReplyMsg>;

  // The peer-op knobs of Controller::Config (which inherits them).
  struct Config {
    // Peer-op reliability (effective only on a lossy fabric): requests are resent with
    // exponential backoff from peer_op_rto, at most peer_op_retry_budget times, and the
    // whole operation times out with kTimeout at peer_op_deadline.
    Duration peer_op_rto = Duration::micros(150);
    uint32_t peer_op_retry_budget = 3;
    Duration peer_op_deadline = Duration::millis(1);
    // Completed-peer-op dedup entries older than this are evicted (deterministically, on
    // simulated time). Must stay well above peer_op_deadline: once an op's deadline passes,
    // no more resends of it can arrive, so its cached reply is dead weight.
    Duration peer_op_dedup_ttl = Duration::millis(50);
    // Batched owner-bound peer ops: coalesce up to this many RemoteDerive ops per peer into
    // one kRemoteDeriveBatch frame (amortizing per-message syscall_base). 0 sends singles.
    uint32_t peer_op_batch_max = 0;
    // How long a non-full batch may wait for more ops before flushing.
    Duration peer_op_batch_delay = Duration::micros(2);
  };

  // Bound on the completed-peer-op reply cache.
  static constexpr size_t kCompletedPeerOpCacheCap = 4096;

  // The wire hook: sends `frame` (a Channel::frame) to `peer` and returns whether `peer` is
  // reachable. Nothing is sent when it is not; a null `frame` only asks.
  using SendFn = InlineFn<bool(ControllerAddr peer, const Payload* frame)>;

  // `self` names the metric keys (ctrl.<self>.*, cap.<self>.batch_occupancy) and the span
  // actor (ctrl-<self>). The reliability counters land in `stats`; batch frames take their
  // envelope seq from `next_seq`. `lossy` says whether frames may be lost, duplicated or
  // reordered: only then are resends, deadlines and the reply cache armed.
  PeerRpc(EventLoop* loop, ControllerAddr self, const Config& config, ControllerStats* stats,
          uint64_t* next_seq, SendFn send, InlineFn<bool()> lossy);
  // Completes every still-pending op with kChannelClosed (no broken promises).
  ~PeerRpc();
  PeerRpc(const PeerRpc&) = delete;
  PeerRpc& operator=(const PeerRpc&) = delete;

  // --- caller side ---

  // Issues the op carried by `env` (kRemoteDerive or kRegisterMonitor), keyed by its
  // envelope seq, and sends it at once. Completes at once with kChannelClosed if `peer` is
  // unreachable.
  Future<Reply> call(ControllerAddr peer, Envelope env);
  // Issues a kRemoteDerive op keyed by rd.op_id, through the per-peer batcher when
  // peer_op_batch_max > 0.
  Future<Reply> call_derive(ControllerAddr peer, RemoteDeriveMsg rd);
  // A kPeerReply arrived: completes its op, or counts it in late_replies_ignored when the op
  // already completed (first reply won, deadline, sever).
  void on_reply(const PeerReplyMsg& m);
  // The channel to `peer` was severed: that peer's pending ops complete with kChannelClosed.
  void on_severed(ControllerAddr peer);
  // Completes every pending op with `status` and drops unflushed batches.
  void fail_all(ErrorCode status);
  size_t pending() const { return pending_.size(); }

  // --- receiver side ---

  // The cached reply to `origin`'s op `op_id`, counted as a dedup hit; nullptr on a miss
  // (and always on a clean fabric, where duplicates cannot occur).
  const PeerReplyMsg* lookup(ControllerAddr origin, uint64_t op_id);
  // Caches `reply` to `origin`'s op reply.op_id.
  void remember(ControllerAddr origin, const PeerReplyMsg& reply);
  void clear_cache();
  size_t cache_size() const { return cache_.size(); }

 private:
  struct PendingOp {
    Promise<Reply> promise;
    ControllerAddr peer = 0;
    uint64_t span = 0;  // open peer-op span, 0 when no SpanTracer is attached
  };
  struct PendingBatch {
    std::vector<RemoteDeriveMsg> ops;
    bool flush_scheduled = false;
  };

  // The one issue path: registers `op_id`, runs `transmit` (send now, or queue for a
  // batch flush) and arms the lossy-fabric deadline.
  template <typename Transmit>
  Future<Reply> issue(ControllerAddr peer, uint64_t op_id, Transmit&& transmit);
  void flush(ControllerAddr peer);
  // Sends the request `frame` carrying `op_ids` and, on a lossy fabric, arms its resends.
  void send_frame(ControllerAddr peer, std::vector<uint64_t> op_ids, Payload frame);
  // Resends `frame` with backoff while any of `op_ids` is pending; a single op is a list of
  // one.
  void schedule_resend(ControllerAddr peer, std::vector<uint64_t> op_ids, Payload frame,
                       uint32_t attempt);
  // Completes every pending op matching `pred` with `status`.
  template <typename Pred>
  void complete_if(Pred pred, ErrorCode status);
  // Deadline: drops the op (its with_timeout wrapper already delivered kTimeout).
  void expire(uint64_t op_id);
  // Removes the op at `it` from the table and closes its span (`error` marks it failed);
  // returns the op's promise for the caller to complete or drop.
  Promise<Reply> take(std::unordered_map<uint64_t, PendingOp>::iterator it, const char* error);
  void bump(NameId key);
  static uint64_t cache_key(ControllerAddr origin, uint64_t op_id) {
    return (static_cast<uint64_t>(origin) << 48) ^ op_id;
  }

  EventLoop* loop_;
  Config config_;
  ControllerStats* stats_;
  uint64_t* next_seq_;
  SendFn send_;
  InlineFn<bool()> lossy_;
  NameId actor_;
  struct MetricKeys {
    NameId retries;
    NameId timeouts;
    NameId dedup_hits;
    NameId late_reply;
    NameId batch_occupancy;
  } keys_;
  std::unordered_map<uint64_t, PendingOp> pending_;
  std::unordered_map<ControllerAddr, PendingBatch> batches_;
  // Completed-reply cache; the FIFO carries insertion times for TTL eviction.
  std::unordered_map<uint64_t, PeerReplyMsg> cache_;
  std::deque<std::pair<uint64_t, Time>> cache_fifo_;
};

}  // namespace fractos

#endif  // SRC_CORE_PEER_RPC_H_
