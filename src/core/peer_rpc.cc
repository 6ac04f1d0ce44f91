#include "src/core/peer_rpc.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/channel.h"
#include "src/core/controller.h"
#include "src/futures/timeout.h"
#include "src/sim/metrics.h"
#include "src/sim/span.h"

namespace fractos {

PeerRpc::PeerRpc(EventLoop* loop, ControllerAddr self, const Config& config,
                 ControllerStats* stats, uint64_t* next_seq, SendFn send, InlineFn<bool()> lossy)
    : loop_(loop), config_(config), stats_(stats), next_seq_(next_seq), send_(std::move(send)),
      lossy_(std::move(lossy)), actor_(intern_name("ctrl-" + std::to_string(self))) {
  const std::string mp = "ctrl." + std::to_string(self) + ".";
  keys_.retries = intern_name(mp + "peer_retries");
  keys_.timeouts = intern_name(mp + "peer_op_timeouts");
  keys_.dedup_hits = intern_name(mp + "peer_dedup_hits");
  keys_.late_reply = intern_name(mp + "late_reply");
  keys_.batch_occupancy = intern_name("cap." + std::to_string(self) + ".batch_occupancy");
}

PeerRpc::~PeerRpc() { fail_all(ErrorCode::kChannelClosed); }

void PeerRpc::bump(NameId key) {
  if (MetricsRegistry* m = loop_->metrics()) {
    m->add(key);
  }
}

// --- caller side ---------------------------------------------------------------------------------

template <typename Transmit>
Future<PeerRpc::Reply> PeerRpc::issue(ControllerAddr peer, uint64_t op_id,
                                      Transmit&& transmit) {
  Promise<Reply> promise;
  Future<Reply> inner = promise.future();
  if (!send_(peer, nullptr)) {
    promise.set(ErrorCode::kChannelClosed);
    return inner;
  }
  uint64_t span = 0;
  if (span_tracing_active() && loop_->span_tracer() != nullptr) {
    static const NameId kPeerOp = intern_name("peer-op");
    span = loop_->span_tracer()->begin(actor_, SpanKind::kController, kPeerOp, loop_->now());
  }
  pending_.emplace(op_id, PendingOp{std::move(promise), peer, span});
  transmit();
  if (!lossy_()) {
    // Clean fabric: the reply always arrives (or the peer's sever completes the op), so no
    // timers are armed and simulated time is untouched.
    return inner;
  }
  Future<Reply> bounded = with_timeout(*loop_, config_.peer_op_deadline, std::move(inner));
  // Scheduled after with_timeout's own deadline event (same instant, later sequence number):
  // the consumer sees kTimeout first, so dropping the promise here only triggers a guarded
  // no-op broken-promise delivery.
  loop_->schedule_after(config_.peer_op_deadline, [this, op_id]() { expire(op_id); });
  return bounded;
}

Future<PeerRpc::Reply> PeerRpc::call(ControllerAddr peer, Envelope env) {
  const uint64_t op_id = env.seq;
  return issue(peer, op_id,
               [&]() { send_frame(peer, {op_id}, Channel::frame(std::move(env))); });
}

Future<PeerRpc::Reply> PeerRpc::call_derive(ControllerAddr peer, RemoteDeriveMsg rd) {
  const uint64_t op_id = rd.op_id;
  if (config_.peer_op_batch_max == 0) {
    return call(peer, make_envelope(op_id, std::move(rd)));
  }
  return issue(peer, op_id, [&]() {
    PendingBatch& batch = batches_[peer];
    batch.ops.push_back(std::move(rd));
    if (batch.ops.size() >= config_.peer_op_batch_max) {
      flush(peer);
    } else if (!batch.flush_scheduled) {
      batch.flush_scheduled = true;
      loop_->schedule_after(config_.peer_op_batch_delay, [this, peer]() { flush(peer); });
    }
  });
}

void PeerRpc::flush(ControllerAddr peer) {
  auto bit = batches_.find(peer);
  if (bit == batches_.end()) {
    return;
  }
  PendingBatch batch = std::move(bit->second);
  batches_.erase(bit);
  // Drop members that already completed (severed peer, deadline or crash before the flush).
  std::erase_if(batch.ops,
                [this](const RemoteDeriveMsg& op) { return !pending_.contains(op.op_id); });
  if (batch.ops.empty() || !send_(peer, nullptr)) {
    return;
  }
  if (MetricsRegistry* m = loop_->metrics()) {
    m->observe(keys_.batch_occupancy, batch.ops.size());
  }
  std::vector<uint64_t> op_ids;
  op_ids.reserve(batch.ops.size());
  for (const RemoteDeriveMsg& op : batch.ops) {
    op_ids.push_back(op.op_id);
  }
  RemoteDeriveBatchMsg msg;
  msg.ops = std::move(batch.ops);
  send_frame(peer, std::move(op_ids),
             Channel::frame(make_envelope((*next_seq_)++, std::move(msg))));
}

void PeerRpc::send_frame(ControllerAddr peer, std::vector<uint64_t> op_ids, Payload frame) {
  send_(peer, &frame);
  if (lossy_()) {
    // Every resend carries this same frame (the Payload copy is a refcount bump).
    schedule_resend(peer, std::move(op_ids), std::move(frame), 1);
  }
}

void PeerRpc::schedule_resend(ControllerAddr peer, std::vector<uint64_t> op_ids, Payload frame,
                              uint32_t attempt) {
  if (attempt > config_.peer_op_retry_budget) {
    return;
  }
  const Duration delay =
      config_.peer_op_rto * static_cast<double>(uint64_t{1} << std::min(attempt - 1, 16u));
  loop_->schedule_after(delay, [this, peer, op_ids = std::move(op_ids), frame = std::move(frame),
                                attempt]() mutable {
    // The whole frame is resent while ANY of its ops is still pending; receiver-side per-op
    // dedup replays already-executed batch members instead of running them twice.
    const bool any_pending = std::any_of(op_ids.begin(), op_ids.end(),
                                         [this](uint64_t id) { return pending_.contains(id); });
    if (!any_pending) {
      return;  // answered, timed out, or failed
    }
    ++stats_->peer_retries;
    bump(keys_.retries);
    send_(peer, &frame);
    schedule_resend(peer, std::move(op_ids), std::move(frame), attempt + 1);
  });
}

Promise<PeerRpc::Reply> PeerRpc::take(std::unordered_map<uint64_t, PendingOp>::iterator it,
                                      const char* error) {
  Promise<Reply> promise = std::move(it->second.promise);
  const uint64_t span = it->second.span;
  pending_.erase(it);
  if (span != 0) {
    if (SpanTracer* t = loop_->span_tracer()) {
      if (error != nullptr) {
        t->end_error(span, loop_->now(), error);
      } else {
        t->end(span, loop_->now());
      }
    }
  }
  return promise;
}

void PeerRpc::expire(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) {
    return;
  }
  ++stats_->peer_op_timeouts;
  bump(keys_.timeouts);
  take(it, "timeout");
}

void PeerRpc::on_reply(const PeerReplyMsg& m) {
  auto it = pending_.find(m.op_id);
  if (it == pending_.end()) {
    // Resend-induced duplicates and post-timeout stragglers land here.
    ++stats_->late_replies_ignored;
    bump(keys_.late_reply);
    return;
  }
  take(it, nullptr).set(Reply(m));
}

template <typename Pred>
void PeerRpc::complete_if(Pred pred, ErrorCode status) {
  // Collect first: completing a promise runs its continuation synchronously, and a
  // continuation may start new peer ops.
  std::vector<uint64_t> ops;
  for (const auto& [op_id, op] : pending_) {
    if (pred(op)) {
      ops.push_back(op_id);
    }
  }
  for (uint64_t op_id : ops) {
    auto it = pending_.find(op_id);
    if (it != pending_.end()) {
      take(it, "channel-closed").set(status);
    }
  }
}

void PeerRpc::on_severed(ControllerAddr peer) {
  complete_if([peer](const PendingOp& op) { return op.peer == peer; },
              ErrorCode::kChannelClosed);
}

void PeerRpc::fail_all(ErrorCode status) {
  batches_.clear();
  complete_if([](const PendingOp&) { return true; }, status);
}

// --- receiver side -------------------------------------------------------------------------------

const PeerReplyMsg* PeerRpc::lookup(ControllerAddr origin, uint64_t op_id) {
  if (!lossy_()) {
    return nullptr;
  }
  auto it = cache_.find(cache_key(origin, op_id));
  if (it == cache_.end()) {
    return nullptr;
  }
  ++stats_->peer_dedup_hits;
  bump(keys_.dedup_hits);
  return &it->second;
}

void PeerRpc::remember(ControllerAddr origin, const PeerReplyMsg& reply) {
  if (!lossy_()) {
    return;  // duplicates are impossible on a clean fabric; don't grow state for nothing
  }
  // Deterministic TTL eviction on simulated time: once an entry outlives peer_op_dedup_ttl
  // (>> peer_op_deadline), no resend of its op can still arrive. The size cap stays as the
  // hard backstop.
  const Time now = loop_->now();
  while (!cache_fifo_.empty() &&
         now.ns() - cache_fifo_.front().second.ns() >= config_.peer_op_dedup_ttl.ns()) {
    cache_.erase(cache_fifo_.front().first);
    cache_fifo_.pop_front();
  }
  const uint64_t key = cache_key(origin, reply.op_id);
  if (cache_.emplace(key, reply).second) {
    cache_fifo_.push_back({key, now});
    if (cache_fifo_.size() > kCompletedPeerOpCacheCap) {
      cache_.erase(cache_fifo_.front().first);
      cache_fifo_.pop_front();
    }
  }
}

void PeerRpc::clear_cache() {
  cache_.clear();
  cache_fifo_.clear();
}

}  // namespace fractos
