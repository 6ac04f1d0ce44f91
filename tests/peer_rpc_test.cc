// Direct tests of PeerRpc's contract (DESIGN.md §4c), driven over a fake link that can drop,
// duplicate and delay (hence reorder) every frame in both directions. The fault schedule is
// seeded from FRACTOS_CHAOS_SEED (default 0xC0FFEE), like the chaos soak.

#include "src/core/peer_rpc.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "src/core/controller.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

constexpr ControllerAddr kCaller = 1;
constexpr ControllerAddr kOwner = 2;

uint64_t base_seed() {
  if (const char* env = std::getenv("FRACTOS_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC0FFEE;
}

// The caller side of ctrl-1 and the owner side of ctrl-2, joined by the fake link. The owner
// answers each op through PeerRpc's reply cache and counts how often it executed each op id.
class Harness {
 public:
  explicit Harness(PeerRpc::Config config, bool lossy = true, uint64_t seed = 1)
      : rng_(seed), lossy_(lossy),
        caller_(&loop_, kCaller, config, &caller_stats_, &caller_seq_,
                [this](ControllerAddr peer, const Payload* frame) { return send(peer, frame); },
                [this]() { return lossy_; }),
        owner_(&loop_, kOwner, config, &owner_stats_, &owner_seq_,
               [](ControllerAddr, const Payload*) { return false; },
               [this]() { return lossy_; }) {}

  // Fault knobs: per-frame drop and duplicate probabilities, and a uniform extra delay in
  // [0, max_jitter] on every copy. With `deliver` off, frames are recorded but never arrive.
  double drop = 0;
  double dup = 0;
  Duration max_jitter = Duration::zero();
  bool deliver = true;
  std::set<ControllerAddr> down;  // unreachable peers

  EventLoop& loop() { return loop_; }
  PeerRpc& caller() { return caller_; }
  PeerRpc& owner() { return owner_; }
  const ControllerStats& caller_stats() const { return caller_stats_; }
  const ControllerStats& owner_stats() const { return owner_stats_; }

  uint64_t derive(ControllerAddr peer = kOwner) {
    RemoteDeriveMsg rd;
    rd.op_id = next_op_++;
    track(rd.op_id, caller_.call_derive(peer, rd));
    return rd.op_id;
  }
  uint64_t monitor() {
    const uint64_t op_id = next_op_++;
    track(op_id, caller_.call(kOwner, make_envelope(op_id, RegisterMonitorMsg{})));
    return op_id;
  }
  // Delivers a reply to the caller as if it came off the wire.
  void reply(uint64_t op_id) { on_reply(PeerReplyMsg{op_id, ErrorCode::kOk, {}}); }

  std::vector<Payload> frames;        // every request frame handed to the link
  std::vector<Envelope> sent;         // the envelope each of those frames carries
  std::map<uint64_t, int> executed;   // owner-side executions per op id
  std::map<uint64_t, int> completed;  // caller-side completions per op id
  std::map<uint64_t, ErrorCode> outcome;
  uint64_t late_replies = 0;  // replies that reached an op with an outcome already
  uint64_t drops = 0;
  uint64_t dups = 0;

 private:
  void track(uint64_t op_id, Future<PeerRpc::Reply> f) {
    f.on_ready([this, op_id](PeerRpc::Reply&& r) {
      ++completed[op_id];
      outcome[op_id] = r.ok() ? ErrorCode::kOk : r.error();
      if (r.ok()) {
        EXPECT_EQ(r.value().op_id, op_id);
      }
    });
  }

  bool send(ControllerAddr peer, const Payload* frame) {
    if (down.contains(peer)) {
      return false;
    }
    if (frame == nullptr) {
      return true;
    }
    const Envelope* env = frame->get<Envelope>();
    EXPECT_NE(env, nullptr) << "the send hook got a frame that is not a typed Envelope";
    if (env == nullptr) {
      return true;
    }
    const Envelope e = *env;
    frames.push_back(*frame);
    sent.push_back(e);
    carry([this, e]() { on_request(e); });
    return true;
  }

  template <typename F>
  void carry(F arrive) {
    if (!deliver) {
      return;
    }
    if (rng_.next_double() < drop) {
      ++drops;
      return;
    }
    int copies = 1;
    if (rng_.next_double() < dup) {
      ++dups;
      copies = 2;
    }
    for (int i = 0; i < copies; ++i) {
      const Duration delay =
          Duration::nanos(500 + static_cast<int64_t>(rng_.next_below(max_jitter.ns() + 1)));
      loop_.schedule_after(delay, arrive);
    }
  }

  PeerReplyMsg execute(uint64_t op_id) {
    if (const PeerReplyMsg* cached = owner_.lookup(kCaller, op_id)) {
      return *cached;
    }
    ++executed[op_id];
    const PeerReplyMsg r{op_id, ErrorCode::kOk, {}};
    owner_.remember(kCaller, r);
    return r;
  }

  void on_request(const Envelope& e) {
    std::vector<PeerReplyMsg> replies;
    switch (e.type) {
      case MsgType::kRemoteDerive:
        replies.push_back(execute(std::get<RemoteDeriveMsg>(e.body).op_id));
        break;
      case MsgType::kRegisterMonitor:
        replies.push_back(execute(e.seq));
        break;
      case MsgType::kRemoteDeriveBatch:
        for (const RemoteDeriveMsg& op : std::get<RemoteDeriveBatchMsg>(e.body).ops) {
          replies.push_back(execute(op.op_id));
        }
        break;
      default:
        FAIL() << "unexpected request type";
    }
    carry([this, replies]() {
      for (const PeerReplyMsg& r : replies) {
        on_reply(r);
      }
    });
  }

  void on_reply(const PeerReplyMsg& r) {
    if (outcome.contains(r.op_id)) {
      ++late_replies;
    }
    caller_.on_reply(r);
  }

  EventLoop loop_;
  Rng rng_;
  bool lossy_;
  ControllerStats caller_stats_;
  ControllerStats owner_stats_;
  uint64_t caller_seq_ = 1;
  uint64_t owner_seq_ = 1;
  uint64_t next_op_ = 1;
  PeerRpc caller_;
  PeerRpc owner_;
};

TEST(PeerRpcTest, EachOpCompletesExactlyOnceUnderDupDropReorder) {
  for (const uint32_t batch_max : {0u, 4u}) {
    SCOPED_TRACE(testing::Message() << "batch_max " << batch_max);
    PeerRpc::Config cfg;
    cfg.peer_op_batch_max = batch_max;
    Harness h(cfg, /*lossy=*/true, base_seed() + batch_max);
    h.drop = 0.2;
    h.dup = 0.2;
    h.max_jitter = Duration::micros(200);  // above peer_op_rto: resends overtake replies
    std::vector<uint64_t> ops;
    for (int round = 0; round < 60; ++round) {
      for (int i = 0; i < 3; ++i) {
        ops.push_back(i == 2 ? h.monitor() : h.derive());
      }
      h.loop().run_until_time(h.loop().now() + Duration::micros(5));
    }
    h.loop().run();

    EXPECT_EQ(h.caller().pending(), 0u);
    uint64_t timeouts = 0;
    for (uint64_t op : ops) {
      EXPECT_EQ(h.completed[op], 1) << "op " << op;
      EXPECT_LE(h.executed[op], 1) << "op " << op;
      const ErrorCode ec = h.outcome[op];
      ASSERT_TRUE(ec == ErrorCode::kOk || ec == ErrorCode::kTimeout) << error_code_name(ec);
      if (ec == ErrorCode::kOk) {
        EXPECT_EQ(h.executed[op], 1) << "op " << op;
      } else {
        ++timeouts;
      }
    }
    EXPECT_EQ(h.caller_stats().peer_op_timeouts, timeouts);
    EXPECT_EQ(h.caller_stats().late_replies_ignored, h.late_replies);
    // The schedule really perturbed the run, and every mechanism fired.
    EXPECT_GT(h.drops, 0u);
    EXPECT_GT(h.dups, 0u);
    EXPECT_GT(h.caller_stats().peer_retries, 0u);
    EXPECT_GT(h.owner_stats().peer_dedup_hits, 0u);
    EXPECT_GT(h.late_replies, 0u);
  }
}

TEST(PeerRpcTest, DuplicateAndLateRepliesAreIgnoredAndCounted) {
  {
    Harness h(PeerRpc::Config{}, /*lossy=*/false);
    h.deliver = false;
    const uint64_t op = h.derive();
    h.reply(op);
    h.reply(op);  // duplicate
    EXPECT_EQ(h.completed[op], 1);
    EXPECT_EQ(h.outcome[op], ErrorCode::kOk);
    EXPECT_EQ(h.caller_stats().late_replies_ignored, 1u);
  }
  {
    Harness h(PeerRpc::Config{}, /*lossy=*/true);
    h.deliver = false;
    const uint64_t op = h.derive();
    h.loop().run();
    ASSERT_EQ(h.outcome[op], ErrorCode::kTimeout);
    h.reply(op);  // straggler after the deadline
    EXPECT_EQ(h.completed[op], 1);
    EXPECT_EQ(h.outcome[op], ErrorCode::kTimeout);
    EXPECT_EQ(h.caller_stats().late_replies_ignored, 1u);
  }
}

TEST(PeerRpcTest, BatchFrameIsResentWhileAnyMemberIsPending) {
  PeerRpc::Config cfg;
  cfg.peer_op_batch_max = 3;
  Harness h(cfg, /*lossy=*/true);
  h.deliver = false;
  const uint64_t a = h.derive();
  const uint64_t b = h.derive();
  EXPECT_TRUE(h.sent.empty());  // waits peer_op_batch_delay for a third member
  h.loop().run_until_time(h.loop().now() + cfg.peer_op_batch_delay);
  ASSERT_EQ(h.sent.size(), 1u);
  ASSERT_EQ(h.sent[0].type, MsgType::kRemoteDeriveBatch);
  EXPECT_EQ(std::get<RemoteDeriveBatchMsg>(h.sent[0].body).ops.size(), 2u);

  h.reply(a);  // b is still pending: the whole frame goes out again
  h.loop().run_until_time(h.loop().now() + cfg.peer_op_rto);
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].type, MsgType::kRemoteDeriveBatch);
  EXPECT_EQ(h.sent[1].seq, h.sent[0].seq);
  // The resend is the very frame of the first send, not a rebuilt copy.
  EXPECT_EQ(h.frames[1].get<Envelope>(), h.frames[0].get<Envelope>());
  EXPECT_EQ(h.caller_stats().peer_retries, 1u);

  h.reply(b);  // nothing pending: no further resend
  h.loop().run();
  EXPECT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.caller_stats().peer_retries, 1u);
  EXPECT_EQ(h.outcome[a], ErrorCode::kOk);
  EXPECT_EQ(h.outcome[b], ErrorCode::kOk);
  EXPECT_EQ(h.caller_stats().peer_op_timeouts, 0u);
}

TEST(PeerRpcTest, SeverCompletesOnlyThatPeersOps) {
  Harness h(PeerRpc::Config{}, /*lossy=*/false);
  h.deliver = false;
  const uint64_t x = h.derive(kOwner);
  const uint64_t y = h.monitor();
  const uint64_t z = h.derive(3);
  h.caller().on_severed(kOwner);
  EXPECT_EQ(h.outcome[x], ErrorCode::kChannelClosed);
  EXPECT_EQ(h.outcome[y], ErrorCode::kChannelClosed);
  EXPECT_FALSE(h.outcome.contains(z));
  EXPECT_EQ(h.caller().pending(), 1u);

  // An unreachable peer fails a new op at once, without putting anything on the wire.
  h.down.insert(kOwner);
  const size_t frames = h.sent.size();
  const uint64_t w = h.derive(kOwner);
  EXPECT_EQ(h.outcome[w], ErrorCode::kChannelClosed);
  EXPECT_EQ(h.sent.size(), frames);
  EXPECT_EQ(h.caller().pending(), 1u);
}

TEST(PeerRpcTest, DeadlineGivesTimeout) {
  PeerRpc::Config cfg;
  Harness h(cfg, /*lossy=*/true);
  h.deliver = false;
  const Time start = h.loop().now();
  const uint64_t op = h.derive();
  h.loop().run();
  EXPECT_EQ(h.outcome[op], ErrorCode::kTimeout);
  EXPECT_EQ(h.caller_stats().peer_op_timeouts, 1u);
  EXPECT_EQ(h.caller().pending(), 0u);
  // Resends at rto and 3 * rto; the next one would fall after the deadline.
  EXPECT_EQ(h.caller_stats().peer_retries, 2u);
  EXPECT_EQ(h.sent.size(), 3u);
  EXPECT_GE((h.loop().now() - start).ns(), cfg.peer_op_deadline.ns());
}

TEST(PeerRpcTest, ReplyCacheEvictsByTtlAndStaysBounded) {
  PeerRpc::Config cfg;
  cfg.peer_op_dedup_ttl = Duration::micros(50);
  Harness h(cfg, /*lossy=*/true);
  PeerRpc& rpc = h.owner();
  const Time t0 = h.loop().now();
  rpc.remember(kCaller, PeerReplyMsg{1, ErrorCode::kOk, {}});
  h.loop().run_until_time(t0 + (cfg.peer_op_dedup_ttl - Duration::nanos(1)));
  rpc.remember(kCaller, PeerReplyMsg{2, ErrorCode::kOk, {}});
  EXPECT_NE(rpc.lookup(kCaller, 1), nullptr);  // younger than the TTL
  h.loop().run_until_time(t0 + cfg.peer_op_dedup_ttl);
  rpc.remember(kCaller, PeerReplyMsg{3, ErrorCode::kOk, {}});
  EXPECT_EQ(rpc.lookup(kCaller, 1), nullptr);  // aged out
  EXPECT_NE(rpc.lookup(kCaller, 2), nullptr);
  EXPECT_NE(rpc.lookup(kCaller, 3), nullptr);
  EXPECT_EQ(rpc.lookup(kOwner, 3), nullptr);  // keyed by origin too
  EXPECT_EQ(h.owner_stats().peer_dedup_hits, 3u);

  // A burst within one instant is capped, oldest first.
  const uint64_t n = PeerRpc::kCompletedPeerOpCacheCap + 100;
  for (uint64_t op = 10; op < 10 + n; ++op) {
    rpc.remember(kCaller, PeerReplyMsg{op, ErrorCode::kOk, {}});
    ASSERT_LE(rpc.cache_size(), PeerRpc::kCompletedPeerOpCacheCap);
  }
  EXPECT_EQ(rpc.cache_size(), PeerRpc::kCompletedPeerOpCacheCap);
  EXPECT_EQ(rpc.lookup(kCaller, 10), nullptr);
  EXPECT_NE(rpc.lookup(kCaller, 10 + n - 1), nullptr);

  // On a clean fabric duplicates cannot happen, so nothing is cached.
  Harness clean(cfg, /*lossy=*/false);
  clean.owner().remember(kCaller, PeerReplyMsg{1, ErrorCode::kOk, {}});
  EXPECT_EQ(clean.owner().cache_size(), 0u);
  EXPECT_EQ(clean.owner().lookup(kCaller, 1), nullptr);
}

TEST(PeerRpcTest, DestructionCompletesEveryPendingOp) {
  EventLoop loop;
  ControllerStats stats;
  uint64_t seq = 1;
  std::vector<Future<PeerRpc::Reply>> futures;
  {
    PeerRpc::Config cfg;
    cfg.peer_op_batch_max = 4;
    PeerRpc rpc(&loop, kCaller, cfg, &stats, &seq,
                [](ControllerAddr, const Payload*) { return true; },
                []() { return true; });
    RemoteDeriveMsg rd;
    rd.op_id = 1;
    futures.push_back(rpc.call_derive(kOwner, rd));  // queued in an unflushed batch
    futures.push_back(rpc.call(kOwner, make_envelope(2, RegisterMonitorMsg{})));
    EXPECT_EQ(rpc.pending(), 2u);
  }
  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_FALSE(f.broken());
    EXPECT_EQ(f.peek().error(), ErrorCode::kChannelClosed);
  }
}

}  // namespace
}  // namespace fractos
