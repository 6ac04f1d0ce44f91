// Tests for Controller span tracing and the Controller operation counters.

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "src/core/system.h"
#include "src/sim/span.h"

namespace fractos {
namespace {

class TraceStatsTest : public ::testing::Test {
 protected:
  TraceStatsTest() {
    n0_ = sys_.add_node("n0");
    n1_ = sys_.add_node("n1");
    c0_ = &sys_.add_controller(n0_, Loc::kHost);
    c1_ = &sys_.add_controller(n1_, Loc::kHost);
    a_ = &sys_.spawn("a", n0_, *c0_);
    b_ = &sys_.spawn("b", n1_, *c1_);
  }

  System sys_;
  uint32_t n0_ = 0, n1_ = 0;
  Controller *c0_ = nullptr, *c1_ = nullptr;
  Process *a_ = nullptr, *b_ = nullptr;
};

// Spans recorded by `actor` with the given kind and name.
std::vector<const Span*> spans_of(const SpanTracer& tracer, std::string_view actor,
                                  SpanKind kind, std::string_view name) {
  std::vector<const Span*> out;
  for (const Span& s : tracer.spans()) {
    if (s.actor() == actor && s.kind == kind && s.name() == name) {
      out.push_back(&s);
    }
  }
  return out;
}

TEST_F(TraceStatsTest, TracerSeesTheLifeOfAnRpc) {
  SpanTracer tracer;
  sys_.loop().set_span_tracer(&tracer);
  const uint64_t root = tracer.start_trace("test", "rpc", sys_.loop().now());
  {
    SpanScope scope(tracer.context_of(root));
    int handled = 0;
    const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received) { ++handled; }));
    const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
    ASSERT_TRUE(sys_.await(a_->request_invoke(ep_a)).ok());
    sys_.loop().run();
    EXPECT_EQ(handled, 1);
  }
  tracer.end(root, sys_.loop().now());
  sys_.loop().set_span_tracer(nullptr);

  const auto ctl = SpanKind::kController;
  // b's endpoint is created at b's controller (ctrl-2).
  EXPECT_EQ(spans_of(tracer, "ctrl-2", ctl, "RequestCreate").size(), 1u);
  EXPECT_TRUE(spans_of(tracer, "ctrl-1", ctl, "RequestCreate").empty());
  // The invocation is a syscall at a's controller (ctrl-1), which forwards it to ctrl-2;
  // ctrl-2 delivers it to b.
  const auto invoke = spans_of(tracer, "ctrl-1", ctl, "RequestInvoke");
  const auto remote = spans_of(tracer, "ctrl-2", ctl, "peer-RemoteInvoke");
  ASSERT_EQ(invoke.size(), 1u);
  ASSERT_EQ(remote.size(), 1u);
  EXPECT_TRUE(spans_of(tracer, "ctrl-2", ctl, "RequestInvoke").empty());
  EXPECT_TRUE(spans_of(tracer, "ctrl-1", ctl, "peer-RemoteInvoke").empty());
  EXPECT_LT(invoke[0]->t_start.ns(), remote[0]->t_start.ns());
  EXPECT_EQ(c1_->stats().deliveries, 1u);
  EXPECT_EQ(c0_->stats().deliveries, 0u);
  // Every span is closed and well-formed.
  for (const Span& s : tracer.spans()) {
    EXPECT_FALSE(s.open);
    EXPECT_LE(s.t_start.ns(), s.t_end.ns());
  }
}

TEST_F(TraceStatsTest, TracerSeesRevocationAndFailure) {
  SpanTracer tracer;
  sys_.loop().set_span_tracer(&tracer);
  const uint64_t root = tracer.start_trace("test", "revoke", sys_.loop().now());
  {
    SpanScope scope(tracer.context_of(root));
    const CapId mem = sys_.await_ok(a_->memory_create(a_->alloc(64), 64, Perms::kRead));
    ASSERT_TRUE(sys_.await(a_->cap_revoke(mem)).ok());
    sys_.loop().run();
  }
  tracer.end(root, sys_.loop().now());
  sys_.loop().set_span_tracer(nullptr);
  // The revocation runs at the owner (ctrl-1), whose cleanup broadcast ctrl-2 acknowledges.
  const auto ctl = SpanKind::kController;
  EXPECT_EQ(spans_of(tracer, "ctrl-1", ctl, "CapRevoke").size(), 1u);
  EXPECT_TRUE(spans_of(tracer, "ctrl-2", ctl, "CapRevoke").empty());
  EXPECT_EQ(spans_of(tracer, "ctrl-2", ctl, "peer-RevokeBroadcast").size(), 1u);
  EXPECT_TRUE(spans_of(tracer, "ctrl-1", ctl, "peer-RevokeBroadcast").empty());
  EXPECT_EQ(spans_of(tracer, "ctrl-1", ctl, "peer-RevokeAck").size(), 1u);
  EXPECT_EQ(c0_->stats().revocations, 1u);
  EXPECT_EQ(c1_->stats().revocations, 0u);

  // Failure translation records no span: it shows in b's controller's counters only.
  sys_.fail_process(*b_);
  sys_.loop().run();
  EXPECT_EQ(c1_->stats().process_failures, 1u);
  EXPECT_EQ(c0_->stats().process_failures, 0u);
}

TEST_F(TraceStatsTest, StatsCountTheRightOperations) {
  const auto& s0 = c0_->stats();
  const auto& s1 = c1_->stats();

  // One cross-node RPC: forwarded at c0, received+delivered at c1.
  int handled = 0;
  const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received) { ++handled; }));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  ASSERT_TRUE(sys_.await(a_->request_invoke(ep_a)).ok());
  sys_.loop().run();
  EXPECT_EQ(s0.invokes_forwarded, 1u);
  EXPECT_EQ(s1.invokes_received, 1u);
  EXPECT_EQ(s1.deliveries, 1u);
  EXPECT_EQ(s0.invokes_local, 0u);

  // A local invocation counts as local at c1.
  ASSERT_TRUE(sys_.await(b_->request_invoke(ep)).ok());
  sys_.loop().run();
  EXPECT_EQ(s1.invokes_local, 1u);

  // A copy accounts its bytes at the orchestrating controller.
  const CapId src = sys_.await_ok(a_->memory_create(a_->alloc(4096), 4096, Perms::kRead));
  const CapId dst_b = sys_.await_ok(b_->memory_create(b_->alloc(4096), 4096, Perms::kReadWrite));
  const CapId dst = sys_.bootstrap_grant(*b_, dst_b, *a_).value();
  ASSERT_TRUE(sys_.await(a_->memory_copy(src, dst)).ok());
  EXPECT_EQ(s0.copies, 1u);
  EXPECT_EQ(s0.copy_bytes, 4096u);

  // Revocation + two-phase reclaim counted at the owner.
  ASSERT_TRUE(sys_.await(a_->cap_revoke(src)).ok());
  sys_.loop().run();
  EXPECT_GE(s0.revocations, 1u);
  EXPECT_GE(s0.objects_reclaimed, 1u);

  // Remote derivation counted at the owner (c1).
  ASSERT_TRUE(sys_.await(a_->request_derive(ep_a, Process::Args{}.imm_u64(0, 1))).ok());
  EXPECT_EQ(s1.derivations, 1u);

  // Process failure translation.
  sys_.fail_process(*a_);
  sys_.loop().run();
  EXPECT_EQ(s0.process_failures, 1u);
}

TEST(ChannelHardeningTest, MalformedBytesAreDroppedNotFatal) {
  // A hostile Process scribbling garbage on its Controller channel must not take the
  // Controller down (it is the trusted computing base): malformed frames are dropped and
  // counted, well-formed traffic keeps flowing.
  EventLoop loop;
  Network net(&loop);
  const uint32_t n0 = net.add_node("n0");
  Channel a(&net, Endpoint{n0, Loc::kHost});
  Channel b(&net, Endpoint{n0, Loc::kHost});
  Channel::connect(a, b);
  int delivered = 0;
  b.set_handler([&](Envelope) { ++delivered; });
  a.set_handler([](Envelope) {});

  b.inject_raw_for_test({0xde, 0xad, 0xbe, 0xef});          // garbage
  Envelope env = make_envelope(2, NullOpMsg{});
  auto corrupted = encode_envelope(env);
  corrupted[0] = 0xee;                                      // invalid message type
  b.inject_raw_for_test(std::move(corrupted));
  auto truncated = encode_envelope(make_envelope(3, MemoryCreateMsg{0, 0, 64, Perms::kRead}));
  truncated.resize(truncated.size() / 2);                   // cut mid-payload
  b.inject_raw_for_test(std::move(truncated));
  EXPECT_EQ(b.malformed_dropped(), 3u);
  EXPECT_EQ(delivered, 0);

  a.send(Traffic::kControl, make_envelope(1, NullOpMsg{}));  // real traffic still flows
  loop.run();
  EXPECT_EQ(delivered, 1);
}


}  // namespace
}  // namespace fractos
