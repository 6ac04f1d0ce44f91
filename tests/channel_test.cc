// Typed frames on a Channel pair (src/core/channel.h): envelopes of every message type arrive
// exactly once, in order and intact, over a clean fabric and over a lossy one with RC on, and
// the fabric charges each frame exactly its encoded size. A frame that another holder still
// shares (a retransmit entry, a duplicated delivery, the sender itself) is copied on receipt,
// never moved out from under that holder.

#include "src/core/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/fabric/network.h"
#include "src/sim/rng.h"
#include "tests/envelope_gen.h"

namespace fractos {
namespace {

// Three envelopes of each message type, in type order.
std::vector<Envelope> every_type(uint64_t seed) {
  Rng rng(seed);
  std::vector<Envelope> envs;
  for (int i = 0; i < 3 * testing_gen::kMsgTypeCount; ++i) {
    envs.push_back(testing_gen::random_envelope(
        rng, static_cast<MsgType>(i % testing_gen::kMsgTypeCount), static_cast<uint64_t>(i)));
  }
  return envs;
}

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : net_(&loop_) {
    n0_ = net_.add_node("n0");
    n1_ = net_.add_node("n1");
  }

  EventLoop loop_;
  Network net_;
  uint32_t n0_, n1_;
};

TEST_F(ChannelTest, CleanFabricChargesEachFrameItsEncodedSize) {
  Channel a(&net_, Endpoint{n0_, Loc::kHost});
  Channel b(&net_, Endpoint{n1_, Loc::kHost});
  Channel::connect(a, b);
  std::vector<Envelope> got;
  b.set_handler([&](Envelope env) { got.push_back(std::move(env)); });
  a.set_handler([](Envelope) {});

  const std::vector<Envelope> want = every_type(7);
  uint64_t wire_bytes = 0;
  for (const Envelope& env : want) {
    const uint64_t size = encode_envelope(env).size();
    wire_bytes += size + net_.params().header_bytes *
                             segment_count(size, net_.params().mtu_bytes);
    a.send(Traffic::kControl, env);
  }
  loop_.run();

  EXPECT_EQ(got, want);
  EXPECT_EQ(net_.counters().control_messages(), want.size());
  EXPECT_EQ(net_.counters().bytes[0], wire_bytes);
  EXPECT_EQ(net_.counters().bytes[1], 0u);
}

TEST_F(ChannelTest, LossyFabricDeliversEachEnvelopeOnceInOrder) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob[0] = 0.2;
  plan.dup_prob[0] = 0.2;
  plan.jitter_prob[0] = 0.3;
  net_.install_fault_injector(plan);
  Channel a(&net_, Endpoint{n0_, Loc::kHost});
  Channel b(&net_, Endpoint{n1_, Loc::kHost});
  Channel::connect(a, b);
  std::vector<Envelope> got;
  b.set_handler([&](Envelope env) { got.push_back(std::move(env)); });
  a.set_handler([](Envelope) {});

  // Odd frames are also held by the test, like a PeerRpc resend would hold them; even ones
  // are shared only by the fabric (RC retransmit entries, duplicated deliveries).
  const std::vector<Envelope> want = every_type(8);
  std::vector<Payload> held;
  for (size_t i = 0; i < want.size(); ++i) {
    Payload frame = Channel::frame(want[i]);
    if (i % 2 == 1) {
      held.push_back(frame);
    }
    a.send(Traffic::kControl, std::move(frame));
  }
  loop_.run();

  EXPECT_EQ(got, want);
  EXPECT_FALSE(a.severed());
  const FaultCounters& faults = net_.fault_injector()->counters();
  EXPECT_GT(faults.dropped[0], 0u);
  EXPECT_GT(faults.duplicated[0], 0u);
  for (size_t i = 0; i < held.size(); ++i) {
    ASSERT_NE(held[i].get<Envelope>(), nullptr);
    EXPECT_EQ(*held[i].get<Envelope>(), want[2 * i + 1]) << "held frame " << i;
  }
}

TEST_F(ChannelTest, DuplicatedFrameArrivesIntactBothTimes) {
  // Datagram service has no receiver dedup, so both copies of a duplicated frame reach the
  // handler: whichever takes the envelope first must leave it whole for the other.
  FaultPlan plan;
  plan.dup_prob[0] = 1.0;
  net_.install_fault_injector(plan);
  QueuePair a(&net_, Endpoint{n0_, Loc::kHost});
  QueuePair b(&net_, Endpoint{n1_, Loc::kHost});
  QueuePair::connect(a, b);
  a.set_mode(QueuePair::Mode::kDatagram);
  b.set_mode(QueuePair::Mode::kDatagram);
  std::vector<Envelope> got;
  b.set_receive_handler(
      [&](Payload frame) { got.push_back(std::move(frame).take<Envelope>()); });
  a.set_receive_handler([](Payload) {});

  const std::vector<Envelope> want = every_type(9);
  for (const Envelope& env : want) {
    a.send(Traffic::kControl, Channel::frame(env));
  }
  loop_.run();

  ASSERT_EQ(got.size(), 2 * want.size());
  for (const Envelope& env : want) {
    EXPECT_EQ(std::count(got.begin(), got.end(), env), 2) << msg_type_name(env.type);
  }
}

}  // namespace
}  // namespace fractos
