// Envelope-typed message channel: a QueuePair whose frames carry FractOS protocol envelopes.
// Used both for Process<->Controller request/response queues and for Controller<->Controller
// links.
//
// A frame is the Envelope itself inside a typed Payload, declared at its exact encoded size
// (encoded_size), so the fabric charges, queues and counts the same bytes as if the envelope
// had been serialized, and nothing is encoded or decoded on the way. A byte frame (only
// inject_raw_for_test makes one) is decoded, and dropped and counted when malformed.

#ifndef SRC_CORE_CHANNEL_H_
#define SRC_CORE_CHANNEL_H_

#include <utility>

#include "src/base/assert.h"
#include "src/fabric/queue_pair.h"
#include "src/sim/inline_fn.h"
#include "src/wire/message.h"

namespace fractos {

class Channel {
 public:
  using Handler = InlineFn<void(Envelope)>;
  using SeveredHandler = InlineFn<void()>;

  Channel(Network* net, Endpoint local) : qp_(net, local) {
    qp_.set_receive_handler([this](Payload frame) { on_frame(std::move(frame)); });
  }

  static void connect(Channel& a, Channel& b) { QueuePair::connect(a.qp_, b.qp_); }

  Endpoint local() const { return qp_.local(); }
  Endpoint remote() const { return qp_.remote(); }
  bool severed() const { return qp_.severed(); }

  void set_handler(Handler handler) { handler_ = std::move(handler); }
  void set_severed_handler(SeveredHandler handler) {
    qp_.set_severed_handler(std::move(handler));
  }

  // The frame carrying `env`. Retry loops (PeerRpc resends) build it once and send the same
  // refcounted frame on every attempt.
  static Payload frame(Envelope env) {
    const size_t size = encoded_size(env);
    // Debug builds push every frame through the codec, so the whole test suite keeps
    // checking that the bytes a frame is charged for decode back to the envelope it carries.
    FRACTOS_DCHECK(codec_round_trips(env, size));
    return Payload::of(std::move(env), size);
  }

  void send(Traffic category, Payload frame) { qp_.send(category, std::move(frame)); }
  void send(Traffic category, Envelope env) { send(category, frame(std::move(env))); }

  void sever() { qp_.sever(); }

  uint64_t malformed_dropped() const { return malformed_dropped_; }

  // Test hook: feeds raw bytes to the receive path as if they arrived on the wire (the
  // Process API always sends typed frames, so hostile raw frames can only be injected this
  // way).
  void inject_raw_for_test(std::vector<uint8_t> bytes) { on_frame(Payload(std::move(bytes))); }

 private:
  static bool codec_round_trips(const Envelope& env, size_t size) {
    const std::vector<uint8_t> bytes = encode_envelope(env);
    auto decoded = decode_envelope(bytes);
    return bytes.size() == size && decoded.ok() && decoded.value() == env;
  }

  void on_frame(Payload frame) {
    Envelope env;
    if (frame.get<Envelope>() != nullptr) {
      env = std::move(frame).take<Envelope>();
    } else {
      auto decoded = decode_envelope(frame.bytes());
      if (!decoded.ok()) {
        // Bytes on a channel come from an UNTRUSTED Process (or a peer with a bug): a
        // trusted Controller must never abort on malformed input — drop it and count it.
        ++malformed_dropped_;
        return;
      }
      env = std::move(decoded).value();
    }
    if (handler_ != nullptr) {
      handler_(std::move(env));
    }
  }

  QueuePair qp_;
  Handler handler_;
  uint64_t malformed_dropped_ = 0;
};

}  // namespace fractos

#endif  // SRC_CORE_CHANNEL_H_
