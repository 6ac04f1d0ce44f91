// Payload: an immutable, refcounted frame — the unit the simulated fabric carries.
//
// Before this type existed, every hop owned its bytes: Network::send copied the vector into
// the delivery closure, a duplicated message copied it again, every QueuePair retransmit
// copied it onto the wire, and RDMA verbs copied between pools and closures. For the
// payload-heavy paths (256 KiB storage reads, 512 KiB image batches) those copies dominated
// wall-clock time without changing a single simulated timestamp — pure simulator overhead.
//
// Payload copies are refcount bumps. The bytes are copied exactly once, at the origin
// (`Payload{std::move(vec)}` doesn't even copy — it adopts the vector). Immutability makes
// the sharing safe: no API exposes a mutable view, so a retransmitted message and its
// original can alias the same Rep forever. The refcount is atomic (relaxed increments,
// acquire-release decrement) because sharded parallel runs (DESIGN.md §4j) can retain and
// release a Rep from different shard threads — e.g. a retransmit buffer freed after its
// payload crossed a rack boundary. Uncontended atomic RMWs are a few cycles; measured noise
// on bench_simspeed's soaks.
//
// A payload is either bytes or a typed object with a declared wire size (Payload::of). The
// fabric reads only size(), so a control message can travel as the object itself, charged
// its exact encoded size, and is never serialized: the receiver takes the object back out
// (take), moving it when no other handle — a retransmit buffer, a duplicated delivery —
// still shares the frame.
//
// `std::vector<uint8_t>` converts implicitly, so existing call sites that build a vector
// (or a braced list) keep compiling; they now pay one adoption instead of N copies.

#ifndef SRC_FABRIC_PAYLOAD_H_
#define SRC_FABRIC_PAYLOAD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/base/assert.h"

namespace fractos {

class Payload {
 public:
  Payload() = default;

  // Adopts `bytes` (no copy). Implicit so vector-producing call sites — Encoder::take(),
  // braced literals in tests — convert without ceremony.
  Payload(std::vector<uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : rep_(new BytesRep(std::move(bytes))) {}

  // Braced literals (`send(..., {1, 2, 3}, ...)`) — mostly tests and fixtures.
  Payload(std::initializer_list<uint8_t> bytes) : Payload(std::vector<uint8_t>(bytes)) {}

  // A zero-filled payload of `n` bytes (wire padding, ACK frames).
  static Payload zeros(size_t n) { return Payload(std::vector<uint8_t>(n)); }

  // A typed frame: `object` and its wire size in one allocation. size() is `wire_size`;
  // there are no bytes.
  template <typename T>
  static Payload of(T object, size_t wire_size) {
    Payload p;
    p.rep_ = new TypedRep<T>(std::move(object), wire_size);
    return p;
  }

  Payload(const Payload& other) : rep_(other.rep_) {
    if (rep_ != nullptr) {
      rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Payload(Payload&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      Payload tmp(other);
      std::swap(rep_, tmp.rep_);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~Payload() { unref(); }

  // Bytes charged to the wire: the byte count, or a typed frame's declared size.
  size_t size() const { return rep_ != nullptr ? rep_->size : 0; }
  bool empty() const { return size() == 0; }

  const uint8_t* data() const { return bytes().data(); }

  // The underlying bytes as a vector reference — what Decoder and decode_envelope consume.
  // Valid for the lifetime of any Payload sharing this Rep. A typed frame has none.
  const std::vector<uint8_t>& bytes() const {
    static const std::vector<uint8_t> kEmpty;
    FRACTOS_CHECK_MSG(rep_ == nullptr || rep_->type == nullptr, "bytes() of a typed frame");
    return rep_ != nullptr ? static_cast<const BytesRep*>(rep_)->bytes : kEmpty;
  }

  // Materializes an owned copy of the bytes — for the rare consumer that must mutate
  // (e.g. copying into a simulated memory pool is memcpy from data(), not this).
  std::vector<uint8_t> to_vector() const { return bytes(); }

  // The typed object, or nullptr when this is a byte payload or holds another type.
  template <typename T>
  const T* get() const {
    return rep_ != nullptr && rep_->type == &kTypeTag<T>
               ? &static_cast<const TypedRep<T>*>(rep_)->object
               : nullptr;
  }

  // Consumes this handle and returns the typed object: moved out when this was the only
  // handle on the frame, copied when another (a retransmit buffer, a duplicated delivery)
  // still shares it. The frame must hold a T.
  template <typename T>
  T take() && {
    FRACTOS_CHECK(get<T>() != nullptr);
    auto* rep = static_cast<TypedRep<T>*>(rep_);
    // Only this handle can reach the rep when refs is 1, so nothing can start sharing it
    // while the object moves out; the acquire pairs with the release of the last other
    // handle, which may have lived on another shard thread.
    T out = rep->refs.load(std::memory_order_acquire) == 1 ? std::move(rep->object)
                                                          : rep->object;
    unref();
    return out;
  }

 private:
  struct Rep {
    Rep(size_t n, const void* t) : size(n), type(t) {}
    virtual ~Rep() = default;
    std::atomic<size_t> refs{1};
    const size_t size;
    const void* const type;  // &kTypeTag<T> for a TypedRep<T>, nullptr for bytes
  };
  struct BytesRep final : Rep {
    explicit BytesRep(std::vector<uint8_t> b) : Rep(b.size(), nullptr), bytes(std::move(b)) {}
    std::vector<uint8_t> bytes;
  };
  template <typename T>
  struct TypedRep final : Rep {
    TypedRep(T o, size_t n) : Rep(n, &kTypeTag<T>), object(std::move(o)) {}
    T object;
  };
  // One address per type: a type tag without RTTI.
  template <typename T>
  static constexpr char kTypeTag = 0;

  void unref() {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace fractos

#endif  // SRC_FABRIC_PAYLOAD_H_
