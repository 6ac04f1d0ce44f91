// Bounds-checked binary encoding. All FractOS protocol messages are serialized through
// Encoder/Decoder; the encoded size is what the fabric charges to the wire, so serialization
// here is what makes the reproduction's byte accounting honest.
//
// Format: little-endian fixed-width integers, length-prefixed byte strings. Decoder never
// aborts on malformed input: it latches a failure flag and returns zeros, and callers check
// ok() once at the end (hardened against truncated/garbage buffers; tested by fuzz-ish tests).

#ifndef SRC_WIRE_BUFFER_H_
#define SRC_WIRE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fractos {

class Encoder {
 public:
  // A counting encoder: every put adds its width to size() and stores nothing, so running
  // the same field codecs through it measures a message's encoded size without serializing
  // it (encoded_size in src/wire/message.h).
  static Encoder counter() {
    Encoder e;
    e.counting_ = true;
    return e;
  }

  void reserve(size_t n) { buf_.reserve(n); }

  void put_u8(uint8_t v) { put_le(v); }
  void put_u16(uint16_t v) { put_le(v); }
  void put_u32(uint32_t v) { put_le(v); }
  void put_u64(uint64_t v) { put_le(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  // Length-prefixed (u32) byte string.
  void put_bytes(const std::vector<uint8_t>& bytes);
  void put_string(const std::string& s);

  // Raw append, no length prefix (caller encodes the length separately).
  void put_raw(const uint8_t* data, size_t len);

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }
  size_t size() const { return counting_ ? counted_ : buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    if (counting_) {
      counted_ += sizeof(T);
      return;
    }
    const size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  std::vector<uint8_t> buf_;
  bool counting_ = false;
  size_t counted_ = 0;
};

class Decoder {
 public:
  Decoder(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Decoder(const std::vector<uint8_t>& buf) : Decoder(buf.data(), buf.size()) {}

  uint8_t get_u8() { return get_le<uint8_t>(); }
  uint16_t get_u16() { return get_le<uint16_t>(); }
  uint32_t get_u32() { return get_le<uint32_t>(); }
  uint64_t get_u64() { return get_le<uint64_t>(); }
  bool get_bool() { return get_u8() != 0; }

  std::vector<uint8_t> get_bytes();
  std::string get_string();

  // True iff no read has run past the end of the buffer so far.
  bool ok() const { return ok_; }
  // True iff the whole buffer was consumed and no read failed.
  bool done() const { return ok_ && pos_ == len_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  template <typename T>
  T get_le() {
    if (pos_ + sizeof(T) > len_) {
      ok_ = false;
      pos_ = len_;
      return T{};
    }
    T v{};
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fractos

#endif  // SRC_WIRE_BUFFER_H_
