#include "src/wire/buffer.h"

namespace fractos {

void Encoder::put_bytes(const std::vector<uint8_t>& bytes) {
  put_u32(static_cast<uint32_t>(bytes.size()));
  put_raw(bytes.data(), bytes.size());
}

void Encoder::put_string(const std::string& s) {
  put_u32(static_cast<uint32_t>(s.size()));
  put_raw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Encoder::put_raw(const uint8_t* data, size_t len) {
  if (counting_) {
    counted_ += len;
    return;
  }
  buf_.insert(buf_.end(), data, data + len);
}

std::vector<uint8_t> Decoder::get_bytes() {
  const uint32_t n = get_u32();
  if (!ok_ || pos_ + n > len_) {
    ok_ = false;
    pos_ = len_;
    return {};
  }
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

std::string Decoder::get_string() {
  const uint32_t n = get_u32();
  if (!ok_ || pos_ + n > len_) {
    ok_ = false;
    pos_ = len_;
    return {};
  }
  std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return out;
}

}  // namespace fractos
