// Stream: one windowed chunk pipeline over a byte range.
//
// FractOS double-buffers copies larger than 16 KB (Fig. 5) and streams storage I/O in
// overlapped chunks (Figs. 10-11). Every such pipeline in the simulator — the Controller's
// bounce copy, the BlockAdaptor's read and write paths, FS-mode and baseline-FS I/O, and
// the DAX client's extent split — runs on this one primitive.
//
// Stream::run(shape, body, on_done) splits [0, total) into chunks of at most `chunk` bytes,
// none of which crosses a multiple of `boundary` in the absolute position `origin + offset`,
// and calls body(chunk) for each in order. At most `window` chunks are un-acked at a time:
//
//   * Chunk::ack() says the chunk's serialized leg is done (a device read, a wire pull) and
//     frees its window place, so the next chunk starts synchronously inside the call.
//   * Chunk::done(status) finishes the chunk, exactly once; it implies ack().
//
// `on_done` runs exactly once: ok when every byte has finished, otherwise with the first
// error — but only after every started chunk has finished, and no chunk starts after a
// failure. Callers reuse staging slots and bounce buffers as soon as it runs, so no leg may
// still be writing into them.
//
// The stream owns its lifetime: each Chunk handle holds the state, so it lives exactly as
// long as some leg is in flight and no caller needs a weak-self pump to avoid a cycle. A
// stream whose legs are all dropped without finishing (teardown with work in flight) is
// freed without running `on_done`, so it never calls back into a half-destroyed owner.
// That is also why the completion is a plain callback, not a Future: a dropped
// Promise<Status> would deliver kBrokenPromise into that owner instead.

#ifndef SRC_FUTURES_STREAM_H_
#define SRC_FUTURES_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/result.h"
#include "src/sim/inline_fn.h"

namespace fractos {

class Stream {
 public:
  struct Shape {
    uint64_t total = 0;     // bytes in the stream
    uint64_t chunk = 0;     // max bytes per chunk, >= 1
    uint32_t window = 0;    // max un-acked chunks, >= 1
    uint64_t boundary = 0;  // chunks never cross a multiple of this (0: no boundary)
    uint64_t origin = 0;    // absolute position of offset 0, for `boundary`
  };

  class Chunk {
   public:
    uint64_t offset() const { return offset_; }  // relative to the start of the stream
    uint64_t length() const { return length_; }
    void ack() const { stream_->ack(stream_, index_); }
    void done(Status s) const { stream_->done(stream_, index_, length_, s); }

   private:
    friend class Stream;
    Chunk(std::shared_ptr<Stream> stream, size_t index, uint64_t offset, uint64_t length)
        : stream_(std::move(stream)), index_(index), offset_(offset), length_(length) {}

    std::shared_ptr<Stream> stream_;
    size_t index_;
    uint64_t offset_;
    uint64_t length_;
  };

  using Body = InlineFn<void(const Chunk&)>;
  using Done = InlineFn<void(Status)>;

  static void run(const Shape& shape, Body body, Done on_done) {
    std::shared_ptr<Stream> s(new Stream(shape, std::move(body), std::move(on_done)));
    s->pump(s);
    s->settle();  // total == 0 finishes without a chunk
  }

 private:
  static constexpr uint8_t kAcked = 1;
  static constexpr uint8_t kDone = 2;

  Stream(const Shape& shape, Body body, Done on_done)
      : shape_(shape), body_(std::move(body)), on_done_(std::move(on_done)) {
    FRACTOS_CHECK_MSG(shape.chunk >= 1, "a zero-byte chunk would never advance the stream");
    FRACTOS_CHECK_MSG(shape.window >= 1, "a zero window would never start a chunk");
  }

  void pump(const std::shared_ptr<Stream>& self) {
    while (!failed_ && next_ < shape_.total && unacked_ < shape_.window) {
      uint64_t len = std::min(shape_.chunk, shape_.total - next_);
      if (shape_.boundary != 0) {
        len = std::min(len, shape_.boundary - (shape_.origin + next_) % shape_.boundary);
      }
      const Chunk c(self, flags_.size(), next_, len);
      flags_.push_back(0);
      next_ += len;
      ++unacked_;
      ++in_flight_;
      body_(c);
    }
  }

  void ack(const std::shared_ptr<Stream>& self, size_t index) {
    if ((flags_[index] & kAcked) != 0) {
      return;
    }
    flags_[index] |= kAcked;
    --unacked_;
    pump(self);
  }

  void done(const std::shared_ptr<Stream>& self, size_t index, uint64_t length, Status s) {
    FRACTOS_CHECK_MSG((flags_[index] & kDone) == 0, "a stream chunk finished twice");
    flags_[index] |= kDone;
    --in_flight_;
    if (!s.ok()) {
      if (!failed_) {
        failed_ = true;
        error_ = s.error();
      }
    } else {
      finished_ += length;
    }
    settle();
    ack(self, index);
  }

  void settle() {
    if (on_done_ == nullptr) {
      return;  // already reported
    }
    if (failed_ ? in_flight_ == 0 : finished_ == shape_.total) {
      Done report = std::move(on_done_);  // leaves on_done_ empty
      report(failed_ ? Status(error_) : ok_status());
    }
  }

  Shape shape_;
  Body body_;
  Done on_done_;                // null once reported
  std::vector<uint8_t> flags_;  // per started chunk: kAcked | kDone
  uint64_t next_ = 0;           // offset of the next chunk to start
  uint64_t finished_ = 0;       // bytes whose chunks finished ok
  uint32_t unacked_ = 0;        // started, not yet acked
  uint32_t in_flight_ = 0;      // started, not yet done
  bool failed_ = false;
  ErrorCode error_ = ErrorCode::kInternal;
};

}  // namespace fractos

#endif  // SRC_FUTURES_STREAM_H_
