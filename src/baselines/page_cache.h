// Write-back page cache with sequential read-ahead: the model of the Linux block/page cache
// that gives the paper's Disaggregated Baseline its two measured advantages (Section 6.4):
// "the NVMe-oF device in Disaggregated Baseline absorbs writes through the cache" and
// sequential reads benefit from "its effective read-ahead caching". Random reads miss — which
// is why FractOS's FS is competitive there.
//
// Model: 4 KiB pages, LRU eviction, writes complete into the cache (dirty pages are flushed
// to the backing device asynchronously), read misses fetch the missing contiguous run in one
// backing I/O, extended by a read-ahead window when the access pattern looks sequential.

#ifndef SRC_BASELINES_PAGE_CACHE_H_
#define SRC_BASELINES_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "src/baselines/block_device.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_fn.h"

namespace fractos {

class PageCache : public BlockDevice {
 public:
  struct Params {
    uint64_t page_bytes = 4096;
    uint64_t capacity_pages = 65536;  // 256 MiB of cache
    uint32_t readahead_pages = 64;    // 256 KiB read-ahead window
    // Cost of serving a hit (kernel + memcpy), per page.
    Duration hit_cost_per_page = Duration::nanos(400);
  };

  PageCache(EventLoop* loop, BlockDevice* backing);
  PageCache(EventLoop* loop, BlockDevice* backing, Params params);

  void read(uint64_t off, uint64_t size, InlineFn<void(Result<Payload>)> done) override;
  void write(uint64_t off, Payload data, InlineFn<void(Status)> done) override;
  uint64_t capacity() const override { return backing_->capacity(); }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t readahead_fetches() const { return readahead_fetches_; }
  size_t cached_pages() const { return pages_.size(); }

 private:
  struct Page {
    std::vector<uint8_t> bytes;
    std::list<uint64_t>::iterator lru_pos;
  };

  bool page_cached(uint64_t page) const { return pages_.contains(page); }
  void touch(uint64_t page);
  void install_page(uint64_t page, std::vector<uint8_t> bytes);
  void evict_if_needed();
  std::vector<uint8_t> gather(uint64_t off, uint64_t size);

  EventLoop* loop_;
  BlockDevice* backing_;
  Params params_;
  std::unordered_map<uint64_t, Page> pages_;
  std::list<uint64_t> lru_;  // front = most recent
  uint64_t last_read_end_ = ~0ull;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t readahead_fetches_ = 0;
};

}  // namespace fractos

#endif  // SRC_BASELINES_PAGE_CACHE_H_
