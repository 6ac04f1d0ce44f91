// The per-Process capability space: cid -> capability entry, maintained by the Process's
// Controller. "The references behind the capabilities are protected by FractOS, and Processes
// access them via indices in their capability space" (Section 3.1) — like POSIX fds.
//
// Memory entries cache the delegated MemoryDesc (the rkey analogue) so third-party transfers
// need no resolution round trip; validity is still enforced at the object's owner.

#ifndef SRC_CAP_CAP_SPACE_H_
#define SRC_CAP_CAP_SPACE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/cap/types.h"

namespace fractos {

struct CapEntry {
  ObjectRef ref;
  ObjectKind kind = ObjectKind::kMemory;
  Perms perms = Perms::kNone;
  MemoryDesc mem;  // meaningful iff kind == kMemory
  // The owner created a per-delegation revocation-tree child for this entry
  // (monitor_delegate bookkeeping); revoke it at the owner if the holder fails.
  bool tracked = false;
};

class CapSpace {
 public:
  // `quota` caps the number of live entries ("can be capped via quotas", Section 4).
  explicit CapSpace(uint32_t quota = 1u << 20);

  // install and get are O(1); remove is O(caps sharing the entry's ref).
  Result<CapId> install(CapEntry entry);
  Result<CapEntry> get(CapId cid) const;
  Status remove(CapId cid);

  // Cleanup step of revocation: drops every entry referencing one of `revoked`, in
  // O(revoked x caps per ref). Returns the number of entries purged.
  size_t purge_refs(const std::vector<ObjectRef>& revoked);

  // All live entries (used when translating a Process failure into revocations).
  std::vector<CapEntry> all_entries() const;

  size_t size() const { return slots_.size(); }
  uint32_t quota() const { return quota_; }

 private:
  static uint64_t ref_key(const ObjectRef& ref);

  std::unordered_map<CapId, CapEntry> slots_;
  // Secondary index ref_key(ref) -> cids holding it, so purge_refs is O(revoked), not
  // O(slots): at millions of installed caps, a per-revocation full scan is the hot-path
  // killer. The index is exact: it holds exactly the live cids of slots_ (a bucket may mix
  // refs whose keys collide), and empty buckets are dropped. install appends in O(1) — a
  // Controller re-installs the same hot refs on every delivery, so any per-install work
  // over a bucket would grow with run length — and remove unindexes its own cid.
  std::unordered_map<uint64_t, std::vector<CapId>> by_ref_;
  CapId next_cid_ = 0;
  uint32_t quota_;
};

}  // namespace fractos

#endif  // SRC_CAP_CAP_SPACE_H_
