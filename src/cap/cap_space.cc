#include "src/cap/cap_space.h"

#include <algorithm>

#include "src/base/assert.h"

namespace fractos {

CapSpace::CapSpace(uint32_t quota) : quota_(quota) {}

uint64_t CapSpace::ref_key(const ObjectRef& ref) {
  // Collisions are tolerated (buckets verify the full ref), so a cheap fold suffices.
  return (static_cast<uint64_t>(ref.owner) << 40) ^
         (static_cast<uint64_t>(ref.reboot_count) << 32) ^ ref.index;
}

Result<CapId> CapSpace::install(CapEntry entry) {
  if (slots_.size() >= quota_) {
    return ErrorCode::kResourceExhausted;
  }
  // cids are NEVER reused: a stale cid held after revocation/purge must not silently alias a
  // newer capability (the confused-deputy hazard of POSIX fd reuse).
  const CapId cid = next_cid_++;
  by_ref_[ref_key(entry.ref)].push_back(cid);
  slots_.emplace(cid, std::move(entry));
  return cid;
}

Result<CapEntry> CapSpace::get(CapId cid) const {
  auto it = slots_.find(cid);
  if (it == slots_.end()) {
    return ErrorCode::kInvalidCapability;
  }
  return it->second;
}

Status CapSpace::remove(CapId cid) {
  auto it = slots_.find(cid);
  if (it == slots_.end()) {
    return ErrorCode::kInvalidCapability;
  }
  auto bit = by_ref_.find(ref_key(it->second.ref));
  FRACTOS_DCHECK(bit != by_ref_.end());
  std::vector<CapId>& cids = bit->second;
  cids.erase(std::find(cids.begin(), cids.end(), cid));
  if (cids.empty()) {
    by_ref_.erase(bit);
  }
  slots_.erase(it);
  return ok_status();
}

size_t CapSpace::purge_refs(const std::vector<ObjectRef>& revoked) {
  size_t purged = 0;
  for (const ObjectRef& r : revoked) {
    auto bit = by_ref_.find(ref_key(r));
    if (bit == by_ref_.end()) {
      continue;
    }
    std::vector<CapId>& cids = bit->second;
    purged += std::erase_if(cids, [this, &r](CapId c) {
      auto sit = slots_.find(c);
      FRACTOS_DCHECK(sit != slots_.end());
      if (sit->second.ref != r) {
        return false;  // key collision with a different ref
      }
      slots_.erase(sit);
      return true;
    });
    if (cids.empty()) {
      by_ref_.erase(bit);
    }
  }
  return purged;
}

std::vector<CapEntry> CapSpace::all_entries() const {
  std::vector<CapEntry> out;
  out.reserve(slots_.size());
  for (const auto& [cid, entry] : slots_) {
    out.push_back(entry);
  }
  return out;
}

}  // namespace fractos
