// Capability-system unit tests: object table creation/derivation/resolution, revocation
// trees and recursive invalidation, stale-generation detection, monitor bookkeeping, and
// capability spaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "src/cap/cap_space.h"
#include "src/cap/object_table.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

constexpr ProcessId kProc = 7;
constexpr ProcessId kOther = 8;

class ObjectTableTest : public ::testing::Test {
 protected:
  ObjectTableTest() : table_(/*owner=*/1) {}

  ObjectIndex make_memory(uint64_t size = 4096, Perms perms = Perms::kReadWrite) {
    return table_.create_memory(kProc, MemoryDesc{0, 0, 0, size}, perms).value();
  }

  ObjectTable table_;
};

TEST_F(ObjectTableTest, CreateAndResolveMemory) {
  const ObjectIndex idx = make_memory(8192, Perms::kRead);
  auto r = table_.resolve_memory(idx, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().desc.size, 8192u);
  EXPECT_EQ(r.value().perms, Perms::kRead);
}

TEST_F(ObjectTableTest, ZeroSizedMemoryRejected) {
  EXPECT_EQ(table_.create_memory(kProc, MemoryDesc{0, 0, 0, 0}, Perms::kRead).error(),
            ErrorCode::kInvalidArgument);
}

TEST_F(ObjectTableTest, DiminishNarrowsExtentAndPerms) {
  const ObjectIndex base = make_memory(4096, Perms::kReadWrite);
  const ObjectIndex sub = table_.derive_memory(kProc, base, 1024, 512, Perms::kWrite).value();
  auto r = table_.resolve_memory(sub, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().desc.addr, 1024u);
  EXPECT_EQ(r.value().desc.size, 512u);
  EXPECT_EQ(r.value().perms, Perms::kRead);
}

TEST_F(ObjectTableTest, DiminishOutOfRangeFails) {
  const ObjectIndex base = make_memory(4096);
  EXPECT_EQ(table_.derive_memory(kProc, base, 4000, 1000, Perms::kNone).error(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(table_.derive_memory(kProc, base, 0, 0, Perms::kNone).error(),
            ErrorCode::kOutOfRange);
}

TEST_F(ObjectTableTest, DiminishOfDiminishComposes) {
  const ObjectIndex base = make_memory(4096);
  const ObjectIndex a = table_.derive_memory(kProc, base, 1000, 2000, Perms::kNone).value();
  const ObjectIndex b = table_.derive_memory(kProc, a, 500, 100, Perms::kNone).value();
  auto r = table_.resolve_memory(b, table_.reboot_count());
  EXPECT_EQ(r.value().desc.addr, 1500u);
  EXPECT_EQ(r.value().desc.size, 100u);
}

TEST_F(ObjectTableTest, WrongKindRejected) {
  const ObjectIndex mem = make_memory();
  EXPECT_EQ(table_.resolve_request(mem, table_.reboot_count()).error(),
            ErrorCode::kWrongObjectKind);
  const ObjectIndex req = table_.create_request_root(kProc, 3, {}).value();
  EXPECT_EQ(table_.resolve_memory(req, table_.reboot_count()).error(),
            ErrorCode::kWrongObjectKind);
  EXPECT_EQ(table_.derive_memory(kProc, req, 0, 1, Perms::kNone).error(),
            ErrorCode::kWrongObjectKind);
}

TEST_F(ObjectTableTest, RequestRootResolvesWithArgs) {
  RequestArgs args;
  args.imms = {{0, {1, 2}}};
  const ObjectIndex idx = table_.create_request_root(kProc, 5, args).value();
  auto r = table_.resolve_request(idx, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().provider, kProc);
  EXPECT_EQ(r.value().endpoint_cid, 5u);
  ASSERT_EQ(r.value().args.imms.size(), 1u);
  EXPECT_EQ(r.value().args.imms[0].bytes, (std::vector<uint8_t>{1, 2}));
}

TEST_F(ObjectTableTest, DerivedRequestMergesArgsBaseFirst) {
  RequestArgs base_args;
  base_args.imms = {{0, {0xaa}}};
  const ObjectIndex root = table_.create_request_root(kProc, 1, base_args).value();
  RequestArgs ref1;
  ref1.imms = {{8, {0xbb}}};
  const ObjectIndex d1 = table_.derive_request_local(kOther, root, ref1).value();
  RequestArgs ref2;
  ref2.imms = {{16, {0xcc}}};
  WireCap wc;
  wc.ref = ObjectRef{9, 9, 1};
  ref2.caps = {wc};
  const ObjectIndex d2 = table_.derive_request_local(kOther, d1, ref2).value();

  auto r = table_.resolve_request(d2, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().provider, kProc);
  ASSERT_EQ(r.value().args.imms.size(), 3u);
  EXPECT_EQ(r.value().args.imms[0].offset, 0u);
  EXPECT_EQ(r.value().args.imms[1].offset, 8u);
  EXPECT_EQ(r.value().args.imms[2].offset, 16u);
  EXPECT_EQ(r.value().args.caps.size(), 1u);
}

TEST_F(ObjectTableTest, RefinementCannotOverwriteInitializedArgs) {
  RequestArgs base_args;
  base_args.imms = {{0, {1, 2, 3, 4}}};
  const ObjectIndex root = table_.create_request_root(kProc, 1, base_args).value();
  RequestArgs overlap;
  overlap.imms = {{2, {9}}};  // overlaps [0,4)
  EXPECT_EQ(table_.derive_request_local(kOther, root, overlap).error(),
            ErrorCode::kArgumentOverlap);
  RequestArgs ok;
  ok.imms = {{4, {9}}};  // adjacent is fine
  EXPECT_TRUE(table_.derive_request_local(kOther, root, ok).ok());
}

TEST_F(ObjectTableTest, SelfOverlappingRefinementRejected) {
  RequestArgs args;
  args.imms = {{0, {1, 2}}, {1, {3}}};
  EXPECT_EQ(table_.create_request_root(kProc, 1, args).error(), ErrorCode::kArgumentOverlap);
}

TEST_F(ObjectTableTest, RevokeInvalidatesObjectAndDescendants) {
  const ObjectIndex base = make_memory();
  const ObjectIndex child = table_.derive_memory(kProc, base, 0, 100, Perms::kNone).value();
  const ObjectIndex grandchild = table_.derive_memory(kProc, child, 0, 10, Perms::kNone).value();
  auto result = table_.revoke(base, table_.reboot_count());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().invalidated.size(), 3u);
  EXPECT_EQ(table_.resolve_memory(base, table_.reboot_count()).error(), ErrorCode::kRevoked);
  EXPECT_EQ(table_.resolve_memory(child, table_.reboot_count()).error(), ErrorCode::kRevoked);
  EXPECT_EQ(table_.resolve_memory(grandchild, table_.reboot_count()).error(),
            ErrorCode::kRevoked);
}

TEST_F(ObjectTableTest, RevokeChildLeavesParentLive) {
  const ObjectIndex base = make_memory();
  const ObjectIndex child = table_.create_revtree_child(kProc, base).value();
  auto result = table_.revoke(child, table_.reboot_count());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().invalidated.size(), 1u);
  EXPECT_TRUE(table_.resolve_memory(base, table_.reboot_count()).ok());
  EXPECT_EQ(table_.resolve_memory(child, table_.reboot_count()).error(), ErrorCode::kRevoked);
}

TEST_F(ObjectTableTest, RevtreeChildSharesPayload) {
  const ObjectIndex base = make_memory(4096, Perms::kRead);
  const ObjectIndex child = table_.create_revtree_child(kProc, base).value();
  auto r = table_.resolve_memory(child, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().desc.size, 4096u);
  EXPECT_EQ(r.value().perms, Perms::kRead);
}

TEST_F(ObjectTableTest, RevtreeChildOfRequestResolvesThrough) {
  RequestArgs args;
  args.imms = {{0, {7}}};
  const ObjectIndex root = table_.create_request_root(kProc, 2, args).value();
  const ObjectIndex child = table_.create_revtree_child(kOther, root).value();
  auto r = table_.resolve_request(child, table_.reboot_count());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().provider, kProc);
  EXPECT_EQ(r.value().args.imms.size(), 1u);
}

TEST_F(ObjectTableTest, DoubleRevokeReportsRevoked) {
  const ObjectIndex base = make_memory();
  EXPECT_TRUE(table_.revoke(base, table_.reboot_count()).ok());
  EXPECT_EQ(table_.revoke(base, table_.reboot_count()).error(), ErrorCode::kRevoked);
}

TEST_F(ObjectTableTest, StaleGenerationDetected) {
  const ObjectIndex idx = make_memory();
  const uint32_t old_gen = table_.reboot_count();
  table_.reboot();
  EXPECT_EQ(table_.resolve_memory(idx, old_gen).error(), ErrorCode::kStaleCapability);
  EXPECT_EQ(table_.live_count(), 0u);
  // New objects under the new generation work.
  const ObjectIndex fresh = make_memory();
  EXPECT_TRUE(table_.resolve_memory(fresh, table_.reboot_count()).ok());
}

TEST_F(ObjectTableTest, UnknownIndexIsInvalidCapability) {
  EXPECT_EQ(table_.resolve_memory(999, table_.reboot_count()).error(),
            ErrorCode::kInvalidCapability);
}

TEST_F(ObjectTableTest, SweepReclaimsInvalidatedObjects) {
  const ObjectIndex a = make_memory();
  const ObjectIndex b = make_memory();
  EXPECT_TRUE(table_.revoke(a, table_.reboot_count()).ok());
  EXPECT_EQ(table_.total_count(), 2u);
  EXPECT_EQ(table_.sweep_invalidated(), 1u);
  EXPECT_EQ(table_.total_count(), 1u);
  EXPECT_TRUE(table_.resolve_memory(b, table_.reboot_count()).ok());
  EXPECT_EQ(table_.resolve_memory(a, table_.reboot_count()).error(),
            ErrorCode::kInvalidCapability);
}

TEST_F(ObjectTableTest, MonitorReceiveFiresOnRevoke) {
  const ObjectIndex idx = make_memory();
  const MonitorSub sub{2, kOther, 42};
  ASSERT_TRUE(table_.monitor_receive(idx, table_.reboot_count(), sub).ok());
  auto result = table_.revoke(idx, table_.reboot_count());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().fires.size(), 1u);
  EXPECT_FALSE(result.value().fires[0].delegate_mode);
  EXPECT_EQ(result.value().fires[0].sub.callback_id, 42u);
  EXPECT_EQ(result.value().fires[0].sub.process, kOther);
}

TEST_F(ObjectTableTest, MonitorReceiveFiresWhenAncestorRevoked) {
  const ObjectIndex base = make_memory();
  const ObjectIndex child = table_.create_revtree_child(kProc, base).value();
  ASSERT_TRUE(table_.monitor_receive(child, table_.reboot_count(), MonitorSub{2, kOther, 1}).ok());
  auto result = table_.revoke(base, table_.reboot_count());
  ASSERT_EQ(result.value().fires.size(), 1u);
}

TEST_F(ObjectTableTest, MonitorDelegateCountsChildren) {
  const ObjectIndex idx = make_memory();
  ASSERT_TRUE(table_.monitor_delegate(idx, table_.reboot_count(), MonitorSub{1, kProc, 9}).ok());
  // Two delegations create two tracked children.
  const ObjectIndex c1 = table_.prepare_delegation(idx).value();
  const ObjectIndex c2 = table_.prepare_delegation(idx).value();
  EXPECT_NE(c1, idx);
  EXPECT_NE(c2, idx);
  EXPECT_NE(c1, c2);
  auto r1 = table_.revoke(c1, table_.reboot_count());
  EXPECT_TRUE(r1.value().fires.empty());  // one child remains
  auto r2 = table_.revoke(c2, table_.reboot_count());
  ASSERT_EQ(r2.value().fires.size(), 1u);
  EXPECT_TRUE(r2.value().fires[0].delegate_mode);
  EXPECT_EQ(r2.value().fires[0].sub.callback_id, 9u);
}

TEST_F(ObjectTableTest, MonitorDelegateRequiresNoExistingChildren) {
  const ObjectIndex idx = make_memory();
  EXPECT_TRUE(table_.create_revtree_child(kProc, idx).ok());
  EXPECT_EQ(table_.monitor_delegate(idx, table_.reboot_count(), MonitorSub{1, kProc, 1}).error(),
            ErrorCode::kInvalidArgument);
}

TEST_F(ObjectTableTest, PrepareDelegationUnmonitoredIsIdentity) {
  const ObjectIndex idx = make_memory();
  EXPECT_EQ(table_.prepare_delegation(idx).value(), idx);
}

TEST_F(ObjectTableTest, RevokeAllOfCreator) {
  const ObjectIndex mine = make_memory();
  const ObjectIndex theirs =
      table_.create_memory(kOther, MemoryDesc{0, 0, 0, 64}, Perms::kRead).value();
  auto result = table_.revoke_all_of(kProc);
  EXPECT_EQ(result.invalidated.size(), 1u);
  EXPECT_EQ(table_.resolve_memory(mine, table_.reboot_count()).error(), ErrorCode::kRevoked);
  EXPECT_TRUE(table_.resolve_memory(theirs, table_.reboot_count()).ok());
}

TEST_F(ObjectTableTest, RevokeAllOfCreatorTakesDescendants) {
  // kProc's object has a child created by kOther: the child dies with the subtree.
  const ObjectIndex base = make_memory();
  const ObjectIndex child = table_.derive_memory(kOther, base, 0, 10, Perms::kNone).value();
  auto result = table_.revoke_all_of(kProc);
  EXPECT_EQ(result.invalidated.size(), 2u);
  EXPECT_EQ(table_.resolve_memory(child, table_.reboot_count()).error(), ErrorCode::kRevoked);
}

TEST_F(ObjectTableTest, ChainDepthCountsDerivationLayers) {
  const ObjectIndex root = table_.create_request_root(kProc, 1, {}).value();
  EXPECT_EQ(table_.chain_depth(root), 1u);
  RequestArgs ref;
  ref.imms = {{0, {0xaa}}};
  const ObjectIndex d1 = table_.derive_request_local(kOther, root, ref).value();
  const ObjectIndex d2 = table_.create_revtree_child(kOther, d1).value();
  EXPECT_EQ(table_.chain_depth(d1), 2u);
  EXPECT_EQ(table_.chain_depth(d2), 3u);
  EXPECT_EQ(table_.chain_depth(999999), 0u);
}

TEST_F(ObjectTableTest, IdenticalRefinementsShareOneInternedBlob) {
  RequestArgs base_args;
  base_args.imms = {{0, {0xaa}}};
  const ObjectIndex root = table_.create_request_root(kProc, 1, base_args).value();
  EXPECT_EQ(table_.interned_args_count(), 1u);

  // N siblings carrying the same refinement share one blob; a different refinement gets its
  // own; revtree children add no args at all.
  RequestArgs ref;
  ref.imms = {{8, {0xbb}}};
  std::vector<ObjectIndex> kids;
  for (int i = 0; i < 16; ++i) {
    kids.push_back(table_.derive_request_local(kOther, root, ref).value());
  }
  EXPECT_EQ(table_.interned_args_count(), 2u);
  RequestArgs other;
  other.imms = {{16, {0xcc}}};
  const ObjectIndex odd = table_.derive_request_local(kOther, kids[0], other).value();
  ASSERT_TRUE(table_.create_revtree_child(kOther, odd).ok());
  EXPECT_EQ(table_.interned_args_count(), 3u);

  // Blobs die with their last holding object, not before.
  for (size_t i = 0; i + 1 < kids.size(); ++i) {
    auto r = table_.revoke(kids[i + 1], table_.reboot_count());
    ASSERT_TRUE(r.ok());
    table_.erase_objects(r.value().invalidated);
  }
  EXPECT_EQ(table_.interned_args_count(), 3u);  // kids[0] still holds the shared blob
  auto last = table_.revoke(kids[0], table_.reboot_count());
  ASSERT_TRUE(last.ok());
  table_.erase_objects(last.value().invalidated);  // takes `odd` and its revtree child too
  EXPECT_EQ(table_.interned_args_count(), 1u);
}

TEST_F(ObjectTableTest, SlabSlotsAreRecycledAcrossChurn) {
  // Enough churn to cross slab boundaries in several shards: resolutions of survivors must
  // stay intact across erasures and re-inserts (slots never move; freed slots are reused),
  // and the live/total accounting must track exactly.
  constexpr int kN = 3000;
  std::vector<ObjectIndex> idx;
  idx.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    idx.push_back(
        table_.create_memory(kProc, MemoryDesc{0, 0, uint64_t(i) * 64, 64}, Perms::kRead)
            .value());
  }
  EXPECT_EQ(table_.live_count(), size_t(kN));
  EXPECT_EQ(table_.total_count(), size_t(kN));

  for (int i = 0; i < kN; i += 2) {
    auto r = table_.revoke(idx[i], table_.reboot_count());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(table_.erase_objects(r.value().invalidated), 1u);
  }
  EXPECT_EQ(table_.live_count(), size_t(kN / 2));
  EXPECT_EQ(table_.total_count(), size_t(kN / 2));

  // Refill into the recycled slots, then verify every survivor still resolves to its own
  // extent (a stale index or a moved slot would surface here).
  for (int i = 0; i < kN / 2; ++i) {
    ASSERT_TRUE(
        table_.create_memory(kOther, MemoryDesc{0, 0, 1u << 20, 64}, Perms::kRead).ok());
  }
  EXPECT_EQ(table_.live_count(), size_t(kN));
  for (int i = 1; i < kN; i += 2) {
    auto r = table_.resolve_memory(idx[i], table_.reboot_count());
    ASSERT_TRUE(r.ok()) << "survivor " << i;
    EXPECT_EQ(r.value().desc.addr, uint64_t(i) * 64);
  }
  // Erased indices stay dead even after their slots were reused.
  for (int i = 0; i < kN; i += 2) {
    EXPECT_FALSE(table_.resolve_memory(idx[i], table_.reboot_count()).ok());
  }
}

TEST_F(ObjectTableTest, SlotCapacityGrowsWithContents) {
  // A table reserves memory in proportion to what it holds: a thousand small tables (one per
  // Controller) must not each pay for full-size slabs.
  EXPECT_EQ(table_.slot_capacity(), 0u);
  make_memory();
  EXPECT_LE(table_.slot_capacity(), ObjectTable::kFirstSlabSlots);
  for (int i = 1; i < 64; ++i) {
    make_memory();
  }
  EXPECT_LE(table_.slot_capacity(), 64 * ObjectTable::kFirstSlabSlots);

  // Past a few thousand objects a shard the slabs are full size, and the slack stays below
  // one slab a shard.
  ObjectTable big(/*owner=*/2);
  for (int i = 0; i < 200000; ++i) {
    ASSERT_TRUE(big.create_memory(kProc, MemoryDesc{0, 0, 0, 64}, Perms::kRead).ok());
  }
  EXPECT_GE(big.slot_capacity(), big.live_count());
  EXPECT_LT(big.slot_capacity(),
            big.live_count() + ObjectTable::kShardCount * ObjectTable::kSlabSlots);
}

TEST_F(ObjectTableTest, EraseThenReinsertReusesSlots) {
  // Churn with one live object at a time. Each insert lands in a hashed shard, which must take
  // back its freed slot before it adds a slab, so no shard ever grows past its first slab
  // however long the churn runs. Each new object resolves to its own payload and each erased
  // index stays dead although its slot now holds another object.
  ObjectIndex prev = make_memory();
  for (int i = 0; i < 10000; ++i) {
    auto r = table_.revoke(prev, table_.reboot_count());
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(table_.erase_objects(r.value().invalidated), 1u);
    const ObjectIndex next =
        table_.create_memory(kOther, MemoryDesc{0, 0, uint64_t(i), 8}, Perms::kRead).value();
    ASSERT_EQ(table_.resolve_memory(next, table_.reboot_count()).value().desc.addr,
              uint64_t(i));
    ASSERT_EQ(table_.resolve_memory(prev, table_.reboot_count()).error(),
              ErrorCode::kInvalidCapability);
    prev = next;
  }
  EXPECT_EQ(table_.total_count(), 1u);
  EXPECT_LE(table_.slot_capacity(), ObjectTable::kShardCount * ObjectTable::kFirstSlabSlots);

  // A reboot drops every slab.
  table_.reboot();
  EXPECT_EQ(table_.slot_capacity(), 0u);
}

// FNV-1a over an index sequence: a compact pin for long outputs.
uint64_t fingerprint(const std::vector<ObjectIndex>& v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (ObjectIndex x : v) {
    h ^= x;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Fills `t` with `n` seeded objects of every kind. kProc makes memory roots and Request roots;
// kOther diminishes, refines and revtree-links earlier objects, so derivation trees cross
// creators. Every 16th step revokes and erases a random subtree, so later inserts reuse freed
// slots. Returns the indices created, erased ones included.
std::vector<ObjectIndex> populate(ObjectTable& t, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectIndex> made;
  made.reserve(n);
  for (int i = 0; i < n; ++i) {
    const uint64_t pick = made.empty() ? 0 : rng.next_below(6);
    const ObjectIndex base = made.empty() ? 0 : made[rng.next_below(made.size())];
    Result<ObjectIndex> r = ErrorCode::kNotFound;
    if (pick <= 1) {
      r = t.create_memory(kProc, MemoryDesc{1, 0, uint64_t(i) * 256, 256}, Perms::kReadWrite);
    } else if (pick == 2) {
      RequestArgs args;
      args.imms = {{0, {uint8_t(i % 5)}}};
      r = t.create_request_root(kProc, CapId(i), args);
    } else if (pick == 3) {
      r = t.derive_memory(kOther, base, 0, 64, Perms::kWrite);
    } else if (pick == 4) {
      RequestArgs ref;
      ref.imms = {{8, {uint8_t(i % 3)}}};
      r = t.derive_request_local(kOther, base, ref);
    } else {
      r = t.create_revtree_child(kOther, base);
    }
    if (!r.ok()) {
      // Wrong kind for the derivation, or the base is already revoked: make a plain root.
      r = t.create_memory(kProc, MemoryDesc{1, 0, uint64_t(i) * 256, 256}, Perms::kRead);
    }
    made.push_back(r.value());
    if (i % 16 == 15) {
      const ObjectIndex victim = made[rng.next_below(made.size())];
      auto revoked = t.revoke(victim, t.reboot_count());
      if (revoked.ok()) {
        t.erase_objects(revoked.value().invalidated);
      }
    }
  }
  return made;
}

TEST_F(ObjectTableTest, RevokeAllOfOrderIsPinnedAcrossSlabBoundaries) {
  // ~3,000 objects of one creator, and 70,000 in all: every shard holds over a thousand, so
  // each crosses every slab-size boundary, and freed slots are reused throughout. The
  // revocation order and the pending-cleanup list must not depend on how slabs are laid out.
  populate(table_, 70000, 1);
  std::vector<ObjectIndex> extra;
  for (int i = 0; i < 3000; ++i) {
    extra.push_back(table_.create_memory(kOther + 1, MemoryDesc{2, 0, 0, 64}, Perms::kRead)
                        .value());
  }
  for (size_t i = 0; i < extra.size(); i += 7) {
    ASSERT_TRUE(table_.derive_memory(kOther, extra[i], 0, 32, Perms::kNone).ok());
  }
  const ObjectTable::RevokeResult result = table_.revoke_all_of(kOther + 1);
  EXPECT_EQ(result.invalidated.size(), 3429u);
  EXPECT_EQ(fingerprint(result.invalidated), 0x80fef5c0593a48bcull);
  const std::vector<ObjectIndex> pending = table_.invalidated_objects();
  EXPECT_EQ(pending.size(), 3429u);
  EXPECT_EQ(fingerprint(pending), 0xac0504d4f49180f8ull);

  const ObjectTable::RevokeResult procs = table_.revoke_all_of(kProc);
  EXPECT_EQ(procs.invalidated.size(), 64502u);
  EXPECT_EQ(fingerprint(procs.invalidated), 0x380f2115c708c8f1ull);
  EXPECT_EQ(table_.live_count(), 0u);
}

TEST_F(ObjectTableTest, SnapshotRoundTripsAcrossSlabBoundaries) {
  // Restore re-inserts every object by index (insert_with_index), which fills slabs in index
  // order rather than creation order; the copy must still be the same table.
  populate(table_, 5000, 2);
  ASSERT_TRUE(table_.revoke_all_of(kOther).invalidated.size() > 0);
  const std::vector<uint8_t> blob = table_.serialize_snapshot();

  ObjectTable copy(/*owner=*/1);
  ASSERT_TRUE(copy.create_memory(kProc, MemoryDesc{0, 0, 0, 8}, Perms::kRead).ok());
  ASSERT_TRUE(copy.restore_snapshot(blob).ok());
  EXPECT_EQ(copy.digest(), table_.digest());
  EXPECT_EQ(copy.serialize_snapshot(), blob);
  EXPECT_EQ(copy.live_count(), table_.live_count());
  EXPECT_EQ(copy.total_count(), table_.total_count());
  EXPECT_EQ(copy.invalidated_objects(), table_.invalidated_objects());

  // Both tables keep evolving identically: same next index, same erasures.
  EXPECT_EQ(copy.sweep_invalidated(), table_.sweep_invalidated());
  const ObjectIndex a =
      table_.create_memory(kProc, MemoryDesc{0, 0, 0, 8}, Perms::kRead).value();
  const ObjectIndex b = copy.create_memory(kProc, MemoryDesc{0, 0, 0, 8}, Perms::kRead).value();
  EXPECT_EQ(a, b);
  EXPECT_EQ(copy.digest(), table_.digest());
}

TEST(CheckImmOverlapTest, Cases) {
  const std::vector<ImmExtent> existing = {{0, {1, 2, 3, 4}}};
  EXPECT_TRUE(check_imm_overlap(existing, {{4, {5}}}).ok());
  EXPECT_EQ(check_imm_overlap(existing, {{3, {5}}}).error(), ErrorCode::kArgumentOverlap);
  EXPECT_EQ(check_imm_overlap(existing, {{0, {9, 9, 9, 9}}}).error(),
            ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(check_imm_overlap({}, {{0, {1}}, {1, {2}}}).ok());
  EXPECT_EQ(check_imm_overlap({}, {{0, {1, 2}}, {1, {3}}}).error(),
            ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(check_imm_overlap(existing, {}).ok());

  // Duplicate offsets: within one batch and against an existing extent.
  EXPECT_EQ(check_imm_overlap({}, {{0, {1}}, {0, {2}}}).error(), ErrorCode::kArgumentOverlap);
  EXPECT_EQ(check_imm_overlap(existing, {{0, {9}}}).error(), ErrorCode::kArgumentOverlap);

  // The sweep must not depend on the batch arriving sorted.
  EXPECT_TRUE(check_imm_overlap({}, {{8, {1}}, {0, {1, 2}}}).ok());
  EXPECT_EQ(check_imm_overlap({}, {{4, {1, 2, 3, 4, 5}}, {0, {1, 2, 3, 4, 5}}}).error(),
            ErrorCode::kArgumentOverlap);
  EXPECT_EQ(check_imm_overlap({{8, {1, 2}}}, {{12, {1}}, {6, {1, 2, 3}}}).error(),
            ErrorCode::kArgumentOverlap);

  // Zero-length extents overlap only when strictly inside another extent, never when they
  // merely touch its boundary or another empty extent at the same offset.
  EXPECT_EQ(check_imm_overlap(existing, {{2, {}}}).error(), ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(check_imm_overlap(existing, {{0, {}}}).ok());
  EXPECT_TRUE(check_imm_overlap(existing, {{4, {}}}).ok());
  EXPECT_TRUE(check_imm_overlap({}, {{3, {}}, {3, {}}}).ok());
}

class CapSpaceTest : public ::testing::Test {
 protected:
  static CapEntry entry(ObjectIndex idx) {
    CapEntry e;
    e.ref = ObjectRef{1, idx, 1};
    e.kind = ObjectKind::kMemory;
    return e;
  }
};

TEST_F(CapSpaceTest, InstallGetRemove) {
  CapSpace space;
  const CapId a = space.install(entry(10)).value();
  const CapId b = space.install(entry(11)).value();
  EXPECT_NE(a, b);
  EXPECT_EQ(space.get(a).value().ref.index, 10u);
  EXPECT_EQ(space.get(b).value().ref.index, 11u);
  EXPECT_EQ(space.size(), 2u);
  EXPECT_TRUE(space.remove(a).ok());
  EXPECT_EQ(space.get(a).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.size(), 1u);
}

TEST_F(CapSpaceTest, CidsAreNeverReused) {
  // A stale cid must never silently alias a newer capability (confused-deputy hazard).
  CapSpace space;
  const CapId a = space.install(entry(1)).value();
  EXPECT_TRUE(space.remove(a).ok());
  const CapId b = space.install(entry(2)).value();
  EXPECT_NE(a, b);
  EXPECT_EQ(space.get(a).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.get(b).value().ref.index, 2u);
}

TEST_F(CapSpaceTest, QuotaEnforced) {
  CapSpace space(2);
  EXPECT_TRUE(space.install(entry(1)).ok());
  EXPECT_TRUE(space.install(entry(2)).ok());
  EXPECT_EQ(space.install(entry(3)).error(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(space.remove(0).ok());
  EXPECT_TRUE(space.install(entry(3)).ok());
}

TEST_F(CapSpaceTest, PurgeRefsDropsMatchingEntries) {
  CapSpace space;
  const CapId a = space.install(entry(10)).value();
  const CapId b = space.install(entry(11)).value();
  const CapId c = space.install(entry(10)).value();  // second cap to the same object
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 10, 1}}), 2u);
  EXPECT_EQ(space.get(a).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.get(c).error(), ErrorCode::kInvalidCapability);
  EXPECT_TRUE(space.get(b).ok());
}

TEST_F(CapSpaceTest, PurgeIgnoresDifferentGeneration) {
  CapSpace space;
  EXPECT_TRUE(space.install(entry(10)).ok());
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 10, 2}}), 0u);
  EXPECT_EQ(space.size(), 1u);
}

TEST_F(CapSpaceTest, AllEntriesListsLive) {
  CapSpace space;
  EXPECT_TRUE(space.install(entry(1)).ok());
  const CapId b = space.install(entry(2)).value();
  EXPECT_TRUE(space.install(entry(3)).ok());
  EXPECT_TRUE(space.remove(b).ok());
  auto all = space.all_entries();
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(CapSpaceTest, InvalidCidRejected) {
  CapSpace space;
  EXPECT_EQ(space.get(0).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.remove(12345).error(), ErrorCode::kInvalidCapability);
}

TEST_F(CapSpaceTest, PurgeAfterRemoveCountsOnlyLiveEntries) {
  CapSpace space;
  const CapId a = space.install(entry(10)).value();
  const CapId b = space.install(entry(10)).value();
  const CapId c = space.install(entry(10)).value();
  const CapId d = space.install(entry(11)).value();
  EXPECT_TRUE(space.remove(b).ok());
  EXPECT_EQ(space.size(), 3u);
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 10, 1}}), 2u);
  EXPECT_EQ(space.size(), 1u);
  for (CapId cid : {a, b, c}) {
    EXPECT_EQ(space.get(cid).error(), ErrorCode::kInvalidCapability);
  }
  EXPECT_TRUE(space.get(d).ok());
  // Everything of that ref is gone: a second purge finds nothing, a remove of a purged cid
  // is rejected, and the ref can be installed afresh.
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 10, 1}}), 0u);
  EXPECT_EQ(space.remove(c).error(), ErrorCode::kInvalidCapability);
  const CapId e = space.install(entry(10)).value();
  EXPECT_EQ(space.size(), 2u);
  EXPECT_EQ(space.purge_refs({ObjectRef{1, 10, 1}}), 1u);
  EXPECT_EQ(space.get(e).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.size(), 1u);
  EXPECT_EQ(space.all_entries().size(), 1u);
}

TEST_F(CapSpaceTest, PurgeKeepsRefWhoseKeyCollides) {
  // The ref index key folds owner, reboot count and index into one word, so these two
  // distinct refs share a bucket. Purging one must leave the other installed.
  const ObjectRef x{1, 0, 0};
  const ObjectRef y{0, ObjectIndex{1} << 40, 0};
  CapSpace space;
  CapEntry ex;
  ex.ref = x;
  CapEntry ey;
  ey.ref = y;
  const CapId a = space.install(ex).value();
  const CapId b = space.install(ey).value();
  const CapId c = space.install(ex).value();
  EXPECT_EQ(space.purge_refs({x}), 2u);
  EXPECT_EQ(space.get(a).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(space.get(c).error(), ErrorCode::kInvalidCapability);
  ASSERT_TRUE(space.get(b).ok());
  EXPECT_EQ(space.get(b).value().ref, y);
  EXPECT_EQ(space.size(), 1u);
  // Removing the survivor through its colliding bucket works too.
  const CapId d = space.install(ex).value();
  EXPECT_TRUE(space.remove(b).ok());
  EXPECT_EQ(space.purge_refs({y}), 0u);
  EXPECT_EQ(space.get(d).value().ref, x);
  EXPECT_EQ(space.size(), 1u);
}

TEST_F(CapSpaceTest, MatchesReferenceModelUnderChurn) {
  // Seeded differential test against a std::map model: mixed install/remove/purge traffic
  // concentrated on a handful of refs (two of which collide in the ref index), checked
  // after every step.
  const ObjectRef x{1, 0, 0};
  const ObjectRef y{0, ObjectIndex{1} << 40, 0};
  const std::vector<ObjectRef> refs = {{1, 10, 1}, {1, 11, 1}, {1, 10, 2}, {2, 10, 1}, x, y};
  constexpr uint32_t kQuota = 48;
  CapSpace space(kQuota);
  std::map<CapId, CapEntry> model;
  Rng rng(0xC0FFEE);
  uint64_t tag = 0;  // distinguishes entries of the same ref in all_entries()
  auto key = [](const CapEntry& e) {
    return std::tuple(e.ref.owner, e.ref.index, e.ref.reboot_count, e.mem.addr);
  };
  for (int step = 0; step < 100'000; ++step) {
    const uint64_t op = rng.next_below(100);
    std::optional<CapId> gone;  // a cid that must now be invalid
    if (op < 50) {
      CapEntry e;
      e.ref = refs[rng.next_below(refs.size())];
      e.mem.addr = tag++;
      auto cid = space.install(e);
      if (model.size() >= kQuota) {
        ASSERT_EQ(cid.error(), ErrorCode::kResourceExhausted);
      } else {
        ASSERT_TRUE(cid.ok());
        ASSERT_FALSE(model.contains(cid.value()));
        model.emplace(cid.value(), e);
      }
    } else if (op < 85) {
      // Mostly live cids; sometimes a cid that is dead or was never issued.
      CapId cid = static_cast<CapId>(rng.next_below(tag + 2));
      if (!model.empty() && rng.next_bool(0.8)) {
        cid = std::next(model.begin(), rng.next_below(model.size()))->first;
      }
      const Status st = space.remove(cid);
      if (model.erase(cid) == 1) {
        ASSERT_TRUE(st.ok());
      } else {
        ASSERT_EQ(st.error(), ErrorCode::kInvalidCapability);
      }
      gone = cid;
    } else {
      std::vector<ObjectRef> revoked;
      for (uint64_t n = rng.next_range(1, 3); n > 0; --n) {
        revoked.push_back(refs[rng.next_below(refs.size())]);  // duplicates allowed
      }
      size_t expected = 0;
      for (const ObjectRef& r : revoked) {
        expected += std::erase_if(model, [&r](const auto& kv) { return kv.second.ref == r; });
      }
      ASSERT_EQ(space.purge_refs(revoked), expected) << "step " << step;
    }

    ASSERT_EQ(space.size(), model.size()) << "step " << step;
    if (gone) {
      ASSERT_EQ(space.get(*gone).error(), ErrorCode::kInvalidCapability);
    }
    std::vector<decltype(key(CapEntry{}))> want, got;
    for (const auto& [cid, e] : model) {
      auto g = space.get(cid);
      ASSERT_TRUE(g.ok()) << "step " << step << " cid " << cid;
      ASSERT_EQ(key(g.value()), key(e));
      want.push_back(key(e));
    }
    for (const CapEntry& e : space.all_entries()) {
      got.push_back(key(e));
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "step " << step;
  }
}

}  // namespace
}  // namespace fractos
