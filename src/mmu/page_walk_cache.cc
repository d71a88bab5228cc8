#include "mmu/page_walk_cache.h"

#include "base/check.h"

namespace mmu {

namespace {

// Smallest power of two >= n (n >= 1).
uint32_t NextPow2(uint32_t n) {
  uint32_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

PrefixCache::PrefixCache(uint32_t capacity) : capacity_(capacity) {
  // ~2x buckets per entry keeps chains at O(1) expected length even at
  // capacity; the hash only accelerates probes, it never affects which
  // entry is evicted.
  const uint32_t buckets = NextPow2(capacity_ < 2 ? 4 : capacity_ * 2);
  uint32_t log2 = 0;
  while ((1u << log2) < buckets) {
    ++log2;
  }
  bucket_shift_ = 64 - log2;
  bucket_head_.assign(buckets, -1);
  keys_.reserve(capacity_);
  chain_next_.reserve(capacity_);
  lru_prev_.reserve(capacity_);
  lru_next_.reserve(capacity_);
}

void PrefixCache::LinkIntoBucket(uint32_t slot) {
  const uint32_t bucket = Bucket(keys_[slot]);
  chain_next_[slot] = bucket_head_[bucket];
  bucket_head_[bucket] = static_cast<int32_t>(slot);
}

void PrefixCache::UnlinkFromBucket(uint32_t slot) {
  const uint32_t bucket = Bucket(keys_[slot]);
  int32_t* link = &bucket_head_[bucket];
  while (*link != static_cast<int32_t>(slot)) {
    SIM_CHECK(*link >= 0);  // slot must be on its bucket chain
    link = &chain_next_[*link];
  }
  *link = chain_next_[slot];
}

void PrefixCache::PushFront(uint32_t slot) {
  lru_prev_[slot] = -1;
  lru_next_[slot] = lru_head_;
  if (lru_head_ >= 0) {
    lru_prev_[lru_head_] = static_cast<int32_t>(slot);
  } else {
    lru_tail_ = static_cast<int32_t>(slot);
  }
  lru_head_ = static_cast<int32_t>(slot);
}

uint32_t PrefixCache::InsertMissing(uint64_t prefix) {
  SIM_CHECK(capacity_ > 0);
  ++mutations_;
  if (keys_.size() < capacity_) {
    const uint32_t slot = static_cast<uint32_t>(keys_.size());
    keys_.push_back(prefix);
    chain_next_.push_back(-1);
    lru_prev_.push_back(-1);
    lru_next_.push_back(-1);
    LinkIntoBucket(slot);
    PushFront(slot);
    return slot;
  }
  // Evict the exact LRU entry: the recency-list tail (the same entry a
  // least-recent-stamp scan would pick).
  const uint32_t victim = static_cast<uint32_t>(lru_tail_);
  UnlinkFromBucket(victim);
  keys_[victim] = prefix;
  LinkIntoBucket(victim);
  MoveToFront(victim);
  return victim;
}

void PrefixCache::Flush() {
  ++mutations_;
  keys_.clear();
  chain_next_.clear();
  lru_prev_.clear();
  lru_next_.clear();
  lru_head_ = -1;
  lru_tail_ = -1;
  bucket_head_.assign(bucket_head_.size(), -1);
}

void PrefixCache::HashState(base::Digest* d) const {
  d->AddAll(keys_);
  d->AddAll(bucket_head_);
  d->AddAll(chain_next_);
  d->AddAll(lru_prev_);
  d->AddAll(lru_next_);
  d->Add(static_cast<uint64_t>(lru_head_));
  d->Add(static_cast<uint64_t>(lru_tail_));
  d->Add(mutations_);
}

WalkCost PageWalkCache::Walk(uint64_t vpn, base::PageSize leaf_size) {
  WalkCost cost;
  // PML4 reference: one entry per 512 GiB of virtual space.
  const uint64_t pml4_prefix = vpn >> 27;
  int32_t slot = pml4_.LookupSlot(pml4_prefix);
  if (slot >= 0) {
    ++cost.cached_refs;
    cost.l4_cached = true;
    cost.l4_slot = static_cast<uint32_t>(slot);
  } else {
    ++cost.memory_refs;
    cost.l4_slot = pml4_.InsertMissing(pml4_prefix);
  }
  // PDPT reference: one entry per 1 GiB.
  const uint64_t pdpt_prefix = vpn >> 18;
  slot = pdpt_.LookupSlot(pdpt_prefix);
  if (slot >= 0) {
    ++cost.cached_refs;
    cost.l3_cached = true;
    cost.l3_slot = static_cast<uint32_t>(slot);
  } else {
    ++cost.memory_refs;
    cost.l3_slot = pdpt_.InsertMissing(pdpt_prefix);
  }
  // PD reference (leaf for huge pages) is not covered by the PWC.
  ++cost.memory_refs;
  if (leaf_size == base::PageSize::kBase) {
    // PT reference (leaf for base pages).
    ++cost.memory_refs;
  }
  return cost;
}

void PageWalkCache::Flush() {
  pml4_.Flush();
  pdpt_.Flush();
}

}  // namespace mmu
