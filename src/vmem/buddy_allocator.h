// Binary buddy allocator modeled on the Linux page allocator.
//
// Free memory is kept as blocks of order 0 (one 4 KiB frame) to order
// kMaxOrder-1 (1024 frames = 4 MiB), mirroring Linux MAX_ORDER = 11.
// Allocation splits the smallest sufficient block; freeing merges buddies
// greedily.  Two features go beyond the textbook allocator because Gemini
// needs them:
//
//  * AllocateAt(frame, count): targeted allocation of an exact frame range,
//    used by the Enhanced Memory Allocator to place pages at offsets that
//    align with huge pages at the other layer, by huge booking to take a
//    reservation out of the general pool, and by the fragmenter.
//  * FMFI(order): the free memory fragmentation index used by Ingens and by
//    Gemini's booking-timeout controller (Algorithm 1) and preallocation
//    gate.
//
// The free map is held in bitmaps, not trees (DESIGN.md "Bitmap buddy"):
//
//  * heads_[o]: bit i set iff the order-o block at frame i << o is free.
//    It has one bit per order-o block that lies wholly inside the frame
//    space.  summary_[o] has bit j set iff word j of heads_[o] is nonzero,
//    so the lowest free block of an order is found with two ctz steps,
//    starting from summary_low_[o] (all summary words below it are zero).
//    counts_[o] is the number of set bits in heads_[o].
//  * free_map_: bit f set iff frame f is free.  Bits past frame_count_
//    stay clear.
//
// Invariants (CheckInvariants): the free blocks named by heads_ are
// disjoint and tile free_map_ exactly; no two free blocks are unmerged
// buddies; counts_, summary_ and summary_low_ agree with heads_; the blocks
// total free_frames_.  Because of the buddy invariant, every maximal run of free
// frames is split into blocks the same greedy way InsertFreeRange splits a
// range, so ForEachFreeBlock reads blocks straight off free_map_.
#ifndef SRC_VMEM_BUDDY_ALLOCATOR_H_
#define SRC_VMEM_BUDDY_ALLOCATOR_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "trace/tracer.h"
#include "vmem/frame_space.h"

namespace vmem {

class BuddyAllocator {
 public:
  // `selection_seed` randomizes which free block of an order serves each
  // allocation (bounded choice among the lowest few), modeling the
  // effectively arbitrary order of Linux's LIFO per-cpu freelists.  Seed 0
  // selects strictly lowest-address-first (deterministic; used by tests).
  explicit BuddyAllocator(uint64_t frame_count, uint64_t selection_seed = 0);

  BuddyAllocator(const BuddyAllocator&) = delete;
  BuddyAllocator& operator=(const BuddyAllocator&) = delete;

  // Allocates a naturally aligned block of 2^order frames.  Returns the
  // first frame, or kInvalidFrame if no block of sufficient order exists.
  // Prefers the lowest-addressed suitable block, like Linux's
  // address-ordered freelists under the default migratetype.
  uint64_t Allocate(int order);

  // Allocates the exact range [frame, frame + count).  Succeeds only if the
  // whole range is currently free and inside the frame space.  The range
  // need not be aligned or a power of two; surrounding free space is
  // re-split into maximal blocks.
  bool AllocateAt(uint64_t frame, uint64_t count);

  // True if the whole range [frame, frame + count) is inside the frame
  // space and free.
  bool IsRangeFree(uint64_t frame, uint64_t count) const;

  // Frees the range [frame, frame + count), merging buddies.  The range
  // must lie inside the frame space and be entirely allocated.
  void Free(uint64_t frame, uint64_t count);

  bool IsFrameFree(uint64_t frame) const {
    return frame < frame_count_ &&
           ((free_map_[frame >> 6] >> (frame & 63)) & 1) != 0;
  }

  uint64_t frame_count() const { return frame_count_; }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t allocated_frames() const { return frame_count_ - free_frames_; }

  // Number of free blocks of exactly the given order.
  uint64_t FreeBlocksOfOrder(int order) const;

  // Largest order with at least one free block, or -1 if memory is full.
  int LargestFreeOrder() const;

  // How many order-`order` blocks could be carved from the free blocks
  // (counting larger blocks at their split multiplicity).
  uint64_t BlocksAvailable(int order) const;

  // Free memory fragmentation index for allocations of the given order:
  //   FMFI = 1 - (frames usable as order-`order` blocks) / (free frames)
  // 0 means all free memory is available in sufficiently large blocks;
  // values near 1 mean free memory exists only as smaller fragments.
  // Returns 1.0 when no memory is free.
  double Fmfi(int order) const;

  // Monotone counter bumped on every free-map mutation; cheap change
  // detection for cached views (the contiguity list).
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  // Monotone counter bumped by every Free of at least one frame: the only
  // call that adds frames to the free map.  Allocate and AllocateAt only
  // remove frames (their re-splits re-insert frames that were already
  // free), so while frees() is unchanged every maximal free run can only
  // shrink or split, and a search that found no run of n frames stays
  // fruitless (DESIGN.md "Testbed build path").
  uint64_t frees() const { return frees_; }

  // Attaches the machine's tracer so split/merge/targeted-allocation
  // tracepoints are emitted, tagged with this allocator's layer and VM.
  // Null (the default) keeps the allocator silent.
  void SetTracer(trace::Tracer* tracer, base::Layer layer, int32_t vm_id) {
    tracer_ = tracer;
    trace_layer_ = layer;
    trace_vm_ = vm_id;
  }

  // Visits maximal runs of free frames as (first_frame, count), in address
  // order, starting with the run that holds frame `from` (reported whole)
  // or else the first run after `from`, until `fn` returns false.  Returns
  // false iff `fn` stopped the walk.  A ctz scan of free_map_ for a set
  // bit, then for a clear one.
  template <typename Fn>
  bool ForEachFreeRunFrom(uint64_t from, Fn&& fn) const {
    if (from >= frame_count_) {
      return true;
    }
    if (IsFrameFree(from)) {
      from = FreeRunStart(from);
    }
    const size_t words = free_map_.size();
    size_t w = from >> 6;
    uint64_t bits = free_map_[w] & (~0ull << (from & 63));
    while (true) {
      while (bits == 0) {
        if (++w == words) {
          return true;
        }
        bits = free_map_[w];
      }
      const uint64_t lo =
          w * 64 + static_cast<uint64_t>(__builtin_ctzll(bits));
      uint64_t clear = ~bits & (~0ull << (lo & 63));
      while (clear == 0) {
        if (++w == words) {
          return fn(lo, frame_count_ - lo);
        }
        clear = ~free_map_[w];
      }
      const uint64_t hi =
          w * 64 + static_cast<uint64_t>(__builtin_ctzll(clear));
      if (!fn(lo, hi - lo)) {
        return false;
      }
      bits = free_map_[w] & (~0ull << (hi & 63));
    }
  }

  // Visits each maximal run of free frames as (first_frame, count), in
  // address order.
  template <typename Fn>
  void ForEachFreeRun(Fn&& fn) const {
    ForEachFreeRunFrom(0, [&](uint64_t lo, uint64_t count) {
      fn(lo, count);
      return true;
    });
  }

  // First frame of the lowest run of at least `min_frames` (> 0) free
  // frames inside [from, limit), or kInvalidFrame.  Frames outside the
  // range count as allocated: a maximal run that crosses `limit` counts
  // only its part below it, and one that crosses `from` starts at `from`.
  // A word-level scan of free_map_ from `from` that stops at the first
  // fit.
  uint64_t FirstFreeRun(uint64_t min_frames, uint64_t from,
                        uint64_t limit) const;

  // End of the first block, in the greedy split ForEachFreeBlock applies
  // to the free run [lo, hi), that ends at or past `at` (lo < at <= hi).
  static uint64_t BlockEndAtOrPast(uint64_t lo, uint64_t hi, uint64_t at) {
    uint64_t end = lo;
    while (end < at) {
      end += 1ull << MaxBlockOrder(end, hi - end);
    }
    return end;
  }

  // Visits each free block as (first_frame, order), in address order.
  template <typename Fn>
  void ForEachFreeBlock(Fn&& fn) const {
    ForEachFreeRun([&](uint64_t lo, uint64_t count) {
      const uint64_t hi = lo + count;
      while (lo < hi) {
        const int order = MaxBlockOrder(lo, hi - lo);
        fn(lo, order);
        lo += 1ull << order;
      }
    });
  }

  // Verifies internal invariants (for tests): every head is aligned, in
  // range and free; blocks are disjoint and tile free_map_; no two blocks
  // are unmerged buddies; counts_ and summary_ match heads_; the total is
  // free_frames_; ForEachFreeBlock yields exactly the heads_ blocks.
  // Aborts on violation.
  void CheckInvariants() const;

 private:
  // Order of the largest naturally aligned block that starts at `frame`
  // and spans at most `len` (> 0) frames.
  static int MaxBlockOrder(uint64_t frame, uint64_t len) {
    int order = frame == 0 ? base::kMaxOrder - 1
                           : std::min(base::kMaxOrder - 1,
                                      __builtin_ctzll(frame));
    return std::min(order, 63 - __builtin_clzll(len));
  }

  // True if [frame, frame + count) lies inside the frame space, without
  // computing frame + count (which can wrap).
  bool InRange(uint64_t frame, uint64_t count) const {
    return frame < frame_count_ && count <= frame_count_ - frame;
  }

  // First frame of the maximal free run holding the free `frame`: a scan
  // down free_map_ for the nearest clear bit below it.
  uint64_t FreeRunStart(uint64_t frame) const {
    size_t w = frame >> 6;
    uint64_t clear = ~free_map_[w] & ((2ull << (frame & 63)) - 1);
    while (clear == 0) {
      if (w == 0) {
        return 0;
      }
      clear = ~free_map_[--w];
    }
    return w * 64 + 64 - static_cast<uint64_t>(__builtin_clzll(clear));
  }

  bool IsHead(uint64_t head, int order) const {
    const uint64_t bit = head >> order;
    return (heads_[order][bit >> 6] >> (bit & 63)) & 1;
  }
  // Returns the k-th lowest free head of `order` (k < counts_[order]).
  uint64_t SelectHead(int order, uint64_t k);
  // Order-`order` head of the free block containing the free `frame`.
  uint64_t BlockContaining(uint64_t frame, int* order) const;

  void InsertFreeBlock(uint64_t head, int order);
  void RemoveFreeBlock(uint64_t head, int order);
  // Frees one naturally aligned block and merges with its buddy chain.
  void FreeBlock(uint64_t head, int order);
  // Re-inserts the free range [lo, hi) as maximal aligned blocks.
  void InsertFreeRange(uint64_t lo, uint64_t hi);

  uint64_t frame_count_;
  uint64_t free_frames_ = 0;
  uint64_t mutation_epoch_ = 0;
  uint64_t frees_ = 0;
  trace::Tracer* tracer_ = nullptr;
  base::Layer trace_layer_ = base::Layer::kGuest;
  int32_t trace_vm_ = -1;
  bool randomize_ = false;
  base::Rng rng_;
  // Per-order free-head bitmaps, one bit per order-o block position.
  std::array<std::vector<uint64_t>, base::kMaxOrder> heads_;
  // Per-order summary: bit j set iff heads_[o][j] != 0.
  std::array<std::vector<uint64_t>, base::kMaxOrder> summary_;
  // Per-order low-water mark: every summary_[o] word below it is zero.
  std::array<size_t, base::kMaxOrder> summary_low_{};
  // Number of free blocks of each order (set bits of heads_[o]).
  std::array<uint64_t, base::kMaxOrder> counts_{};
  // One bit per frame, set iff the frame is free.
  std::vector<uint64_t> free_map_;
};

}  // namespace vmem

#endif  // SRC_VMEM_BUDDY_ALLOCATOR_H_
