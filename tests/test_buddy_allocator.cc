// Tests for the buddy allocator: invariants, targeted allocation, FMFI,
// randomized property sweeps against a frame-ownership reference, and a
// differential test against the red-black-tree allocator the bitmaps
// replaced.
#include "vmem/buddy_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/types.h"

namespace {

using base::kHugeOrder;
using base::kMaxOrder;
using base::kPagesPerHuge;
using vmem::BuddyAllocator;
using vmem::kInvalidFrame;

TEST(Buddy, FreshAllocatorIsFullyFree) {
  BuddyAllocator buddy(4096);
  EXPECT_EQ(buddy.free_frames(), 4096u);
  EXPECT_EQ(buddy.allocated_frames(), 0u);
  buddy.CheckInvariants();
}

TEST(Buddy, NonPowerOfTwoSizeSeedsCorrectly) {
  BuddyAllocator buddy(4096 + 512 + 3);
  EXPECT_EQ(buddy.free_frames(), 4096u + 512 + 3);
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateReturnsAlignedBlocks) {
  BuddyAllocator buddy(1 << 14);
  for (int order = 0; order < kMaxOrder; ++order) {
    const uint64_t frame = buddy.Allocate(order);
    ASSERT_NE(frame, kInvalidFrame);
    EXPECT_EQ(frame % (1ull << order), 0u) << "order " << order;
  }
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateExhaustsAndFails) {
  BuddyAllocator buddy(16);
  for (int i = 0; i < 16; ++i) {
    ASSERT_NE(buddy.Allocate(0), kInvalidFrame);
  }
  EXPECT_EQ(buddy.Allocate(0), kInvalidFrame);
  EXPECT_EQ(buddy.free_frames(), 0u);
}

TEST(Buddy, FreeMergesBuddies) {
  BuddyAllocator buddy(1024);
  const uint64_t a = buddy.Allocate(9);
  ASSERT_NE(a, kInvalidFrame);
  const uint64_t b = buddy.Allocate(9);
  ASSERT_NE(b, kInvalidFrame);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(9), 0u);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(10), 0u);
  buddy.Free(a, 512);
  buddy.Free(b, 512);
  buddy.CheckInvariants();
  // 1024 contiguous frames must re-merge into one order-10 block.
  EXPECT_EQ(buddy.FreeBlocksOfOrder(10), 1u);
}

TEST(Buddy, PartialFreeRemerges) {
  BuddyAllocator buddy(2048);
  const uint64_t block = buddy.Allocate(10);
  ASSERT_NE(block, kInvalidFrame);
  // Free it page by page in a shuffled order; merging must rebuild it.
  std::vector<uint64_t> frames;
  for (uint64_t i = 0; i < 1024; ++i) {
    frames.push_back(block + i);
  }
  base::Rng rng(5);
  rng.Shuffle(frames);
  for (uint64_t f : frames) {
    buddy.Free(f, 1);
  }
  buddy.CheckInvariants();
  EXPECT_EQ(buddy.free_frames(), 2048u);
  EXPECT_GE(buddy.FreeBlocksOfOrder(10), 1u);
}

TEST(Buddy, AllocateAtExactRange) {
  BuddyAllocator buddy(4096);
  EXPECT_TRUE(buddy.AllocateAt(1000, 100));
  EXPECT_FALSE(buddy.IsRangeFree(1000, 100));
  EXPECT_TRUE(buddy.IsRangeFree(0, 1000));
  EXPECT_TRUE(buddy.IsRangeFree(1100, 100));
  buddy.CheckInvariants();
  buddy.Free(1000, 100);
  EXPECT_EQ(buddy.free_frames(), 4096u);
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateAtFailsOnConflict) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(128, 64));
  EXPECT_FALSE(buddy.AllocateAt(100, 64));  // overlaps [128,192)
  EXPECT_FALSE(buddy.AllocateAt(191, 1));
  EXPECT_TRUE(buddy.AllocateAt(192, 1));
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateAtOutOfRangeFails) {
  BuddyAllocator buddy(256);
  EXPECT_FALSE(buddy.AllocateAt(250, 10));
  EXPECT_TRUE(buddy.AllocateAt(250, 6));
}

TEST(Buddy, RejectsRangesThatWrap) {
  BuddyAllocator buddy(4096);
  // frame + count wraps past 2^64 to a small number for each of these.
  const uint64_t top = ~0ull & ~(kPagesPerHuge - 1);
  EXPECT_FALSE(buddy.IsRangeFree(top, kPagesPerHuge));
  EXPECT_FALSE(buddy.AllocateAt(top, kPagesPerHuge));
  EXPECT_FALSE(buddy.IsRangeFree(1, ~0ull));
  EXPECT_FALSE(buddy.AllocateAt(4095, ~0ull));
  EXPECT_FALSE(buddy.IsFrameFree(~0ull));
  EXPECT_EQ(buddy.free_frames(), 4096u);
  buddy.CheckInvariants();
  ASSERT_TRUE(buddy.AllocateAt(0, 16));
  EXPECT_DEATH(buddy.Free(~0ull, 1), "SIM_CHECK");
  EXPECT_DEATH(buddy.Free(8, ~0ull - 7), "SIM_CHECK");
  EXPECT_DEATH(buddy.Free(4096, 1), "SIM_CHECK");
  buddy.Free(0, 16);
  EXPECT_EQ(buddy.free_frames(), 4096u);
}

TEST(Buddy, DoubleFreeAborts) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(100, 28));
  // [96, 100) is free: a free of [96, 104) overlaps it.
  EXPECT_DEATH(buddy.Free(96, 8), "double free");
  EXPECT_DEATH(buddy.Free(127, 2), "double free");
  buddy.Free(100, 28);
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateAtUnalignedHugeSpan) {
  BuddyAllocator buddy(4096);
  // A huge-page-sized range at an arbitrary (non-block-aligned) offset.
  EXPECT_TRUE(buddy.AllocateAt(700, kPagesPerHuge));
  buddy.CheckInvariants();
  EXPECT_EQ(buddy.allocated_frames(), kPagesPerHuge);
}

TEST(Buddy, FmfiZeroWhenUnfragmented) {
  BuddyAllocator buddy(1 << 14);
  EXPECT_DOUBLE_EQ(buddy.Fmfi(kHugeOrder), 0.0);
}

TEST(Buddy, FmfiOneWhenOnlySplinters) {
  BuddyAllocator buddy(2048);
  // Pin one frame in every huge-aligned span.
  for (uint64_t f = 256; f < 2048; f += 512) {
    ASSERT_TRUE(buddy.AllocateAt(f, 1));
  }
  EXPECT_DOUBLE_EQ(buddy.Fmfi(kHugeOrder), 1.0);
  EXPECT_LT(buddy.Fmfi(0), 1e-9);  // all free memory usable at order 0
}

TEST(Buddy, FmfiFullMemoryIsOne) {
  BuddyAllocator buddy(64);
  ASSERT_TRUE(buddy.AllocateAt(0, 64));
  EXPECT_DOUBLE_EQ(buddy.Fmfi(0), 1.0);
}

TEST(Buddy, LargestFreeOrder) {
  BuddyAllocator buddy(2048);
  EXPECT_EQ(buddy.LargestFreeOrder(), 10);
  ASSERT_TRUE(buddy.AllocateAt(1024, 1));  // split the top block
  EXPECT_EQ(buddy.LargestFreeOrder(), 10);  // [0,1024) still whole
  ASSERT_TRUE(buddy.AllocateAt(0, 1));
  EXPECT_LT(buddy.LargestFreeOrder(), 10);
}

TEST(Buddy, MutationEpochAdvances) {
  BuddyAllocator buddy(256);
  const uint64_t e0 = buddy.mutation_epoch();
  const uint64_t f = buddy.Allocate(0);
  EXPECT_GT(buddy.mutation_epoch(), e0);
  const uint64_t e1 = buddy.mutation_epoch();
  buddy.Free(f, 1);
  EXPECT_GT(buddy.mutation_epoch(), e1);
}

TEST(Buddy, FreesCountsOnlyFrees) {
  BuddyAllocator buddy(4096);
  EXPECT_EQ(buddy.frees(), 0u);
  const uint64_t f = buddy.Allocate(3);
  ASSERT_TRUE(buddy.AllocateAt(1000, 37));  // re-splits the slack
  EXPECT_EQ(buddy.frees(), 0u);
  buddy.Free(f, 0);  // frees nothing
  EXPECT_EQ(buddy.frees(), 0u);
  buddy.Free(f, 8);
  EXPECT_EQ(buddy.frees(), 1u);
  buddy.Free(1000, 37);
  EXPECT_EQ(buddy.frees(), 2u);
}

// ForEachFreeRunFrom and FirstFreeRun (over random ranges) against brute
// force over the free map on randomly fragmented buddies, including sizes
// that are not a multiple of 64 and runs that cross word boundaries.
TEST(Buddy, RunWalkFromAndFirstFreeRunMatchBruteForce) {
  base::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const uint64_t frames = 64 + rng.NextBelow(5000);
    BuddyAllocator buddy(frames);
    for (int i = 0; i < 300; ++i) {
      (void)buddy.AllocateAt(rng.NextBelow(frames), 1 + rng.NextBelow(90));
    }
    std::vector<std::pair<uint64_t, uint64_t>> runs;  // brute force
    for (uint64_t f = 0; f < frames; ++f) {
      if (!buddy.IsFrameFree(f)) {
        continue;
      }
      if (!runs.empty() && runs.back().first + runs.back().second == f) {
        ++runs.back().second;
      } else {
        runs.emplace_back(f, 1);
      }
    }
    for (int q = 0; q < 50; ++q) {
      const uint64_t from = rng.NextBelow(frames + 3);
      std::vector<std::pair<uint64_t, uint64_t>> want;
      for (const auto& run : runs) {
        if (run.first + run.second > from) {
          want.push_back(run);
        }
      }
      const size_t stop = rng.NextBelow(want.size() + 2);
      std::vector<std::pair<uint64_t, uint64_t>> got;
      const bool completed =
          buddy.ForEachFreeRunFrom(from, [&](uint64_t lo, uint64_t count) {
            got.emplace_back(lo, count);
            return got.size() != stop;
          });
      const size_t visited = stop == 0 ? want.size()
                                       : std::min(stop, want.size());
      EXPECT_EQ(completed, stop == 0 || stop > want.size());
      want.resize(visited);
      ASSERT_EQ(got, want) << "trial " << trial << " from " << from;

      const uint64_t min_frames = 1 + rng.NextBelow(rng.NextBool(0.5) ? 70 : 400);
      const uint64_t limit = rng.NextBelow(frames + 3);
      // Half the queries scan from frame 0, the rest from a random frame
      // that may cut a run or lie past `limit`.
      const uint64_t start = rng.NextBool(0.5) ? 0 : rng.NextBelow(frames + 3);
      uint64_t first = kInvalidFrame;
      for (const auto& [lo, count] : runs) {
        const uint64_t a = std::max(lo, start);
        const uint64_t b = std::min(lo + count, limit);
        if (a < b && b - a >= min_frames) {
          first = a;
          break;
        }
      }
      ASSERT_EQ(buddy.FirstFreeRun(min_frames, start, limit), first)
          << "trial " << trial << " min " << min_frames << " from " << start
          << " limit " << limit;
    }
  }
}

TEST(Buddy, RandomizedSelectionStaysCorrect) {
  BuddyAllocator buddy(1 << 13, /*selection_seed=*/99);
  std::vector<uint64_t> got;
  for (int i = 0; i < 64; ++i) {
    const uint64_t f = buddy.Allocate(3);
    ASSERT_NE(f, kInvalidFrame);
    EXPECT_EQ(f % 8, 0u);
    got.push_back(f);
  }
  buddy.CheckInvariants();
  for (uint64_t f : got) {
    buddy.Free(f, 8);
  }
  EXPECT_EQ(buddy.free_frames(), 1ull << 13);
  buddy.CheckInvariants();
}

// Differential property test: random alloc/free/alloc-at sequences tracked
// against a per-frame ownership map.  Frames must never be double-allocated
// and totals must always balance.
class BuddyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyPropertyTest, RandomOpsPreserveInvariants) {
  constexpr uint64_t kFrames = 1 << 12;
  base::Rng rng(GetParam());
  BuddyAllocator buddy(kFrames);
  // Live allocations: first frame -> count.
  std::map<uint64_t, uint64_t> live;
  uint64_t live_frames = 0;

  for (int step = 0; step < 2000; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      const int order = static_cast<int>(rng.NextBelow(kMaxOrder));
      const uint64_t f = buddy.Allocate(order);
      if (f != kInvalidFrame) {
        const uint64_t count = 1ull << order;
        // No overlap with any live allocation.
        for (const auto& [lf, lc] : live) {
          ASSERT_TRUE(f + count <= lf || lf + lc <= f)
              << "overlap at step " << step;
        }
        live.emplace(f, count);
        live_frames += count;
      }
    } else if (dice < 0.6) {
      const uint64_t f = rng.NextBelow(kFrames);
      const uint64_t count = 1 + rng.NextBelow(64);
      if (buddy.AllocateAt(f, count)) {
        for (const auto& [lf, lc] : live) {
          ASSERT_TRUE(f + count <= lf || lf + lc <= f);
        }
        live.emplace(f, count);
        live_frames += count;
      }
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      buddy.Free(it->first, it->second);
      live_frames -= it->second;
      live.erase(it);
    }
    ASSERT_EQ(buddy.free_frames() + live_frames, kFrames) << "step " << step;
  }
  buddy.CheckInvariants();
  // Free everything; the allocator must return to a fully-merged state.
  for (const auto& [f, c] : live) {
    buddy.Free(f, c);
  }
  buddy.CheckInvariants();
  EXPECT_EQ(buddy.free_frames(), kFrames);
  EXPECT_EQ(buddy.LargestFreeOrder(), kMaxOrder - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace

namespace {

TEST(Buddy, BlocksAvailableCountsLargerBlocks) {
  BuddyAllocator buddy(4096);  // pristine: 2x order-10 + ... depends on size
  // 4096 frames = 2 order-10 + 0 others => 8 huge (order-9) blocks.
  EXPECT_EQ(buddy.BlocksAvailable(9), 8u);
  EXPECT_EQ(buddy.BlocksAvailable(10), 4u);
  ASSERT_TRUE(buddy.AllocateAt(0, 512));
  EXPECT_EQ(buddy.BlocksAvailable(9), 7u);
  // Splintering a block below order 9 removes it from availability.
  ASSERT_TRUE(buddy.AllocateAt(512 + 256, 1));
  EXPECT_EQ(buddy.BlocksAvailable(9), 6u);
}

}  // namespace

namespace {

// The allocator as it was before the bitmaps: a std::map of free blocks and
// per-order std::set free lists.  Kept here, without tracing and with the
// wrap-safe range check, as the reference model for BuddyDifferential.
class TreeBuddy {
 public:
  TreeBuddy(uint64_t frame_count, uint64_t selection_seed)
      : frame_count_(frame_count),
        randomize_(selection_seed != 0),
        rng_(selection_seed == 0 ? 1 : selection_seed) {
    InsertFreeRange(0, frame_count);
  }

  uint64_t Allocate(int order) {
    int found = -1;
    for (int o = order; o < kMaxOrder; ++o) {
      if (!free_lists_[o].empty()) {
        found = o;
        break;
      }
    }
    if (found < 0) {
      return kInvalidFrame;
    }
    auto it = free_lists_[found].begin();
    if (randomize_) {
      const size_t window = std::min<size_t>(16, free_lists_[found].size());
      std::advance(it, static_cast<size_t>(rng_.NextBelow(window)));
    }
    const uint64_t head = *it;
    RemoveFreeBlock(head, found);
    for (int o = found; o > order; --o) {
      InsertFreeBlock(head + (1ull << (o - 1)), o - 1);
    }
    return head;
  }

  bool IsRangeFree(uint64_t frame, uint64_t count) const {
    if (count == 0) {
      return true;
    }
    if (frame >= frame_count_ || count > frame_count_ - frame) {
      return false;
    }
    uint64_t cursor = frame;
    const uint64_t end = frame + count;
    while (cursor < end) {
      auto it = free_blocks_.upper_bound(cursor);
      if (it == free_blocks_.begin()) {
        return false;
      }
      --it;
      const uint64_t block_end = it->first + (1ull << it->second);
      if (block_end <= cursor) {
        return false;
      }
      cursor = block_end;
    }
    return true;
  }

  bool AllocateAt(uint64_t frame, uint64_t count) {
    if (count == 0) {
      return true;
    }
    if (!IsRangeFree(frame, count)) {
      return false;
    }
    const uint64_t end = frame + count;
    uint64_t cursor = frame;
    while (cursor < end) {
      auto it = std::prev(free_blocks_.upper_bound(cursor));
      const uint64_t head = it->first;
      const int order = it->second;
      const uint64_t block_end = head + (1ull << order);
      RemoveFreeBlock(head, order);
      if (head < frame) {
        InsertFreeRange(head, frame);
      }
      if (block_end > end) {
        InsertFreeRange(end, block_end);
      }
      cursor = block_end;
    }
    return true;
  }

  void Free(uint64_t frame, uint64_t count) {
    InsertFreeRange(frame, frame + count);
  }

  std::vector<std::pair<uint64_t, int>> Blocks() const {
    return {free_blocks_.begin(), free_blocks_.end()};
  }
  uint64_t FreeBlocksOfOrder(int order) const {
    return free_lists_[order].size();
  }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t mutation_epoch() const { return mutation_epoch_; }
  double Fmfi(int order) const {
    if (free_frames_ == 0) {
      return 1.0;
    }
    uint64_t usable = 0;
    for (int o = order; o < kMaxOrder; ++o) {
      usable += free_lists_[o].size() << o;
    }
    return 1.0 -
           static_cast<double>(usable) / static_cast<double>(free_frames_);
  }

 private:
  void InsertFreeBlock(uint64_t head, int order) {
    free_blocks_.emplace(head, order);
    free_lists_[order].insert(head);
    free_frames_ += 1ull << order;
    ++mutation_epoch_;
  }

  void RemoveFreeBlock(uint64_t head, int order) {
    free_blocks_.erase(head);
    free_lists_[order].erase(head);
    free_frames_ -= 1ull << order;
    ++mutation_epoch_;
  }

  void FreeBlock(uint64_t head, int order) {
    while (order < kMaxOrder - 1) {
      const uint64_t size = 1ull << order;
      const uint64_t buddy = head ^ size;
      if (buddy + size > frame_count_) {
        break;
      }
      auto it = free_blocks_.find(buddy);
      if (it == free_blocks_.end() || it->second != order) {
        break;
      }
      RemoveFreeBlock(buddy, order);
      head = std::min(head, buddy);
      ++order;
    }
    InsertFreeBlock(head, order);
  }

  void InsertFreeRange(uint64_t lo, uint64_t hi) {
    while (lo < hi) {
      int order = lo == 0 ? kMaxOrder - 1
                          : static_cast<int>(__builtin_ctzll(lo));
      order = std::min(order, kMaxOrder - 1);
      while ((1ull << order) > hi - lo) {
        --order;
      }
      FreeBlock(lo, order);
      lo += 1ull << order;
    }
  }

  uint64_t frame_count_;
  uint64_t free_frames_ = 0;
  uint64_t mutation_epoch_ = 0;
  bool randomize_;
  base::Rng rng_;
  std::map<uint64_t, int> free_blocks_;
  std::array<std::set<uint64_t>, kMaxOrder> free_lists_;
};

std::vector<std::pair<uint64_t, int>> BlocksOf(const BuddyAllocator& buddy) {
  std::vector<std::pair<uint64_t, int>> blocks;
  buddy.ForEachFreeBlock(
      [&](uint64_t head, int order) { blocks.emplace_back(head, order); });
  return blocks;
}

// Runs one random operation sequence on both allocators, comparing every
// observable after every step.
void RunDifferential(uint64_t frames, uint64_t selection_seed, int steps) {
  SCOPED_TRACE(testing::Message() << "frames " << frames << " seed "
                                  << selection_seed);
  BuddyAllocator buddy(frames, selection_seed);
  TreeBuddy tree(frames, selection_seed);
  base::Rng rng(frames * 31 + selection_seed);
  // Live allocations: first frame -> count.
  std::map<uint64_t, uint64_t> live;
  const uint64_t max_span = std::min<uint64_t>(frames, 700);

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const double dice = rng.NextDouble();
    if (dice < 0.35) {
      // Small orders dominate, as on the fault path.
      const int order = rng.NextBool(0.7)
                            ? static_cast<int>(rng.NextBelow(3))
                            : static_cast<int>(rng.NextBelow(kMaxOrder));
      const uint64_t got = buddy.Allocate(order);
      ASSERT_EQ(got, tree.Allocate(order));
      if (got != kInvalidFrame) {
        live.emplace(got, 1ull << order);
      }
    } else if (dice < 0.6) {
      // Targeted ranges, some running off the end of the frame space.
      const uint64_t frame = rng.NextBelow(frames + 8);
      const uint64_t count = 1 + rng.NextBelow(max_span);
      const bool ok = buddy.AllocateAt(frame, count);
      ASSERT_EQ(ok, tree.AllocateAt(frame, count));
      if (ok) {
        live.emplace(frame, count);
      }
    } else if (dice < 0.7) {
      const uint64_t frame = rng.NextBelow(frames + 8);
      const uint64_t count = rng.NextBelow(max_span + 1);
      ASSERT_EQ(buddy.IsRangeFree(frame, count),
                tree.IsRangeFree(frame, count));
    } else if (!live.empty()) {
      // Free a whole allocation or an arbitrary piece of one.
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      const auto [first, count] = *it;
      live.erase(it);
      uint64_t lo = first;
      uint64_t hi = first + count;
      if (count > 1 && rng.NextBool(0.4)) {
        lo = first + rng.NextBelow(count);
        hi = lo + 1 + rng.NextBelow(first + count - lo);
        if (lo > first) {
          live.emplace(first, lo - first);
        }
        if (hi < first + count) {
          live.emplace(hi, first + count - hi);
        }
      }
      buddy.Free(lo, hi - lo);
      tree.Free(lo, hi - lo);
    }
    ASSERT_EQ(BlocksOf(buddy), tree.Blocks());
    for (int o = 0; o < kMaxOrder; ++o) {
      ASSERT_EQ(buddy.FreeBlocksOfOrder(o), tree.FreeBlocksOfOrder(o))
          << "order " << o;
    }
    ASSERT_EQ(buddy.free_frames(), tree.free_frames());
    ASSERT_EQ(buddy.mutation_epoch(), tree.mutation_epoch());
    ASSERT_EQ(buddy.Fmfi(kHugeOrder), tree.Fmfi(kHugeOrder));
    buddy.CheckInvariants();
  }
}

// Sizes straddle bitmap-word (64 frames) and summary-word (4096 frames)
// boundaries and end in a non-power-of-two tail.
TEST(BuddyDifferential, MatchesTreeReference) {
  for (uint64_t selection_seed : {0ull, 7ull, 1234567ull}) {
    RunDifferential(63, selection_seed, 600);
    RunDifferential(64, selection_seed, 600);
    RunDifferential(4096 + 512 + 3, selection_seed, 1500);
    RunDifferential(262144 + 77, selection_seed, 1500);
  }
}

}  // namespace
