// Tests for the Gemini contiguity list (next-fit over maximal free extents).
#include "vmem/contiguity_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "vmem/buddy_allocator.h"

namespace {

using base::kPagesPerHuge;
using vmem::BuddyAllocator;
using vmem::ContiguityList;
using vmem::kInvalidFrame;

TEST(ContiguityList, FreshMemoryIsOneExtent) {
  BuddyAllocator buddy(4096);
  ContiguityList list(&buddy);
  list.Refresh();
  ASSERT_EQ(list.extent_count(), 1u);
  EXPECT_EQ(list.extents()[0].frame, 0u);
  EXPECT_EQ(list.extents()[0].count, 4096u);
}

TEST(ContiguityList, PinSplitsExtents) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(2000, 1));
  ContiguityList list(&buddy);
  list.Refresh();
  ASSERT_EQ(list.extent_count(), 2u);
  EXPECT_EQ(list.extents()[0].count, 2000u);
  EXPECT_EQ(list.extents()[1].frame, 2001u);
  EXPECT_EQ(list.extents()[1].count, 2095u);
}

TEST(ContiguityList, FindFitBasic) {
  BuddyAllocator buddy(4096);
  ContiguityList list(&buddy);
  list.Refresh();
  const uint64_t f = list.FindFit(100, /*huge_aligned=*/false);
  EXPECT_EQ(f, 0u);
}

TEST(ContiguityList, FindFitHugeAlignedRoundsUp) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(0, 10));  // extent starts at 10, unaligned
  ContiguityList list(&buddy);
  list.Refresh();
  const uint64_t f = list.FindFit(kPagesPerHuge, /*huge_aligned=*/true);
  EXPECT_EQ(f, kPagesPerHuge);  // 512, the first aligned frame >= 10
}

TEST(ContiguityList, FindFitFailsWhenNothingFits) {
  BuddyAllocator buddy(1024);
  // Pin the middle of every huge span.
  ASSERT_TRUE(buddy.AllocateAt(256, 1));
  ASSERT_TRUE(buddy.AllocateAt(768, 1));
  ContiguityList list(&buddy);
  list.Refresh();
  EXPECT_EQ(list.FindFit(kPagesPerHuge, true), kInvalidFrame);
  EXPECT_NE(list.FindFit(200, false), kInvalidFrame);
}

TEST(ContiguityList, NextFitAdvancesCursor) {
  BuddyAllocator buddy(8192);
  ContiguityList list(&buddy);
  list.Refresh();
  const uint64_t a = list.FindFit(512, true);
  const uint64_t b = list.FindFit(512, true);
  EXPECT_NE(a, kInvalidFrame);
  EXPECT_NE(b, kInvalidFrame);
  EXPECT_EQ(b, a + 512);  // resumed where the previous search left off
}

TEST(ContiguityList, NextFitWrapsAround) {
  BuddyAllocator buddy(2048);
  ContiguityList list(&buddy);
  list.Refresh();
  ASSERT_EQ(list.FindFit(1500, false), 0u);
  // Cursor is at 1500; a 1000-frame request only fits before the cursor,
  // so the search must wrap.
  list.Refresh();
  const uint64_t f = list.FindFit(1000, false);
  EXPECT_EQ(f, 0u);
}

TEST(ContiguityList, LargestExtent) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(1000, 1));
  ASSERT_TRUE(buddy.AllocateAt(1500, 1));
  ContiguityList list(&buddy);
  list.Refresh();
  const auto largest = list.LargestExtent();
  EXPECT_EQ(largest.frame, 1501u);
  EXPECT_EQ(largest.count, 4096u - 1501);
}

TEST(ContiguityList, LargestExtentEmptyWhenFull) {
  BuddyAllocator buddy(64);
  ASSERT_TRUE(buddy.AllocateAt(0, 64));
  ContiguityList list(&buddy);
  list.Refresh();
  EXPECT_EQ(list.LargestExtent().count, 0u);
}

TEST(ContiguityList, RefreshIsCachedUntilMutation) {
  BuddyAllocator buddy(4096);
  ContiguityList list(&buddy);
  EXPECT_EQ(list.rebuilds(), 0u);
  list.Refresh();
  ASSERT_EQ(list.extent_count(), 1u);
  EXPECT_EQ(list.rebuilds(), 1u);
  // No mutation: the second refresh is skipped.
  list.Refresh();
  EXPECT_EQ(list.extent_count(), 1u);
  EXPECT_EQ(list.rebuilds(), 1u);
  ASSERT_TRUE(buddy.AllocateAt(100, 1));
  list.Refresh();
  EXPECT_EQ(list.extent_count(), 2u);
  EXPECT_EQ(list.rebuilds(), 2u);
}

TEST(ContiguityList, ExtentsMergeAcrossBuddyBlockBoundaries) {
  BuddyAllocator buddy(8192);
  // Allocate and free in a pattern that leaves adjacent blocks of
  // different orders: the list must present them as one extent.
  const uint64_t f = buddy.Allocate(0);
  ContiguityList list(&buddy);
  list.Refresh();
  buddy.Free(f, 1);
  list.Refresh();
  ASSERT_EQ(list.extent_count(), 1u);
  EXPECT_EQ(list.extents()[0].count, 8192u);
}

// The extents Refresh should produce: free buddy blocks merged into
// maximal runs.
std::vector<ContiguityList::Extent> MergedBlocks(const BuddyAllocator& buddy) {
  std::vector<ContiguityList::Extent> runs;
  buddy.ForEachFreeBlock([&](uint64_t head, int order) {
    const uint64_t size = 1ull << order;
    if (!runs.empty() && runs.back().frame + runs.back().count == head) {
      runs.back().count += size;
    } else {
      runs.push_back({head, size});
    }
  });
  return runs;
}

// The same runs from the test's own per-frame record of what it pinned.
std::vector<ContiguityList::Extent> FreeRuns(const std::vector<bool>& free) {
  std::vector<ContiguityList::Extent> runs;
  for (uint64_t f = 0; f < free.size(); ++f) {
    if (!free[f]) {
      continue;
    }
    if (!runs.empty() && runs.back().frame + runs.back().count == f) {
      ++runs.back().count;
    } else {
      runs.push_back({f, 1});
    }
  }
  return runs;
}

// Sizes straddle the 64-frame bitmap words and 4096-frame summary words and
// end in a non-power-of-two tail; each allocator starts with its last frame
// free, and the first step pins frame 0 so the final run is not the whole
// space.
TEST(ContiguityList, RefreshMatchesBlockMerge) {
  for (uint64_t frames : {63ull, 64ull, 4096ull + 512 + 3, 262144ull + 77}) {
    SCOPED_TRACE(testing::Message() << "frames " << frames);
    BuddyAllocator buddy(frames, /*selection_seed=*/frames);
    ContiguityList list(&buddy);
    std::vector<bool> free(frames, true);
    std::map<uint64_t, uint64_t> pinned;  // first frame -> count
    base::Rng rng(frames);
    ASSERT_TRUE(buddy.AllocateAt(0, 1));
    pinned.emplace(0, 1);
    free[0] = false;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      if (rng.NextBool(0.6) || pinned.empty()) {
        const uint64_t frame = rng.NextBelow(frames);
        const uint64_t count = 1 + rng.NextBelow(std::min<uint64_t>(
                                       frames - frame, 1 + rng.NextBelow(64)));
        if (buddy.AllocateAt(frame, count)) {
          pinned.emplace(frame, count);
          std::fill_n(free.begin() + static_cast<ptrdiff_t>(frame), count,
                      false);
        }
      } else {
        auto it = pinned.begin();
        std::advance(it, rng.NextBelow(pinned.size()));
        buddy.Free(it->first, it->second);
        std::fill_n(free.begin() + static_cast<ptrdiff_t>(it->first),
                    it->second, true);
        pinned.erase(it);
      }
      list.Refresh();
      ASSERT_EQ(list.extents(), MergedBlocks(buddy));
      ASSERT_EQ(list.extents(), FreeRuns(free));
    }
    // Free every pin, then pin the second-to-last frame: the last extent
    // is the lone last frame.
    for (const auto& [frame, count] : pinned) {
      buddy.Free(frame, count);
    }
    ASSERT_TRUE(buddy.AllocateAt(frames - 2, 1));
    list.Refresh();
    ASSERT_EQ(list.extents(), MergedBlocks(buddy));
    ASSERT_EQ(list.extents().back().frame, frames - 1);
    ASSERT_EQ(list.extents().back().count, 1u);
  }
}

}  // namespace
