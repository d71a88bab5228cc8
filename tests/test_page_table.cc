// Tests for the two-granularity page table.
#include "mmu/page_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/types.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;
using base::PageSize;
using mmu::PageTable;

TEST(PageTable, EmptyLookupFails) {
  PageTable table;
  EXPECT_FALSE(table.Lookup(0).has_value());
  EXPECT_FALSE(table.Lookup(123456).has_value());
  EXPECT_EQ(table.mapped_pages(), 0u);
}

TEST(PageTable, MapBaseAndLookup) {
  PageTable table;
  table.MapBase(1000, 77);
  const auto t = table.Lookup(1000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->frame, 77u);
  EXPECT_EQ(t->size, PageSize::kBase);
  EXPECT_EQ(table.mapped_base_pages(), 1u);
  EXPECT_FALSE(table.Lookup(1001).has_value());
  table.CheckInvariants();
}

TEST(PageTable, MapHugeAndLookupEveryOffset) {
  PageTable table;
  table.MapHuge(4, 1024);  // region 4 = vpns [2048, 2560)
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    const auto t = table.Lookup((4ull << kHugeOrder) + slot);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->frame, 1024u + slot);
    EXPECT_EQ(t->size, PageSize::kHuge);
  }
  EXPECT_EQ(table.huge_leaves(), 1u);
  EXPECT_EQ(table.mapped_pages(), kPagesPerHuge);
  table.CheckInvariants();
}

TEST(PageTable, UnmapBaseReturnsFrame) {
  PageTable table;
  table.MapBase(5, 500);
  EXPECT_EQ(table.UnmapBase(5), 500u);
  EXPECT_FALSE(table.Lookup(5).has_value());
  EXPECT_EQ(table.mapped_pages(), 0u);
  table.CheckInvariants();
}

TEST(PageTable, UnmapHugeReturnsFirstFrame) {
  PageTable table;
  table.MapHuge(2, 2048);
  EXPECT_EQ(table.UnmapHuge(2), 2048u);
  EXPECT_FALSE(table.IsHugeMapped(2));
  EXPECT_EQ(table.huge_leaves(), 0u);
}

TEST(PageTable, CanPromoteInPlaceRequiresAll) {
  PageTable table;
  const uint64_t region = 3;
  const uint64_t base_vpn = region << kHugeOrder;
  // Contiguous, aligned, in order — but one page missing.
  for (uint32_t slot = 0; slot < kPagesPerHuge - 1; ++slot) {
    table.MapBase(base_vpn + slot, 512 + slot);
  }
  EXPECT_FALSE(table.CanPromoteInPlace(region));
  table.MapBase(base_vpn + kPagesPerHuge - 1, 512 + kPagesPerHuge - 1);
  EXPECT_TRUE(table.CanPromoteInPlace(region));
}

TEST(PageTable, CanPromoteInPlaceRejectsUnalignedAnchor) {
  PageTable table;
  const uint64_t base_vpn = 7ull << kHugeOrder;
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    table.MapBase(base_vpn + slot, 100 + slot);  // anchor 100 not aligned
  }
  EXPECT_FALSE(table.CanPromoteInPlace(7));
}

TEST(PageTable, CanPromoteInPlaceRejectsScattered) {
  PageTable table;
  const uint64_t base_vpn = 9ull << kHugeOrder;
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    table.MapBase(base_vpn + slot, 1024 + slot * 2);  // strided
  }
  EXPECT_FALSE(table.CanPromoteInPlace(9));
}

TEST(PageTable, PromoteInPlaceKeepsTranslations) {
  PageTable table;
  const uint64_t region = 5;
  const uint64_t base_vpn = region << kHugeOrder;
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    table.MapBase(base_vpn + slot, 1536 + slot);
  }
  table.PromoteInPlace(region);
  EXPECT_TRUE(table.IsHugeMapped(region));
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    const auto t = table.Lookup(base_vpn + slot);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->frame, 1536u + slot);  // identical frames, new granularity
    EXPECT_EQ(t->size, PageSize::kHuge);
  }
  table.CheckInvariants();
}

TEST(PageTable, PromoteWithMigrationRemapsAndReportsOldFrames) {
  PageTable table;
  const uint64_t region = 6;
  const uint64_t base_vpn = region << kHugeOrder;
  // Scattered sparse population.
  std::set<uint64_t> old_frames;
  for (uint32_t slot = 0; slot < 100; ++slot) {
    table.MapBase(base_vpn + slot, 9000 + slot * 3);
    old_frames.insert(9000 + slot * 3);
  }
  const auto old_pages = table.PromoteWithMigration(region, 4096);
  EXPECT_EQ(old_pages.size(), 100u);
  for (const auto& [slot, frame] : old_pages) {
    EXPECT_LT(slot, 100u);
    EXPECT_TRUE(old_frames.count(frame));
  }
  EXPECT_TRUE(table.IsHugeMapped(region));
  EXPECT_EQ(table.Lookup(base_vpn)->frame, 4096u);
  EXPECT_EQ(table.Lookup(base_vpn + 511)->frame, 4096u + 511);
  table.CheckInvariants();
}

TEST(PageTable, DemoteSplitsOntoSameFrames) {
  PageTable table;
  table.MapHuge(8, 512);
  table.Demote(8);
  EXPECT_FALSE(table.IsHugeMapped(8));
  EXPECT_EQ(table.PresentBasePages(8), kPagesPerHuge);
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    const auto t = table.Lookup((8ull << kHugeOrder) + slot);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->frame, 512u + slot);
    EXPECT_EQ(t->size, PageSize::kBase);
  }
  table.CheckInvariants();
}

TEST(PageTable, PromoteDemoteRoundTrip) {
  PageTable table;
  const uint64_t region = 11;
  const uint64_t base_vpn = region << kHugeOrder;
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    table.MapBase(base_vpn + slot, 2048 + slot);
  }
  table.PromoteInPlace(region);
  table.Demote(region);
  EXPECT_TRUE(table.CanPromoteInPlace(region));  // round trip
  EXPECT_EQ(table.mapped_base_pages(), kPagesPerHuge);
  table.CheckInvariants();
}

TEST(PageTable, AccessCountersBumpAndDecay) {
  PageTable table;
  table.MapBase(0, 1);
  table.BumpAccess(0);
  table.BumpAccess(0);
  table.BumpAccess(0);
  EXPECT_EQ(table.AccessCount(0), 3u);
  table.DecayAccessCounts();
  EXPECT_EQ(table.AccessCount(0), 1u);
  table.DecayAccessCounts();
  EXPECT_EQ(table.AccessCount(0), 0u);
  EXPECT_EQ(table.AccessCount(99), 0u);
}

TEST(PageTable, ForEachHugeVisitsAll) {
  PageTable table;
  table.MapHuge(1, 512);
  table.MapHuge(4, 2048);
  table.MapBase(0, 3);
  table.MapHuge(70, 8192);  // past the first bitmap word
  std::vector<uint64_t> regions;
  table.ForEachHuge([&](uint64_t region, uint64_t frame) {
    regions.push_back(region);
    EXPECT_EQ(frame % kPagesPerHuge, 0u);
  });
  // Ascending region order is part of the contract (daemons charge and
  // break ties in visit order).
  EXPECT_EQ(regions, (std::vector<uint64_t>{1, 4, 70}));
}

TEST(PageTable, ForEachBaseRegionReportsCounts) {
  PageTable table;
  table.MapBase(0, 1);
  table.MapBase(1, 2);
  table.MapBase(513, 5);
  std::map<uint64_t, uint32_t> seen;
  table.ForEachBaseRegion(
      [&](uint64_t region, uint32_t present) { seen[region] = present; });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 2u);
  EXPECT_EQ(seen[1], 1u);
}

// Brute-force oracle for the occupancy-indexed sweeps: classifies each
// candidate region through Lookup alone, in ascending order.
struct SweepOracle {
  std::vector<std::pair<uint64_t, uint64_t>> huge;   // (region, frame)
  std::vector<std::pair<uint64_t, uint32_t>> base;   // (region, present)
};

SweepOracle OracleScan(const PageTable& table,
                       const std::vector<uint64_t>& regions) {
  SweepOracle out;
  for (const uint64_t region : regions) {
    const uint64_t vpn0 = region << kHugeOrder;
    const auto first = table.Lookup(vpn0);
    if (first.has_value() && first->size == PageSize::kHuge) {
      out.huge.emplace_back(region, first->frame);
      continue;
    }
    uint32_t present = 0;
    for (uint64_t slot = 0; slot < kPagesPerHuge; ++slot) {
      present += table.Lookup(vpn0 + slot).has_value() ? 1 : 0;
    }
    if (present > 0) {
      out.base.emplace_back(region, present);
    }
  }
  return out;
}

TEST(PageTable, OccupancyScansMatchRouteScan) {
  // Regions straddling bitmap-word edges (63/64), the guest VA base
  // (2047-2049) and Grow doublings (4095/4096, 8191/8192).
  const std::vector<uint64_t> regions = {0,    1,    63,   64,   65,
                                         2047, 2048, 2049, 4095, 4096,
                                         4097, 8191, 8192};
  // Transitions that took effect, per mutation kind (switch case below).
  std::array<int, 7> applied{};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    base::Rng rng(seed);
    PageTable table;
    // Distinct huge-aligned frame blocks per region keep every mapping
    // identifiable; one MapBase draw in four scatters its frame to defeat
    // in-place promotion.
    auto anchor = [](uint64_t region) { return (region + 3) * kPagesPerHuge; };
    auto map_missing = [&](uint64_t region) {
      for (uint64_t slot = 0; slot < kPagesPerHuge; ++slot) {
        const uint64_t vpn = (region << kHugeOrder) + slot;
        if (!table.Lookup(vpn).has_value()) {
          table.MapBase(vpn, anchor(region) + slot);
        }
      }
    };
    for (int step = 0; step < 160; ++step) {
      const uint64_t region = regions[rng.NextBelow(regions.size())];
      const uint64_t vpn0 = region << kHugeOrder;
      const bool huge = table.IsHugeMapped(region);
      const uint32_t present = table.PresentBasePages(region);
      const uint64_t mutations = table.mutations();
      const uint64_t op = rng.NextBelow(applied.size());
      switch (op) {
        case 0: {  // MapBase: a few pages, mostly anchor-contiguous
          if (huge) {
            break;
          }
          for (int n = 0; n < 4; ++n) {
            const uint32_t slot =
                static_cast<uint32_t>(rng.NextBelow(kPagesPerHuge));
            if (table.Lookup(vpn0 + slot).has_value()) {
              continue;
            }
            const uint64_t frame = rng.NextBelow(4) == 0
                                       ? 1'000'000 + rng.NextBelow(1 << 20)
                                       : anchor(region) + slot;
            table.MapBase(vpn0 + slot, frame);
          }
          break;
        }
        case 1:  // MapHuge
          if (!huge && present == 0) {
            table.MapHuge(region, anchor(region));
          }
          break;
        case 2: {  // UnmapBase: drop a few present pages, maybe the last
          std::vector<uint32_t> slots;
          table.ForEachBasePage(region, [&](uint32_t slot, uint64_t) {
            slots.push_back(slot);
          });
          const size_t drop = rng.NextBelow(2) == 0 ? slots.size()
                                                    : std::min<size_t>(
                                                          slots.size(), 3);
          for (size_t i = 0; i < drop; ++i) {
            table.UnmapBase(vpn0 + slots[i]);
          }
          break;
        }
        case 3:  // UnmapHuge
          if (huge) {
            EXPECT_EQ(table.UnmapHuge(region), anchor(region));
          }
          break;
        case 4:  // PromoteInPlace, filling an empty or contiguous region
          if (!huge && (present == 0 ||
                        table.ContiguousAnchor(region) == anchor(region))) {
            map_missing(region);
            ASSERT_TRUE(table.CanPromoteInPlace(region));
            table.PromoteInPlace(region);
          }
          break;
        case 5:  // PromoteWithMigration
          if (present > 0) {
            table.PromoteWithMigration(region, anchor(region));
          }
          break;
        case 6:  // Demote
          if (huge) {
            table.Demote(region);
          }
          break;
      }

      applied[op] += table.mutations() != mutations ? 1 : 0;

      const SweepOracle want = OracleScan(table, regions);
      SweepOracle got;
      table.ForEachHuge([&](uint64_t r, uint64_t frame) {
        got.huge.emplace_back(r, frame);
      });
      table.ForEachBaseRegion([&](uint64_t r, uint32_t count) {
        got.base.emplace_back(r, count);
      });
      ASSERT_EQ(got.huge, want.huge) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.base, want.base) << "seed " << seed << " step " << step;
      table.CheckInvariants();
    }
  }
  for (size_t op = 0; op < applied.size(); ++op) {
    EXPECT_GT(applied[op], 0) << "mutation kind " << op << " never ran";
  }
}

TEST(PageTable, BaseFrameQueries) {
  PageTable table;
  table.MapBase(5, 42);
  EXPECT_EQ(table.BaseFrame(0, 5).value(), 42u);
  EXPECT_FALSE(table.BaseFrame(0, 6).has_value());
  EXPECT_FALSE(table.BaseFrame(1, 5).has_value());
}

TEST(PageTable, GenerationStartsAtZeroAndBumpsOnEveryMutation) {
  PageTable table;
  const uint64_t region = 12;
  const uint64_t base_vpn = region << kHugeOrder;
  EXPECT_EQ(table.generation(region), 0u);
  EXPECT_EQ(table.generation(1u << 20), 0u);  // unseen region reads as zero

  uint64_t gen = table.generation(region);
  table.MapBase(base_vpn, 1024);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.UnmapBase(base_vpn);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.MapHuge(region, 2048);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.Demote(region);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.PromoteInPlace(region);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.UnmapHuge(region);
  EXPECT_GT(table.generation(region), gen);
}

TEST(PageTable, PromoteWithMigrationBumpsGeneration) {
  PageTable table;
  const uint64_t region = 2;
  table.MapBase((region << kHugeOrder) + 7, 999);
  const uint64_t gen = table.generation(region);
  table.PromoteWithMigration(region, 4096);
  EXPECT_GT(table.generation(region), gen);
}

TEST(PageTable, GenerationSurvivesFullUnmap) {
  // Slots are never recycled: a region's generation must keep growing across
  // unmap/remap cycles so a TLB entry stamped before the unmap can never
  // alias a later remap of the same region.
  PageTable table;
  const uint64_t region = 3;
  const uint64_t base_vpn = region << kHugeOrder;
  table.MapBase(base_vpn, 100);
  table.UnmapBase(base_vpn);
  const uint64_t gen_after_unmap = table.generation(region);
  EXPECT_GT(gen_after_unmap, 0u);
  table.MapBase(base_vpn, 200);
  EXPECT_GT(table.generation(region), gen_after_unmap);
  table.CheckInvariants();
}

TEST(PageTable, GenerationIsPerRegion) {
  PageTable table;
  table.MapBase(0, 1);  // region 0
  EXPECT_GT(table.generation(0), 0u);
  EXPECT_EQ(table.generation(1), 0u);
  table.MapHuge(5, 512);
  EXPECT_EQ(table.generation(1), 0u);
  EXPECT_GT(table.generation(5), 0u);
}

TEST(PageTable, LookupAndReadsDoNotBumpGeneration) {
  PageTable table;
  table.MapBase(10, 50);
  const uint64_t gen = table.generation(0);
  table.Lookup(10);
  table.BaseFrame(0, 10);
  table.PresentBasePages(0);
  table.IsHugeMapped(0);
  table.BumpAccess(0);  // access-bit tracking is not a mapping mutation
  EXPECT_EQ(table.generation(0), gen);
}

// Property: random map/unmap/promote/demote sequences keep Lookup
// consistent with a reference map.
class PageTablePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageTablePropertyTest, MatchesReference) {
  base::Rng rng(GetParam());
  PageTable table;
  constexpr uint64_t kRegions = 8;
  // Reference: per-vpn frame (base granularity), or region-level huge.
  std::map<uint64_t, uint64_t> ref_base;  // vpn -> frame
  std::map<uint64_t, uint64_t> ref_huge;  // region -> first frame
  uint64_t next_block = 0;                // allocator of fresh aligned blocks

  for (int step = 0; step < 600; ++step) {
    const uint64_t region = rng.NextBelow(kRegions);
    const double dice = rng.NextDouble();
    if (dice < 0.4) {  // map a base page if possible
      const uint64_t vpn = (region << kHugeOrder) + rng.NextBelow(kPagesPerHuge);
      if (ref_huge.count(region) == 0 && ref_base.count(vpn) == 0) {
        const uint64_t frame = 1000000 + step;
        table.MapBase(vpn, frame);
        ref_base[vpn] = frame;
      }
    } else if (dice < 0.55) {  // map huge if region empty
      bool region_used = ref_huge.count(region) != 0;
      for (const auto& [vpn, f] : ref_base) {
        if (vpn >> kHugeOrder == region) {
          region_used = true;
        }
      }
      if (!region_used) {
        const uint64_t frame = (++next_block) * kPagesPerHuge;
        table.MapHuge(region, frame);
        ref_huge[region] = frame;
      }
    } else if (dice < 0.7) {  // unmap a random base page of the region
      for (auto it = ref_base.begin(); it != ref_base.end(); ++it) {
        if (it->first >> kHugeOrder == region) {
          EXPECT_EQ(table.UnmapBase(it->first), it->second);
          ref_base.erase(it);
          break;
        }
      }
    } else if (dice < 0.8 && ref_huge.count(region)) {  // demote
      table.Demote(region);
      const uint64_t frame = ref_huge[region];
      ref_huge.erase(region);
      for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
        ref_base[(region << kHugeOrder) + slot] = frame + slot;
      }
    } else if (ref_huge.count(region)) {  // unmap huge
      EXPECT_EQ(table.UnmapHuge(region), ref_huge[region]);
      ref_huge.erase(region);
    }

    // Verify random probes.
    for (int probe = 0; probe < 8; ++probe) {
      const uint64_t vpn =
          (rng.NextBelow(kRegions) << kHugeOrder) + rng.NextBelow(kPagesPerHuge);
      const auto got = table.Lookup(vpn);
      const uint64_t r = vpn >> kHugeOrder;
      if (ref_huge.count(r)) {
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->frame, ref_huge[r] + (vpn & (kPagesPerHuge - 1)));
      } else if (ref_base.count(vpn)) {
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->frame, ref_base[vpn]);
      } else {
        ASSERT_FALSE(got.has_value());
      }
    }
    table.CheckInvariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTablePropertyTest,
                         ::testing::Values(3, 14, 159, 2653));

}  // namespace
