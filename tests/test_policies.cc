// Tests for the baseline huge-page policies (THP, Misalignment/AlwaysHuge,
// Ingens, HawkEye, CA-paging, Translation Ranger).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "os/machine.h"
#include "policy/base_only.h"
#include "policy/ca_paging.h"
#include "policy/hawkeye.h"
#include "policy/ingens.h"
#include "policy/misalignment.h"
#include "policy/thp.h"
#include "policy/translation_ranger.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;

osim::MachineConfig SmallConfig() {
  osim::MachineConfig config;
  config.host_frames = 32768;
  config.daemon_period = 10000;
  config.seed = 9;
  return config;
}

// Touches every page of a fresh VMA covering `regions` huge regions.
osim::Vma& PopulateVma(osim::Machine& machine, int32_t vm_id,
                       uint64_t regions) {
  auto& guest = machine.vm(vm_id).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(regions * kPagesPerHuge);
  for (uint64_t p = 0; p < vma.pages; ++p) {
    machine.Access(vm_id, vma.start_page + p);
  }
  return vma;
}

TEST(BaseOnly, NeverCreatesHugePages) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  PopulateVma(machine, 0, 4);
  machine.AdvanceTime(1000000);
  EXPECT_EQ(machine.vm(0).guest().table().huge_leaves(), 0u);
  EXPECT_EQ(machine.vm(0).host_slice().table().huge_leaves(), 0u);
}

TEST(Thp, EagerFaultCreatesHugePagesImmediately) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(8192, std::make_unique<policy::ThpPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(2 * kPagesPerHuge);
  machine.Access(0, vma.start_page);
  EXPECT_EQ(guest.table().huge_leaves(), 1u);
}

TEST(Thp, SynchronousCompactionChargedOnFailure) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(2048, std::make_unique<policy::ThpPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  // Destroy all guest contiguity.
  for (uint64_t f = 256; f < 2048; f += 512) {
    ASSERT_TRUE(guest.buddy().AllocateAt(f, 1));
  }
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  const auto r = machine.Access(0, vma.start_page);
  EXPECT_EQ(guest.stats().failed_huge_allocs, 1u);
  // The access stalled on direct compaction.
  EXPECT_GT(r.cycles, machine.config().costs.direct_compaction);
}

TEST(Thp, KhugepagedCollapsesPartialRegions) {
  osim::Machine machine(SmallConfig());
  policy::ThpOptions options;
  options.fault_huge = false;  // force the daemon path
  machine.AddVm(8192, std::make_unique<policy::ThpPolicy>(options),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  // Populate above the collapse bar (64) but far from complete.
  for (uint64_t p = 0; p < 128; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  machine.AdvanceTime(20 * machine.config().daemon_period);
  EXPECT_TRUE(guest.table().IsHugeMapped(vma.start_page >> kHugeOrder));
  EXPECT_EQ(guest.stats().promotions_migrated, 1u);
}

TEST(AlwaysHuge, HostBacksEveryRegionHuge) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                std::make_unique<policy::AlwaysHugePolicy>());
  PopulateVma(machine, 0, 2);
  // Guest stays base; host is all huge: the Misalignment scenario.
  EXPECT_EQ(machine.vm(0).guest().table().huge_leaves(), 0u);
  EXPECT_GE(machine.vm(0).host_slice().table().huge_leaves(), 2u);
}

TEST(Ingens, NoFaultTimeHugePages) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(8192, std::make_unique<policy::IngensPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  machine.Access(0, vma.start_page);
  EXPECT_EQ(guest.stats().huge_faults, 0u);
}

TEST(Ingens, PromotesOnlyAboveUtilizationBar) {
  osim::Machine machine(SmallConfig());
  policy::IngensOptions options;
  options.promote_min_present = 460;
  machine.AddVm(16384, std::make_unique<policy::IngensPolicy>(options),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(2 * kPagesPerHuge);
  // Region 0: 400 pages (below bar).  Region 1: full (above bar).
  for (uint64_t p = 0; p < 400; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  for (uint64_t p = kPagesPerHuge; p < 2 * kPagesPerHuge; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  machine.AdvanceTime(20 * machine.config().daemon_period);
  EXPECT_FALSE(guest.table().IsHugeMapped(vma.start_page >> kHugeOrder));
  EXPECT_TRUE(guest.table().IsHugeMapped((vma.start_page >> kHugeOrder) + 1));
}

TEST(Ingens, IgnoresStaleUnaccessedRegions) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::IngensPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  for (uint64_t p = 0; p < kPagesPerHuge; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  // Let access counters decay to zero with repeated idle ticks.
  for (int i = 0; i < 40; ++i) {
    machine.AdvanceTime(machine.config().daemon_period);
  }
  guest.table().DecayAccessCounts();
  const uint64_t promotions_before = guest.stats().promotions_in_place +
                                     guest.stats().promotions_migrated;
  machine.AdvanceTime(5 * machine.config().daemon_period);
  // If already promoted during population that is fine; the point is that
  // a *cold* base region is not promoted.
  if (!guest.table().IsHugeMapped(vma.start_page >> kHugeOrder)) {
    EXPECT_EQ(guest.stats().promotions_in_place +
                  guest.stats().promotions_migrated,
              promotions_before);
  }
}

TEST(HawkEye, PromotesHottestRegionFirst) {
  osim::Machine machine(SmallConfig());
  policy::HawkEyeOptions options;
  options.promotions_per_tick = 1;  // one promotion per tick: order visible
  machine.AddVm(16384, std::make_unique<policy::HawkEyePolicy>(options),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(2 * kPagesPerHuge);
  for (uint64_t p = 0; p < 2 * kPagesPerHuge; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  // Make region 1 much hotter than region 0.
  for (int i = 0; i < 3000; ++i) {
    machine.vm(0).engine().Translate(vma.start_page + kPagesPerHuge +
                                     (i % kPagesPerHuge));
  }
  const uint64_t region0 = vma.start_page >> kHugeOrder;
  // Run exactly one daemon tick.
  machine.AdvanceTime(machine.config().daemon_period);
  if (guest.table().huge_leaves() == 1) {
    EXPECT_TRUE(guest.table().IsHugeMapped(region0 + 1));
    EXPECT_FALSE(guest.table().IsHugeMapped(region0));
  }
}

TEST(CaPaging, AnchorsVmaToContiguousRun) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::CaPagingPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(256);
  for (uint64_t p = 0; p < 256; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  // All pages must be physically consecutive.
  const uint64_t first = guest.table().Lookup(vma.start_page)->frame;
  for (uint64_t p = 0; p < 256; ++p) {
    EXPECT_EQ(guest.table().Lookup(vma.start_page + p)->frame, first + p);
  }
}

TEST(CaPaging, FindContiguousRunHelper) {
  vmem::BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(1000, 1));
  EXPECT_EQ(policy::FindContiguousRun(buddy, 500, 0), 0u);
  EXPECT_EQ(policy::FindContiguousRun(buddy, 1001, 0), 1001u);
  EXPECT_EQ(policy::FindContiguousRun(buddy, 4000, 0), vmem::kInvalidFrame);
  // Cursor past the only fitting run wraps around.
  EXPECT_EQ(policy::FindContiguousRun(buddy, 900, 2000), 2000u);
  EXPECT_EQ(policy::FindContiguousRun(buddy, 900, 3500), 0u);
}

// The block walk FindContiguousRun is defined by: grow runs free block by
// free block from frame 0, check each block end, remember the first fit
// before the cursor as the wrap-around answer and restart the run there.
uint64_t ReferenceFindContiguousRun(const vmem::BuddyAllocator& buddy,
                                    uint64_t min_frames, uint64_t cursor) {
  uint64_t best_before_cursor = vmem::kInvalidFrame;
  uint64_t run_start = vmem::kInvalidFrame;
  uint64_t run_end = 0;
  uint64_t found = vmem::kInvalidFrame;
  buddy.ForEachFreeBlock([&](uint64_t head, int order) {
    if (found != vmem::kInvalidFrame) {
      return;
    }
    const uint64_t size = 1ull << order;
    if (run_start == vmem::kInvalidFrame || head != run_end) {
      run_start = head;
      run_end = head;
    }
    run_end += size;
    if (run_end - run_start >= min_frames) {
      if (run_start >= cursor) {
        found = run_start;
      } else if (run_end >= cursor && run_end - cursor >= min_frames) {
        found = cursor;
      } else if (best_before_cursor == vmem::kInvalidFrame) {
        best_before_cursor = run_start;
        run_start = run_end;
      }
    }
  });
  return found != vmem::kInvalidFrame ? found : best_before_cursor;
}

// Fragments a fresh buddy with random targeted allocations and frees; the
// returned ranges are still allocated.
std::vector<std::pair<uint64_t, uint64_t>> Fragment(
    vmem::BuddyAllocator& buddy, base::Rng& rng, int ops, uint64_t max_len) {
  std::vector<std::pair<uint64_t, uint64_t>> held;
  for (int i = 0; i < ops; ++i) {
    if (!held.empty() && rng.NextBool(0.3)) {
      const size_t k = rng.NextBelow(held.size());
      buddy.Free(held[k].first, held[k].second);
      held[k] = held.back();
      held.pop_back();
      continue;
    }
    const uint64_t frame = rng.NextBelow(buddy.frame_count());
    const uint64_t len = 1 + rng.NextBelow(max_len);
    if (buddy.AllocateAt(frame, len)) {
      held.emplace_back(frame, len);
    }
  }
  return held;
}

// Free runs of `buddy`, for picking cursors and sizes near run edges.
std::vector<std::pair<uint64_t, uint64_t>> FreeRuns(
    const vmem::BuddyAllocator& buddy) {
  std::vector<std::pair<uint64_t, uint64_t>> runs;
  buddy.ForEachFreeRun(
      [&](uint64_t lo, uint64_t count) { runs.emplace_back(lo, count); });
  return runs;
}

TEST(CaPaging, FindContiguousRunMatchesBlockWalk) {
  base::Rng rng(31);
  uint64_t found = 0;
  uint64_t wrapped = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const uint64_t frames_choices[] = {4096, 5000, 32 * 1024, 64 * 100 + 37};
    const uint64_t frames = frames_choices[rng.NextBelow(4)];
    vmem::BuddyAllocator buddy(frames);
    const uint64_t max_len = 1 + rng.NextBelow(400);
    Fragment(buddy, rng, 50 + static_cast<int>(rng.NextBelow(600)), max_len);
    const auto runs = FreeRuns(buddy);
    for (int q = 0; q < 300; ++q) {
      uint64_t cursor = rng.NextBelow(frames + 16);
      uint64_t min_frames = 1 + rng.NextBelow(rng.NextBool(0.5) ? 64 : frames);
      if (!runs.empty() && rng.NextBool(0.7)) {
        // Cursors and sizes at and around run edges, where the block walk's
        // restart makes the answer depend on block boundaries.
        const auto& [lo, count] = runs[rng.NextBelow(runs.size())];
        const uint64_t edge = rng.NextBool(0.5) ? lo : lo + count;
        const uint64_t jitter = rng.NextBelow(2 * count + 3);
        cursor = edge + jitter > count + 1 ? edge + jitter - count - 1 : 0;
        const auto& other = runs[rng.NextBelow(runs.size())];
        const uint64_t delta = rng.NextBelow(5);
        min_frames = std::max<uint64_t>(
            1, rng.NextBool(0.5) ? other.second + delta : other.second - std::min(other.second - 1, delta));
      }
      const uint64_t want =
          ReferenceFindContiguousRun(buddy, min_frames, cursor);
      ASSERT_EQ(policy::FindContiguousRun(buddy, min_frames, cursor), want)
          << "trial " << trial << " frames " << frames << " min "
          << min_frames << " cursor " << cursor;
      found += want != vmem::kInvalidFrame;
      wrapped += want != vmem::kInvalidFrame && want < cursor;
    }
  }
  // The sweep must exercise hits, wrap-around answers and misses alike.
  EXPECT_GT(found, 2000u);
  EXPECT_GT(wrapped, 200u);
  EXPECT_LT(found, 60u * 300u);
}

// The pre-skip first-fault logic of CA-paging: search whenever the backoff
// allows, with the reference walk.
struct ReferenceAnchoring {
  uint64_t cursor = 0;
  uint64_t retry_epoch = 0;
  uint64_t searches = 0;
  uint64_t misses = 0;

  uint64_t FirstFault(const vmem::BuddyAllocator& buddy, uint64_t pages) {
    if (buddy.mutation_epoch() < retry_epoch) {
      return vmem::kInvalidFrame;
    }
    ++searches;
    const uint64_t run = ReferenceFindContiguousRun(buddy, pages, cursor);
    if (run == vmem::kInvalidFrame) {
      ++misses;
      retry_epoch = buddy.mutation_epoch() + 512;
      return vmem::kInvalidFrame;
    }
    cursor = run + pages;
    return run;
  }
};

// First fault of a fresh VMA of `pages` pages at its first page; returns
// the anchor CA-paging picked (kInvalidFrame if none).
uint64_t AnchorNewVma(policy::CaPagingPolicy& ca, policy::KernelOps& kernel,
                      int32_t vma_id, uint64_t pages) {
  policy::FaultInfo info;
  info.vma_id = vma_id;
  info.vma_start_page = static_cast<uint64_t>(vma_id) << 20;
  info.vma_pages = pages;
  info.page = info.vma_start_page;
  info.region = info.page >> kHugeOrder;
  info.vma_first_touch = true;
  return ca.OnFault(kernel, info).target_frame;
}

TEST(CaPaging, SkippedSearchesMatchFullSearches) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::BaseOnlyPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  policy::KernelOps& kernel = machine.vm(0).guest();
  vmem::BuddyAllocator& buddy = kernel.buddy();
  // Leave no free run of 200 frames: free 195 of every 300 frames.
  std::vector<uint64_t> held;
  for (uint64_t f = 0; f + 300 <= buddy.frame_count(); f += 300) {
    for (uint64_t g = f + 195; g < f + 300; ++g) {
      if (buddy.AllocateAt(g, 1)) {
        held.push_back(g);
      }
    }
  }
  ASSERT_EQ(ReferenceFindContiguousRun(buddy, 200, 0), vmem::kInvalidFrame);
  policy::CaPagingPolicy ca;
  ReferenceAnchoring ref;
  int32_t vma_id = 0;
  auto check = [&](uint64_t pages) {
    const uint64_t want = ref.FirstFault(buddy, pages);
    EXPECT_EQ(AnchorNewVma(ca, kernel, vma_id++, pages), want)
        << "vma " << vma_id << " pages " << pages;
    return want;
  };
  EXPECT_EQ(check(200), vmem::kInvalidFrame);
  // Allocations only shrink runs.  Churn single frames in the low 12000
  // frames, enough mutations between checks to pass the search backoff.
  uint64_t churn_at = 0;
  auto churn = [&](int frames) {
    for (int i = 0; i < frames; ++churn_at) {
      ASSERT_LT(churn_at, 12000u);
      if (buddy.AllocateAt(churn_at, 1)) {
        ++i;
      }
    }
  };
  // A cached miss for 200 frames stays valid for 200 and more.
  const uint64_t frees_before = buddy.frees();
  for (int round = 0; round < 4; ++round) {
    churn(600);
    EXPECT_EQ(check(200 + 100 * static_cast<uint64_t>(round)),
              vmem::kInvalidFrame);
  }
  // It says nothing about smaller searches: 195 frames still fit above
  // the churned frames.
  churn(600);
  EXPECT_NE(check(195), vmem::kInvalidFrame);
  EXPECT_EQ(buddy.frees(), frees_before);
  // One Free that joins the top two free stretches re-enables searches at
  // the cached size and above.
  const uint64_t gap_end = held.back() + 1;
  ASSERT_FALSE(buddy.IsFrameFree(gap_end - 105));
  buddy.Free(gap_end - 105, 105);
  EXPECT_GT(buddy.frees(), frees_before);
  churn(600);
  EXPECT_NE(check(400), vmem::kInvalidFrame);
}

TEST(CaPaging, RandomFirstFaultsMatchFullSearches) {
  for (const uint64_t seed : {3ull, 4ull, 5ull}) {
    osim::Machine machine(SmallConfig());
    machine.AddVm(16384, std::make_unique<policy::BaseOnlyPolicy>(),
                  std::make_unique<policy::BaseOnlyPolicy>());
    policy::KernelOps& kernel = machine.vm(0).guest();
    vmem::BuddyAllocator& buddy = kernel.buddy();
    base::Rng rng(seed);
    auto held = Fragment(buddy, rng, 600, 200);
    policy::CaPagingPolicy ca;
    ReferenceAnchoring ref;
    for (int32_t vma_id = 0; vma_id < 4000; ++vma_id) {
      const uint64_t pages = 1 + rng.NextBelow(rng.NextBool(0.5) ? 64 : 1500);
      const uint64_t want = ref.FirstFault(buddy, pages);
      ASSERT_EQ(AnchorNewVma(ca, kernel, vma_id, pages), want)
          << "seed " << seed << " vma " << vma_id << " pages " << pages;
      // Churn: mostly small allocations, sometimes a free.
      for (int op = 0; op < 4; ++op) {
        if (!held.empty() && rng.NextBool(0.05)) {
          const size_t k = rng.NextBelow(held.size());
          buddy.Free(held[k].first, held[k].second);
          held[k] = held.back();
          held.pop_back();
        } else {
          const uint64_t frame = rng.NextBelow(buddy.frame_count());
          const uint64_t len = 1 + rng.NextBelow(2);
          if (buddy.AllocateAt(frame, len)) {
            held.emplace_back(frame, len);
          }
        }
      }
    }
    // Both anchors and fruitless searches (the ones a cached miss can
    // skip) must occur.
    EXPECT_GT(ref.searches - ref.misses, 20u) << seed;
    EXPECT_GT(ref.misses, 20u) << seed;
  }
}

TEST(Ranger, MigratesSparseRegionsUnconditionally) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::TranslationRangerPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  for (uint64_t p = 0; p < 32; ++p) {  // far below any utilization bar
    machine.Access(0, vma.start_page + p);
  }
  machine.AdvanceTime(5 * machine.config().daemon_period);
  EXPECT_TRUE(guest.table().IsHugeMapped(vma.start_page >> kHugeOrder));
}

TEST(Ranger, ChargesContinuousBackgroundOverhead) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::TranslationRangerPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  PopulateVma(machine, 0, 2);
  machine.AdvanceTime(10 * machine.config().daemon_period);
  const base::Cycles overhead_a = guest.stats().overhead_cycles;
  machine.AdvanceTime(10 * machine.config().daemon_period);
  const base::Cycles overhead_b = guest.stats().overhead_cycles;
  // Even with nothing left to promote, Ranger keeps paying.
  EXPECT_GT(overhead_b, overhead_a);
}

TEST(Policies, WatermarkGuardStopsPromotionUnderPressure) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(2048, std::make_unique<policy::IngensPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  // Leave < 1/16 of memory free.
  ASSERT_TRUE(guest.buddy().AllocateAt(0, 2048 - 64));
  EXPECT_FALSE(policy::HasFreeMemoryHeadroom(guest));
  osim::Vma& vma = guest.aspace().MapAnonymous(32);
  for (uint64_t p = 0; p < 32; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  machine.AdvanceTime(5 * machine.config().daemon_period);
  EXPECT_EQ(guest.table().huge_leaves(), 0u);
}

}  // namespace
