// Tests for the set-associative mixed-granularity TLB.
#include "mmu/tlb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "mmu/tlb_utility_monitor.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;
using base::PageSize;
using mmu::Tlb;
using mmu::TlbConfig;
using mmu::TlbUtilityMonitor;

TlbConfig Small(uint32_t sets, uint32_t ways) {
  TlbConfig c;
  c.sets = sets;
  c.ways = ways;
  return c;
}

TEST(Tlb, MissOnEmpty) {
  Tlb tlb(Small(4, 2));
  EXPECT_FALSE(tlb.Lookup(100).hit);
  EXPECT_EQ(tlb.misses(), 1u);
  EXPECT_EQ(tlb.hits(), 0u);
}

TEST(Tlb, HitAfterInsert) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(100, PageSize::kBase, 7);
  const auto r = tlb.Lookup(100);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.size, PageSize::kBase);
  EXPECT_EQ(r.frame, 7u);
  EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, BaseEntryDoesNotCoverNeighbour) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(100, PageSize::kBase, 7);
  EXPECT_FALSE(tlb.Lookup(101).hit);
}

TEST(Tlb, HugeEntryCoversWholeRegion) {
  Tlb tlb(Small(4, 2));
  const uint64_t vpn = 3ull << kHugeOrder;
  tlb.Insert(vpn, PageSize::kHuge, 4096);
  for (uint64_t off : {0ull, 1ull, 255ull, 511ull}) {
    const auto r = tlb.Lookup(vpn + off);
    EXPECT_TRUE(r.hit) << off;
    EXPECT_EQ(r.size, PageSize::kHuge);
    EXPECT_EQ(r.frame, 4096u);  // block base; offset applied by the engine
  }
  EXPECT_FALSE(tlb.Lookup(vpn + kPagesPerHuge).hit);
}

TEST(Tlb, LruEvictionWithinSet) {
  Tlb tlb(Small(1, 2));  // one set, two ways
  tlb.Insert(1, PageSize::kBase, 10);
  tlb.Insert(2, PageSize::kBase, 20);
  EXPECT_TRUE(tlb.Lookup(1).hit);  // make 2 the LRU
  tlb.Insert(3, PageSize::kBase, 30);
  EXPECT_TRUE(tlb.Lookup(1).hit);
  EXPECT_FALSE(tlb.Lookup(2).hit);  // evicted
  EXPECT_TRUE(tlb.Lookup(3).hit);
}

TEST(Tlb, ReinsertUpdatesFrame) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(5, PageSize::kBase, 1);
  tlb.Insert(5, PageSize::kBase, 2);
  EXPECT_EQ(tlb.Lookup(5).frame, 2u);
  EXPECT_EQ(tlb.entry_count(), 1u);  // no duplicate entries
}

TEST(Tlb, FlushDropsEverything) {
  Tlb tlb(Small(8, 4));
  for (uint64_t i = 0; i < 16; ++i) {
    tlb.Insert(i, PageSize::kBase, i);
  }
  EXPECT_GT(tlb.entry_count(), 0u);
  tlb.Flush();
  EXPECT_EQ(tlb.entry_count(), 0u);
  EXPECT_FALSE(tlb.Lookup(3).hit);
}

TEST(Tlb, ShootdownPageDropsBaseAndCoveringHuge) {
  Tlb tlb(Small(8, 4));
  const uint64_t vpn = 5ull << kHugeOrder;
  tlb.Insert(vpn + 3, PageSize::kBase, 99);
  tlb.Insert(vpn, PageSize::kHuge, 2048);
  EXPECT_EQ(tlb.ShootdownPage(vpn + 3), 2u);
  EXPECT_FALSE(tlb.Lookup(vpn + 3).hit);
  EXPECT_EQ(tlb.shootdowns(), 2u);
}

TEST(Tlb, ShootdownRangeSmall) {
  Tlb tlb(Small(8, 4));
  tlb.Insert(10, PageSize::kBase, 1);
  tlb.Insert(11, PageSize::kBase, 2);
  tlb.Insert(12, PageSize::kBase, 3);
  tlb.ShootdownRange(10, 2);
  EXPECT_FALSE(tlb.Lookup(10).hit);
  EXPECT_FALSE(tlb.Lookup(11).hit);
  EXPECT_TRUE(tlb.Lookup(12).hit);
}

TEST(Tlb, ShootdownRangeLargeScansAllEntries) {
  Tlb tlb(Small(2, 2));  // 4 entries => range of 8 pages triggers the scan
  tlb.Insert(0, PageSize::kBase, 1);
  tlb.Insert(1000, PageSize::kBase, 2);
  const uint64_t huge_vpn = 2ull << kHugeOrder;
  tlb.Insert(huge_vpn, PageSize::kHuge, 1024);
  tlb.ShootdownRange(0, 100000);
  EXPECT_EQ(tlb.entry_count(), 0u);
}

TEST(Tlb, StaleHitDiscountMovesCounters) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(1, PageSize::kBase, 1);
  EXPECT_TRUE(tlb.Lookup(1).hit);
  EXPECT_EQ(tlb.hits(), 1u);
  tlb.DiscountStaleHit();
  EXPECT_EQ(tlb.hits(), 0u);
  EXPECT_EQ(tlb.misses(), 1u);
  EXPECT_EQ(tlb.stale_drops(), 1u);
}

TEST(Tlb, HugeCoverageBeatsBaseCoverage) {
  // With a working set far beyond base-entry capacity, huge entries keep
  // hitting where base entries thrash: the paper's TLB-coverage effect.
  Tlb base_tlb(Small(16, 4));  // 64 entries
  Tlb huge_tlb(Small(16, 4));
  constexpr uint64_t kPages = 4096;  // 8 regions
  for (uint64_t p = 0; p < kPages; ++p) {
    base_tlb.Insert(p, PageSize::kBase, p);
  }
  for (uint64_t r = 0; r < kPages / kPagesPerHuge; ++r) {
    huge_tlb.Insert(r << kHugeOrder, PageSize::kHuge, r * kPagesPerHuge);
  }
  base_tlb.ResetCounters();
  huge_tlb.ResetCounters();
  for (uint64_t p = 0; p < kPages; p += 7) {
    base_tlb.Lookup(p);
    huge_tlb.Lookup(p);
  }
  EXPECT_EQ(huge_tlb.misses(), 0u);
  EXPECT_GT(base_tlb.misses(), base_tlb.hits());
}

// RehitHuge is the engine memo's stand-in for a huge-entry Lookup hit, so
// it must have exactly a Lookup hit's effects.  Two identically filled
// arrays: one driven through Lookup, the other through RehitHuge on the
// same huge-entry hits.  Counters, returned entries, the restamp target
// and the LRU order (witnessed by the next conflicting insert's victim)
// must all agree.
TEST(Tlb, RehitHugeMatchesLookupHit) {
  Tlb lookup(Small(4, 4));
  Tlb rehit(Small(4, 4));
  // Set 0 holds three huge entries (regions 0, 4, 8) and one base entry.
  const uint64_t kRegions[] = {0, 4, 8};
  const uint64_t base_vpn = (100ull << kHugeOrder) + 4;
  for (Tlb* t : {&lookup, &rehit}) {
    for (const uint64_t r : kRegions) {
      Tlb::Stamp stamp;
      stamp.guest_gen = r + 1;
      stamp.host_region = r + 2;
      stamp.host_gen = r + 3;
      stamp.well_aligned = true;
      t->Insert(r << kHugeOrder, PageSize::kHuge, 1024 + r * kPagesPerHuge,
                stamp);
    }
    t->Insert(base_vpn, PageSize::kBase, 77);
    EXPECT_TRUE(t->Lookup(base_vpn).hit);
  }
  // With the LRU touch a Lookup hit makes, region 8 is the oldest entry
  // after these hits; without it, region 4 (inserted before 8) would be.
  for (const uint64_t r : {0ull, 4ull, 0ull}) {
    const Tlb::LookupResult want = lookup.Lookup((r << kHugeOrder) + 17);
    Tlb::LookupResult got;
    ASSERT_TRUE(rehit.RehitHuge(r, &got)) << r;
    EXPECT_TRUE(want.hit);
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(got.size, want.size);
    EXPECT_EQ(got.frame, want.frame);
    EXPECT_EQ(got.stamp.guest_gen, want.stamp.guest_gen);
    EXPECT_EQ(got.stamp.host_region, want.stamp.host_region);
    EXPECT_EQ(got.stamp.host_gen, want.stamp.host_gen);
    EXPECT_EQ(got.stamp.well_aligned, want.stamp.well_aligned);
  }
  // A region with no huge entry: no hit, and no counter moves.
  Tlb::LookupResult none;
  EXPECT_FALSE(rehit.RehitHuge(12, &none));
  EXPECT_EQ(lookup.hits(), rehit.hits());
  EXPECT_EQ(lookup.misses(), rehit.misses());

  // Both restamp the entry the last hit returned (region 0).
  Tlb::Stamp fresh;
  fresh.guest_gen = 99;
  lookup.RestampHit(fresh);
  rehit.RestampHit(fresh);
  EXPECT_EQ(lookup.Lookup(5).stamp.guest_gen, 99u);
  EXPECT_EQ(rehit.Lookup(5).stamp.guest_gen, 99u);

  // The next conflicting insert evicts the same way in both arrays.
  for (Tlb* t : {&lookup, &rehit}) {
    t->Insert(12ull << kHugeOrder, PageSize::kHuge, 1ull << 20);
    EXPECT_FALSE(t->Probe(8ull << kHugeOrder));
    EXPECT_TRUE(t->Probe(0));
    EXPECT_TRUE(t->Probe(4ull << kHugeOrder));
    EXPECT_TRUE(t->Probe(base_vpn));
    EXPECT_TRUE(t->Probe(12ull << kHugeOrder));
  }
  EXPECT_EQ(lookup.hits(), rehit.hits());
  EXPECT_EQ(lookup.misses(), rehit.misses());
}

// ShootdownRange must be ShootdownPage of every page in the range, in all
// four sharing arrangements and with a utility monitor attached: the one-
// pass path calls OnShootdownRange where the reference calls OnShootdown
// per page, so later AttributeMiss results and shadow-stack utility are
// compared as well as entries, counters and residency.
enum class ShareMode { kPrivate, kShared, kPartitioned, kDynamic };

struct TlbTwin {
  TlbTwin(const TlbConfig& config, const TlbUtilityMonitor::Config& mc)
      : tlb(config), monitor(mc) {
    tlb.AttachUtilityMonitor(&monitor);
  }
  Tlb tlb;
  TlbUtilityMonitor monitor;
};

void ExpectSameCounters(const Tlb::VmTlbCounters& a,
                        const Tlb::VmTlbCounters& b, const std::string& at) {
  EXPECT_EQ(a.hits, b.hits) << at;
  EXPECT_EQ(a.misses, b.misses) << at;
  EXPECT_EQ(a.shootdowns, b.shootdowns) << at;
  EXPECT_EQ(a.stale_drops, b.stale_drops) << at;
  EXPECT_EQ(a.vm_invalidated, b.vm_invalidated) << at;
  EXPECT_EQ(a.cross_vm_evictions, b.cross_vm_evictions) << at;
  EXPECT_EQ(a.conflict_evictions_base, b.conflict_evictions_base) << at;
  EXPECT_EQ(a.conflict_evictions_huge, b.conflict_evictions_huge) << at;
  EXPECT_EQ(a.capacity_evictions_base, b.capacity_evictions_base) << at;
  EXPECT_EQ(a.capacity_evictions_huge, b.capacity_evictions_huge) << at;
  EXPECT_EQ(a.displaced_by_self, b.displaced_by_self) << at;
  EXPECT_EQ(a.displaced_by_other, b.displaced_by_other) << at;
  EXPECT_EQ(a.repartition_evictions, b.repartition_evictions) << at;
}

// Compares residency by Probe over [probe_lo, probe_hi) and everything
// else over the whole array.
void ExpectSameState(const TlbTwin& a, const TlbTwin& b,
                     const std::vector<uint16_t>& vmids, uint64_t probe_lo,
                     uint64_t probe_hi, const std::string& at) {
  ASSERT_EQ(a.tlb.entry_count(), b.tlb.entry_count()) << at;
  for (uint32_t s = 0; s < a.tlb.config().sets; ++s) {
    ASSERT_EQ(a.tlb.set_occupancy(s), b.tlb.set_occupancy(s)) << at;
  }
  for (const uint16_t vmid : vmids) {
    ASSERT_EQ(a.tlb.entry_count(vmid), b.tlb.entry_count(vmid)) << at;
    ExpectSameCounters(a.tlb.vm_counters(vmid), b.tlb.vm_counters(vmid), at);
    for (uint64_t vpn = probe_lo; vpn < probe_hi; ++vpn) {
      ASSERT_EQ(a.tlb.Probe(vpn, vmid), b.tlb.Probe(vpn, vmid))
          << at << " vmid " << vmid << " vpn " << vpn;
    }
    const TlbUtilityMonitor::VmUtility& ua = a.monitor.utility(vmid);
    const TlbUtilityMonitor::VmUtility& ub = b.monitor.utility(vmid);
    EXPECT_EQ(ua.way_hits, ub.way_hits) << at;
    EXPECT_EQ(ua.shadow_misses, ub.shadow_misses) << at;
    for (const uint16_t evictor : vmids) {
      EXPECT_EQ(a.monitor.displaced(vmid, evictor),
                b.monitor.displaced(vmid, evictor))
          << at;
    }
  }
}

void RunShootdownRangeDiff(const TlbConfig& config, ShareMode mode,
                           uint64_t seed) {
  TlbUtilityMonitor::Config mc;
  mc.sets = config.sets;
  mc.ways = config.ways;
  mc.sample_stride = 1;  // shadow every set
  mc.displaced_slots = 1024;
  TlbTwin ranged(config, mc);  // ShootdownRange
  TlbTwin paged(config, mc);   // ShootdownPage per page (reference)
  // A private TLB serves one VM whose vmid need not be 0.
  const std::vector<uint16_t> vmids =
      mode == ShareMode::kPrivate ? std::vector<uint16_t>{3}
                                  : std::vector<uint16_t>{0, 1, 2};
  for (TlbTwin* t : {&ranged, &paged}) {
    for (const uint16_t vmid : vmids) {
      t->tlb.RegisterVm(vmid);
      t->monitor.RegisterVm(vmid);
    }
    if (mode == ShareMode::kPartitioned || mode == ShareMode::kDynamic) {
      const uint32_t third = config.ways / 3;
      t->tlb.SetVmWays(0, 0, third);
      t->tlb.SetVmWays(1, third, third);
      t->tlb.SetVmWays(2, 2 * third, config.ways - 2 * third);
    }
  }
  const uint64_t regions = 8;
  const uint64_t vpn_space = regions * kPagesPerHuge;
  base::Rng rng(seed);
  for (int step = 0; step < 2000; ++step) {
    const uint16_t vmid = vmids[rng.NextBelow(vmids.size())];
    const uint64_t vpn = rng.NextBelow(vpn_space);
    const PageSize size =
        rng.NextBool(0.1) ? PageSize::kHuge : PageSize::kBase;
    const double r = rng.NextDouble();
    const std::string at = "seed " + std::to_string(seed) + " step " +
                           std::to_string(step);
    if (r < 0.55) {
      // The engine's pattern: probe, fill on miss (the miss consults the
      // monitor's displaced records).
      for (TlbTwin* t : {&ranged, &paged}) {
        if (!t->tlb.Lookup(vpn, vmid).hit) {
          t->tlb.InsertMiss(vpn, size, vpn + 1, Tlb::Stamp{}, vmid);
        }
      }
    } else if (r < 0.75) {
      for (TlbTwin* t : {&ranged, &paged}) {
        t->tlb.Insert(vpn, size, vpn + 2, Tlb::Stamp{}, vmid);
      }
    } else if (r < 0.80) {
      for (TlbTwin* t : {&ranged, &paged}) {
        t->tlb.ShootdownPage(vpn, vmid);
      }
    } else if (r < 0.82 && mode == ShareMode::kDynamic) {
      const uint32_t w0 = 1 + static_cast<uint32_t>(
                                  rng.NextBelow(config.ways - 2));
      const uint32_t w1 =
          w0 + 1 +
          static_cast<uint32_t>(rng.NextBelow(config.ways - w0 - 1));
      for (TlbTwin* t : {&ranged, &paged}) {
        t->tlb.RepartitionVmWays(0, 0, w0);
        t->tlb.RepartitionVmWays(1, w0, w1 - w0);
        t->tlb.RepartitionVmWays(2, w1, config.ways - w1);
      }
    } else if (r < 0.88) {
      // Aligned region, unaligned region, multi-region, short, exactly
      // one page per set, and an everything range.
      const uint64_t region_start = rng.NextBelow(regions) * kPagesPerHuge;
      uint64_t start = region_start;
      uint64_t pages = kPagesPerHuge;
      switch (rng.NextBelow(6)) {
        case 0:
          break;
        case 1:
          start = region_start + 1 + rng.NextBelow(kPagesPerHuge - 1);
          break;
        case 2:
          start = region_start + rng.NextBelow(kPagesPerHuge);
          pages = 2 * kPagesPerHuge + rng.NextBelow(3 * kPagesPerHuge);
          break;
        case 3:
          start = vpn;
          pages = 1 + rng.NextBelow(config.sets - 1);
          break;
        case 4:
          start = vpn;
          pages = config.sets;
          break;
        default:
          start = 0;
          pages = vpn_space;
          break;
      }
      const uint32_t dropped = ranged.tlb.ShootdownRange(start, pages, vmid);
      uint32_t want = 0;
      for (uint64_t p = start; p < start + pages; ++p) {
        want += paged.tlb.ShootdownPage(p, vmid);
      }
      ASSERT_EQ(dropped, want) << at;
      // Residency is probed around the range; the array-wide counts catch
      // a stray drop elsewhere.
      const uint64_t probe_lo =
          start > kPagesPerHuge ? start - kPagesPerHuge : 0;
      const uint64_t probe_hi =
          std::min(vpn_space, start + pages + kPagesPerHuge);
      ExpectSameState(ranged, paged, vmids, probe_lo, probe_hi,
                      at + " range " + std::to_string(start) + "+" +
                          std::to_string(pages));
    } else {
      // Probe without filling: a miss may consume a displaced record.
      for (TlbTwin* t : {&ranged, &paged}) {
        t->tlb.Lookup(vpn, vmid);
      }
    }
  }
  ExpectSameState(ranged, paged, vmids, 0, vpn_space, "end");
}

TEST(Tlb, ShootdownRangeMatchesPerPageReference) {
  TlbConfig paper;  // 128 x 12
  for (const ShareMode mode : {ShareMode::kPrivate, ShareMode::kShared,
                               ShareMode::kPartitioned, ShareMode::kDynamic}) {
    for (const uint64_t seed : {1ull, 2ull}) {
      SCOPED_TRACE(static_cast<int>(mode));
      RunShootdownRangeDiff(paper, mode, seed);
      RunShootdownRangeDiff(Small(8, 6), mode, seed + 10);
    }
  }
}

// The conflict/capacity split reads the inserting VM's window residency,
// which every drop and fill must keep current for each registered VM, not
// only vmid 0 (a private TLB of VM k registers vmid 0 and k).
TEST(Tlb, WindowResidencyTracksEveryRegisteredVm) {
  Tlb tlb(Small(4, 2));
  const uint16_t vmid = 5;
  tlb.RegisterVm(vmid);
  // Three keys of set 0 in a two-way set while sets 1-3 are empty: the
  // eviction is a conflict.
  for (const uint64_t vpn : {0ull, 4ull, 8ull}) {
    tlb.Insert(vpn, PageSize::kBase, vpn, Tlb::Stamp{}, vmid);
  }
  EXPECT_EQ(tlb.vm_counters(vmid).conflict_evictions_base, 1u);
  EXPECT_EQ(tlb.vm_counters(vmid).capacity_evictions_base, 0u);
  // Fill every way, then evict again: capacity.
  for (const uint64_t vpn : {1ull, 5ull, 2ull, 6ull, 3ull, 7ull}) {
    tlb.Insert(vpn, PageSize::kBase, vpn, Tlb::Stamp{}, vmid);
  }
  tlb.Insert(12, PageSize::kBase, 12, Tlb::Stamp{}, vmid);
  EXPECT_EQ(tlb.vm_counters(vmid).capacity_evictions_base, 1u);
  // A shootdown frees a way in set 1; the next eviction in set 0 is a
  // conflict again.
  EXPECT_EQ(tlb.ShootdownRange(5, 1, vmid), 1u);
  tlb.Insert(16, PageSize::kBase, 16, Tlb::Stamp{}, vmid);
  EXPECT_EQ(tlb.vm_counters(vmid).conflict_evictions_base, 2u);
  EXPECT_EQ(tlb.vm_counters(vmid).capacity_evictions_base, 1u);
}

TEST(Tlb, ResetCountersKeepsEntries) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(9, PageSize::kBase, 9);
  tlb.Lookup(9);
  tlb.ResetCounters();
  EXPECT_EQ(tlb.hits(), 0u);
  EXPECT_TRUE(tlb.Lookup(9).hit);  // entry survived
}

}  // namespace
