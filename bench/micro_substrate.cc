// Google-benchmark micro benchmarks for the hot substrate paths: buddy
// allocation, targeted allocation, TLB lookup/insert/shootdown, page-table
// walks, EMA descriptor search, contiguity-list refresh, and CA-paging's
// run search.  These are engineering benchmarks (not paper figures): they
// bound the simulator's own costs and catch regressions in the data
// structures Gemini leans on.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "base/rng.h"
#include "base/types.h"
#include "gemini/ema.h"
#include "mmu/page_table.h"
#include "mmu/tlb.h"
#include "mmu/translation_engine.h"
#include "policy/ca_paging.h"
#include "vmem/buddy_allocator.h"
#include "vmem/contiguity_list.h"
#include "vmem/fragmenter.h"
#include "vmem/frame_space.h"

namespace {

using base::kPagesPerHuge;

void BM_BuddyAllocFreeOrder0(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  for (auto _ : state) {
    const uint64_t f = buddy.Allocate(0);
    benchmark::DoNotOptimize(f);
    buddy.Free(f, 1);
  }
}
BENCHMARK(BM_BuddyAllocFreeOrder0);

void BM_BuddyAllocFreeHuge(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  for (auto _ : state) {
    const uint64_t f = buddy.Allocate(base::kHugeOrder);
    benchmark::DoNotOptimize(f);
    buddy.Free(f, kPagesPerHuge);
  }
}
BENCHMARK(BM_BuddyAllocFreeHuge);

void BM_BuddyAllocateAt(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  base::Rng rng(1);
  for (auto _ : state) {
    const uint64_t target = rng.NextBelow((1 << 18) - 1);
    if (buddy.AllocateAt(target, 1)) {
      buddy.Free(target, 1);
    }
  }
}
BENCHMARK(BM_BuddyAllocateAt);

void BM_BuddyFmfi(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  base::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    buddy.AllocateAt(rng.NextBelow(1 << 18), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(buddy.Fmfi(base::kHugeOrder));
  }
}
BENCHMARK(BM_BuddyFmfi);

// A host-sized frame space fragmented like a paper-figure testbed (FMFI 0.9
// at the huge order), with seeded block selection: every order has a long
// free list, unlike the pristine allocators above.
constexpr uint64_t kFragmentedFrames = 400000;

void FragmentHost(vmem::BuddyAllocator* buddy, vmem::FrameSpace* frames) {
  vmem::Fragmenter(buddy, frames, /*seed=*/6).FragmentToTarget(0.9);
}

void BM_BuddyFragmentedAllocFree(benchmark::State& state) {
  vmem::BuddyAllocator buddy(kFragmentedFrames, /*selection_seed=*/5);
  vmem::FrameSpace frames(kFragmentedFrames);
  FragmentHost(&buddy, &frames);
  for (auto _ : state) {
    const uint64_t f = buddy.Allocate(0);
    benchmark::DoNotOptimize(f);
    buddy.Free(f, 1);
  }
}
BENCHMARK(BM_BuddyFragmentedAllocFree);

void BM_TlbLookupHit(benchmark::State& state) {
  mmu::Tlb tlb(mmu::TlbConfig{});
  for (uint64_t i = 0; i < 1024; ++i) {
    tlb.Insert(i, base::PageSize::kBase, i);
  }
  uint64_t vpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(vpn));
    vpn = (vpn + 1) & 1023;
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbInsertEvict(benchmark::State& state) {
  mmu::Tlb tlb(mmu::TlbConfig{});
  uint64_t vpn = 0;
  for (auto _ : state) {
    const uint64_t page = vpn++;
    tlb.Insert(page, base::PageSize::kBase, page);
  }
}
BENCHMARK(BM_TlbInsertEvict);

// Shootdown of one 2 MiB region from a full paper-sized TLB (128 x 12),
// the call every VMA unmap, promotion and migration makes.  Other regions'
// base pages fill the array; the shot-down region holds range(0) base
// entries, re-inserted after each shootdown (range(0) = 0 times the pure
// array scan).
void BM_TlbShootdownRegion(benchmark::State& state) {
  mmu::Tlb tlb(mmu::TlbConfig{});
  const uint64_t region_vpn = 64 * kPagesPerHuge;
  for (uint64_t i = 0; i < 4 * 1536; ++i) {
    tlb.Insert(i * 3, base::PageSize::kBase, i);  // regions 0..35
  }
  const uint64_t resident = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    for (uint64_t p = 0; p < resident; ++p) {
      tlb.Insert(region_vpn + p * 29, base::PageSize::kBase, p);
    }
    benchmark::DoNotOptimize(tlb.ShootdownRange(region_vpn, kPagesPerHuge));
  }
}
BENCHMARK(BM_TlbShootdownRegion)->Arg(0)->Arg(16);

void BM_PageTableLookupBase(benchmark::State& state) {
  mmu::PageTable table;
  for (uint64_t v = 0; v < 64 * kPagesPerHuge; ++v) {
    table.MapBase(v, v);
  }
  base::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Lookup(rng.NextBelow(64 * kPagesPerHuge)));
  }
}
BENCHMARK(BM_PageTableLookupBase);

void BM_PageTablePromoteDemote(benchmark::State& state) {
  mmu::PageTable table;
  for (uint64_t v = 0; v < kPagesPerHuge; ++v) {
    table.MapBase(v, v);
  }
  for (auto _ : state) {
    table.PromoteInPlace(0);
    table.Demote(0);
  }
}
BENCHMARK(BM_PageTablePromoteDemote);

void BM_TranslateVirtualizedHit(benchmark::State& state) {
  mmu::PageTable guest;
  mmu::PageTable ept;
  guest.MapHuge(0, 0);
  ept.MapHuge(0, kPagesPerHuge);
  mmu::TranslationEngine engine(mmu::TranslationEngine::Config{}, &guest,
                                &ept);
  uint64_t vpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Translate(vpn));
    vpn = (vpn + 1) & (kPagesPerHuge - 1);
  }
}
BENCHMARK(BM_TranslateVirtualizedHit);

void BM_EmaTargetForMtf(benchmark::State& state) {
  gemini::Ema ema;
  // Many spans in one VMA; accesses hit one span repeatedly, exercising
  // the move-to-front win.
  for (int i = 0; i < 64; ++i) {
    ema.AddSpan(1, static_cast<uint64_t>(i) * 2048, 1024, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ema.TargetFor(1, 7 * 2048 + 5));
  }
}
BENCHMARK(BM_EmaTargetForMtf);

void BM_ContiguityRefresh(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  base::Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    buddy.AllocateAt(rng.NextBelow(1 << 18), 1);
  }
  vmem::ContiguityList list(&buddy);
  for (auto _ : state) {
    // Force a rebuild each iteration by touching the buddy.
    const uint64_t f = buddy.Allocate(0);
    buddy.Free(f, 1);
    list.Refresh();
    benchmark::DoNotOptimize(list.extent_count());
  }
}
BENCHMARK(BM_ContiguityRefresh);

void BM_ContiguityRefreshFragmented(benchmark::State& state) {
  vmem::BuddyAllocator buddy(kFragmentedFrames, /*selection_seed=*/5);
  vmem::FrameSpace frames(kFragmentedFrames);
  FragmentHost(&buddy, &frames);
  vmem::ContiguityList list(&buddy);
  for (auto _ : state) {
    const uint64_t f = buddy.Allocate(0);
    buddy.Free(f, 1);
    list.Refresh();
    benchmark::DoNotOptimize(list.extent_count());
  }
}
BENCHMARK(BM_ContiguityRefreshFragmented);

// CA-paging's first-fault run search on a guest-sized buddy fragmented
// like a paper-figure testbed (FMFI 0.8 at the huge order).  range(0) = 0:
// a hit, 64 frames from mid-map; 1: a miss, one frame more than the
// longest free run.
void BM_FindContiguousRunFragmented(benchmark::State& state) {
  constexpr uint64_t kGuestFrames = 128 * 1024;
  vmem::BuddyAllocator buddy(kGuestFrames, /*selection_seed=*/5);
  vmem::FrameSpace frames(kGuestFrames);
  vmem::Fragmenter(&buddy, &frames, /*seed=*/6).FragmentToTarget(0.8);
  uint64_t longest = 0;
  buddy.ForEachFreeRun([&](uint64_t, uint64_t count) {
    longest = std::max(longest, count);
  });
  const bool hit = state.range(0) == 0;
  const uint64_t min_frames = hit ? 64 : longest + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy::FindContiguousRun(buddy, min_frames, kGuestFrames / 2));
  }
}
BENCHMARK(BM_FindContiguousRunFragmented)->Arg(0)->Arg(1);

}  // namespace
