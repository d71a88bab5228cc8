// Google-benchmark micro benchmarks for the hot substrate paths: buddy
// allocation, targeted allocation, TLB lookup/insert/shootdown, page-table
// walks, EMA descriptor search, contiguity-list refresh, CA-paging's run
// search, first touches of a fresh VMA, and an idle MHPS tick over 64 VMs.
// These are engineering benchmarks (not paper figures): they bound the
// simulator's own costs and catch regressions in the data structures
// Gemini leans on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "gemini/channel.h"
#include "gemini/ema.h"
#include "gemini/mhps.h"
#include "harness/systems.h"
#include "mmu/page_table.h"
#include "mmu/tlb.h"
#include "mmu/translation_engine.h"
#include "os/machine.h"
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
// longest free run; 2: a large VMA's hit, the longest run past mid-map,
// found after every shorter run before it.
void BM_FindContiguousRunFragmented(benchmark::State& state) {
  constexpr uint64_t kGuestFrames = 128 * 1024;
  constexpr uint64_t kCursor = kGuestFrames / 2;
  vmem::BuddyAllocator buddy(kGuestFrames, /*selection_seed=*/5);
  vmem::FrameSpace frames(kGuestFrames);
  vmem::Fragmenter(&buddy, &frames, /*seed=*/6).FragmentToTarget(0.8);
  uint64_t longest = 0;
  uint64_t longest_past_cursor = 0;
  buddy.ForEachFreeRun([&](uint64_t lo, uint64_t count) {
    longest = std::max(longest, count);
    if (lo >= kCursor) {
      longest_past_cursor = std::max(longest_past_cursor, count);
    }
  });
  const uint64_t min_frames[] = {64, longest + 1, longest_past_cursor};
  const uint64_t n = min_frames[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::FindContiguousRun(buddy, n, kCursor));
  }
}
BENCHMARK(BM_FindContiguousRunFragmented)->Arg(0)->Arg(1)->Arg(2);

// The same large-VMA hit on a map of short runs: one frame in six taken at
// random, so the search passes hundreds of runs of a few frames each before
// the longest run past mid-map.
void BM_FindContiguousRunShortRuns(benchmark::State& state) {
  constexpr uint64_t kGuestFrames = 128 * 1024;
  constexpr uint64_t kCursor = kGuestFrames / 2;
  vmem::BuddyAllocator buddy(kGuestFrames);
  base::Rng rng(9);
  for (uint64_t i = 0; i < kGuestFrames / 6; ++i) {
    (void)buddy.AllocateAt(rng.NextBelow(kGuestFrames), 1);
  }
  uint64_t longest_past_cursor = 0;
  buddy.ForEachFreeRun([&](uint64_t lo, uint64_t count) {
    if (lo >= kCursor) {
      longest_past_cursor = std::max(longest_past_cursor, count);
    }
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy::FindContiguousRun(buddy, longest_past_cursor, kCursor));
  }
}
BENCHMARK(BM_FindContiguousRunShortRuns);

// Sequential first touches of a fresh VMA on a base-page system: every
// access takes a guest fault, then a host fault, and retries after each
// (VirtualMachine::Access).  Each iteration builds a new machine untimed
// and touches kTouched pages.
void BM_FirstTouchSequential(benchmark::State& state) {
  constexpr uint64_t kTouched = 4096;
  for (auto _ : state) {
    state.PauseTiming();
    osim::MachineConfig config;
    config.host_frames = 4 * kTouched;
    osim::Machine machine(config);
    osim::VirtualMachine& vm = harness::AddSystemVm(
        machine, harness::SystemKind::kHostBVmB, 2 * kTouched);
    const uint64_t start =
        vm.guest().aspace().MapAnonymous(kTouched).start_page;
    state.ResumeTiming();
    for (uint64_t vpn = start; vpn < start + kTouched; ++vpn) {
      benchmark::DoNotOptimize(machine.Access(0, vpn, 0));
    }
  }
  state.SetItemsProcessed(state.iterations() * kTouched);
}
BENCHMARK(BM_FirstTouchSequential)->Unit(benchmark::kMicrosecond);

// One Gemini MHPS tick over 64 VMs whose tables and guest buddies did not
// change since the previous tick (an idle collocated host).  Each VM maps
// 24 guest and 24 EPT huge pages over 64 regions, half of them aligned,
// plus base pages, so the misalignment lists are not empty.
void BM_MhpsIdleTick64Vms(benchmark::State& state) {
  constexpr uint64_t kRegions = 64;
  struct Vm {
    mmu::PageTable guest;
    mmu::PageTable ept;
    vmem::BuddyAllocator buddy{kRegions * kPagesPerHuge};
    gemini::GeminiChannel channel;
    gemini::Mhps mhps;
  };
  std::vector<std::unique_ptr<Vm>> vms;
  base::Rng rng(8);
  for (int v = 0; v < 64; ++v) {
    auto vm = std::make_unique<Vm>();
    for (uint64_t r = 0; r < 24; ++r) {
      vm->guest.MapHuge(r, r * kPagesPerHuge);
      vm->ept.MapHuge(r % 2 == 0 ? r : r + 32, r * kPagesPerHuge);
      vm->guest.MapBase(
          (32 + r) * kPagesPerHuge + rng.NextBelow(kPagesPerHuge),
          (48 + r % 16) * kPagesPerHuge);
      (void)vm->buddy.AllocateAt(r * kPagesPerHuge + rng.NextBelow(64), 1);
    }
    vms.push_back(std::move(vm));
  }
  base::Cycles now = 0;
  for (auto _ : state) {
    now += 1000;
    for (const auto& vm : vms) {
      vm->mhps.ScanVm(vm->guest, vm->ept, vm->buddy, now, vm->channel);
    }
    benchmark::DoNotOptimize(vms.front()->channel.well_aligned_count);
  }
}
BENCHMARK(BM_MhpsIdleTick64Vms)->Unit(benchmark::kMicrosecond);

}  // namespace
