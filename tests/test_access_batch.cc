// Differential property test for Machine::AccessBatch: its contract says
// AccessBatch IS Machine::Access in a loop, only with a cheaper due-daemon
// check.  We drive byte-identical machines through the same access plan —
// one scalar, one batched at each size in {1, 7, 64, 4096} — and require
// every observable to match exactly:
//
//  * the AccessResult stream (cycles, tlb_hit, well_aligned, faults),
//  * TLB counters including stale drops and shootdowns, LRU state
//    (witnessed indirectly through hit/miss equality under later reuse),
//  * translation counters and charged cycles,
//  * logical time, so daemon schedules never skew, and
//  * final page-table state at both layers (digested structurally).
//
// The plan interleaves access bursts with think time, and the daemon
// period is chosen so promotions, demotions, and reclaim fire in the
// middle of large batches — the hard case the contract must survive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "harness/systems.h"
#include "mmu/page_table.h"
#include "os/machine.h"
#include "os/virtual_machine.h"

namespace {

using base::kPagesPerHuge;
using osim::VirtualMachine;

// One scripted run: VMA layout, then segments of accesses separated by
// think time.  Everything is derived from `seed` so scalar and batched
// drivers replay the identical plan.
struct Plan {
  struct Segment {
    std::vector<uint64_t> vpns;
    base::Cycles advance_after = 0;
  };
  std::vector<Segment> segments;
};

Plan BuildPlan(uint64_t seed) {
  base::Rng rng(seed);
  Plan plan;
  // ~6000 accesses across segments of irregular length, so every batch
  // size under test splits the stream at different points.
  for (int s = 0; s < 12; ++s) {
    Plan::Segment seg;
    const uint64_t len = 100 + rng.NextBelow(800);
    for (uint64_t i = 0; i < len; ++i) {
      seg.vpns.push_back(rng.NextBelow(6 * kPagesPerHuge));
    }
    if (rng.NextBool(0.5)) {
      seg.advance_after = 1000 * (1 + rng.NextBelow(50));
    }
    plan.segments.push_back(std::move(seg));
  }
  return plan;
}

// Everything we compare between drivers.
struct Observation {
  std::vector<VirtualMachine::AccessResult> results;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t tlb_stale = 0;
  uint64_t tlb_shootdowns = 0;
  uint64_t translations = 0;
  base::Cycles translation_cycles = 0;
  base::Cycles now = 0;
  uint64_t guest_digest = 0;
  uint64_t host_digest = 0;
};

uint64_t DigestTable(const mmu::PageTable& table) {
  // Structural digest: every huge leaf and every present base page, with
  // region generations (so a promotion that lands in one driver but not
  // the other cannot cancel out in the frame sum).
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  table.ForEachHuge([&](uint64_t region, uint64_t frame) {
    mix(region * 2 + 1);
    mix(frame);
    mix(table.generation(region));
  });
  table.ForEachBaseRegion([&](uint64_t region, uint32_t) {
    mix(region * 2);
    mix(table.generation(region));
    table.ForEachBasePage(region, [&](uint32_t slot, uint64_t frame) {
      mix(slot);
      mix(frame);
    });
  });
  return h;
}

// Replays `plan`, scalar when batch == 0, else via AccessBatch in
// `batch`-sized chunks.  The machine is built identically for every
// driver: one VM under `kind`, fragmented memory at both layers, a daemon
// period short enough that promotion/demotion/reclaim work fires mid-batch
// at size 4096 (~400 accesses apart at 50 work cycles per access).
Observation Drive(harness::SystemKind kind, uint64_t seed, const Plan& plan,
                  uint64_t batch) {
  osim::MachineConfig config;
  config.host_frames = 16384;
  config.daemon_period = 20000;
  config.seed = seed;
  osim::Machine machine(config);
  VirtualMachine& vm = harness::AddSystemVm(machine, kind, 8192);
  machine.FragmentGuestMemory(0, 0.6);
  machine.FragmentHostMemory(0.6);
  // Plan vpns are offsets into this VMA.
  const uint64_t base_vpn =
      vm.guest().aspace().MapAnonymous(6 * kPagesPerHuge).start_page;

  Observation obs;
  std::vector<uint64_t> vpns;
  std::vector<VirtualMachine::AccessResult> out;
  for (const Plan::Segment& seg : plan.segments) {
    vpns.clear();
    for (const uint64_t off : seg.vpns) {
      vpns.push_back(base_vpn + off);
    }
    if (batch == 0) {
      for (const uint64_t vpn : vpns) {
        obs.results.push_back(machine.Access(0, vpn, 50));
      }
    } else {
      for (size_t i = 0; i < vpns.size(); i += batch) {
        const size_t n = std::min<size_t>(batch, vpns.size() - i);
        machine.AccessBatch(0, std::span(vpns.data() + i, n), 50, &out);
        obs.results.insert(obs.results.end(), out.begin(), out.end());
      }
    }
    if (seg.advance_after != 0) {
      machine.AdvanceTime(seg.advance_after);
    }
  }

  const mmu::TlbView& tlb = vm.engine().tlb();
  obs.tlb_hits = tlb.hits();
  obs.tlb_misses = tlb.misses();
  obs.tlb_stale = tlb.stale_drops();
  obs.tlb_shootdowns = tlb.shootdowns();
  obs.translations = vm.engine().translations();
  obs.translation_cycles = vm.engine().translation_cycles();
  obs.now = machine.Now();
  obs.guest_digest = DigestTable(vm.guest().table());
  obs.host_digest = DigestTable(vm.host_slice().table());
  return obs;
}

void ExpectSameObservation(const Observation& scalar, const Observation& b,
                           uint64_t batch) {
  ASSERT_EQ(scalar.results.size(), b.results.size()) << "batch " << batch;
  for (size_t i = 0; i < scalar.results.size(); ++i) {
    const auto& s = scalar.results[i];
    const auto& r = b.results[i];
    ASSERT_EQ(s.cycles, r.cycles) << "batch " << batch << " access " << i;
    ASSERT_EQ(s.tlb_hit, r.tlb_hit) << "batch " << batch << " access " << i;
    ASSERT_EQ(s.well_aligned, r.well_aligned)
        << "batch " << batch << " access " << i;
    ASSERT_EQ(s.faults_taken, r.faults_taken)
        << "batch " << batch << " access " << i;
  }
  EXPECT_EQ(scalar.tlb_hits, b.tlb_hits) << "batch " << batch;
  EXPECT_EQ(scalar.tlb_misses, b.tlb_misses) << "batch " << batch;
  EXPECT_EQ(scalar.tlb_stale, b.tlb_stale) << "batch " << batch;
  EXPECT_EQ(scalar.tlb_shootdowns, b.tlb_shootdowns) << "batch " << batch;
  EXPECT_EQ(scalar.translations, b.translations) << "batch " << batch;
  EXPECT_EQ(scalar.translation_cycles, b.translation_cycles)
      << "batch " << batch;
  EXPECT_EQ(scalar.now, b.now) << "batch " << batch;
  EXPECT_EQ(scalar.guest_digest, b.guest_digest) << "batch " << batch;
  EXPECT_EQ(scalar.host_digest, b.host_digest) << "batch " << batch;
}

class AccessBatchDifferentialTest
    : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(AccessBatchDifferentialTest, BatchSizeIsUnobservable) {
  const harness::SystemKind kind = GetParam();
  const uint64_t seed = 20230425;
  const Plan plan = BuildPlan(seed);
  const Observation scalar = Drive(kind, seed, plan, 0);
  // The plan must actually exercise the interesting machinery, or the
  // equivalence claim is vacuous.
  uint64_t faults = 0;
  for (const auto& r : scalar.results) {
    faults += r.faults_taken;
  }
  ASSERT_GT(faults, 0u);
  ASSERT_GT(scalar.tlb_hits, 0u);
  ASSERT_GT(scalar.tlb_misses, 0u);

  for (const uint64_t batch : {1ull, 7ull, 64ull, 4096ull}) {
    const Observation batched = Drive(kind, seed, plan, batch);
    ExpectSameObservation(scalar, batched, batch);
  }
}

// Gemini exercises promotion + demotion + reclaim daemons (the hardest
// mid-batch mutations); THP and HawkEye cover the other promotion styles;
// kHostBVmB pins the no-huge-page baseline.
INSTANTIATE_TEST_SUITE_P(Systems, AccessBatchDifferentialTest,
                         ::testing::Values(harness::SystemKind::kGemini,
                                           harness::SystemKind::kThp,
                                           harness::SystemKind::kHawkEye,
                                           harness::SystemKind::kHostBVmB));

// The generation-stamp churn path: in-place demote/promote cycles leave
// TLB entries stale-stamped but still correct, so the per-region memo must
// revalidate (not trust) them, and swapping two regions' backing makes
// cached entries wrong, so they must be dropped.  Every translated frame
// is checked against the reference composition read straight from the
// page tables: the guest Lookup, then the host Lookup of its frame.
// Covered at the engine level because Machine has no direct demote hook.
TEST(AccessBatchChurn, MemoSurvivesGenerationChurn) {
  constexpr uint64_t kRegions = 8;
  mmu::PageTable guest;
  mmu::PageTable ept;
  std::vector<uint64_t> gpa_block(kRegions);
  for (uint64_t r = 0; r < kRegions; ++r) {
    gpa_block[r] = r;
    guest.MapHuge(r, r * kPagesPerHuge);
    ept.MapHuge(r, (kRegions + r) * kPagesPerHuge);
  }
  mmu::TranslationEngine engine(mmu::TranslationEngine::Config{}, &guest,
                                &ept);

  base::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) {
      const uint64_t vpn = rng.NextBelow(kRegions * kPagesPerHuge);
      const mmu::TranslateResult t = engine.Translate(vpn);
      ASSERT_EQ(t.status, mmu::TranslateStatus::kOk) << round;
      const auto g = guest.Lookup(vpn);
      ASSERT_TRUE(g.has_value());
      const auto h = ept.Lookup(g->frame);
      ASSERT_TRUE(h.has_value());
      ASSERT_EQ(t.frame, h->frame) << "round " << round << " vpn " << vpn;
      ASSERT_EQ(t.well_aligned_huge, g->size == base::PageSize::kHuge &&
                                         h->size == base::PageSize::kHuge)
          << "round " << round << " vpn " << vpn;
    }
    // Demote + re-promote one region in place at both layers: frames are
    // unchanged, generations and mutation counters move, so armed memo
    // slots go invalid and cached entries must be restamped.
    const uint64_t r = rng.NextBelow(kRegions);
    guest.Demote(r);
    guest.PromoteInPlace(r);
    ept.Demote(gpa_block[r]);
    ept.PromoteInPlace(gpa_block[r]);
    // Every fourth round, swap two guest regions' backing blocks: their
    // cached entries now translate to the wrong frames.
    if (round % 4 == 3) {
      const uint64_t a = rng.NextBelow(kRegions);
      const uint64_t b = (a + 1 + rng.NextBelow(kRegions - 1)) % kRegions;
      guest.UnmapHuge(a);
      guest.UnmapHuge(b);
      std::swap(gpa_block[a], gpa_block[b]);
      guest.MapHuge(a, gpa_block[a] * kPagesPerHuge);
      guest.MapHuge(b, gpa_block[b] * kPagesPerHuge);
    }
  }
  // Both revalidation outcomes ran, and the memo fired between mutations.
  const mmu::TlbView& tlb = engine.tlb();
  EXPECT_GT(tlb.stale_drops(), 0u);
  EXPECT_GT(engine.memo_hits(), 0u);
  EXPECT_LT(engine.memo_hits(), tlb.hits());
  EXPECT_EQ(tlb.hits() + tlb.misses(), engine.translations());
  EXPECT_EQ(engine.translations(), 200u * 64u);
}

}  // namespace
