// The translation engine ties the TLB, the page-walk cost model, and the
// two page-table layers together.  It is the component that encodes the
// paper's central observation (§2.2):
//
//   A 2 MiB TLB entry can only be installed when the guest maps the region
//   with a huge page AND the host backs that exact guest-physical region
//   with a huge page (a *well-aligned* huge page).  In every other
//   combination the combined GVA->HPA translation only exists at 4 KiB
//   granularity, so huge pages that are misaligned across the layers do not
//   increase TLB coverage — they only shorten the page walk.
//
// In native mode (no host table) the engine degenerates to a classic
// TLB + 1D walk.
//
// Hot path: a TLB hit is validated by comparing the entry's generation
// stamp against the guest/host page tables' per-region generation counters
// (see page_table.h) — an O(1) integer compare, no table walks.  Only when
// a generation moved is the translation re-derived, after which the entry
// is restamped (still correct, e.g. in-place promotion) or dropped as
// stale.  DESIGN.md ("Translation hot path") proves this equivalent to
// re-deriving on every hit.  In front of that sits a per-region hit memo:
// while neither table has mutated since a region's huge entry last
// validated, the next access to the region skips the TLB set scan and the
// generation loads and re-hits the entry directly (DESIGN.md §3d).
#ifndef SRC_MMU_TRANSLATION_ENGINE_H_
#define SRC_MMU_TRANSLATION_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "base/digest.h"
#include "base/stats.h"
#include "base/types.h"
#include "mmu/nested_walker.h"
#include "mmu/page_table.h"
#include "mmu/tlb.h"
#include "mmu/tlb_domain.h"

namespace mmu {

enum class TranslateStatus : uint8_t {
  kOk,
  kGuestFault,  // no guest mapping for the VPN: guest OS must demand-page
  kHostFault,   // no host mapping for the GFN: host OS must back the page
};

struct TranslateResult {
  TranslateStatus status = TranslateStatus::kOk;
  uint64_t frame = 0;          // host frame (virtualized) or frame (native)
  uint64_t fault_page = 0;     // faulting VPN (guest) or GFN (host)
  base::Cycles cycles = 0;     // translation cost charged to this access
  bool tlb_hit = false;
  bool well_aligned_huge = false;  // translated through a 2M TLB-able mapping
};

class TranslationEngine {
 public:
  struct Config {
    TlbConfig tlb;
    WalkerConfig walker;
    base::Cycles tlb_hit_cycles = 1;
  };

  // `host_table` may be null for a native (non-virtualized) engine.  This
  // form owns a private physical Tlb built from config.tlb (the status-quo
  // arrangement; equivalent to an exclusive view from a kPrivate domain).
  TranslationEngine(const Config& config, PageTable* guest_table,
                    PageTable* host_table);

  // Domain form: translate through `tlb_view`, a per-VM view handed out by
  // a TlbDomain (which owns the physical arrays).  config.tlb is ignored —
  // the domain already fixed the geometry.
  TranslationEngine(const Config& config, PageTable* guest_table,
                    PageTable* host_table, TlbView tlb_view);

  // Translates one access to the page `vpn`.  On kOk the TLB is updated; on
  // a fault nothing is cached and the caller is expected to resolve the
  // fault and retry.
  TranslateResult Translate(uint64_t vpn);

  // Retries `vpn` after the caller resolved the fault that the previous
  // Translate (or TranslateAfterFault) of the same vpn returned, with only
  // fault handling in between.  That attempt missed or dropped every entry
  // covering vpn, and fault handlers never insert one, so the retry's memo
  // check and TLB probe must miss: this goes straight to the miss path
  // after charging what the missing probe would have charged.  Identical in
  // every observable to Translate(vpn) (DESIGN.md §3l).
  TranslateResult TranslateAfterFault(uint64_t vpn);

  // Invalidation hooks for unmap/migration/promotion events.
  void ShootdownPage(uint64_t vpn) { tlb_.ShootdownPage(vpn); }
  void ShootdownRange(uint64_t vpn, uint64_t pages) {
    tlb_.ShootdownRange(vpn, pages);
  }
  void FlushAll();

  // The engine's per-VM TLB view.  Counter accessors on it report this
  // VM's translations only, even when the physical array is shared with
  // other VMs; use tlb().physical() to reach the underlying array.
  const TlbView& tlb() const { return tlb_; }
  TlbView& tlb() { return tlb_; }

  uint64_t translations() const { return translations_; }
  // Translations resolved by the per-region memo (see RegionMemo below)
  // without a TLB set scan or generation loads.  Host-side effectiveness
  // only: the memo never changes a simulated result.
  uint64_t memo_hits() const { return memo_hits_; }
  base::Cycles translation_cycles() const { return translation_cycles_; }
  // Log2-bucketed per-access translation-latency histogram (cycles charged
  // to each successful translation; faulting attempts excluded).  Feeds the
  // per-VM lat_p50/p90/p99 export columns.
  const base::Log2Histogram& latency_histogram() const {
    return latency_hist_;
  }
  // Per-level page-walk accounting since the last ResetCounters (replayed
  // walks folded in; see NestedWalker::stats).
  WalkLevelStats walk_stats() const { return walker_.stats(); }
  void ResetCounters();

  // Folds the walker, the hit memo, the counters and the latency
  // histogram; not the TLB, whose array a shared view hashes once through
  // tlb().physical().
  void HashState(base::Digest* d) const;

  bool virtualized() const { return host_table_ != nullptr; }

 private:
  // Per-region hit memo, the fast path of every translation.  A slot
  // records the stamp a region's huge TLB entry carried when it last
  // validated.  It is trusted only while both tables' mutation counters
  // still equal the recorded ones, so it can never go stale undetected
  // (the counters are monotonic); a slot invalidated by a mutation is
  // simply re-armed by the next slow-path success for its region.
  struct RegionMemo {
    uint64_t region = ~0ull;  // ~0 = never armed
    uint64_t guest_muts = 0;
    uint64_t host_muts = 0;
    Tlb::Stamp stamp;  // the stamp the region's huge entry carried
  };
  // Sized so working sets with a few hundred resident huge regions (the
  // mixed regimes the figures sweep) do not alias-thrash the memo.
  static constexpr uint32_t kMemoSlots = 512;  // power of two

  // The translation itself; Translate() adds the latency sample.
  TranslateResult TranslateImpl(uint64_t vpn);
  // The miss path after the TLB probe: table lookups, fault report or walk
  // and fill.  `guest`/`host` carry the lookups a stale hit's validation
  // already made (`*_fetched`).  Inlined into both callers.
  TranslateResult MissPath(uint64_t vpn, std::optional<Translation> guest,
                           bool guest_fetched,
                           std::optional<Translation> host,
                           bool host_fetched);

  bool MemoValid(const RegionMemo& m, uint64_t region) const {
    return m.region == region &&
           m.guest_muts == guest_table_->mutations() &&
           (host_table_ == nullptr ||
            m.host_muts == host_table_->mutations());
  }
  void ArmMemo(uint64_t region, const Tlb::Stamp& stamp) {
    RegionMemo& m = memo_[region & (kMemoSlots - 1)];
    m.region = region;
    m.guest_muts = guest_table_->mutations();
    m.host_muts = host_table_ != nullptr ? host_table_->mutations() : 0;
    m.stamp = stamp;
  }

  Config config_;
  PageTable* guest_table_;
  PageTable* host_table_;
  // Set only by the owning constructor; declared before tlb_ so the view
  // can be initialized from it.
  std::unique_ptr<Tlb> owned_tlb_;
  TlbView tlb_;
  NestedWalker walker_;
  uint64_t translations_ = 0;
  uint64_t memo_hits_ = 0;
  base::Cycles translation_cycles_ = 0;
  base::Log2Histogram latency_hist_;
  std::array<RegionMemo, kMemoSlots> memo_;
};

}  // namespace mmu

#endif  // SRC_MMU_TRANSLATION_ENGINE_H_
