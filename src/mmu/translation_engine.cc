#include "mmu/translation_engine.h"

#include <utility>

#include "base/check.h"

namespace mmu {

using base::kHugeOrder;
using base::kPagesPerHuge;

namespace {

bool SameStamp(const Tlb::Stamp& a, const Tlb::Stamp& b) {
  return a.guest_gen == b.guest_gen && a.host_region == b.host_region &&
         a.host_gen == b.host_gen && a.well_aligned == b.well_aligned;
}

}  // namespace

TranslationEngine::TranslationEngine(const Config& config,
                                     PageTable* guest_table,
                                     PageTable* host_table)
    : config_(config),
      guest_table_(guest_table),
      host_table_(host_table),
      owned_tlb_(std::make_unique<Tlb>(config.tlb)),
      tlb_(owned_tlb_.get(), /*vmid=*/0, /*exclusive=*/true),
      walker_(config.walker) {
  SIM_CHECK(guest_table_ != nullptr);
}

TranslationEngine::TranslationEngine(const Config& config,
                                     PageTable* guest_table,
                                     PageTable* host_table, TlbView tlb_view)
    : config_(config),
      guest_table_(guest_table),
      host_table_(host_table),
      tlb_(tlb_view),
      walker_(config.walker) {
  SIM_CHECK(guest_table_ != nullptr);
}

// Always inlined into both callers, so Translate keeps the code it had
// before the retry shared this path: an out-of-line miss path lost 4 of 5
// alternated translate_bound pairs in a trial.
inline __attribute__((always_inline)) TranslateResult
TranslationEngine::MissPath(uint64_t vpn, std::optional<Translation> guest,
                            bool guest_fetched,
                            std::optional<Translation> host,
                            bool host_fetched) {
  // TLB miss: walk.
  TranslateResult result;
  const uint64_t region = vpn >> kHugeOrder;
  // The walker's memo line for this region will be probed right after the
  // table lookups; starting its fill now overlaps it with both of them.
  // (Prefetching before the TLB probe was measured and lost: it taxes the
  // hit path, which outnumbers misses everywhere but miss_heavy.)
  walker_.PrefetchMemo(region);
  if (!guest_fetched) {
    guest = guest_table_->Lookup(vpn);
  }
  if (!guest.has_value()) {
    result.status = TranslateStatus::kGuestFault;
    result.fault_page = vpn;
    tlb_.UncountFaultMiss();  // the retried access will count
    return result;
  }
  // Start the host-dimension line fills (route word, then frame cell)
  // before the guest-side bookkeeping: the host lookup is the next
  // dependent far load, and the access bump is independent work that can
  // execute under it.
  if (host_table_ != nullptr) {
    host_table_->PrefetchPage(guest->frame);
  }
  guest_table_->BumpAccess(region);

  if (host_table_ == nullptr) {
    const WalkResult walk = walker_.NativeWalk(vpn, guest->size);
    result.frame = guest->frame;
    result.cycles = walk.cycles;
    translation_cycles_ += result.cycles;
    const bool huge = guest->size == base::PageSize::kHuge;
    result.well_aligned_huge = huge;
    Tlb::Stamp stamp;
    stamp.guest_gen = guest_table_->generation(region);
    stamp.well_aligned = huge;
    tlb_.InsertMiss(vpn, guest->size,
                huge ? (guest->frame & ~(kPagesPerHuge - 1)) : guest->frame,
                stamp);
    if (huge) {
      ArmMemo(region, stamp);
    }
    return result;
  }

  if (!host_fetched) {
    host = host_table_->Lookup(guest->frame);
  }
  if (!host.has_value()) {
    result.status = TranslateStatus::kHostFault;
    result.fault_page = guest->frame;
    tlb_.UncountFaultMiss();  // the retried access will count
    return result;
  }
  host_table_->BumpAccess(guest->frame >> kHugeOrder);

  const WalkResult walk =
      walker_.NestedWalk(vpn, guest->size, guest->frame, host->size);
  result.frame = host->frame;
  result.cycles = walk.cycles;
  translation_cycles_ += result.cycles;

  // The well-alignment rule: only a huge guest page backed by a huge host
  // page yields a combined translation at 2 MiB granularity.  (A guest huge
  // leaf always targets a huge-aligned GPA block, and MapHuge guarantees a
  // huge host leaf targets a huge-aligned HPA block, so size agreement is
  // sufficient for offset coherence.)
  const bool aligned = guest->size == base::PageSize::kHuge &&
                       host->size == base::PageSize::kHuge;
  result.well_aligned_huge = aligned;
  Tlb::Stamp stamp;
  stamp.guest_gen = guest_table_->generation(region);
  stamp.host_region = guest->frame >> kHugeOrder;
  stamp.host_gen = host_table_->generation(stamp.host_region);
  stamp.well_aligned = aligned;
  if (aligned) {
    tlb_.InsertMiss(vpn, base::PageSize::kHuge,
                host->frame & ~(kPagesPerHuge - 1), stamp);
    ArmMemo(region, stamp);
  } else {
    tlb_.InsertMiss(vpn, base::PageSize::kBase, host->frame, stamp);
  }
  return result;
}

TranslateResult TranslationEngine::Translate(uint64_t vpn) {
  const TranslateResult result = TranslateImpl(vpn);
  if (result.status == TranslateStatus::kOk) {
    latency_hist_.Add(result.cycles);
  }
  return result;
}

TranslateResult TranslationEngine::TranslateAfterFault(uint64_t vpn) {
  ++translations_;
  tlb_.CountProvenMiss(vpn);
  const TranslateResult result =
      MissPath(vpn, std::nullopt, false, std::nullopt, false);
  if (result.status == TranslateStatus::kOk) {
    latency_hist_.Add(result.cycles);
  }
  return result;
}

TranslateResult TranslationEngine::TranslateImpl(uint64_t vpn) {
  ++translations_;
  TranslateResult result;
  const uint64_t region = vpn >> kHugeOrder;

  // Memo fast path.  If the memo slot matches the region and neither table
  // has mutated since it was armed, the generation compare below is
  // already known to pass — provided the huge entry still carries the
  // stamp the memo recorded.  RehitHuge performs exactly the observable
  // effects of the huge-probe-first Lookup hit, so returning here is
  // equivalent to the validated-hit branch.
  Tlb::LookupResult cached;
  bool have_lookup = false;
  const RegionMemo& m = memo_[region & (kMemoSlots - 1)];
  if (MemoValid(m, region) && tlb_.RehitHuge(region, &cached)) {
    have_lookup = true;
    if (SameStamp(cached.stamp, m.stamp)) {
      ++memo_hits_;
      result.tlb_hit = true;
      result.cycles = config_.tlb_hit_cycles;
      translation_cycles_ += result.cycles;
      result.frame = cached.frame + (vpn & (kPagesPerHuge - 1));
      result.well_aligned_huge = cached.stamp.well_aligned;
      return result;
    }
  }
  if (!have_lookup) {
    cached = tlb_.Lookup(vpn);
  }
  // Translations threaded from hit validation into the miss path, so a
  // stale hit never walks the tables twice.
  std::optional<Translation> guest;
  bool guest_fetched = false;
  std::optional<Translation> host;
  bool host_fetched = false;

  if (cached.hit) {
    // Generation compare: if neither the guest region nor the host region
    // the entry was derived from has been remapped since the entry was
    // stamped, the cached translation is correct by construction — the
    // entry behaves exactly like a precisely invalidated (INVLPG / tagged
    // INVEPT) TLB entry and the hit is O(1), with no table walks.
    if (cached.stamp.guest_gen == guest_table_->generation(region) &&
        (host_table_ == nullptr ||
         cached.stamp.host_gen ==
             host_table_->generation(cached.stamp.host_region))) {
      if (cached.size == base::PageSize::kHuge) {
        ArmMemo(region, cached.stamp);
      }
      result.tlb_hit = true;
      result.cycles = config_.tlb_hit_cycles;
      translation_cycles_ += result.cycles;
      result.frame = cached.size == base::PageSize::kHuge
                         ? cached.frame + (vpn & (kPagesPerHuge - 1))
                         : cached.frame;
      result.well_aligned_huge = cached.stamp.well_aligned;
      return result;
    }
    // A generation moved: re-derive the translation once.  If it still
    // matches, the remap was compatible (e.g. an in-place promotion kept
    // every frame) — keep the hit and restamp the entry for the new
    // generations.  Otherwise the entry is stale: drop it and fall through
    // to the miss path, reusing the lookups performed here.
    guest = guest_table_->Lookup(vpn);
    guest_fetched = true;
    bool valid = guest.has_value();
    uint64_t frame = 0;
    bool aligned = false;
    Tlb::Stamp stamp;
    if (valid && host_table_ == nullptr) {
      frame = guest->frame;
      aligned = guest->size == base::PageSize::kHuge;
      if (cached.size == base::PageSize::kHuge) {
        valid = aligned && (frame & ~(kPagesPerHuge - 1)) == cached.frame;
      } else {
        valid = frame == cached.frame;
      }
      stamp.guest_gen = guest_table_->generation(region);
    } else if (valid) {
      host = host_table_->Lookup(guest->frame);
      host_fetched = true;
      valid = host.has_value();
      if (valid) {
        frame = host->frame;
        aligned = guest->size == base::PageSize::kHuge &&
                  host->size == base::PageSize::kHuge;
        if (cached.size == base::PageSize::kHuge) {
          valid = aligned && (frame & ~(kPagesPerHuge - 1)) == cached.frame;
        } else {
          valid = frame == cached.frame;
        }
        stamp.guest_gen = guest_table_->generation(region);
        stamp.host_region = guest->frame >> kHugeOrder;
        stamp.host_gen = host_table_->generation(stamp.host_region);
      }
    }
    if (valid) {
      stamp.well_aligned = aligned;
      tlb_.RestampHit(stamp);
      if (cached.size == base::PageSize::kHuge) {
        ArmMemo(region, stamp);
      }
      result.tlb_hit = true;
      result.cycles = config_.tlb_hit_cycles;
      translation_cycles_ += result.cycles;
      result.frame = frame;
      result.well_aligned_huge = aligned;
      return result;
    }
    tlb_.DiscountStaleHit();
    tlb_.ShootdownPage(vpn);
  }

  return MissPath(vpn, std::move(guest), guest_fetched, std::move(host),
                  host_fetched);
}

void TranslationEngine::FlushAll() {
  tlb_.Flush();
  walker_.Flush();
}

void TranslationEngine::HashState(base::Digest* d) const {
  walker_.HashState(d);
  for (size_t i = 0; i < memo_.size(); ++i) {
    const RegionMemo& m = memo_[i];
    if (m.region == ~0ull) {
      continue;  // never armed
    }
    d->Add(i);
    d->Add(m.region);
    d->Add(m.guest_muts);
    d->Add(m.host_muts);
    d->Add(m.stamp.guest_gen);
    d->Add(m.stamp.host_region);
    d->Add(m.stamp.host_gen);
    d->Add(m.stamp.well_aligned);
  }
  d->Add(translations_);
  d->Add(memo_hits_);
  d->Add(translation_cycles_);
  for (const uint64_t count : latency_hist_.buckets()) {
    d->Add(count);
  }
}

void TranslationEngine::ResetCounters() {
  translations_ = 0;
  translation_cycles_ = 0;
  tlb_.ResetCounters();
  walker_.ResetStats();
  memo_hits_ = 0;
  latency_hist_ = base::Log2Histogram{};
}

}  // namespace mmu
