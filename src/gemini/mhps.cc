#include "gemini/mhps.h"

#include <map>

#include "base/types.h"

namespace gemini {

using base::kHugeOrder;
using base::kPagesPerHuge;

void Mhps::ScanVm(const mmu::PageTable& guest_table, const mmu::PageTable& ept,
                  const vmem::BuddyAllocator& guest_buddy, base::Cycles now,
                  GeminiChannel& channel) {
  ++stats_.scans;
  // The scan reads only these inputs and the channel, and only ScanVm
  // writes the channel.  The counters never decrease and move on every
  // table mapping change and every buddy insert or remove, so equal values
  // mean a rescan would rebuild exactly the channel as it stands.
  if (last_.channel == &channel && last_.guest_table == &guest_table &&
      last_.ept == &ept && last_.guest_buddy == &guest_buddy &&
      last_.guest_mutations == guest_table.mutations() &&
      last_.ept_mutations == ept.mutations() &&
      last_.buddy_epoch == guest_buddy.mutation_epoch()) {
    ++stats_.skipped;
    AddTallies(last_.tallies);
    return;
  }
  MhpsStats tallies;

  // Pass 1: label guest huge pages by their guest-physical target region.
  std::map<uint64_t, uint64_t> guest_huge_targets;  // gpa region -> gva region
  guest_table.ForEachHuge([&](uint64_t gva_region, uint64_t gfn) {
    guest_huge_targets[gfn >> kHugeOrder] = gva_region;
    ++tallies.guest_huge_seen;
  });

  // Pass 2: walk EPT huge leaves; compare against the guest labels.
  std::map<uint64_t, MisalignedRegion> host_huge_misaligned;
  uint64_t aligned = 0;
  ept.ForEachHuge([&](uint64_t gpa_region, uint64_t pfn) {
    (void)pfn;
    ++tallies.host_huge_seen;
    if (guest_huge_targets.count(gpa_region) != 0) {
      ++aligned;
      return;
    }
    MisalignedRegion m;
    // Type-1 iff the guest has not allocated any frame of the region (the
    // whole guest-physical range is still free in the guest buddy); then a
    // well-placed future allocation fixes it with no migration.
    m.type2 = !guest_buddy.IsRangeFree(gpa_region << kHugeOrder,
                                       kPagesPerHuge);
    auto prev = channel.host_huge_misaligned.find(gpa_region);
    m.discovered = prev != channel.host_huge_misaligned.end()
                       ? prev->second.discovered
                       : now;
    host_huge_misaligned.emplace(gpa_region, m);
  });

  // Pass 3: guest huge pages not backed by huge EPT leaves.
  std::map<uint64_t, MisalignedRegion> guest_huge_misaligned;
  for (const auto& [gpa_region, gva_region] : guest_huge_targets) {
    (void)gva_region;
    if (ept.IsHugeMapped(gpa_region)) {
      continue;
    }
    MisalignedRegion m;
    m.type2 = ept.PresentBasePages(gpa_region) > 0;
    auto prev = channel.guest_huge_misaligned.find(gpa_region);
    m.discovered = prev != channel.guest_huge_misaligned.end()
                       ? prev->second.discovered
                       : now;
    guest_huge_misaligned.emplace(gpa_region, m);
  }

  tallies.well_aligned = aligned;
  tallies.host_huge_misaligned = host_huge_misaligned.size();
  tallies.guest_huge_misaligned = guest_huge_misaligned.size();
  AddTallies(tallies);
  last_ = LastScan{&guest_table, &ept, &guest_buddy, &channel,
                   guest_table.mutations(), ept.mutations(),
                   guest_buddy.mutation_epoch(), tallies};

  channel.host_huge_misaligned = std::move(host_huge_misaligned);
  channel.guest_huge_misaligned = std::move(guest_huge_misaligned);
  channel.guest_huge_targets = std::move(guest_huge_targets);
  channel.well_aligned_count = aligned;
}

void Mhps::AddTallies(const MhpsStats& t) {
  stats_.guest_huge_seen += t.guest_huge_seen;
  stats_.host_huge_seen += t.host_huge_seen;
  stats_.well_aligned += t.well_aligned;
  stats_.host_huge_misaligned += t.host_huge_misaligned;
  stats_.guest_huge_misaligned += t.guest_huge_misaligned;
}

}  // namespace gemini
