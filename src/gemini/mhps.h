// Misaligned Huge Page Scanner (MHPS), paper §4.
//
// Runs at the host layer.  Periodically scans the guest process page tables
// (for huge pages formed in the guest) and the VM page tables (for huge
// pages formed in the host), labels each huge page with its layer and
// guest-physical region, and derives the misalignment lists by comparison:
//
//   host-huge misaligned: EPT huge leaf whose region is not the target of a
//     guest huge page.  Type-1 if the guest has not allocated any frame of
//     the region; type-2 otherwise.
//   guest-huge misaligned: guest huge page whose target region is not a
//     huge EPT leaf.  Type-1 if the EPT has no base mappings in the region;
//     type-2 otherwise.
//
// Results go into the per-VM GeminiChannel.
#ifndef SRC_GEMINI_MHPS_H_
#define SRC_GEMINI_MHPS_H_

#include "gemini/channel.h"
#include "mmu/page_table.h"
#include "vmem/buddy_allocator.h"

namespace gemini {

struct MhpsStats {
  uint64_t scans = 0;
  // Scans that found every input unchanged since the last full scan and
  // reused its result (also counted in `scans`).
  uint64_t skipped = 0;
  // Cumulative per-scan tallies; a skipped scan adds the last full scan's.
  uint64_t guest_huge_seen = 0;
  uint64_t host_huge_seen = 0;
  uint64_t well_aligned = 0;
  uint64_t host_huge_misaligned = 0;
  uint64_t guest_huge_misaligned = 0;
};

class Mhps {
 public:
  // Scans one VM: `guest_table` (GVA -> GFN), `ept` (GFN -> PFN), and the
  // guest's buddy (to classify type-1 vs type-2 for host-huge regions).
  // Rewrites the channel's misalignment lists, preserving `discovered`
  // stamps of regions that remain misaligned.  When the same inputs and
  // channel show the same mutation counters as at the last full scan, the
  // rescan would rebuild the channel as it stands, so it is skipped
  // (DESIGN.md §3l).
  void ScanVm(const mmu::PageTable& guest_table, const mmu::PageTable& ept,
              const vmem::BuddyAllocator& guest_buddy, base::Cycles now,
              GeminiChannel& channel);

  const MhpsStats& stats() const { return stats_; }

 private:
  // What the last full scan read, and the tallies it added to stats_.
  struct LastScan {
    const mmu::PageTable* guest_table = nullptr;
    const mmu::PageTable* ept = nullptr;
    const vmem::BuddyAllocator* guest_buddy = nullptr;
    const GeminiChannel* channel = nullptr;
    uint64_t guest_mutations = 0;
    uint64_t ept_mutations = 0;
    uint64_t buddy_epoch = 0;
    MhpsStats tallies;  // only the cumulative per-scan fields are used
  };

  void AddTallies(const MhpsStats& t);

  MhpsStats stats_;
  LastScan last_;
};

}  // namespace gemini

#endif  // SRC_GEMINI_MHPS_H_
