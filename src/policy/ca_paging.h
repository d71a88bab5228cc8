// CA-paging (Alverti et al., ISCA '20) — software component.
//
// Contiguity-aware paging gives each VMA an *anchor*: on the VMA's first
// fault it picks a free contiguous physical run and from then on places
// every faulting page at (page - offset), so the VMA maps to physically
// contiguous memory.  That contiguity makes many regions eligible for
// in-place promotion (its khugepaged-style daemon is inherited from the
// THP model, without fault-time huge allocation).
//
// Crucially for the paper's story, CA-paging anchors to the start of
// whatever free run it finds — it does NOT align the anchor to huge-page
// boundaries, and the two layers anchor independently.  Well-aligned huge
// pages therefore arise only by chance, which is why its measured rates in
// Tables 1/3 stay in the 14-32 % band.
#ifndef SRC_POLICY_CA_PAGING_H_
#define SRC_POLICY_CA_PAGING_H_

#include <unordered_map>

#include "policy/thp.h"

namespace policy {

struct CaPagingOptions {
  ThpOptions thp;  // daemon settings (fault_huge is forced off)
};

class CaPagingPolicy : public ThpPolicy {
 public:
  explicit CaPagingPolicy(const CaPagingOptions& options = {});

  std::string_view name() const override { return "ca-paging"; }

  FaultDecision OnFault(KernelOps& kernel, const FaultInfo& info) override;
  void OnVmaDestroy(int32_t vma_id) override;

 private:
  // page-space minus frame-space anchor delta per VMA (vma_id -1 = host).
  std::unordered_map<int32_t, int64_t> offsets_;
  uint64_t next_fit_cursor_ = 0;
  uint64_t search_retry_epoch_ = 0;  // backoff after a failed run search
  // Fewest frames a search found no run for, while the buddy's frees()
  // stayed at no_fit_frees_ (runs only shrink between frees).
  uint64_t no_fit_frees_ = 0;
  uint64_t no_fit_frames_ = ~0ull;
};

// Finds the first free run of at least `min_frames` (> 0) contiguous frames
// at or after `cursor` (wrapping once).  Returns kInvalidFrame if none
// exists.  Walks only from the run holding the cursor to the first fit.
// Shared by CA-paging and tests.
uint64_t FindContiguousRun(const vmem::BuddyAllocator& buddy,
                           uint64_t min_frames, uint64_t cursor);

}  // namespace policy

#endif  // SRC_POLICY_CA_PAGING_H_
