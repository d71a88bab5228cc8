#include "policy/ca_paging.h"

#include "base/check.h"

namespace policy {

uint64_t FindContiguousRun(const vmem::BuddyAllocator& buddy,
                           uint64_t min_frames, uint64_t cursor) {
  SIM_CHECK(min_frames > 0);
  // The answer is defined by a walk over free blocks from frame 0 that
  // grows runs block by block and checks each block end (kept in
  // tests/test_policies.cc as the reference).  That walk remembers the
  // first fitting run before the cursor as its wrap-around answer, and
  // restarts the run at that block end, so the answer inside the run that
  // holds the cursor depends on whether an earlier run already fit.  Runs
  // that start at or past the cursor answer with their start either way,
  // so past the run holding the cursor a first-fit word scan decides.
  uint64_t found = vmem::kInvalidFrame;
  // The walk's wrap-around answer, once the run holding the cursor needed
  // it: the first fit before that run, or that run itself.
  uint64_t first_fit = vmem::kInvalidFrame;
  // Where runs that start at or past the cursor begin: the end of the run
  // holding the cursor, if one does.
  uint64_t scan_from = cursor;
  if (cursor < buddy.frame_count() && buddy.IsFrameFree(cursor)) {
    buddy.ForEachFreeRunFrom(cursor, [&](uint64_t lo, uint64_t count) {
      if (lo == cursor) {
        return false;  // the run starts at the cursor: the scan covers it
      }
      // This run holds the cursor.
      const uint64_t hi = lo + count;
      scan_from = hi;
      if (count < min_frames) {
        return false;
      }
      first_fit = buddy.FirstFreeRun(min_frames, 0, lo);
      if (first_fit == vmem::kInvalidFrame) {
        // No earlier fit: the walk stops growing this run at the first
        // block end `e` past lo + min_frames and, unless the cursor part
        // fits by then, restarts the run at `e`.
        first_fit = lo;
        const uint64_t e = vmem::BuddyAllocator::BlockEndAtOrPast(
            lo, hi, lo + min_frames);
        if (e >= cursor) {
          if (e - cursor >= min_frames) {
            found = cursor;
          } else if (hi - e >= min_frames) {
            found = e;
          }
          return false;
        }
      }
      if (hi - cursor >= min_frames) {
        found = cursor;  // the cursor sits inside a big-enough run
      }
      return false;
    });
    if (found != vmem::kInvalidFrame) {
      return found;
    }
  }
  found = buddy.FirstFreeRun(min_frames, scan_from, buddy.frame_count());
  if (found != vmem::kInvalidFrame) {
    return found;
  }
  // Nothing fits at or past the cursor: wrap to the first fit overall.  If
  // the run holding the cursor did not settle it, that fit lies below the
  // cursor.
  return first_fit != vmem::kInvalidFrame
             ? first_fit
             : buddy.FirstFreeRun(min_frames, 0, cursor);
}

CaPagingPolicy::CaPagingPolicy(const CaPagingOptions& options)
    : ThpPolicy(options.thp) {
  options_.fault_huge = false;  // async daemon only
}

FaultDecision CaPagingPolicy::OnFault(KernelOps& kernel,
                                      const FaultInfo& info) {
  FaultDecision decision;
  auto it = offsets_.find(info.vma_id);
  if (it == offsets_.end()) {
    // First fault of this VMA: anchor it to a contiguous free run.  Failed
    // searches back off until the free map has changed materially.
    const vmem::BuddyAllocator& buddy = kernel.buddy();
    if (buddy.mutation_epoch() < search_retry_epoch_) {
      return decision;
    }
    // A search for at least as many frames as one that found nothing, with
    // no frame freed since, must fail too: skip it.
    const bool must_fail =
        buddy.frees() == no_fit_frees_ && info.vma_pages >= no_fit_frames_;
    const uint64_t run =
        must_fail ? vmem::kInvalidFrame
                  : FindContiguousRun(buddy, info.vma_pages, next_fit_cursor_);
    if (run == vmem::kInvalidFrame) {
      if (!must_fail) {
        no_fit_frees_ = buddy.frees();
        no_fit_frames_ = info.vma_pages;
      }
      search_retry_epoch_ = buddy.mutation_epoch() + 512;
      return decision;  // no contiguity available; default placement
    }
    next_fit_cursor_ = run + info.vma_pages;
    it = offsets_
             .emplace(info.vma_id, static_cast<int64_t>(info.vma_start_page) -
                                       static_cast<int64_t>(run))
             .first;
  }
  const int64_t target =
      static_cast<int64_t>(info.page) - it->second;
  if (target >= 0 &&
      static_cast<uint64_t>(target) < kernel.buddy().frame_count()) {
    decision.target_frame = static_cast<uint64_t>(target);
  }
  return decision;
}

void CaPagingPolicy::OnVmaDestroy(int32_t vma_id) { offsets_.erase(vma_id); }

}  // namespace policy
