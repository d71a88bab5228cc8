#include "vmem/buddy_allocator.h"

#include <algorithm>

#include "base/check.h"

namespace vmem {

using base::kMaxOrder;

namespace {

// Calls op(word_index, mask) for each word of a bitmap that bits [lo, hi)
// touch, with `mask` selecting the range's bits in that word.  hi > lo.
template <typename Op>
void ForRangeWords(uint64_t lo, uint64_t hi, Op&& op) {
  const uint64_t last = (hi - 1) >> 6;
  uint64_t mask = ~0ull << (lo & 63);
  for (uint64_t w = lo >> 6; w < last; ++w) {
    op(w, mask);
    mask = ~0ull;
  }
  op(last, mask & (~0ull >> (63 - ((hi - 1) & 63))));
}

// True if every bit of [lo, hi) is set in `map`.
bool AllSet(const std::vector<uint64_t>& map, uint64_t lo, uint64_t hi) {
  bool all = true;
  ForRangeWords(lo, hi, [&](uint64_t w, uint64_t mask) {
    all = all && (map[w] & mask) == mask;
  });
  return all;
}

// True if any bit of [lo, hi) is set in `map`.
bool AnySet(const std::vector<uint64_t>& map, uint64_t lo, uint64_t hi) {
  bool any = false;
  ForRangeWords(lo, hi, [&](uint64_t w, uint64_t mask) {
    any = any || (map[w] & mask) != 0;
  });
  return any;
}

uint64_t WordsFor(uint64_t bits) { return (bits + 63) / 64; }

}  // namespace

BuddyAllocator::BuddyAllocator(uint64_t frame_count, uint64_t selection_seed)
    : frame_count_(frame_count),
      randomize_(selection_seed != 0),
      rng_(selection_seed == 0 ? 1 : selection_seed) {
  SIM_CHECK(frame_count > 0);
  for (int o = 0; o < kMaxOrder; ++o) {
    heads_[o].assign(WordsFor(frame_count >> o), 0);
    summary_[o].assign(WordsFor(heads_[o].size()), 0);
    summary_low_[o] = summary_[o].size();
  }
  free_map_.assign(WordsFor(frame_count), 0);
  InsertFreeRange(0, frame_count);
}

void BuddyAllocator::InsertFreeBlock(uint64_t head, int order) {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  const uint64_t size = 1ull << order;
  SIM_CHECK(head % size == 0 && InRange(head, size));
  // Mark the frames free, checking that none of them already was.
  uint64_t already_free = 0;
  ForRangeWords(head, head + size, [&](uint64_t w, uint64_t mask) {
    already_free |= free_map_[w] & mask;
    free_map_[w] |= mask;
  });
  SIM_CHECK_MSG(already_free == 0,
                "block at %llu order %d overlaps free frames",
                static_cast<unsigned long long>(head), order);
  const uint64_t bit = head >> order;
  const uint64_t word = bit >> 6;
  if (heads_[order][word] == 0) {
    summary_[order][word >> 6] |= 1ull << (word & 63);
    summary_low_[order] = std::min<size_t>(summary_low_[order], word >> 6);
  }
  heads_[order][word] |= 1ull << (bit & 63);
  ++counts_[order];
  free_frames_ += size;
  ++mutation_epoch_;
}

void BuddyAllocator::RemoveFreeBlock(uint64_t head, int order) {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  const uint64_t size = 1ull << order;
  SIM_CHECK(head % size == 0 && InRange(head, size) && IsHead(head, order));
  const uint64_t bit = head >> order;
  const uint64_t word = bit >> 6;
  heads_[order][word] &= ~(1ull << (bit & 63));
  if (heads_[order][word] == 0) {
    summary_[order][word >> 6] &= ~(1ull << (word & 63));
  }
  --counts_[order];
  ForRangeWords(head, head + size,
                [&](uint64_t w, uint64_t mask) { free_map_[w] &= ~mask; });
  free_frames_ -= size;
  ++mutation_epoch_;
}

uint64_t BuddyAllocator::SelectHead(int order, uint64_t k) {
  const std::vector<uint64_t>& summary = summary_[order];
  const std::vector<uint64_t>& heads = heads_[order];
  size_t s = summary_low_[order];
  while (s < summary.size() && summary[s] == 0) {
    ++s;
  }
  summary_low_[order] = s;
  for (; s < summary.size(); ++s) {
    for (uint64_t sw = summary[s]; sw != 0; sw &= sw - 1) {
      const uint64_t w = s * 64 + static_cast<uint64_t>(__builtin_ctzll(sw));
      uint64_t hw = heads[w];
      const uint64_t in_word = static_cast<uint64_t>(__builtin_popcountll(hw));
      if (k < in_word) {
        for (; k > 0; --k) {
          hw &= hw - 1;
        }
        return (w * 64 + static_cast<uint64_t>(__builtin_ctzll(hw))) << order;
      }
      k -= in_word;
    }
  }
  SIM_CHECK_MSG(false, "order %d has fewer free blocks than counted", order);
  return kInvalidFrame;
}

uint64_t BuddyAllocator::BlockContaining(uint64_t frame, int* order) const {
  for (int o = 0; o < kMaxOrder; ++o) {
    const uint64_t size = 1ull << o;
    const uint64_t head = frame & ~(size - 1);
    if (InRange(head, size) && IsHead(head, o)) {
      *order = o;
      return head;
    }
  }
  SIM_CHECK_MSG(false, "free frame %llu is in no free block",
                static_cast<unsigned long long>(frame));
  return kInvalidFrame;
}

void BuddyAllocator::FreeBlock(uint64_t head, int order) {
  const int freed_order = order;
  // Merge with the buddy chain while the buddy block is free and whole.
  while (order < kMaxOrder - 1) {
    const uint64_t size = 1ull << order;
    const uint64_t buddy = head ^ size;
    if (buddy + size > frame_count_ || !IsHead(buddy, order)) {
      break;
    }
    RemoveFreeBlock(buddy, order);
    head = std::min(head, buddy);
    ++order;
  }
  InsertFreeBlock(head, order);
  if (tracer_ != nullptr && order != freed_order) {
    tracer_->Emit(trace::EventKind::kBuddyMerge, trace_layer_, trace_vm_, head,
                  static_cast<uint64_t>(freed_order),
                  static_cast<uint64_t>(order));
  }
}

void BuddyAllocator::InsertFreeRange(uint64_t lo, uint64_t hi) {
  while (lo < hi) {
    const int order = MaxBlockOrder(lo, hi - lo);
    FreeBlock(lo, order);
    lo += 1ull << order;
  }
}

uint64_t BuddyAllocator::Allocate(int order) {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  // Find the lowest-addressed block among the smallest sufficient orders.
  int found = -1;
  for (int o = order; o < kMaxOrder; ++o) {
    if (counts_[o] > 0) {
      found = o;
      break;
    }
  }
  if (found < 0) {
    return kInvalidFrame;
  }
  uint64_t pick = 0;
  if (randomize_) {
    // Bounded random choice among the lowest few candidates: enough entropy
    // to decorrelate physical reuse, cheap to compute.
    constexpr uint64_t kChoiceWindow = 16;
    pick = rng_.NextBelow(std::min(kChoiceWindow, counts_[found]));
  }
  const uint64_t head = SelectHead(found, pick);
  RemoveFreeBlock(head, found);
  // Split down to the requested order, returning the low half each time and
  // freeing the high half (Linux splits the same way).
  for (int o = found; o > order; --o) {
    const uint64_t half = 1ull << (o - 1);
    InsertFreeBlock(head + half, o - 1);
  }
  if (tracer_ != nullptr && found != order) {
    tracer_->Emit(trace::EventKind::kBuddySplit, trace_layer_, trace_vm_, head,
                  static_cast<uint64_t>(found), static_cast<uint64_t>(order));
  }
  return head;
}

bool BuddyAllocator::IsRangeFree(uint64_t frame, uint64_t count) const {
  if (count == 0) {
    return true;
  }
  return InRange(frame, count) && AllSet(free_map_, frame, frame + count);
}

bool BuddyAllocator::AllocateAt(uint64_t frame, uint64_t count) {
  if (count == 0) {
    return true;
  }
  if (!IsRangeFree(frame, count)) {
    return false;
  }
  const uint64_t end = frame + count;
  // Remove every free block overlapping the range, keeping the slack.
  uint64_t cursor = frame;
  while (cursor < end) {
    int order = 0;
    const uint64_t head = BlockContaining(cursor, &order);
    const uint64_t block_end = head + (1ull << order);
    RemoveFreeBlock(head, order);
    if (head < frame) {
      InsertFreeRange(head, frame);
    }
    if (block_end > end) {
      InsertFreeRange(end, block_end);
    }
    cursor = block_end;
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kBuddyAllocAt, trace_layer_, trace_vm_,
                  frame, count);
  }
  return true;
}

void BuddyAllocator::Free(uint64_t frame, uint64_t count) {
  SIM_CHECK(InRange(frame, count));
  SIM_CHECK_MSG(count == 0 || !AnySet(free_map_, frame, frame + count),
                "double free of frame %llu",
                static_cast<unsigned long long>(frame));
  if (count > 0) {
    ++frees_;
  }
  InsertFreeRange(frame, frame + count);
}

uint64_t BuddyAllocator::FirstFreeRun(uint64_t min_frames, uint64_t from,
                                      uint64_t limit) const {
  SIM_CHECK(min_frames > 0);
  limit = std::min(limit, frame_count_);
  // `open` counts the free frames that end at the current word boundary.
  uint64_t open = 0;
  // Clears the first word's frames below `from`.
  uint64_t keep = ~0ull << (from & 63);
  // Words [0, whole) lie wholly below `limit`.
  const uint64_t whole = limit >> 6;
  for (uint64_t w = from >> 6; w * 64 < limit; ++w) {
    uint64_t x = free_map_[w] & keep;
    keep = ~0ull;
    if (w >= whole) {
      x &= (1ull << (limit & 63)) - 1;
    }
    if (x == 0) {
      open = 0;
      continue;
    }
    if (x == ~0ull) {
      // Long runs span many full words: take them in a tight loop.
      open += 64;
      while (open < min_frames && w + 1 < whole &&
             free_map_[w + 1] == ~0ull) {
        ++w;
        open += 64;
      }
      if (open >= min_frames) {
        return w * 64 + 64 - open;
      }
      continue;
    }
    // The word's low ones extend the open run.
    if (open + static_cast<uint64_t>(__builtin_ctzll(~x)) >= min_frames) {
      return w * 64 - open;
    }
    // A fit wholly inside the word: y keeps bit i iff bits [i, i + len) of
    // x are all set.  Its lowest bit starts a maximal run, since a fit at
    // bit 0 would have extended the open run above.
    if (min_frames < 64) {
      uint64_t y = x;
      for (uint64_t len = 1; len < min_frames;) {
        const uint64_t step = std::min(len, min_frames - len);
        y &= y >> step;
        len += step;
      }
      if (y != 0) {
        return w * 64 + static_cast<uint64_t>(__builtin_ctzll(y));
      }
    }
    open = static_cast<uint64_t>(__builtin_clzll(~x));
  }
  return kInvalidFrame;
}

uint64_t BuddyAllocator::FreeBlocksOfOrder(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  return counts_[order];
}

int BuddyAllocator::LargestFreeOrder() const {
  for (int o = kMaxOrder - 1; o >= 0; --o) {
    if (counts_[o] > 0) {
      return o;
    }
  }
  return -1;
}

uint64_t BuddyAllocator::BlocksAvailable(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  uint64_t blocks = 0;
  for (int o = order; o < kMaxOrder; ++o) {
    blocks += counts_[o] << (o - order);
  }
  return blocks;
}

double BuddyAllocator::Fmfi(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  if (free_frames_ == 0) {
    return 1.0;
  }
  uint64_t usable = 0;
  for (int o = order; o < kMaxOrder; ++o) {
    usable += counts_[o] << o;
  }
  return 1.0 - static_cast<double>(usable) / static_cast<double>(free_frames_);
}

void BuddyAllocator::CheckInvariants() const {
  SIM_CHECK(free_map_.size() == WordsFor(frame_count_));
  // Frames covered by some free block; must end up equal to free_map_.
  std::vector<uint64_t> covered(free_map_.size(), 0);
  uint64_t total = 0;
  uint64_t blocks = 0;
  for (int o = 0; o < kMaxOrder; ++o) {
    const std::vector<uint64_t>& heads = heads_[o];
    const std::vector<uint64_t>& summary = summary_[o];
    SIM_CHECK(heads.size() == WordsFor(frame_count_ >> o));
    SIM_CHECK(summary.size() == WordsFor(heads.size()));
    uint64_t count = 0;
    for (size_t w = 0; w < heads.size(); ++w) {
      const bool nonzero = heads[w] != 0;
      SIM_CHECK_MSG(((summary[w >> 6] >> (w & 63)) & 1) == nonzero,
                    "summary bit of order %d word %zu is stale", o, w);
      SIM_CHECK(!nonzero || summary_low_[o] <= (w >> 6));
      for (uint64_t bits = heads[w]; bits != 0; bits &= bits - 1) {
        const uint64_t head =
            (w * 64 + static_cast<uint64_t>(__builtin_ctzll(bits))) << o;
        const uint64_t size = 1ull << o;
        SIM_CHECK_MSG(InRange(head, size), "free block head=%llu order=%d "
                      "past the frame space",
                      static_cast<unsigned long long>(head), o);
        SIM_CHECK_MSG(AllSet(free_map_, head, head + size),
                      "free block head=%llu order=%d has allocated frames",
                      static_cast<unsigned long long>(head), o);
        SIM_CHECK_MSG(!AnySet(covered, head, head + size),
                      "free blocks overlap at head=%llu order=%d",
                      static_cast<unsigned long long>(head), o);
        ForRangeWords(head, head + size,
                      [&](uint64_t cw, uint64_t mask) { covered[cw] |= mask; });
        // No unmerged buddy pairs.
        const uint64_t buddy = head ^ size;
        SIM_CHECK_MSG(o == kMaxOrder - 1 || !InRange(buddy, size) ||
                          !IsHead(buddy, o),
                      "unmerged buddies at %llu order %d",
                      static_cast<unsigned long long>(head), o);
        ++count;
        total += size;
      }
    }
    SIM_CHECK_MSG(count == counts_[o], "order %d counts %llu blocks, has %llu",
                  o, static_cast<unsigned long long>(counts_[o]),
                  static_cast<unsigned long long>(count));
    blocks += count;
  }
  SIM_CHECK_MSG(covered == free_map_, "free blocks do not tile the free map");
  SIM_CHECK(total == free_frames_);
  // The block walk reads blocks off free_map_; it must name the same ones.
  uint64_t walked = 0;
  ForEachFreeBlock([&](uint64_t head, int order) {
    SIM_CHECK(IsHead(head, order));
    ++walked;
  });
  SIM_CHECK(walked == blocks);
}

}  // namespace vmem
