// Tests for the misaligned huge page scanner (MHPS) classification.
#include "gemini/mhps.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>

#include "base/types.h"
#include "gemini/channel.h"
#include "mmu/page_table.h"
#include "vmem/buddy_allocator.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;
using gemini::GeminiChannel;
using gemini::Mhps;

class MhpsTest : public ::testing::Test {
 protected:
  MhpsTest() : guest_buddy_(16 * kPagesPerHuge) {}

  mmu::PageTable guest_;
  mmu::PageTable ept_;
  vmem::BuddyAllocator guest_buddy_;
  GeminiChannel channel_;
  Mhps mhps_;

  void Scan(base::Cycles now = 100) {
    mhps_.ScanVm(guest_, ept_, guest_buddy_, now, channel_);
  }
};

TEST_F(MhpsTest, EmptyTablesProduceEmptyLists) {
  Scan();
  EXPECT_TRUE(channel_.host_huge_misaligned.empty());
  EXPECT_TRUE(channel_.guest_huge_misaligned.empty());
  EXPECT_EQ(channel_.well_aligned_count, 0u);
}

TEST_F(MhpsTest, WellAlignedPairIsNotMisaligned) {
  guest_.MapHuge(0, 2 * kPagesPerHuge);  // GVA region 0 -> GPA region 2
  ept_.MapHuge(2, 8 * kPagesPerHuge);    // GPA region 2 -> host block
  Scan();
  EXPECT_TRUE(channel_.host_huge_misaligned.empty());
  EXPECT_TRUE(channel_.guest_huge_misaligned.empty());
  EXPECT_EQ(channel_.well_aligned_count, 1u);
  EXPECT_TRUE(channel_.GuestHugeTarget(2));
}

TEST_F(MhpsTest, HostHugeWithoutGuestHugeIsMisaligned) {
  ept_.MapHuge(3, 0);
  Scan();
  ASSERT_EQ(channel_.host_huge_misaligned.size(), 1u);
  EXPECT_TRUE(channel_.host_huge_misaligned.count(3));
  EXPECT_TRUE(channel_.guest_huge_misaligned.empty());
}

TEST_F(MhpsTest, HostHugeType1WhenGuestRangeFree) {
  ept_.MapHuge(3, 0);
  // GPA region 3's frames are entirely free in the guest buddy.
  Scan();
  EXPECT_FALSE(channel_.host_huge_misaligned.at(3).type2);
}

TEST_F(MhpsTest, HostHugeType2WhenGuestAllocatedPages) {
  ept_.MapHuge(3, 0);
  // The guest has allocated one frame of GPA region 3 (to some base page).
  ASSERT_TRUE(guest_buddy_.AllocateAt(3 * kPagesPerHuge + 17, 1));
  Scan();
  EXPECT_TRUE(channel_.host_huge_misaligned.at(3).type2);
}

TEST_F(MhpsTest, GuestHugeWithoutHostHugeIsMisaligned) {
  guest_.MapHuge(5, 4 * kPagesPerHuge);  // target GPA region 4
  Scan();
  ASSERT_EQ(channel_.guest_huge_misaligned.size(), 1u);
  EXPECT_TRUE(channel_.guest_huge_misaligned.count(4));
}

TEST_F(MhpsTest, GuestHugeType1WhenEptEmpty) {
  guest_.MapHuge(5, 4 * kPagesPerHuge);
  Scan();
  EXPECT_FALSE(channel_.guest_huge_misaligned.at(4).type2);
}

TEST_F(MhpsTest, GuestHugeType2WhenEptHasBasePages) {
  guest_.MapHuge(5, 4 * kPagesPerHuge);
  ept_.MapBase(4 * kPagesPerHuge + 9, 77);
  Scan();
  EXPECT_TRUE(channel_.guest_huge_misaligned.at(4).type2);
}

TEST_F(MhpsTest, DiscoveryTimePreservedAcrossScans) {
  ept_.MapHuge(3, 0);
  Scan(100);
  const base::Cycles discovered =
      channel_.host_huge_misaligned.at(3).discovered;
  EXPECT_EQ(discovered, 100u);
  Scan(500);
  EXPECT_EQ(channel_.host_huge_misaligned.at(3).discovered, 100u);
}

TEST_F(MhpsTest, FixedMisalignmentLeavesTheList) {
  ept_.MapHuge(3, 0);
  Scan();
  EXPECT_EQ(channel_.host_huge_misaligned.size(), 1u);
  // The guest forms the matching huge page.
  guest_.MapHuge(0, 3 * kPagesPerHuge);
  Scan();
  EXPECT_TRUE(channel_.host_huge_misaligned.empty());
  EXPECT_EQ(channel_.well_aligned_count, 1u);
}

TEST_F(MhpsTest, MixedLayoutClassifiedCorrectly) {
  // Region 0: well aligned.  Region 1: host-huge only (type 1).
  // Region 2: guest-huge only with EPT base pages (type 2).
  guest_.MapHuge(0, 0);
  ept_.MapHuge(0, 0);
  ept_.MapHuge(1, 2 * kPagesPerHuge);
  guest_.MapHuge(7, 2 * kPagesPerHuge * 0 + 2 * kPagesPerHuge);  // -> region 2
  // Adjust: guest region 7 targets GPA region 2.
  // (MapHuge(7, 2*kPagesPerHuge) maps GVA region 7 -> GPA block at frame
  //  2*kPagesPerHuge, i.e. GPA region 2.)
  ept_.MapBase(2 * kPagesPerHuge + 1, 55);
  Scan();
  EXPECT_EQ(channel_.well_aligned_count, 1u);
  ASSERT_TRUE(channel_.host_huge_misaligned.count(1));
  EXPECT_FALSE(channel_.host_huge_misaligned.at(1).type2);
  ASSERT_TRUE(channel_.guest_huge_misaligned.count(2));
  EXPECT_TRUE(channel_.guest_huge_misaligned.at(2).type2);
}

TEST_F(MhpsTest, ChannelHostHugeQuery) {
  channel_.ept = &ept_;
  ept_.MapHuge(6, 0);
  EXPECT_TRUE(channel_.HostHuge(6));
  EXPECT_FALSE(channel_.HostHuge(5));
}

TEST_F(MhpsTest, StatsAccumulate) {
  guest_.MapHuge(0, 0);
  ept_.MapHuge(0, 0);
  ept_.MapHuge(1, 2 * kPagesPerHuge);
  Scan();
  EXPECT_EQ(mhps_.stats().scans, 1u);
  EXPECT_EQ(mhps_.stats().guest_huge_seen, 1u);
  EXPECT_EQ(mhps_.stats().host_huge_seen, 2u);
  EXPECT_EQ(mhps_.stats().well_aligned, 1u);
  EXPECT_EQ(mhps_.stats().host_huge_misaligned, 1u);
}

// --- Skipped rescans ------------------------------------------------------
//
// A scan whose inputs show the mutation counters of the last full scan is
// skipped.  The reference is a scanner that always rescans: a fresh Mhps
// per scan has no last scan to reuse, so it rebuilds every time, into its
// own channel, and its tallies summed over the scans are what a scanner
// that never skips reports.

void ExpectSameRegions(const std::map<uint64_t, gemini::MisalignedRegion>& a,
                       const std::map<uint64_t, gemini::MisalignedRegion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.type2, ib->second.type2) << ia->first;
    EXPECT_EQ(ia->second.discovered, ib->second.discovered) << ia->first;
  }
}

void ExpectSameChannel(const GeminiChannel& a, const GeminiChannel& b) {
  ExpectSameRegions(a.host_huge_misaligned, b.host_huge_misaligned);
  ExpectSameRegions(a.guest_huge_misaligned, b.guest_huge_misaligned);
  EXPECT_EQ(a.guest_huge_targets, b.guest_huge_targets);
  EXPECT_EQ(a.well_aligned_count, b.well_aligned_count);
}

void ExpectSameStats(const gemini::MhpsStats& a, const gemini::MhpsStats& b) {
  EXPECT_EQ(a.scans, b.scans);
  EXPECT_EQ(a.guest_huge_seen, b.guest_huge_seen);
  EXPECT_EQ(a.host_huge_seen, b.host_huge_seen);
  EXPECT_EQ(a.well_aligned, b.well_aligned);
  EXPECT_EQ(a.host_huge_misaligned, b.host_huge_misaligned);
  EXPECT_EQ(a.guest_huge_misaligned, b.guest_huge_misaligned);
}

class MhpsSkipTest : public MhpsTest {
 protected:
  MhpsSkipTest() {
    // Region 0 well aligned; GPA region 1 host-huge only, type 2 (one
    // guest frame allocated); GVA region 7 -> GPA region 2 guest-huge only,
    // type 2 (an EPT base page); GPA region 5 fully base-mapped in the EPT
    // onto an aligned block, so it can be promoted in place.
    guest_.MapHuge(0, 0);
    ept_.MapHuge(0, 0);
    ept_.MapHuge(1, 2 * kPagesPerHuge);
    EXPECT_TRUE(guest_buddy_.AllocateAt(kPagesPerHuge + 17, 1));
    guest_.MapHuge(7, 2 * kPagesPerHuge);
    ept_.MapBase(2 * kPagesPerHuge + 1, 55);
    for (uint64_t i = 0; i < kPagesPerHuge; ++i) {
      ept_.MapBase(5 * kPagesPerHuge + i, 10 * kPagesPerHuge + i);
    }
    guest_.MapBase(9 * kPagesPerHuge + 3, 6 * kPagesPerHuge + 3);
  }

  // One scan on the scanner under test and on the reference; both must
  // leave the same channel and stats.  Returns whether the scan skipped.
  bool ScanBoth(base::Cycles now) {
    const uint64_t skipped = mhps_.stats().skipped;
    Scan(now);
    Mhps fresh;
    fresh.ScanVm(guest_, ept_, guest_buddy_, now, ref_channel_);
    const gemini::MhpsStats& f = fresh.stats();
    ++ref_stats_.scans;
    ref_stats_.guest_huge_seen += f.guest_huge_seen;
    ref_stats_.host_huge_seen += f.host_huge_seen;
    ref_stats_.well_aligned += f.well_aligned;
    ref_stats_.host_huge_misaligned += f.host_huge_misaligned;
    ref_stats_.guest_huge_misaligned += f.guest_huge_misaligned;
    ExpectSameChannel(channel_, ref_channel_);
    ExpectSameStats(mhps_.stats(), ref_stats_);
    return mhps_.stats().skipped != skipped;
  }

  GeminiChannel ref_channel_;
  gemini::MhpsStats ref_stats_;
};

TEST_F(MhpsSkipTest, UnchangedInputsSkipWithIdenticalResults) {
  EXPECT_FALSE(ScanBoth(100));  // the first scan always runs
  EXPECT_TRUE(ScanBoth(200));
  EXPECT_TRUE(ScanBoth(300));
  // A new misaligned region gets this scan's stamp; the others keep 100.
  ept_.MapHuge(3, 4 * kPagesPerHuge);
  EXPECT_FALSE(ScanBoth(400));
  EXPECT_EQ(channel_.host_huge_misaligned.at(3).discovered, 400u);
  EXPECT_EQ(channel_.host_huge_misaligned.at(1).discovered, 100u);
  EXPECT_TRUE(ScanBoth(500));
  EXPECT_EQ(channel_.host_huge_misaligned.at(3).discovered, 400u);
  EXPECT_EQ(mhps_.stats().scans, 5u);
  EXPECT_EQ(mhps_.stats().skipped, 3u);
}

TEST_F(MhpsSkipTest, EachTableOrBuddyMutationForcesARescan) {
  const std::pair<const char*, std::function<void()>> mutations[] = {
      {"MapBase", [&] { guest_.MapBase(9 * kPagesPerHuge + 4, 99); }},
      {"UnmapBase", [&] { ept_.UnmapBase(2 * kPagesPerHuge + 1); }},
      {"PromoteInPlace", [&] { ept_.PromoteInPlace(5); }},
      {"Demote", [&] { guest_.Demote(0); }},
      {"Free", [&] { guest_buddy_.Free(kPagesPerHuge + 17, 1); }},
  };
  base::Cycles now = 100;
  ScanBoth(now);
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(ScanBoth(now += 100));
    mutate();
    EXPECT_FALSE(ScanBoth(now += 100));
  }
  // The rescans saw what the mutations changed: region 2 lost its EPT
  // base page, region 0 its guest huge page, region 1 its guest frame.
  EXPECT_FALSE(channel_.guest_huge_misaligned.at(2).type2);
  EXPECT_EQ(channel_.host_huge_misaligned.count(0), 1u);
  EXPECT_FALSE(channel_.host_huge_misaligned.at(1).type2);
}

// Scanning another channel, or other tables, is never a repeat.
TEST_F(MhpsSkipTest, OtherInputsAreNeverSkipped) {
  Scan(100);
  GeminiChannel other;
  mhps_.ScanVm(guest_, ept_, guest_buddy_, 200, other);
  EXPECT_EQ(mhps_.stats().skipped, 0u);
  EXPECT_EQ(other.host_huge_misaligned.at(1).discovered, 200u);
  mmu::PageTable empty;
  mhps_.ScanVm(guest_, empty, guest_buddy_, 300, other);
  EXPECT_EQ(mhps_.stats().skipped, 0u);
  EXPECT_TRUE(other.host_huge_misaligned.empty());
}

}  // namespace
