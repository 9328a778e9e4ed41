// Memory subsystem tests: VA layout (paper Tables 1-2, Appendix A), stage-1
// translation and permissions, stage-2 overlay (XOM), physical memory.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "mem/mmu.h"
#include "mem/phys.h"
#include "mem/valayout.h"
#include "support/error.h"

namespace camo::mem {
namespace {

constexpr uint64_t kKernBase = 0xFFFF000000080000ull;
constexpr uint64_t kUserBase = 0x0000000000400000ull;

TEST(Phys, ReadWriteWidths) {
  PhysicalMemory pm(0x10000);
  pm.write64(0x100, 0x1122334455667788ull);
  EXPECT_EQ(pm.read64(0x100), 0x1122334455667788ull);
  EXPECT_EQ(pm.read32(0x100), 0x55667788u);
  EXPECT_EQ(pm.read8(0x107), 0x11u);
  pm.write8(0x100, 0xAA);
  EXPECT_EQ(pm.read64(0x100), 0x11223344556677AAull);

  // Never-written memory reads as zero at every width, on a page with no
  // backing and next to written bytes on a backed one.
  EXPECT_EQ(pm.read8(0x8000), 0u);
  EXPECT_EQ(pm.read32(0x8004), 0u);
  EXPECT_EQ(pm.read64(0xFFF8), 0u);
  EXPECT_EQ(pm.read64(0x108), 0u);
  EXPECT_EQ(pm.read64(0x7FFC), 0u);  // straddles two unbacked pages
  uint8_t buf[16];
  std::memset(buf, 0xAB, sizeof buf);
  pm.read_block(0x8FF8, buf, sizeof buf);
  const uint8_t zeros[16] = {};
  EXPECT_EQ(std::memcmp(buf, zeros, sizeof buf), 0);

  // Accesses straddling a page boundary, including into a page that has
  // no backing yet.
  pm.write32(0x0FFE, 0xA1B2C3D4u);
  EXPECT_EQ(pm.read32(0x0FFE), 0xA1B2C3D4u);
  EXPECT_EQ(pm.read8(0x0FFF), 0xC3u);
  EXPECT_EQ(pm.read8(0x1000), 0xB2u);
  pm.write64(0x2FFB, 0x0102030405060708ull);
  EXPECT_EQ(pm.read64(0x2FFB), 0x0102030405060708ull);
  EXPECT_EQ(pm.read32(0x2FFB), 0x05060708u);
  EXPECT_EQ(pm.read32(0x2FFF), 0x01020304u);
  EXPECT_EQ(pm.read64(0x2FF8), 0x0405060708000000ull);
  EXPECT_EQ(pm.read64(0x3000), 0x0000000000010203ull);
}

TEST(Phys, OutOfRangeThrows) {
  PhysicalMemory pm(0x1000);
  EXPECT_THROW(pm.read64(0x0FFD), camo::Error);
  EXPECT_THROW(pm.write8(0x1000, 1), camo::Error);
  EXPECT_NO_THROW(pm.read64(0x0FF8));

  // A size that is not page aligned: the partial last page ends exactly at
  // size() for every accessor.
  PhysicalMemory part(0x1804);
  EXPECT_EQ(part.page_count(), 2u);
  EXPECT_NO_THROW(part.write32(0x1800, 1));
  EXPECT_THROW(part.write32(0x1801, 1), camo::Error);
  EXPECT_THROW(part.write64(0x1800, 1), camo::Error);
  EXPECT_THROW(part.read64(0x17FE), camo::Error);
  EXPECT_THROW(part.read8(0x1804), camo::Error);
  uint8_t buf[8] = {};
  EXPECT_THROW(part.write_block(0x1800, buf, 5), camo::Error);
  EXPECT_THROW(part.read_block(0x17FD, buf, 8), camo::Error);
  EXPECT_THROW(part.fill(0x1000, 0, 0x805), camo::Error);
}

TEST(Phys, BlockOps) {
  PhysicalMemory pm(0x1000);
  const char data[] = "camouflage";
  pm.write_block(0x10, data, sizeof data);
  char out[sizeof data];
  pm.read_block(0x10, out, sizeof data);
  EXPECT_STREQ(out, "camouflage");
  pm.fill(0x10, 0, sizeof data);
  EXPECT_EQ(pm.read8(0x10), 0u);

  // Block ops across the boundary into a partial last page, up to size().
  PhysicalMemory part(0x1804);
  uint8_t in[12];
  for (unsigned i = 0; i < sizeof in; ++i) in[i] = static_cast<uint8_t>(i + 1);
  part.write_block(0x17F8, in, sizeof in);
  uint8_t back[12] = {};
  part.read_block(0x17F8, back, sizeof back);
  EXPECT_EQ(std::memcmp(back, in, sizeof in), 0);
  EXPECT_EQ(part.read8(0x1803), 12u);
  EXPECT_EQ(part.read32(0x1800), 0x0C0B0A09u);
  EXPECT_EQ(part.read64(0x17F8), 0x0807060504030201ull);
  part.write8(0x1803, 0x7E);
  EXPECT_EQ(part.read8(0x1803), 0x7Eu);
  part.fill(0x17FC, 0xEE, 8);
  EXPECT_EQ(part.read64(0x17F8), 0xEEEEEEEE04030201ull);
  EXPECT_EQ(part.read32(0x1800), 0xEEEEEEEEu);
  // Unwritten bytes next to the blocks still read as zero.
  const uint8_t zeros[8] = {};
  part.read_block(0x17F0, back, 8);
  EXPECT_EQ(std::memcmp(back, zeros, 8), 0);
}

TEST(Phys, WritesBumpPageGenerationReadsDoNot) {
  PhysicalMemory pm(0x3000);
  EXPECT_EQ(pm.page_count(), 3u);
  EXPECT_EQ(pm.page_generation(0), 0u);

  pm.write8(0x10, 1);
  pm.write32(0x20, 2);
  pm.write64(0x30, 3);
  EXPECT_EQ(pm.page_generation(0), 3u);
  EXPECT_EQ(pm.page_generation(1), 0u) << "other pages untouched";

  (void)pm.read64(0x10);
  char scratch[8];
  pm.read_block(0x10, scratch, sizeof scratch);
  EXPECT_EQ(pm.page_generation(0), 3u) << "reads never bump a generation";

  // A block write spanning a page boundary bumps both pages.
  const uint8_t data[8] = {};
  pm.write_block(0x0FFC, data, 8);
  EXPECT_EQ(pm.page_generation(0), 4u);
  EXPECT_EQ(pm.page_generation(1), 1u);
  pm.fill(0x2000, 0xFF, 0x1000);
  EXPECT_EQ(pm.page_generation(2), 1u);

  // Zero-filling a page that was never written allocates nothing to read
  // back but still bumps its generation: code cached from it must go stale.
  PhysicalMemory fresh(0x2000);
  fresh.fill(0x1000, 0, 0x10);
  EXPECT_EQ(fresh.page_generation(1), 1u);
  EXPECT_EQ(fresh.page_generation(0), 0u);
  EXPECT_EQ(fresh.read64(0x1008), 0u);
  // A block of zeros bumps each page it touches once. Zeros onto a written
  // page overwrite it.
  const std::vector<uint8_t> zeros(0x1800, 0);
  fresh.write_block(0x0400, zeros.data(), zeros.size());
  EXPECT_EQ(fresh.page_generation(0), 1u);
  EXPECT_EQ(fresh.page_generation(1), 2u);
  fresh.write64(0x1ff8, ~0ull);
  const uint8_t mixed[16] = {0, 0, 0, 0, 0, 0, 0, 0, 1};
  fresh.write_block(0x0ff8, mixed, sizeof mixed);
  fresh.write_block(0x1ff0, zeros.data(), 16);
  EXPECT_EQ(fresh.read64(0x1000), 1u);
  EXPECT_EQ(fresh.read64(0x1ff8), 0u);
  EXPECT_EQ(fresh.page_generation(0), 2u);
  EXPECT_EQ(fresh.page_generation(1), 5u);
  // Out-of-range pages read as generation 0 (never hold code).
  EXPECT_EQ(pm.page_generation(1000), 0u);
}

// ---------------------------------------------------------------------------
// VaLayout
// ---------------------------------------------------------------------------

TEST(VaLayout, KernelHalfSelection) {
  EXPECT_TRUE(VaLayout::is_kernel_va(0xFFFF000000000000ull));
  EXPECT_FALSE(VaLayout::is_kernel_va(0x0000FFFFFFFFFFFFull));
  // Bit 55 is the selector even with a tag byte present.
  EXPECT_TRUE(VaLayout::is_kernel_va(uint64_t{1} << 55));
}

TEST(VaLayout, PacWidthMatchesPaper) {
  // §5.4: "with typical Linux page and virtual address configurations the
  // space remaining for the PACs is 15 bits" (kernel, TBI off). User space
  // with TBI gets 7 bits.
  VaLayout l;
  EXPECT_EQ(l.pac_width(kKernBase), 15u);
  EXPECT_EQ(l.pac_width(kUserBase), 7u);
}

TEST(VaLayout, PacWidthScalesWithVaBits) {
  // Appendix B: PACs can have up to 31 bits with small VA spaces.
  VaLayout l;
  l.va_bits = 32;
  l.tbi_kernel = false;
  EXPECT_EQ(l.pac_width(kKernBase), 31u);
  l.va_bits = 39;
  EXPECT_EQ(l.pac_width(kKernBase), 24u);
}

TEST(VaLayout, PacMaskExcludesBit55) {
  VaLayout l;
  EXPECT_FALSE(l.pac_mask(kKernBase) & (uint64_t{1} << 55));
  EXPECT_FALSE(l.pac_mask(kUserBase) & (uint64_t{1} << 55));
  // Kernel mask covers the top byte (TBI off), user mask does not.
  EXPECT_TRUE(l.pac_mask(kKernBase) & (uint64_t{1} << 63));
  EXPECT_FALSE(l.pac_mask(kUserBase) & (uint64_t{1} << 63));
}

TEST(VaLayout, Canonical) {
  VaLayout l;
  EXPECT_TRUE(l.is_canonical(kKernBase));
  EXPECT_TRUE(l.is_canonical(kUserBase));
  EXPECT_FALSE(l.is_canonical(kKernBase & ~(uint64_t{1} << 62)));
  // User pointers with a tag byte are canonical under TBI...
  EXPECT_TRUE(l.is_canonical(0xAB00000000400000ull));
  // ...but garbage in bits 54:48 is not.
  EXPECT_FALSE(l.is_canonical(0x0001000000400000ull));
  EXPECT_EQ(l.canonical(kKernBase ^ (uint64_t{1} << 60)), kKernBase);
}

TEST(VaLayout, TablesRender) {
  VaLayout l;
  const std::string t1 = l.render_table1();
  EXPECT_NE(t1.find("0xffff000000000000"), std::string::npos);
  EXPECT_NE(t1.find("Kernel"), std::string::npos);
  EXPECT_NE(t1.find("Invalid"), std::string::npos);
  const std::string t2 = l.render_table2();
  EXPECT_NE(t2.find("user="), std::string::npos);
  EXPECT_NE(t2.find("kernel=15"), std::string::npos);
  EXPECT_NE(t2.find("tttttttt"), std::string::npos);  // user tag byte
}

// ---------------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------------

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : pm(1 << 20), mmu(pm, VaLayout{}) {
    kmap.map_range(kKernBase, 0x10000, 0x3000, PagePerms::kernel_rw());
    kmap.map_range(kKernBase + 0x3000, 0x13000, 0x1000,
                   PagePerms::kernel_text());
    umap.map_range(kUserBase, 0x20000, 0x2000, PagePerms::user_rw());
    umap.map_range(kUserBase + 0x2000, 0x22000, 0x1000, PagePerms::user_text());
    mmu.set_kernel_map(&kmap);
    mmu.set_user_map(&umap);
  }
  PhysicalMemory pm;
  Stage1Map kmap, umap;
  Stage2Map s2;
  Mmu mmu;
};

TEST_F(MmuTest, BasicTranslation) {
  const auto r = mmu.translate(kKernBase + 0x1234, Access::Read, El::El1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.pa, 0x11234u);
}

TEST_F(MmuTest, UnmappedFaults) {
  const auto r = mmu.translate(kKernBase + 0x100000, Access::Read, El::El1);
  EXPECT_EQ(r.fault, FaultKind::Translation);
}

TEST_F(MmuTest, NonCanonicalAddressSizeFault) {
  const auto r =
      mmu.translate(kKernBase & ~(uint64_t{1} << 60), Access::Read, El::El1);
  EXPECT_EQ(r.fault, FaultKind::AddressSize);
}

TEST_F(MmuTest, KernelRwNotExecutable) {
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Write, El::El1).ok());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Fetch, El::El1).fault,
            FaultKind::Permission);
}

TEST_F(MmuTest, KernelTextNotWritable) {
  const uint64_t text = kKernBase + 0x3000;
  EXPECT_TRUE(mmu.translate(text, Access::Fetch, El::El1).ok());
  EXPECT_TRUE(mmu.translate(text, Access::Read, El::El1).ok());
  EXPECT_EQ(mmu.translate(text, Access::Write, El::El1).fault,
            FaultKind::Permission);
}

TEST_F(MmuTest, UserCannotTouchKernel) {
  EXPECT_EQ(mmu.translate(kKernBase, Access::Read, El::El0).fault,
            FaultKind::Permission);
  EXPECT_EQ(mmu.translate(kKernBase + 0x3000, Access::Fetch, El::El0).fault,
            FaultKind::Permission);
}

TEST_F(MmuTest, KernelCanReadUserButNotExecute) {
  // PXN semantics: kernel must never fetch from user-executable pages.
  EXPECT_TRUE(mmu.translate(kUserBase, Access::Read, El::El1).ok());
  EXPECT_TRUE(mmu.translate(kUserBase, Access::Write, El::El1).ok());
  EXPECT_EQ(mmu.translate(kUserBase + 0x2000, Access::Fetch, El::El1).fault,
            FaultKind::Permission);
}

TEST_F(MmuTest, TbiTagIgnoredForUserTranslation) {
  const uint64_t tagged = 0xAB00000000400010ull;
  const auto r = mmu.translate(tagged, Access::Read, El::El0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.pa, 0x20010u);
}

TEST_F(MmuTest, Stage2XomBlocksReadAllowsFetch) {
  // The heart of the key-concealment design (§5.1 / Appendix A.2): stage-2
  // removes the read permission that stage-1 EL1 mappings imply.
  kmap.map_range(kKernBase + 0x4000, 0x14000, 0x1000,
                 PagePerms::kernel_text());
  s2.restrict_range(0x14000, 0x1000, Stage2Map::xom());
  mmu.set_stage2(&s2);

  const uint64_t xom = kKernBase + 0x4000;
  EXPECT_TRUE(mmu.translate(xom, Access::Fetch, El::El1).ok());
  EXPECT_EQ(mmu.translate(xom, Access::Read, El::El1).fault, FaultKind::Stage2);
  EXPECT_EQ(mmu.translate(xom, Access::Write, El::El1).fault,
            FaultKind::Permission);  // stage-1 already denies writes
}

TEST_F(MmuTest, Stage2DoesNotApplyToHypervisor) {
  s2.restrict_range(0x10000, 0x1000, Stage2Map::xom());
  mmu.set_stage2(&s2);
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Read, El::El2).ok());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Read, El::El1).fault,
            FaultKind::Stage2);
}

TEST_F(MmuTest, Stage2ReadOnlyLocksData) {
  s2.restrict_range(0x10000, 0x1000, Stage2Map::read_only());
  mmu.set_stage2(&s2);
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Write, El::El1).fault,
            FaultKind::Stage2);
}

TEST_F(MmuTest, AccessorHelpers) {
  ASSERT_EQ(mmu.write64(kKernBase + 8, 0xCAFE, El::El1), FaultKind::None);
  const auto r = mmu.read64(kKernBase + 8, El::El1);
  EXPECT_EQ(r.fault, FaultKind::None);
  EXPECT_EQ(r.value, 0xCAFEu);
  EXPECT_EQ(mmu.read64(kKernBase + 0x100000, El::El1).fault,
            FaultKind::Translation);
}

TEST_F(MmuTest, ProtectRangeChangesPerms) {
  kmap.protect_range(kKernBase, 0x1000, PagePerms::kernel_ro());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Write, El::El1).fault,
            FaultKind::Permission);
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
}

TEST(Stage1Map, UnalignedMapThrows) {
  Stage1Map m;
  EXPECT_THROW(m.map_range(0x1001, 0x2000, 0x1000, PagePerms::kernel_rw()),
               camo::Error);
}

// ---------------------------------------------------------------------------
// Fast path: generation counters + micro-TLB (DESIGN.md §3c)
// ---------------------------------------------------------------------------

TEST(Stage1Map, GenerationBumpsOnEveryMutation) {
  Stage1Map m;
  EXPECT_EQ(m.generation(), 0u);
  m.map_page(0x1000, 0x2000, PagePerms::kernel_rw());
  const uint64_t g1 = m.generation();
  EXPECT_GT(g1, 0u);
  m.protect_range(0x1000, 0x1000, PagePerms::kernel_ro());
  const uint64_t g2 = m.generation();
  EXPECT_GT(g2, g1);
  m.unmap_page(0x1000);
  EXPECT_GT(m.generation(), g2);
}

TEST(Stage2Map, GenerationBumpsOnRestrict) {
  Stage2Map m;
  EXPECT_EQ(m.generation(), 0u);
  m.restrict_page(0x4000, Stage2Map::xom());
  const uint64_t g1 = m.generation();
  EXPECT_GT(g1, 0u);
  m.restrict_range(0x8000, 0x2000, Stage2Map::read_only());
  EXPECT_GT(m.generation(), g1);
}

TEST_F(MmuTest, TlbHitRepaysRepeatedTranslation) {
  const auto before = mmu.tlb_stats();
  const auto r1 = mmu.translate(kKernBase + 0x10, Access::Read, El::El1);
  const auto r2 = mmu.translate(kKernBase + 0x18, Access::Read, El::El1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.pa, r1.pa + 8);
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses + 1);
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits + 1);
}

TEST_F(MmuTest, TbiTaggedAndUntaggedShareOneTlbEntry) {
  // The TLB tag is the post-TBI canonical page number, so the tagged form
  // must hit the entry the untagged form installed (and vice versa).
  const uint64_t untagged = kUserBase + 0x10;
  const uint64_t tagged = 0xAB00000000400010ull;
  const auto r1 = mmu.translate(untagged, Access::Read, El::El0);
  const auto before = mmu.tlb_stats();
  const auto r2 = mmu.translate(tagged, Access::Read, El::El0);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.pa, r2.pa);
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits + 1) << "tagged form must hit";
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses);
}

TEST_F(MmuTest, NonCanonicalFaultsIdenticallyWithCachesOn) {
  // Warm the TLB with the legitimate pointer, then present its PAC-poisoned
  // (non-canonical) form: it must fault before the probe, for data and fetch
  // alike, exactly as with the fast path off.
  ASSERT_TRUE(mmu.translate(kUserBase, Access::Read, El::El0).ok());
  const uint64_t poisoned = kUserBase | (uint64_t{0x41} << 48);  // bits 54:48
  const auto hits_before = mmu.tlb_stats().hits;
  EXPECT_EQ(mmu.translate(poisoned, Access::Read, El::El0).fault,
            FaultKind::AddressSize);
  EXPECT_EQ(mmu.translate(poisoned, Access::Fetch, El::El0).fault,
            FaultKind::AddressSize);
  EXPECT_EQ(mmu.tlb_stats().hits, hits_before)
      << "a poisoned VA must never hit a cached translation";

  mmu.set_fast_path(false);
  EXPECT_EQ(mmu.translate(poisoned, Access::Read, El::El0).fault,
            FaultKind::AddressSize);
  EXPECT_EQ(mmu.translate(poisoned, Access::Fetch, El::El0).fault,
            FaultKind::AddressSize);
}

TEST_F(MmuTest, FaultingTranslationsAreNeverCached) {
  const uint64_t unmapped = kKernBase + 0x100000;
  EXPECT_EQ(mmu.translate(unmapped, Access::Read, El::El1).fault,
            FaultKind::Translation);
  const auto before = mmu.tlb_stats();
  EXPECT_EQ(mmu.translate(unmapped, Access::Read, El::El1).fault,
            FaultKind::Translation);
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits);
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses + 1);
}

TEST_F(MmuTest, ProtectRangeVisibleOnTheVeryNextAccess) {
  // Warm both the read and write ways, then drop the write permission: the
  // generation bump must invalidate the cached write translation instantly.
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Write, El::El1).ok());
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  kmap.protect_range(kKernBase, 0x1000, PagePerms::kernel_ro());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Write, El::El1).fault,
            FaultKind::Permission);
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
}

TEST_F(MmuTest, Stage2RestrictVisibleOnTheVeryNextAccess) {
  mmu.set_stage2(&s2);
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());  // warm
  s2.restrict_range(0x10000, 0x1000, Stage2Map::xom());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Read, El::El1).fault,
            FaultKind::Stage2);
}

TEST_F(MmuTest, MapPointerSwapFlushesTlb) {
  // Two address spaces with the same VA mapped to different PAs: the cached
  // entry from the first space must not leak into the second.
  Stage1Map other;
  other.map_range(kUserBase, 0x30000, 0x1000, PagePerms::user_rw());
  const auto r1 = mmu.translate(kUserBase, Access::Read, El::El0);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.pa, 0x20000u);
  mmu.set_user_map(&other);
  const auto r2 = mmu.translate(kUserBase, Access::Read, El::El0);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.pa, 0x30000u);
}

TEST_F(MmuTest, FastPathOffTakesNoTlbStats) {
  mmu.set_fast_path(false);
  const auto before = mmu.tlb_stats();
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits);
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses);
}

// ---------------------------------------------------------------------------
// Host pointers in the micro-TLB: a data access that hits goes straight to
// the page's backing. It must be indistinguishable from the walk through
// PhysicalMemory, which the fast-path-off Mmu takes every time.
// ---------------------------------------------------------------------------

/// One Mmu over its own memory; both sides of the fuzz share the maps.
struct Side {
  Side(const Stage1Map& k, const Stage1Map& u, const Stage2Map& s2, bool fast)
      : mmu(pm, VaLayout{}) {
    mmu.set_kernel_map(&k);
    mmu.set_user_map(&u);
    mmu.set_stage2(&s2);
    mmu.set_fast_path(fast);
  }
  /// One operation; `threw` is set when PhysicalMemory rejected the PA.
  Mmu::Read64 apply(int op, uint64_t va, El el, uint64_t v, bool& threw) {
    threw = false;
    try {
      switch (op) {
        case 0: return mmu.read8(va, el);
        case 1: return mmu.read64(va, el);
        case 2: return {mmu.write8(va, static_cast<uint8_t>(v), el), 0};
        default: return {mmu.write64(va, v, el), 0};
      }
    } catch (const camo::Error&) {
      threw = true;
      return {};
    }
  }
  // Not page aligned: the partial last page at 0x20000 ends at 0x20804.
  PhysicalMemory pm{0x20804};
  Mmu mmu;
};

TEST(MmuHostPointer, DifferentialFuzzAgainstTheFastPathOff) {
  Stage1Map kmap, umap;
  Stage2Map s2;
  // Kernel: four rw pages (0x10000..; the first two pre-written, the last
  // two never written), a text page, and a page mapped onto the partial
  // last physical page. User: two rw pages. Pages 0x5000 above kKernBase
  // and 0x2000 above kUserBase stay unmapped.
  kmap.map_range(kKernBase, 0x10000, 0x4000, PagePerms::kernel_rw());
  kmap.map_range(kKernBase + 0x4000, 0x14000, 0x1000,
                 PagePerms::kernel_text());
  kmap.map_range(kKernBase + 0x6000, 0x20000, 0x1000, PagePerms::kernel_rw());
  umap.map_range(kUserBase, 0x18000, 0x2000, PagePerms::user_rw());
  Side fast(kmap, umap, s2, true), slow(kmap, umap, s2, false);
  for (Side* s : {&fast, &slow}) {
    std::vector<uint8_t> bytes(0x2000);
    for (size_t i = 0; i < bytes.size(); ++i)
      bytes[i] = static_cast<uint8_t>(i * 7 + 1);
    s->pm.write_block(0x10000, bytes.data(), bytes.size());
    s->pm.write_block(0x14000, bytes.data(), 0x1000);
  }

  const uint64_t kern_pages[] = {0, 0x1000, 0x2000, 0x3000,
                                 0x4000, 0x5000, 0x6000};
  std::mt19937_64 rng(0xC0FFEE);
  uint64_t translated = 0;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t r = rng();
    // Every 500 operations flip the kernel rw pages to read-only (and
    // back), and the stage-2 permission of the second one.
    if (i % 500 == 250) {
      kmap.protect_range(kKernBase, 0x4000, (i / 500) % 2 != 0
                                                ? PagePerms::kernel_rw()
                                                : PagePerms::kernel_ro());
    }
    if (i % 500 == 400) {
      s2.restrict_page(0x11000, (i / 500) % 2 != 0 ? Stage2Map::Perms{}
                                                   : Stage2Map::read_only());
    }
    const int op = static_cast<int>(r & 3);
    // Offsets: the start, the last whole word, every straddling offset
    // 4089..4095, or anywhere in the page.
    uint64_t off;
    switch ((r >> 2) % 4) {
      case 0: off = (r >> 8) % 8 * 8; break;
      case 1: off = 0xFF8; break;
      case 2: off = 0xFF9 + (r >> 8) % 7; break;
      default: off = (r >> 8) & 0xFFF; break;
    }
    uint64_t va;
    El el = El::El1;
    switch ((r >> 20) % 6) {
      case 0:  // user, at EL0, under a random TBI tag
        va = ((r >> 32) << 56) | (kUserBase + ((r >> 24) % 2) * 0x1000 + off);
        el = El::El0;
        break;
      case 1:  // user page or the unmapped one above it, at EL1
        va = kUserBase + ((r >> 24) % 3) * 0x1000 + off;
        break;
      case 2:  // PAC-poisoned kernel pointer (non-canonical)
        va = (kKernBase + off) & ~(uint64_t{((r >> 24) & 0x7F) | 1} << 48);
        break;
      default:
        va = kKernBase + kern_pages[(r >> 24) % 7] + off;
        break;
    }
    const uint64_t v = rng();
    bool fast_threw, slow_threw;
    const Mmu::Read64 a = fast.apply(op, va, el, v, fast_threw);
    const Mmu::Read64 b = slow.apply(op, va, el, v, slow_threw);
    ASSERT_EQ(fast_threw, slow_threw) << "op " << i << " va " << std::hex << va;
    ASSERT_EQ(a.fault, b.fault) << "op " << i << " va " << std::hex << va;
    ASSERT_EQ(a.value, b.value) << "op " << i << " va " << std::hex << va;
    if (a.fault != FaultKind::AddressSize) ++translated;
    for (uint64_t p = 0; p < fast.pm.page_count(); ++p)
      ASSERT_EQ(fast.pm.page_generation(p), slow.pm.page_generation(p))
          << "op " << i << " page " << p;
    if (op >= 2) {
      std::vector<uint8_t> x(fast.pm.size()), y(slow.pm.size());
      fast.pm.read_block(0, x.data(), x.size());
      slow.pm.read_block(0, y.data(), y.size());
      ASSERT_EQ(x, y) << "op " << i << " va " << std::hex << va;
    }
  }
  const auto& st = fast.mmu.tlb_stats();
  EXPECT_EQ(st.hits + st.misses, translated);
  EXPECT_GT(st.hits, translated / 2);
  EXPECT_EQ(slow.mmu.tlb_stats().hits + slow.mmu.tlb_stats().misses, 0u);
}

TEST(MmuHostPointer, ZeroPageReaderSeesWritesFromAnotherCoreAndTheHost) {
  // Core 0 caches a translation of a page that has no backing yet; core 1
  // (its own Mmu over the same memory) and then the host write it. Core
  // 0's entry must not keep reading zeros.
  PhysicalMemory pm(1 << 20);
  Stage1Map kmap;
  kmap.map_range(kKernBase, 0x10000, 0x2000, PagePerms::kernel_rw());
  Mmu core0(pm, VaLayout{}), core1(pm, VaLayout{});
  core0.set_kernel_map(&kmap);
  core1.set_kernel_map(&kmap);

  EXPECT_EQ(core0.read64(kKernBase + 8, El::El1).value, 0u);
  EXPECT_EQ(core0.read8(kKernBase + 8, El::El1).value, 0u);
  ASSERT_EQ(core1.write64(kKernBase + 8, 0x1122334455667788ull, El::El1),
            FaultKind::None);
  EXPECT_EQ(core0.read64(kKernBase + 8, El::El1).value, 0x1122334455667788ull);
  EXPECT_EQ(core0.read8(kKernBase + 9, El::El1).value, 0x77u);
  ASSERT_EQ(core1.write8(kKernBase + 8, 0xAB, El::El1), FaultKind::None);
  EXPECT_EQ(core0.read64(kKernBase + 8, El::El1).value, 0x11223344556677ABull);

  EXPECT_EQ(core0.read64(kKernBase + 0x1010, El::El1).value, 0u);
  const uint64_t word = 0xCAFEF00D;
  pm.write_block(0x11010, &word, sizeof word);
  EXPECT_EQ(core0.read64(kKernBase + 0x1010, El::El1).value, word);
  // core 0's own store into that page bumps its generation once.
  const uint64_t gen = pm.page_generation(0x11);
  ASSERT_EQ(core0.write64(kKernBase + 0x1018, 5, El::El1), FaultKind::None);
  EXPECT_EQ(pm.page_generation(0x11), gen + 1);
  EXPECT_EQ(core1.read64(kKernBase + 0x1018, El::El1).value, 5u);
  EXPECT_EQ(core0.tlb_stats().misses, 3u) << "one per page and way";
}

}  // namespace
}  // namespace camo::mem
