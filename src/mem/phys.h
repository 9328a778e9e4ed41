// Paged physical memory backing the simulated machine (DESIGN.md §3j).
//
// Out-of-range physical accesses throw camo::Error: guest code can only reach
// physical memory through hypervisor-owned translations, so an out-of-range
// PA indicates a host-side bug, not modeled guest behaviour.
//
// Memory is a table of 4 KiB pages. A page that was never written has no
// backing and reads as zero, so construction costs nothing per byte; the
// first write to a page allocates its zeroed 4 KiB overlay. Reads go through
// one per-page pointer (null = zero page).
//
// Backing, once allocated, is never freed or moved, and neither table ever
// resizes: the micro-TLB (mem/mmu.h) caches a page's backing and generation
// slot and reaches both without a call (DESIGN.md §3j).
//
// Every write bumps a per-4KiB-page monotonic generation counter. The CPU's
// block cache keys decoded code by (physical page, generation), so any
// write-to-code — guest stores, the attacker's host-side write primitive,
// module .text staged by the hypervisor, the bootloader patching key-setter
// immediates — invalidates stale decodes without an explicit invalidation
// call. Reads never bump a generation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace camo::mem {

class PhysicalMemory {
 public:
  /// Fixed 4 KiB granule, matching VaLayout::kPageShift (mmu layer).
  static constexpr unsigned kPageShift = 12;
  static constexpr uint64_t kPageSize = uint64_t{1} << kPageShift;

  /// All pages start unbacked (reading as zero); no up-front fill.
  explicit PhysicalMemory(uint64_t size_bytes);
  /// Pinned: Mmus hold its address, their TLBs its pages' addresses.
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint64_t size() const { return size_; }

  uint8_t read8(uint64_t pa) const;
  uint32_t read32(uint64_t pa) const;
  uint64_t read64(uint64_t pa) const;
  void write8(uint64_t pa, uint8_t v);
  void write32(uint64_t pa, uint32_t v);
  void write64(uint64_t pa, uint64_t v);

  /// Bulk copy into physical memory (used by the loader and bootloader).
  void write_block(uint64_t pa, const void* data, uint64_t len);
  void read_block(uint64_t pa, void* data, uint64_t len) const;
  void fill(uint64_t pa, uint8_t value, uint64_t len);

  /// Monotonic write generation of the page holding `pa_page << kPageShift`.
  /// Out-of-range pages read as generation 0 (they can never hold code).
  uint64_t page_generation(uint64_t pa_page) const {
    return pa_page < page_gen_.size() ? page_gen_[pa_page] : 0;
  }
  uint64_t page_count() const { return page_gen_.size(); }

  /// Host backing of page `p`, or null while it reads as zero. Only pages
  /// wholly inside size() have one here, so an access through it never
  /// needs check(). Valid for the memory's lifetime once non-null.
  uint8_t* backing(uint64_t p) {
    return p < (size_ >> kPageShift) ? pages_[p].get() : nullptr;
  }
  /// The write generation of page `p` (null out of range), for a caller
  /// that writes through backing(p) and bumps it exactly as touch() does.
  uint64_t* generation_slot(uint64_t p) {
    return p < page_gen_.size() ? &page_gen_[p] : nullptr;
  }

 private:
  void check(uint64_t pa, uint64_t len) const;
  /// Bump the generation of every page overlapping [pa, pa+len).
  void touch(uint64_t pa, uint64_t len) {
    const uint64_t last = (pa + len - 1) >> kPageShift;
    for (uint64_t p = pa >> kPageShift; p <= last; ++p) ++page_gen_[p];
  }
  /// Writable backing of page `p`, allocated (zeroed) on first use.
  uint8_t* page_mut(uint64_t p);
  /// Page-chunked copies, no range check or generation bump.
  void copy_in(uint64_t pa, const void* data, uint64_t len);
  void copy_out(uint64_t pa, void* data, uint64_t len) const;

  /// Backing of page `p` for reads, or null when it reads as zero.
  const uint8_t* page(uint64_t p) const { return pages_[p].get(); }

  uint64_t size_ = 0;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;  ///< null = never written
  std::vector<uint64_t> page_gen_;
};

}  // namespace camo::mem
