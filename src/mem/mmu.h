// Two-stage address translation (VMSAv8 model).
//
// Stage 1 maps virtual pages to physical pages with per-EL permissions; bit
// 55 of the VA selects the user (TTBR0) or kernel (TTBR1) half. Stage 2 is a
// hypervisor-owned permission overlay keyed by physical page — this is what
// makes execute-only memory possible at EL1 (Appendix A.2): stage-1 EL1
// mappings are implicitly readable, so the hypervisor removes the read
// permission in stage 2 for the key-setter page.
//
// Translation tables are host-side structures owned by the hypervisor rather
// than guest-memory-resident tables; the paper's threat model locks all MMU
// control away from EL1 anyway (§3.1), so EL1 never walks or edits tables —
// it requests changes via hypervisor calls.
//
// Fast path (DESIGN.md §3c): every successful translation can be served from
// a small direct-mapped micro-TLB, one way per (EL, access) pair so
// permission semantics are baked into the lookup key. Entries carry the
// generation counters of the stage-1 half and the stage-2 overlay they were
// validated against; any map/unmap/protect/restrict bumps the owning map's
// generation, so a permission change is visible on the very next access.
// Swapping whole maps (SwitchUserSpace installs a different Stage1Map
// pointer) flushes the TLB outright. Faulting translations are never cached,
// so PAC-poisoned (non-canonical) pointers fault identically with the TLB on
// or off.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "mem/phys.h"
#include "mem/valayout.h"

namespace camo::mem {

enum class Access : uint8_t { Fetch, Read, Write };
enum class El : uint8_t { El0 = 0, El1 = 1, El2 = 2 };

enum class FaultKind : uint8_t {
  None,
  AddressSize,   ///< non-canonical VA (this is how PAC poisoning faults)
  Translation,   ///< no stage-1 mapping
  Permission,    ///< stage-1 permission denied
  Stage2,        ///< hypervisor (stage-2) permission denied
};

const char* fault_name(FaultKind k);

/// Process-unique id for map objects (never 0, never reused). Generation
/// counters are per-object, so a consumer that caches "map at address P had
/// generation G" could be fooled by a *different* map allocated at the same
/// address after the first was destroyed (ABA). Identity by uid instead of
/// pointer closes that hole; atomic because fleets construct maps from many
/// worker threads.
uint64_t next_map_uid();

/// Stage-1 page permissions, separately for privileged and user access.
struct PagePerms {
  bool r_el1 = false, w_el1 = false, x_el1 = false;
  bool r_el0 = false, w_el0 = false, x_el0 = false;

  static PagePerms kernel_text() { return {true, false, true, false, false, false}; }
  static PagePerms kernel_ro() { return {true, false, false, false, false, false}; }
  static PagePerms kernel_rw() { return {true, true, false, false, false, false}; }
  static PagePerms user_text() { return {true, false, false, true, false, true}; }
  static PagePerms user_ro() { return {true, false, false, true, false, false}; }
  static PagePerms user_rw() { return {true, true, false, true, true, false}; }
};

struct PageEntry {
  uint64_t pa_page = 0;
  PagePerms perms;
};

/// One half (user or kernel) of a stage-1 address space.
class Stage1Map {
 public:
  /// Map the 4 KiB page containing va to the page containing pa.
  void map_page(uint64_t va, uint64_t pa, PagePerms perms);
  /// Map a contiguous range (va, pa aligned, len rounded up to pages).
  void map_range(uint64_t va, uint64_t pa, uint64_t len, PagePerms perms);
  void unmap_page(uint64_t va);
  void protect_range(uint64_t va, uint64_t len, PagePerms perms);

  const PageEntry* lookup(uint64_t va) const;
  size_t page_count() const { return pages_.size(); }

  /// Monotonic counter bumped on every mutation (map/unmap/protect); micro-
  /// TLB entries validated against it go stale the moment the map changes.
  uint64_t generation() const { return generation_; }
  /// Process-unique object identity (see next_map_uid).
  uint64_t uid() const { return uid_; }

 private:
  static uint64_t key(uint64_t va) { return va >> VaLayout::kPageShift; }
  std::unordered_map<uint64_t, PageEntry> pages_;
  uint64_t generation_ = 0;
  uint64_t uid_ = next_map_uid();
};

/// Stage-2 permission overlay, keyed by physical page. Pages without an
/// entry get full access (the common case). The hypervisor is the only
/// writer.
class Stage2Map {
 public:
  struct Perms {
    bool read = true, write = true, exec = true;
  };

  void restrict_page(uint64_t pa, Perms p);
  void restrict_range(uint64_t pa, uint64_t len, Perms p);
  /// Execute-only: no read, no write, fetch allowed.
  static Perms xom() { return {false, false, true}; }
  /// Read-only (e.g. locking kernel text/rodata against the write primitive).
  static Perms read_only() { return {true, false, true}; }

  Perms lookup(uint64_t pa) const;

  /// Monotonic counter bumped on every restrict; see Stage1Map::generation.
  uint64_t generation() const { return generation_; }
  /// Process-unique object identity (see next_map_uid).
  uint64_t uid() const { return uid_; }

 private:
  std::unordered_map<uint64_t, Perms> pages_;
  uint64_t generation_ = 0;
  uint64_t uid_ = next_map_uid();
};

struct TranslateResult {
  FaultKind fault = FaultKind::None;
  uint64_t pa = 0;

  bool ok() const { return fault == FaultKind::None; }
};

/// The MMU: combines the VA layout, the two stage-1 halves and the stage-2
/// overlay. The CPU performs every access through it.
class Mmu {
 public:
  Mmu(PhysicalMemory& phys, VaLayout layout) : phys_(&phys), layout_(layout) {}

  void set_user_map(const Stage1Map* m) {
    user_map_ = m;
    flush_tlb();
  }
  void set_kernel_map(const Stage1Map* m) {
    kernel_map_ = m;
    flush_tlb();
  }
  void set_stage2(const Stage2Map* m) {
    stage2_ = m;
    flush_tlb();
  }
  const VaLayout& layout() const { return layout_; }
  PhysicalMemory& phys() { return *phys_; }
  const PhysicalMemory& phys() const { return *phys_; }

  /// Translate one access. Inline so the CPU's fetch/load/store hot loop can
  /// resolve a micro-TLB hit without a function call; misses (and the
  /// fast-path-off configuration) drop to the out-of-line slow walk.
  TranslateResult translate(uint64_t va, Access access, El el) const {
    // A VA whose extension bits are not proper sign extension faults before
    // translation — this is the mechanism by which PAC-poisoned pointers
    // fault. The canonical check always runs before the TLB probe, so a
    // poisoned pointer can never hit a cached translation of its untagged
    // form.
    if (!layout_.is_canonical(va)) return {FaultKind::AddressSize, 0};

    const bool kernel_half = VaLayout::is_kernel_va(va);
    const Stage1Map* map = kernel_half ? kernel_map_ : user_map_;
    if (map == nullptr) return {FaultKind::Translation, 0};

    // Under TBI the top byte does not participate in translation: reduce the
    // VA to its addressing bits and re-extend, so tagged and untagged forms
    // of the same user address hit the same page. The TLB tag uses this
    // reduced form for the same reason — both forms share one entry.
    uint64_t va_lookup = va & mask(layout_.va_bits);
    if (kernel_half) va_lookup |= ~mask(layout_.va_bits);

    if (!fast_path_) return translate_slow(va, va_lookup, map, access, el);

    const uint64_t tag = va_lookup >> VaLayout::kPageShift;
    TlbEntry& e = tlb_[way_index(el, access)][tag & (kTlbEntries - 1)];
    const uint64_t s2_gen = stage2_ != nullptr ? stage2_->generation() : 0;
    if (e.va_page == tag && e.s1_gen == map->generation() &&
        e.s2_gen == s2_gen) {
      ++tlb_stats_.hits;
      return {FaultKind::None, (e.pa_page << VaLayout::kPageShift) |
                                   (va & mask(VaLayout::kPageShift))};
    }
    return translate_miss(va, va_lookup, map, access, el, e, s2_gen);
  }

  // Convenience accessors used by the CPU and by hypervisor services.
  struct Read64 {
    FaultKind fault = FaultKind::None;
    uint64_t value = 0;
  };
  Read64 read64(uint64_t va, El el) const;
  Read64 read8(uint64_t va, El el) const;
  FaultKind write64(uint64_t va, uint64_t v, El el);
  FaultKind write8(uint64_t va, uint8_t v, El el);

  /// Everything a translation of `va` depends on besides the VA itself and
  /// the fixed layout: the identity and generation of the stage-1 half `va`
  /// selects and of the stage-2 overlay. translate() is a pure function of
  /// (va, access, el) and this snapshot, so a consumer that cached a
  /// successful translation may keep using it for as long as the snapshot
  /// compares equal — the superblock cache's validation key (DESIGN.md §3e).
  /// An absent map reads as uid 0, which no live map ever has, so installing
  /// a map where none was also invalidates.
  struct FetchEpoch {
    uint64_t s1_uid = 0, s1_gen = 0, s2_uid = 0, s2_gen = 0;
    friend bool operator==(const FetchEpoch&, const FetchEpoch&) = default;
  };
  FetchEpoch fetch_epoch(uint64_t va) const {
    const Stage1Map* map =
        VaLayout::is_kernel_va(va) ? kernel_map_ : user_map_;
    FetchEpoch e;
    if (map != nullptr) {
      e.s1_uid = map->uid();
      e.s1_gen = map->generation();
    }
    if (stage2_ != nullptr) {
      e.s2_uid = stage2_->uid();
      e.s2_gen = stage2_->generation();
    }
    return e;
  }
  /// Multi-page epoch validation (DESIGN.md §3i): true when the snapshot a
  /// consumer took for `va` still holds. A superblock trace spans several
  /// 4 KiB pages and carries one (FetchEpoch, write-generation) record per
  /// constituent page; re-checking each record through this predicate at
  /// trace entry proves every cached translation in the trace — map
  /// identity, permissions, XOM/PXN, canonicality — is still current.
  /// Generations are monotonic, so there is no ABA hazard.
  bool fetch_epoch_current(uint64_t va, const FetchEpoch& e) const {
    return fetch_epoch(va) == e;
  }

  // ---- micro-TLB ---------------------------------------------------------
  /// Enable/disable the micro-TLB (the CPU turns it on from Engine::Fast
  /// up). Translation results are bit-for-bit identical either way.
  void set_fast_path(bool on) {
    fast_path_ = on;
    flush_tlb();
  }
  /// Drop every cached translation (map-pointer swaps do this implicitly).
  void flush_tlb() const;

  struct TlbStats {
    uint64_t hits = 0;
    uint64_t misses = 0;   ///< slow-walked translations (successes installed)
    uint64_t flushes = 0;  ///< whole-TLB invalidations (map pointer swaps)
  };
  const TlbStats& tlb_stats() const { return tlb_stats_; }

 private:
  struct TlbEntry;
  TranslateResult translate_slow(uint64_t va, uint64_t va_lookup,
                                 const Stage1Map* map, Access access,
                                 El el) const;
  TranslateResult translate_miss(uint64_t va, uint64_t va_lookup,
                                 const Stage1Map* map, Access access, El el,
                                 TlbEntry& e, uint64_t s2_gen) const;
  static unsigned way_index(El el, Access access) {
    return unsigned(el) * 3 + unsigned(access);
  }

  PhysicalMemory* phys_;
  VaLayout layout_;
  const Stage1Map* user_map_ = nullptr;
  const Stage1Map* kernel_map_ = nullptr;
  const Stage2Map* stage2_ = nullptr;

  // Direct-mapped micro-TLB, one way per (EL, access). Mutable: a logically
  // const translation may install/probe cache state.
  struct TlbEntry {
    uint64_t va_page = ~uint64_t{0};  ///< tag; post-TBI canonical page number
    uint64_t pa_page = 0;
    uint64_t s1_gen = 0;  ///< Stage1Map::generation at install time
    uint64_t s2_gen = 0;  ///< Stage2Map::generation at install time
  };
  static constexpr unsigned kTlbEntries = 64;  // per (EL, access) way
  using TlbWay = std::array<TlbEntry, kTlbEntries>;
  mutable std::array<TlbWay, 9> tlb_{};  // index: el * 3 + access
  mutable TlbStats tlb_stats_;
  bool fast_path_ = true;
};

}  // namespace camo::mem
