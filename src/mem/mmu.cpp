#include "mem/mmu.h"

#include <atomic>

#include "support/bits.h"
#include "support/error.h"

namespace camo::mem {

uint64_t next_map_uid() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

const char* fault_name(FaultKind k) {
  switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::AddressSize: return "address-size";
    case FaultKind::Translation: return "translation";
    case FaultKind::Permission: return "permission";
    case FaultKind::Stage2: return "stage2-permission";
  }
  return "<bad-fault>";
}

void Stage1Map::map_page(uint64_t va, uint64_t pa, PagePerms perms) {
  pages_[key(va)] = PageEntry{pa >> VaLayout::kPageShift, perms};
  ++generation_;
}

void Stage1Map::map_range(uint64_t va, uint64_t pa, uint64_t len,
                          PagePerms perms) {
  if (!is_aligned(va, VaLayout::kPageSize) || !is_aligned(pa, VaLayout::kPageSize))
    fail("map_range: unaligned base");
  for (uint64_t off = 0; off < len; off += VaLayout::kPageSize)
    map_page(va + off, pa + off, perms);
}

void Stage1Map::unmap_page(uint64_t va) {
  pages_.erase(key(va));
  ++generation_;
}

void Stage1Map::protect_range(uint64_t va, uint64_t len, PagePerms perms) {
  for (uint64_t off = 0; off < len; off += VaLayout::kPageSize) {
    auto it = pages_.find(key(va + off));
    if (it == pages_.end()) fail("protect_range: page not mapped");
    it->second.perms = perms;
  }
  ++generation_;
}

const PageEntry* Stage1Map::lookup(uint64_t va) const {
  auto it = pages_.find(key(va));
  return it == pages_.end() ? nullptr : &it->second;
}

void Stage2Map::restrict_page(uint64_t pa, Perms p) {
  pages_[pa >> VaLayout::kPageShift] = p;
  ++generation_;
}

void Stage2Map::restrict_range(uint64_t pa, uint64_t len, Perms p) {
  for (uint64_t off = 0; off < len; off += VaLayout::kPageSize)
    restrict_page(pa + off, p);
}

Stage2Map::Perms Stage2Map::lookup(uint64_t pa) const {
  auto it = pages_.find(pa >> VaLayout::kPageShift);
  return it == pages_.end() ? Perms{} : it->second;
}

TranslateResult Mmu::translate_miss(uint64_t va, uint64_t va_lookup,
                                    const Stage1Map* map, Access access, El el,
                                    TlbEntry& e, uint64_t s2_gen) const {
  const TranslateResult r = translate_slow(va, va_lookup, map, access, el);
  ++tlb_stats_.misses;
  // Faults are never cached: only a fully permission-checked success may be
  // replayed, and it is stamped with the generations it was checked against.
  if (r.ok()) {
    const uint64_t page = r.pa >> VaLayout::kPageShift;
    e = TlbEntry{va_lookup >> VaLayout::kPageShift, page, map->generation(),
                 s2_gen, phys_->backing(page), phys_->generation_slot(page)};
  }
  return r;
}

void Mmu::flush_tlb() const {
  for (auto& way : tlb_) way.fill(TlbEntry{});
  ++tlb_stats_.flushes;
}

TranslateResult Mmu::translate_slow(uint64_t va, uint64_t va_lookup,
                                    const Stage1Map* map, Access access,
                                    El el) const {
  const PageEntry* entry = map->lookup(va_lookup);
  if (entry == nullptr) return {FaultKind::Translation, 0};

  const PagePerms& p = entry->perms;
  bool allowed = false;
  if (el == El::El0) {
    allowed = access == Access::Fetch ? p.x_el0
              : access == Access::Read ? p.r_el0
                                       : p.w_el0;
  } else {
    // EL1 (and EL2 for host-service accesses) uses privileged permissions.
    // Fetching from an EL0-executable page at EL1 is denied (PXN semantics).
    allowed = access == Access::Fetch ? (p.x_el1 && !p.x_el0)
              : access == Access::Read ? p.r_el1
                                       : p.w_el1;
  }
  if (!allowed) return {FaultKind::Permission, 0};

  const uint64_t pa = (entry->pa_page << VaLayout::kPageShift) |
                      (va & mask(VaLayout::kPageShift));

  if (stage2_ != nullptr && el != El::El2) {
    const Stage2Map::Perms s2 = stage2_->lookup(pa);
    const bool ok2 = access == Access::Fetch ? s2.exec
                     : access == Access::Read ? s2.read
                                              : s2.write;
    if (!ok2) return {FaultKind::Stage2, 0};
  }
  return {FaultKind::None, pa};
}

uint64_t Mmu::load_slow(uint64_t pa, unsigned size, TlbEntry* e) const {
  const uint64_t v = size == 8 ? phys_->read64(pa) : phys_->read8(pa);
  if (e != nullptr) e->host = phys_->backing(e->pa_page);
  return v;
}

void Mmu::store_slow(uint64_t pa, uint64_t v, unsigned size, TlbEntry* e) {
  if (size == 8)
    phys_->write64(pa, v);
  else
    phys_->write8(pa, static_cast<uint8_t>(v));
  if (e != nullptr) e->host = phys_->backing(e->pa_page);
}

}  // namespace camo::mem
