#include "mem/phys.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"
#include "support/format.h"

namespace camo::mem {

PhysicalMemory::PhysicalMemory(uint64_t size_bytes)
    : size_(size_bytes),
      pages_((size_bytes + kPageSize - 1) >> kPageShift),
      page_gen_(pages_.size(), 0) {}

void PhysicalMemory::check(uint64_t pa, uint64_t len) const {
  if (pa > size_ || len > size_ - pa)
    fail("physical access out of range: " + hex_short(pa) + " len " +
         std::to_string(len));
}

uint8_t* PhysicalMemory::page_mut(uint64_t p) {
  if (!pages_[p]) pages_[p] = std::make_unique<uint8_t[]>(kPageSize);
  return pages_[p].get();
}

uint8_t PhysicalMemory::read8(uint64_t pa) const {
  check(pa, 1);
  const uint8_t* p = page(pa >> kPageShift);
  return p != nullptr ? p[pa & (kPageSize - 1)] : 0;
}

uint32_t PhysicalMemory::read32(uint64_t pa) const {
  check(pa, 4);
  uint32_t v;
  const uint64_t off = pa & (kPageSize - 1);
  if (off <= kPageSize - 4) {
    const uint8_t* p = page(pa >> kPageShift);
    if (p == nullptr) return 0;
    std::memcpy(&v, p + off, 4);
    return v;
  }
  copy_out(pa, &v, 4);
  return v;
}

uint64_t PhysicalMemory::read64(uint64_t pa) const {
  check(pa, 8);
  uint64_t v;
  const uint64_t off = pa & (kPageSize - 1);
  if (off <= kPageSize - 8) {
    const uint8_t* p = page(pa >> kPageShift);
    if (p == nullptr) return 0;
    std::memcpy(&v, p + off, 8);
    return v;
  }
  copy_out(pa, &v, 8);
  return v;
}

void PhysicalMemory::write8(uint64_t pa, uint8_t v) {
  check(pa, 1);
  touch(pa, 1);
  page_mut(pa >> kPageShift)[pa & (kPageSize - 1)] = v;
}

void PhysicalMemory::write32(uint64_t pa, uint32_t v) {
  check(pa, 4);
  touch(pa, 4);
  const uint64_t off = pa & (kPageSize - 1);
  if (off <= kPageSize - 4)
    std::memcpy(page_mut(pa >> kPageShift) + off, &v, 4);
  else
    copy_in(pa, &v, 4);
}

void PhysicalMemory::write64(uint64_t pa, uint64_t v) {
  check(pa, 8);
  touch(pa, 8);
  const uint64_t off = pa & (kPageSize - 1);
  if (off <= kPageSize - 8)
    std::memcpy(page_mut(pa >> kPageShift) + off, &v, 8);
  else
    copy_in(pa, &v, 8);
}

void PhysicalMemory::write_block(uint64_t pa, const void* data, uint64_t len) {
  check(pa, len);
  if (len == 0) return;
  touch(pa, len);
  copy_in(pa, data, len);
}

void PhysicalMemory::read_block(uint64_t pa, void* data, uint64_t len) const {
  check(pa, len);
  copy_out(pa, data, len);
}

void PhysicalMemory::copy_in(uint64_t pa, const void* data, uint64_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const uint64_t off = pa & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - off);
    std::memcpy(page_mut(pa >> kPageShift) + off, src, chunk);
    pa += chunk;
    src += chunk;
    len -= chunk;
  }
}

void PhysicalMemory::copy_out(uint64_t pa, void* data, uint64_t len) const {
  uint8_t* dst = static_cast<uint8_t*>(data);
  while (len > 0) {
    const uint64_t off = pa & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - off);
    const uint8_t* p = page(pa >> kPageShift);
    if (p != nullptr)
      std::memcpy(dst, p + off, chunk);
    else
      std::memset(dst, 0, chunk);
    pa += chunk;
    dst += chunk;
    len -= chunk;
  }
}

void PhysicalMemory::fill(uint64_t pa, uint8_t value, uint64_t len) {
  check(pa, len);
  if (len == 0) return;
  touch(pa, len);
  while (len > 0) {
    const uint64_t off = pa & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - off);
    const uint64_t p = pa >> kPageShift;
    // Zero-filling a page that already reads as zero needs no backing — the
    // generation bump above keeps the invalidation contract regardless.
    if (!(value == 0 && page(p) == nullptr))
      std::memset(page_mut(p) + off, value, chunk);
    pa += chunk;
    len -= chunk;
  }
}

}  // namespace camo::mem
