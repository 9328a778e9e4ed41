// PAuth unit: PAC computation, insertion, authentication and stripping,
// following the ARMv8.3 AddPAC/Auth/Strip pseudocode shapes against the
// configured VA layout (paper Appendix B).
//
// The PAC is the QARMA-64 MAC of the canonicalized pointer under the 128-bit
// key with the modifier as tweak, truncated into the pointer's non-address
// bits (15 bits for kernel pointers, 7 for user pointers in the default
// layout). A failed authentication does not fault by itself: it poisons the
// extension bits so any later dereference takes an address-size fault — the
// CPU can optionally be configured with FPAC semantics (ARMv8.6) to fault
// immediately instead.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/valayout.h"
#include "qarma/qarma64.h"

namespace camo::cpu {

/// The five PAuth keys (Appendix B.1).
enum class PacKey : uint8_t { IA, IB, DA, DB, GA };

const char* pac_key_name(PacKey k);

/// True for the instruction keys (IA/IB), false for data keys.
constexpr bool is_instruction_key(PacKey k) {
  return k == PacKey::IA || k == PacKey::IB;
}
/// True for the B-flavour keys (IB/DB).
constexpr bool is_b_key(PacKey k) { return k == PacKey::IB || k == PacKey::DB; }

class PauthUnit {
 public:
  explicit PauthUnit(mem::VaLayout layout) : layout_(layout) {}

  const mem::VaLayout& layout() const { return layout_; }

  /// Raw PAC bits for (ptr, modifier) — already truncated & positioned into
  /// the pac_mask of ptr.
  uint64_t pac_field(uint64_t ptr, uint64_t modifier,
                     const qarma::Key128& key) const;

  /// Sign: replace the pointer's extension bits with the PAC (keeping bit 55
  /// and, under TBI, the tag byte).
  uint64_t add_pac(uint64_t ptr, uint64_t modifier,
                   const qarma::Key128& key) const;

  struct AuthResult {
    uint64_t ptr = 0;  ///< canonical pointer on success, poisoned on failure
    bool ok = false;
  };

  /// Authenticate: on success returns the canonical pointer; on failure
  /// returns the pointer with an error code in the extension bits (making it
  /// non-canonical, so dereferencing faults). `key_id` picks the error code
  /// (A-flavour vs B-flavour), mirroring the architectural poison values.
  AuthResult auth(uint64_t ptr, uint64_t modifier, const qarma::Key128& key,
                  PacKey key_id) const;

  /// Strip (XPAC): canonicalize without authentication.
  uint64_t strip(uint64_t ptr) const { return layout_.canonical(ptr); }

  /// PACGA: generic 32-bit MAC of `value` under `modifier`, in the top half.
  uint64_t pacga(uint64_t value, uint64_t modifier,
                 const qarma::Key128& key) const;

  // ---- PAC memo cache (DESIGN.md §3c) -------------------------------------
  // QARMA is a pure function of (block, modifier, key), so its results can be
  // memoized exactly: entries are tagged with the full key material, making a
  // key change a natural miss with no epoch bookkeeping. Host-side only —
  // signing and authentication results are bit-for-bit unchanged.

  /// Enable/disable the memo cache (the CPU turns it on from Engine::Fast
  /// up; standalone PauthUnit users default to the uncached cipher).
  void set_fast_path(bool on) {
    fast_path_ = on;
    cache_.clear();
    if (on) cache_.resize(kPacEntries);
  }

  struct PacCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  const PacCacheStats& pac_cache_stats() const { return pac_stats_; }

 private:
  uint64_t cipher(uint64_t block, uint64_t modifier,
                  const qarma::Key128& key) const;

  struct PacEntry {
    uint64_t block = 0;
    uint64_t modifier = 0;
    qarma::Key128 key;
    uint64_t mac = 0;
    bool valid = false;
  };
  static constexpr size_t kPacEntries = 4096;  // direct-mapped

  mem::VaLayout layout_;
  mutable std::vector<PacEntry> cache_;  ///< empty unless fast_path_
  mutable PacCacheStats pac_stats_;
  bool fast_path_ = false;
};

}  // namespace camo::cpu
