// QARMA-64: the tweakable block cipher family used as the reference PAC
// algorithm for ARMv8.3 pointer authentication (R. Avanzi, "The QARMA Block
// Cipher Family", IACR ToSC 2017).
//
// QARMA-64 operates on a 64-bit block arranged as 16 4-bit cells, takes a
// 64-bit tweak (the PAuth "modifier") and a 128-bit key split into a
// whitening half w0 and a core half k0. The structure is a 3-round
// Even-Mansour construction with r forward rounds, a keyed pseudo-reflector
// and r backward rounds (we default to r = 5, the variant ARM's reference
// parameters use; r is configurable up to 7).
//
// Conformance note (see DESIGN.md §2): the ARM architecture does NOT mandate
// QARMA — the PAC hash is implementation defined. This implementation follows
// the published construction with the σ1 S-box and the encryption
// specialisation's reflector key k1 = k0 (as ARM's ComputePAC pseudocode
// does), and is known-answer verified: the test-suite checks the published
// σ1 vectors for r = 5, 6 and 7, plus the algebraic requirements
// (bijectivity per (key, tweak), involutory MixColumns, full avalanche).
#pragma once

#include <cstdint>

namespace camo::qarma {

/// 128-bit QARMA key: whitening half `w0` and core half `k0`.
struct Key128 {
  uint64_t w0 = 0;
  uint64_t k0 = 0;

  friend bool operator==(const Key128&, const Key128&) = default;
};

/// QARMA-64 cipher instance with a fixed round count.
class Qarma64 {
 public:
  /// rounds must be in [3, 7]; 5 is the standard lightweight parameter.
  explicit Qarma64(int rounds = 5);

  /// Encrypt one 64-bit block under (key, tweak).
  uint64_t encrypt(uint64_t plaintext, uint64_t tweak, const Key128& key) const;

  /// Decrypt one 64-bit block under (key, tweak). Inverse of encrypt().
  uint64_t decrypt(uint64_t ciphertext, uint64_t tweak, const Key128& key) const;

  int rounds() const { return rounds_; }

  // -- Exposed internals (used by unit tests to check algebraic properties) --

  /// MixColumns with the involutory matrix M = circ(0, rho^1, rho^2, rho^1).
  static uint64_t mix_columns(uint64_t state);
  /// Cell permutation tau.
  static uint64_t shuffle(uint64_t state);
  static uint64_t inv_shuffle(uint64_t state);
  /// S-box layer (sigma_1) and its inverse.
  static uint64_t sub_cells(uint64_t state);
  static uint64_t inv_sub_cells(uint64_t state);
  /// One tweak-schedule step (h permutation + LFSR omega on selected cells).
  static uint64_t update_tweak(uint64_t tweak);
  static uint64_t inv_update_tweak(uint64_t tweak);
  /// Orthomorphism used to derive w1 from w0.
  static uint64_t derive_w1(uint64_t w0);

 private:
  int rounds_;
};

/// Convenience: one-shot QARMA-64 encryption with the default 5 rounds.
/// This is the function the CPU model's PAuth unit calls to compute a PAC.
uint64_t compute_pac_cipher(uint64_t data, uint64_t modifier, const Key128& key);

}  // namespace camo::qarma
