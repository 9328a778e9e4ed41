#include "qarma/qarma64.h"

#include <array>

#include "support/bits.h"
#include "support/error.h"

namespace camo::qarma {
namespace {

// The 64-bit state is 16 4-bit cells; cell 0 is the most significant nibble,
// matching the row-major 4x4 layout of the QARMA paper (cell i sits at row
// i/4, column i%4).
constexpr unsigned cell_shift(int i) { return static_cast<unsigned>(60 - 4 * i); }

uint64_t get_cell(uint64_t v, int i) { return bits(v, cell_shift(i), 4); }

uint64_t set_cell(uint64_t v, int i, uint64_t c) {
  return insert_bits(v, cell_shift(i), 4, c);
}

/// rho^e: left rotation of a 4-bit cell by e.
constexpr uint64_t rot4(uint64_t c, int e) {
  return ((c << e) | (c >> (4 - e))) & 0xF;
}

// sigma_1, the S-box recommended for PAuth-style usage in the QARMA paper.
constexpr std::array<uint8_t, 16> kSbox = {10, 13, 14, 6, 15, 7, 3, 5,
                                           9,  8,  0,  12, 11, 1, 2, 4};
constexpr std::array<uint8_t, 16> make_inverse(const std::array<uint8_t, 16>& s) {
  std::array<uint8_t, 16> inv{};
  for (int i = 0; i < 16; ++i) inv[s[static_cast<size_t>(i)]] = static_cast<uint8_t>(i);
  return inv;
}
constexpr std::array<uint8_t, 16> kSboxInv = make_inverse(kSbox);

// Cell permutation tau (a MIDORI-style shuffle): new cell i = old cell kTau[i].
constexpr std::array<uint8_t, 16> kTau = {0, 11, 6, 13, 10, 1, 12, 7,
                                          5, 14, 3, 8,  15, 4, 9,  2};
constexpr std::array<uint8_t, 16> kTauInv = make_inverse(kTau);

// Tweak-schedule cell permutation h: new cell i = old cell kH[i].
constexpr std::array<uint8_t, 16> kH = {6, 5, 14, 15, 0, 1, 2, 3,
                                        7, 12, 13, 4, 8, 9, 10, 11};
constexpr std::array<uint8_t, 16> kHInv = make_inverse(kH);

// Cells of the tweak that pass through the LFSR omega each schedule step.
constexpr std::array<uint8_t, 7> kLfsrCells = {0, 1, 3, 4, 8, 11, 13};

// omega: b3 b2 b1 b0 -> (b0 xor b1) b3 b2 b1.
constexpr uint64_t lfsr(uint64_t c) {
  return ((((c >> 0) ^ (c >> 1)) & 1) << 3) | (c >> 1);
}
// omega^-1: n3 n2 n1 n0 -> n2 n1 n0 (n3 xor n0).
constexpr uint64_t lfsr_inv(uint64_t c) {
  return ((c << 1) & 0xF) | (((c >> 3) ^ c) & 1);
}

// Round constants: fractional digits of pi (as in PRINCE/QARMA), plus the
// reflection constant alpha.
constexpr std::array<uint64_t, 8> kRoundConst = {
    0x0000000000000000ULL, 0x13198A2E03707344ULL, 0xA4093822299F31D0ULL,
    0x082EFA98EC4E6C89ULL, 0x452821E638D01377ULL, 0xBE5466CF34E90C6CULL,
    0x3F84D5B5B5470917ULL, 0x9216D5D98979FB1BULL};
constexpr uint64_t kAlpha = 0xC0AC29B7C97C50DDULL;

uint64_t permute(uint64_t v, const std::array<uint8_t, 16>& p) {
  uint64_t out = 0;
  for (int i = 0; i < 16; ++i) out = set_cell(out, i, get_cell(v, p[static_cast<size_t>(i)]));
  return out;
}

uint64_t substitute(uint64_t v, const std::array<uint8_t, 16>& s) {
  uint64_t out = 0;
  for (int i = 0; i < 16; ++i) out = set_cell(out, i, s[get_cell(v, i)]);
  return out;
}

}  // namespace

uint64_t Qarma64::mix_columns(uint64_t state) {
  // M = circ(0, rho^1, rho^2, rho^1) applied to each column of the 4x4 cell
  // array: new row r = rho^1(row r+1) ^ rho^2(row r+2) ^ rho^1(row r+3).
  uint64_t out = 0;
  for (int col = 0; col < 4; ++col) {
    std::array<uint64_t, 4> in{};
    for (int row = 0; row < 4; ++row) in[static_cast<size_t>(row)] = get_cell(state, 4 * row + col);
    for (int row = 0; row < 4; ++row) {
      const uint64_t c = rot4(in[static_cast<size_t>((row + 1) & 3)], 1) ^
                         rot4(in[static_cast<size_t>((row + 2) & 3)], 2) ^
                         rot4(in[static_cast<size_t>((row + 3) & 3)], 1);
      out = set_cell(out, 4 * row + col, c);
    }
  }
  return out;
}

uint64_t Qarma64::shuffle(uint64_t state) { return permute(state, kTau); }
uint64_t Qarma64::inv_shuffle(uint64_t state) { return permute(state, kTauInv); }
uint64_t Qarma64::sub_cells(uint64_t state) { return substitute(state, kSbox); }
uint64_t Qarma64::inv_sub_cells(uint64_t state) {
  return substitute(state, kSboxInv);
}

uint64_t Qarma64::update_tweak(uint64_t tweak) {
  uint64_t t = permute(tweak, kH);
  for (uint8_t i : kLfsrCells) t = set_cell(t, i, lfsr(get_cell(t, i)));
  return t;
}

uint64_t Qarma64::inv_update_tweak(uint64_t tweak) {
  uint64_t t = tweak;
  for (uint8_t i : kLfsrCells) t = set_cell(t, i, lfsr_inv(get_cell(t, i)));
  return permute(t, kHInv);
}

uint64_t Qarma64::derive_w1(uint64_t w0) {
  // The orthomorphism o(x) = (x >>> 1) ^ (x >> 63).
  return ror64(w0, 1) ^ (w0 >> 63);
}

Qarma64::Qarma64(int rounds) : rounds_(rounds) {
  if (rounds < 3 || rounds > 7) fail("Qarma64: rounds must be in [3,7]");
}

uint64_t Qarma64::encrypt(uint64_t plaintext, uint64_t tweak,
                          const Key128& key) const {
  const uint64_t w0 = key.w0;
  const uint64_t w1 = derive_w1(w0);
  const uint64_t k0 = key.k0;
  const uint64_t k1 = k0;  // reflector key of the encryption specialisation

  uint64_t s = plaintext ^ w0;
  uint64_t t = tweak;

  // r forward rounds; round 0 is "short" (no shuffle / MixColumns).
  for (int i = 0; i < rounds_; ++i) {
    s ^= k0 ^ t ^ kRoundConst[static_cast<size_t>(i)];
    if (i != 0) {
      s = shuffle(s);
      s = mix_columns(s);
    }
    s = sub_cells(s);
    t = update_tweak(t);
  }

  // Central construction: one full forward round keyed by w1 + T_r, the keyed
  // pseudo-reflector tau . Q . tau^-1 with key k1, one full backward round
  // keyed by w0 + T_r.
  s ^= w1 ^ t;
  s = shuffle(s);
  s = mix_columns(s);
  s = sub_cells(s);

  s = shuffle(s);
  s = mix_columns(s);
  s ^= k1;
  s = inv_shuffle(s);

  s = inv_sub_cells(s);
  s = mix_columns(s);
  s = inv_shuffle(s);
  s ^= w0 ^ t;

  // r backward rounds mirroring the forward ones, with alpha folded into the
  // round tweakey.
  for (int i = rounds_ - 1; i >= 0; --i) {
    t = inv_update_tweak(t);
    s = inv_sub_cells(s);
    if (i != 0) {
      s = mix_columns(s);
      s = inv_shuffle(s);
    }
    s ^= k0 ^ t ^ kRoundConst[static_cast<size_t>(i)] ^ kAlpha;
  }

  return s ^ w1;
}

uint64_t Qarma64::decrypt(uint64_t ciphertext, uint64_t tweak,
                          const Key128& key) const {
  // Structural inverse of encrypt(); kept explicit (rather than relying on
  // the alpha-reflection key trick) so invertibility holds by construction.
  const uint64_t w0 = key.w0;
  const uint64_t w1 = derive_w1(w0);
  const uint64_t k0 = key.k0;
  const uint64_t k1 = k0;

  uint64_t s = ciphertext ^ w1;

  // Recompute the forward tweak sequence.
  std::array<uint64_t, 8> tseq{};
  tseq[0] = tweak;
  for (int i = 0; i < rounds_; ++i) tseq[static_cast<size_t>(i + 1)] = update_tweak(tseq[static_cast<size_t>(i)]);

  // Undo the backward rounds (forward direction).
  for (int i = 0; i < rounds_; ++i) {
    s ^= k0 ^ tseq[static_cast<size_t>(i)] ^ kRoundConst[static_cast<size_t>(i)] ^ kAlpha;
    if (i != 0) {
      s = shuffle(s);
      s = mix_columns(s);
    }
    s = sub_cells(s);
  }

  const uint64_t tr = tseq[static_cast<size_t>(rounds_)];

  // Undo the central construction.
  s ^= w0 ^ tr;
  s = shuffle(s);
  s = mix_columns(s);
  s = sub_cells(s);

  s = shuffle(s);
  s ^= k1;
  s = mix_columns(s);
  s = inv_shuffle(s);

  s = inv_sub_cells(s);
  s = mix_columns(s);
  s = inv_shuffle(s);
  s ^= w1 ^ tr;

  // Undo the forward rounds.
  uint64_t t = tr;
  for (int i = rounds_ - 1; i >= 0; --i) {
    t = inv_update_tweak(t);
    s = inv_sub_cells(s);
    if (i != 0) {
      s = mix_columns(s);
      s = inv_shuffle(s);
    }
    s ^= k0 ^ t ^ kRoundConst[static_cast<size_t>(i)];
  }

  return s ^ w0;
}

uint64_t compute_pac_cipher(uint64_t data, uint64_t modifier,
                            const Key128& key) {
  static const Qarma64 cipher(5);
  return cipher.encrypt(data, modifier, key);
}

}  // namespace camo::qarma
