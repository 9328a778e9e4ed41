// QARMA-64 cipher tests: algebraic properties the construction must satisfy,
// statistical diffusion checks, and the published QARMA-64 known-answer
// vectors (see the conformance note in qarma/qarma64.h).
#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "qarma/qarma64.h"
#include "support/rng.h"

namespace camo::qarma {
namespace {

// Published QARMA-64 known-answer vectors with the σ1 S-box for the Avanzi
// test input (see QarmaGolden below), at r = 5, 6 and 7 rounds.
constexpr uint64_t kKatSigma1R5 = 0x544B0AB95BDA7C3Aull;
constexpr uint64_t kKatSigma1R6 = 0xA512DD1E4E3EC582ull;
constexpr uint64_t kKatSigma1R7 = 0xEDF67FF370A483F2ull;

TEST(QarmaLayers, MixColumnsIsInvolutory) {
  // M = circ(0, rho, rho^2, rho) must be its own inverse (the paper requires
  // the central matrix Q to be involutory; QARMA-64 uses M = Q).
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t s = rng.next();
    EXPECT_EQ(Qarma64::mix_columns(Qarma64::mix_columns(s)), s);
  }
}

TEST(QarmaLayers, ShuffleInverse) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t s = rng.next();
    EXPECT_EQ(Qarma64::inv_shuffle(Qarma64::shuffle(s)), s);
    EXPECT_EQ(Qarma64::shuffle(Qarma64::inv_shuffle(s)), s);
  }
}

TEST(QarmaLayers, SubCellsInverse) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t s = rng.next();
    EXPECT_EQ(Qarma64::inv_sub_cells(Qarma64::sub_cells(s)), s);
  }
}

TEST(QarmaLayers, TweakUpdateInverse) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t t = rng.next();
    EXPECT_EQ(Qarma64::inv_update_tweak(Qarma64::update_tweak(t)), t);
    EXPECT_EQ(Qarma64::update_tweak(Qarma64::inv_update_tweak(t)), t);
  }
}

TEST(QarmaLayers, TweakUpdateHasLongPeriod) {
  // The LFSR-based schedule must not cycle quickly; check the first 64
  // iterates of a nonzero tweak are distinct.
  uint64_t t = 0x123456789ABCDEFull;
  std::vector<uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    seen.push_back(t);
    t = Qarma64::update_tweak(t);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(QarmaLayers, DeriveW1IsBijectionSample) {
  // o(x) must be injective on a sample (it is an orthomorphism).
  Xoshiro256 rng(5);
  std::vector<uint64_t> outs;
  for (int i = 0; i < 4096; ++i) outs.push_back(Qarma64::derive_w1(rng.next()));
  std::sort(outs.begin(), outs.end());
  EXPECT_EQ(std::adjacent_find(outs.begin(), outs.end()), outs.end());
}

class QarmaRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QarmaRoundTrip, DecryptInvertsEncrypt) {
  const Qarma64 cipher(GetParam());
  Xoshiro256 rng(100 + static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 300; ++i) {
    const Key128 key{rng.next(), rng.next()};
    const uint64_t p = rng.next(), t = rng.next();
    const uint64_t c = cipher.encrypt(p, t, key);
    EXPECT_EQ(cipher.decrypt(c, t, key), p);
  }
}

TEST_P(QarmaRoundTrip, BijectivePerKeyTweak) {
  const Qarma64 cipher(GetParam());
  const Key128 key{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  const uint64_t tweak = 0x5555AAAA5555AAAAull;
  std::vector<uint64_t> outs;
  for (uint64_t p = 0; p < 2048; ++p)
    outs.push_back(cipher.encrypt(p, tweak, key));
  std::sort(outs.begin(), outs.end());
  EXPECT_EQ(std::adjacent_find(outs.begin(), outs.end()), outs.end());
}

INSTANTIATE_TEST_SUITE_P(Rounds, QarmaRoundTrip, ::testing::Values(3, 5, 6, 7));

double avg_flip_distance(int which) {
  // which: 0 = plaintext bit flips, 1 = tweak, 2 = key w0, 3 = key k0
  const Qarma64 cipher(5);
  Xoshiro256 rng(42);
  uint64_t total = 0;
  int n = 0;
  for (int trial = 0; trial < 64; ++trial) {
    Key128 key{rng.next(), rng.next()};
    const uint64_t p = rng.next(), t = rng.next();
    const uint64_t base = cipher.encrypt(p, t, key);
    for (unsigned bitpos = 0; bitpos < 64; bitpos += 7) {
      const uint64_t flip = uint64_t{1} << bitpos;
      uint64_t c2;
      switch (which) {
        case 0: c2 = cipher.encrypt(p ^ flip, t, key); break;
        case 1: c2 = cipher.encrypt(p, t ^ flip, key); break;
        case 2: c2 = cipher.encrypt(p, t, {key.w0 ^ flip, key.k0}); break;
        default: c2 = cipher.encrypt(p, t, {key.w0, key.k0 ^ flip}); break;
      }
      total += static_cast<uint64_t>(std::popcount(base ^ c2));
      ++n;
    }
  }
  return static_cast<double>(total) / n;
}

TEST(QarmaDiffusion, PlaintextAvalanche) {
  const double d = avg_flip_distance(0);
  EXPECT_GT(d, 28.0);
  EXPECT_LT(d, 36.0);
}

TEST(QarmaDiffusion, TweakAvalanche) {
  const double d = avg_flip_distance(1);
  EXPECT_GT(d, 28.0);
  EXPECT_LT(d, 36.0);
}

TEST(QarmaDiffusion, WhiteningKeyAvalanche) {
  const double d = avg_flip_distance(2);
  EXPECT_GT(d, 28.0);
  EXPECT_LT(d, 36.0);
}

TEST(QarmaDiffusion, CoreKeyAvalanche) {
  const double d = avg_flip_distance(3);
  EXPECT_GT(d, 28.0);
  EXPECT_LT(d, 36.0);
}

TEST(QarmaDiffusion, OutputBitsBalanced) {
  // Each ciphertext bit should be ~50% ones over random inputs.
  const Qarma64 cipher(5);
  Xoshiro256 rng(77);
  const Key128 key{rng.next(), rng.next()};
  std::array<int, 64> ones{};
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    const uint64_t c = cipher.encrypt(rng.next(), rng.next(), key);
    for (int b = 0; b < 64; ++b) ones[static_cast<size_t>(b)] += (c >> b) & 1;
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_GT(ones[static_cast<size_t>(b)], kTrials * 42 / 100) << "bit " << b;
    EXPECT_LT(ones[static_cast<size_t>(b)], kTrials * 58 / 100) << "bit " << b;
  }
}

// Published known-answer vectors (Avanzi, "The QARMA Block Cipher Family",
// σ1 column): they pin the whole construction, reflector key included, so no
// refactor can silently change every PAC in the system.
TEST(QarmaGolden, RegressionVectors) {
  const Key128 key{0x84BE85CE9804E94Bull, 0xEC2802D4E0A488E9ull};
  const uint64_t p = 0xFB623599DA6E8127ull;
  const uint64_t t = 0x477D469DEC0B8762ull;
  const std::pair<int, uint64_t> kats[] = {
      {5, kKatSigma1R5}, {6, kKatSigma1R6}, {7, kKatSigma1R7}};
  for (const auto& [rounds, want] : kats) {
    const uint64_t c = Qarma64(rounds).encrypt(p, t, key);
    EXPECT_EQ(c, want) << "r=" << rounds;
    EXPECT_EQ(Qarma64(rounds).decrypt(c, t, key), p) << "r=" << rounds;
  }
}

}  // namespace
}  // namespace camo::qarma
