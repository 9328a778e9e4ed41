// Divergence bisector tests (DESIGN.md §3g).
//
// The exactness claim is pinned against an oracle: a machine pair advanced
// one retirement at a time, comparing obs::snapshot_digest after every
// step, finds the true first divergent retirement; bisect_divergence —
// which only probes O(log) points — must report the same index.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "compiler/instrument.h"
#include "kernel/bisect.h"
#include "kernel/workloads.h"
#include "obs/digest.h"
#include "obs/divergence.h"

namespace {

using namespace camo;  // NOLINT

kernel::BisectSide standard_side(const std::string& label,
                                 cpu::Engine engine = cpu::Engine::Trace) {
  kernel::BisectSide s;
  s.label = label;
  s.cfg.kernel.protection = compiler::ProtectionConfig::full();
  s.cfg.kernel.log_pac_failures = false;
  s.cfg.kernel.preempt = true;
  s.cfg.cpu.engine = engine;
  s.setup = [](kernel::Machine& m) {
    m.add_user_program(kernel::workloads::null_syscall(25));
    m.add_user_program(kernel::workloads::yield_loop(10));
  };
  return s;
}

// One-shot SP corruption at the first execution of sys_getpid: the handler
// and the trapframe restore path both address [SP], so the shift persists
// past the exception return (see tools/cov_tool.h).
void add_perturbation(kernel::BisectSide* s) {
  s->prepare = [](kernel::Machine& m) {
    auto fired = std::make_shared<bool>(false);
    m.cpu().add_breakpoint(m.kernel_symbol("sys_getpid"),
                           [fired](cpu::Cpu& c) {
                             if (*fired) return;
                             *fired = true;
                             c.set_sp(c.sp() - 16);
                           });
  };
}

uint64_t digest_of(const kernel::Machine& m) {
  obs::FlightSnapshot s;
  m.fill_snapshot(s);
  return obs::snapshot_digest(s, m.cpu().cycles(), m.cpu().retired());
}

std::unique_ptr<kernel::Machine> build_side(const kernel::BisectSide& s) {
  auto m = std::make_unique<kernel::Machine>(s.cfg);
  if (s.setup) s.setup(*m);
  m->boot();
  if (s.prepare) s.prepare(*m);
  return m;
}

/// Advance exactly one retirement (IRQ deliveries consume run() budget
/// without retiring, so a single run(1) is not enough).
bool step_one(kernel::Machine& m) {
  const uint64_t before = m.cpu().retired();
  while (!m.halted() && m.cpu().retired() == before) m.cpu().run(1);
  return m.cpu().retired() == before + 1;
}

/// Ground truth by exhaustive single-stepping: the 1-based index of the
/// first retirement after which the two sides' digests differ (0 = never).
uint64_t oracle_first_divergence(const kernel::BisectSide& a,
                                 const kernel::BisectSide& b,
                                 uint64_t limit) {
  auto ma = build_side(a);
  auto mb = build_side(b);
  for (uint64_t n = 1; n <= limit; ++n) {
    const bool sa = step_one(*ma);
    const bool sb = step_one(*mb);
    if (digest_of(*ma) != digest_of(*mb)) return n;
    if (!sa || !sb) break;  // both halted in lockstep
  }
  return 0;
}

TEST(Bisect, EngineCombosConverge) {
  for (const cpu::Engine e : cpu::kEngines) {
    if (e == cpu::Engine::Reference) continue;
    const obs::DivergenceReport r = kernel::bisect_divergence(
        standard_side("reference", cpu::Engine::Reference),
        standard_side(cpu::engine_name(e), e));
    EXPECT_FALSE(r.diverged) << cpu::engine_name(e);
    EXPECT_TRUE(r.a.halted);
    EXPECT_TRUE(r.b.halted);
    EXPECT_EQ(r.a.digest, r.b.digest);
    EXPECT_GT(r.compared, 0u);
  }
}

TEST(Bisect, LocalizesSeededPerturbationExactly) {
  kernel::BisectSide a = standard_side("clean");
  kernel::BisectSide b = standard_side("perturbed");
  add_perturbation(&b);

  const uint64_t truth = oracle_first_divergence(a, b, 50'000);
  ASSERT_GT(truth, 0u) << "perturbation did not perturb";

  kernel::BisectOptions opts;
  opts.digest_interval = 64;
  const obs::DivergenceReport r = kernel::bisect_divergence(a, b, opts);
  ASSERT_TRUE(r.diverged);
  EXPECT_EQ(r.first_divergent, truth);
  EXPECT_EQ(r.compared, truth - 1);
  EXPECT_EQ(r.a.retired, truth);
  EXPECT_EQ(r.b.retired, truth);
  EXPECT_NE(r.a.digest, r.b.digest);
  EXPECT_FALSE(r.a.ring.empty());
  EXPECT_FALSE(r.b.ring.empty());
  // The captured rings agree up to the divergence point: the final retired
  // instruction is the same PC on both sides (the state after differs).
  EXPECT_EQ(r.a.ring.back().pc, r.b.ring.back().pc);
}

TEST(Bisect, FirstDivergentIsIntervalInvariant) {
  kernel::BisectSide a = standard_side("clean");
  kernel::BisectSide b = standard_side("perturbed");
  add_perturbation(&b);
  kernel::BisectOptions coarse;
  coarse.digest_interval = 2048;
  kernel::BisectOptions fine;
  fine.digest_interval = 16;
  const obs::DivergenceReport rc = kernel::bisect_divergence(a, b, coarse);
  const obs::DivergenceReport rf = kernel::bisect_divergence(a, b, fine);
  ASSERT_TRUE(rc.diverged);
  ASSERT_TRUE(rf.diverged);
  EXPECT_EQ(rc.first_divergent, rf.first_divergent);
}

TEST(Bisect, BundleRoundTripsThroughValidator) {
  kernel::BisectSide a = standard_side("clean");
  kernel::BisectSide b = standard_side("perturbed");
  add_perturbation(&b);
  const obs::DivergenceReport r = kernel::bisect_divergence(a, b);
  ASSERT_TRUE(r.diverged);
  const std::string text = obs::div_bundle_json(r);
  const auto doc = obs::json::Value::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(obs::validate_div_bundle(*doc), "");
  EXPECT_NE(text.find("camo-div/v1"), std::string::npos);
  EXPECT_NE(text.find("perturbed"), std::string::npos);
}

TEST(Digest, FnvMatchesReferenceVector) {
  // FNV-1a 64-bit of the bytes 0x01 0x00 ... (one u64, little-endian).
  obs::StateDigest d;
  d.add(1);
  uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (i == 0) ? 1u : 0u;
    h *= 1099511628211ull;
  }
  EXPECT_EQ(d.value(), h);
  // Order sensitivity: (1, 2) != (2, 1).
  obs::StateDigest ab, ba;
  ab.add(1);
  ab.add(2);
  ba.add(2);
  ba.add(1);
  EXPECT_NE(ab.value(), ba.value());
}

}  // namespace
