// Security evaluation tests (§6.2): each attack's outcome under each
// protection configuration, and the modifier replay matrix (§6.2.1, §7).
#include <gtest/gtest.h>

#include "attacks/attacks.h"

namespace camo::attacks {
namespace {

using compiler::BackwardScheme;
using compiler::ProtectionConfig;

ProtectionConfig with_backward(BackwardScheme s) {
  ProtectionConfig c = ProtectionConfig::none();
  c.backward = s;
  return c;
}

TEST(RopInjection, HijacksUnprotectedKernel) {
  const auto r = run_rop_injection(ProtectionConfig::none());
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
  EXPECT_EQ(r.halt_code, kernel::kHaltPwned);
}

TEST(RopInjection, DetectedByEveryBackwardScheme) {
  for (const auto s : {BackwardScheme::ClangSp, BackwardScheme::Parts,
                       BackwardScheme::Camouflage}) {
    const auto r = run_rop_injection(with_backward(s));
    EXPECT_EQ(r.outcome, Outcome::Detected)
        << compiler::backward_scheme_name(s) << ": " << r.detail;
    EXPECT_GE(r.pac_failures, 1u);
  }
}

TEST(RopInjection, DetectedUnderFullProtection) {
  const auto r = run_rop_injection(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(RopInjection, CompatModeProtectsOn83) {
  ProtectionConfig c = ProtectionConfig::full();
  c.compat_mode = true;
  const auto r = run_rop_injection(c);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(ForwardInjection, HijacksWithoutForwardCfi) {
  const auto r = run_forward_edge_injection(ProtectionConfig::backward_only());
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
}

TEST(ForwardInjection, DetectedWithForwardCfi) {
  const auto r = run_forward_edge_injection(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(FopsRedirect, HijacksWithoutDfi) {
  ProtectionConfig c = ProtectionConfig::full();
  c.dfi = false;  // f_ops is a *data* pointer: forward CFI alone misses it
  const auto r = run_fops_redirect(c);
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
}

TEST(FopsRedirect, DetectedWithDfi) {
  const auto r = run_fops_redirect(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(FopsCrossObjectSwap, AcceptedWithoutDfi) {
  const auto r = run_fops_cross_object_swap(ProtectionConfig::none());
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
}

TEST(FopsCrossObjectSwap, DetectedWithDfi) {
  // §4.3: the modifier binds the signature to the containing object's
  // address, so a signature copied between objects fails.
  const auto r = run_fops_cross_object_swap(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(BruteForce, PanicsAtThreshold) {
  const auto r = run_bruteforce(ProtectionConfig::full(), 4, 16);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
  EXPECT_EQ(r.halt_code, kernel::kHaltPacPanic);
  EXPECT_EQ(r.pac_failures, 4u);
  EXPECT_GE(r.attempts, 4u);
}

TEST(BruteForce, HigherThresholdAllowsMoreAttempts) {
  const auto r = run_bruteforce(ProtectionConfig::full(), 8, 16);
  EXPECT_EQ(r.outcome, Outcome::Detected);
  EXPECT_EQ(r.pac_failures, 8u);
}

TEST(BruteForce, TraceAuthFailuresAgreeWithPanicThreshold) {
  // The obs trace is an independent witness of the §5.4 mitigation: the
  // AuthFail events the CPU emitted must agree with the kernel's own
  // failure count, and both must equal the panic threshold.
  for (const unsigned threshold : {2u, 4u, 8u}) {
    const auto r = run_bruteforce(ProtectionConfig::full(), threshold,
                                  threshold + 8);
    EXPECT_EQ(r.halt_code, kernel::kHaltPacPanic) << r.detail;
    EXPECT_EQ(r.pac_failures, threshold);
    EXPECT_EQ(r.trace_auth_failures, threshold)
        << "trace view disagrees with the kernel's PAC failure count";
  }
}

TEST(TrapframeEscalation, HijacksWithoutTrapframeProtection) {
  // §8: forged saved ELR/SPSR gives ERET-to-EL1 code execution even on a
  // kernel with full pointer protection — saved exception state is data.
  const auto r = run_trapframe_escalation(ProtectionConfig::full(), false);
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
  EXPECT_EQ(r.halt_code, kernel::kHaltPwned);
}

TEST(TrapframeEscalation, DetectedWithTrapframeProtection) {
  const auto r = run_trapframe_escalation(ProtectionConfig::full(), true);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
  EXPECT_GE(r.pac_failures, 1u);
}

TEST(TrapframeEscalation, CompatBuildAlsoProtects) {
  ProtectionConfig c = ProtectionConfig::full();
  c.compat_mode = true;
  const auto r = run_trapframe_escalation(c, true);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(ZeroModifierAblation, CrossObjectReuseAccepted) {
  // Apple-style zero modifiers preserve memcpy but make signatures
  // location-independent: the cross-object swap now authenticates (§7).
  ProtectionConfig c = ProtectionConfig::full();
  c.apple_zero_modifier = true;
  const auto r = run_fops_cross_object_swap(c);
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
}

TEST(ZeroModifierAblation, StillDetectsRawInjection) {
  // Even with zero modifiers, *unsigned* pointer injection fails: the value
  // has no valid PAC at all.
  ProtectionConfig c = ProtectionConfig::full();
  c.apple_zero_modifier = true;
  const auto r = run_fops_redirect(c);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(KeyExtraction, BlockedByXom) {
  const auto r = run_key_extraction(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Blocked) << r.detail;
}

TEST(RodataTamper, BlockedByStage2) {
  const auto r = run_rodata_tamper(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Blocked) << r.detail;
}

// ---------------------------------------------------------------------------
// Replay matrix
// ---------------------------------------------------------------------------

struct ReplayExpect {
  BackwardScheme scheme;
  ReplayScenario scenario;
  bool accepted;
};

class ReplayMatrix : public ::testing::TestWithParam<ReplayExpect> {};

TEST_P(ReplayMatrix, HostAlgebraMatchesExpectation) {
  const auto& p = GetParam();
  EXPECT_EQ(replay_accepted(p.scheme, p.scenario), p.accepted);
}

TEST_P(ReplayMatrix, CpuExecutionMatchesAlgebra) {
  const auto& p = GetParam();
  EXPECT_EQ(replay_accepted_on_cpu(p.scheme, p.scenario), p.accepted);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReplayMatrix,
    ::testing::Values(
        // Same function, same SP: residual replay window for everyone.
        ReplayExpect{BackwardScheme::ClangSp,
                     ReplayScenario::SameFunctionSameSp, true},
        ReplayExpect{BackwardScheme::Parts,
                     ReplayScenario::SameFunctionSameSp, true},
        ReplayExpect{BackwardScheme::Camouflage,
                     ReplayScenario::SameFunctionSameSp, true},
        // Different function, same SP: breaks the SP-only Clang scheme.
        ReplayExpect{BackwardScheme::ClangSp,
                     ReplayScenario::DiffFunctionSameSp, true},
        ReplayExpect{BackwardScheme::Parts,
                     ReplayScenario::DiffFunctionSameSp, false},
        ReplayExpect{BackwardScheme::Camouflage,
                     ReplayScenario::DiffFunctionSameSp, false},
        // Stacks 2^16 apart: the PARTS weakness §7 identifies.
        ReplayExpect{BackwardScheme::ClangSp,
                     ReplayScenario::CrossThread64kStacks, false},
        ReplayExpect{BackwardScheme::Parts,
                     ReplayScenario::CrossThread64kStacks, true},
        ReplayExpect{BackwardScheme::Camouflage,
                     ReplayScenario::CrossThread64kStacks, false},
        // Fully different context: everyone rejects.
        ReplayExpect{BackwardScheme::ClangSp,
                     ReplayScenario::DiffFunctionDiffSp, false},
        ReplayExpect{BackwardScheme::Parts,
                     ReplayScenario::DiffFunctionDiffSp, false},
        ReplayExpect{BackwardScheme::Camouflage,
                     ReplayScenario::DiffFunctionDiffSp, false}),
    [](const auto& info) {
      std::string n = compiler::backward_scheme_name(info.param.scheme);
      n += "_";
      n += std::to_string(static_cast<int>(info.param.scenario));
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(ReplayMatrix, CamouflageStrictlyStrongerThanBoth) {
  // Count accepted replays per scheme over all non-trivial scenarios.
  auto count = [](BackwardScheme s) {
    int n = 0;
    for (const auto sc :
         {ReplayScenario::DiffFunctionSameSp,
          ReplayScenario::CrossThread64kStacks,
          ReplayScenario::DiffFunctionDiffSp})
      n += replay_accepted(s, sc);
    return n;
  };
  EXPECT_EQ(count(BackwardScheme::Camouflage), 0);
  EXPECT_GT(count(BackwardScheme::ClangSp), 0);
  EXPECT_GT(count(BackwardScheme::Parts), 0);
}

}  // namespace
}  // namespace camo::attacks
