// §6.2 Security evaluation: the attack/outcome matrix.
//
// Rows are concrete attacks mounted with the threat-model primitive (§3.1);
// columns are protection configurations. Expected shape:
//   * the unprotected kernel is hijacked by pointer injection,
//   * every PAuth-protected class of pointer detects injection,
//   * f_ops redirection is only caught when DFI protects data pointers
//     (forward-edge CFI alone is insufficient — §4.5),
//   * cross-object signature reuse is rejected (48-bit address modifier),
//   * key extraction and rodata tampering are blocked outright,
// plus the backward-edge replay matrix (§6.2.1/§7) separating the three
// modifier schemes.
#include <cstdio>
#include <functional>
#include <iterator>

#include "attacks/attacks.h"
#include "bench_util.h"

namespace {

using namespace camo;  // NOLINT
using attacks::AttackReport;
using attacks::Outcome;
using compiler::BackwardScheme;
using compiler::ProtectionConfig;

using AttackFn = AttackReport (*)(const ProtectionConfig&);

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv, "Section 6.2",
                         "security evaluation matrix",
                         "PAuth detects pointer injection; modifiers bind "
                         "signatures to object/function/SP context; XOM and "
                         "stage-2 block key leaks and rodata tampering");

  struct Attack {
    const char* name;
    AttackFn fn;
  };
  const Attack attack_rows[] = {
      {"ROP: saved-LR overwrite (§2.1)", attacks::run_rop_injection},
      {"JOP: hook-pointer injection (§4.4)",
       attacks::run_forward_edge_injection},
      {"f_ops redirect to fake table (§4.5)", attacks::run_fops_redirect},
      {"f_ops cross-object reuse (§4.3)",
       attacks::run_fops_cross_object_swap},
      {"key extraction via reads (§6.2.2)", attacks::run_key_extraction},
      {"ops-table tamper in .rodata", attacks::run_rodata_tamper},
  };

  struct Cfg {
    const char* name;
    ProtectionConfig prot;
  };
  ProtectionConfig compat = ProtectionConfig::full();
  compat.compat_mode = true;
  const Cfg cfgs[] = {
      {"none", ProtectionConfig::none()},
      {"backward", ProtectionConfig::backward_only()},
      {"full", ProtectionConfig::full()},
      {"full+compat", compat},
  };

  // Under --smoke only the two extreme configurations run; the full matrix
  // is the default.
  const size_t ncfg = session.smoke() ? 3 : 4;

  // Every attack machine also collects a PA-keyed execution coverage map
  // (DESIGN.md §3g); the knob is process-wide and must be set before the
  // fleet spawns workers.
  attacks::collect_coverage() = true;

  // Every cell of the matrix — and every one-off attack below it — boots
  // its own machine; all are independent, so the whole sweep is computed
  // through the session's work-stealing fleet first and printed serially
  // afterwards in the original row-major order. stdout and the emitted
  // JSON are byte-identical to the serial code at any --jobs value.
  const size_t nrows = std::size(attack_rows);
  const auto reports = session.fleet(nrows * ncfg, [&](size_t t) {
    return attack_rows[t / ncfg].fn(cfgs[t % ncfg].prot);
  });

  ProtectionConfig zero = ProtectionConfig::full();
  zero.apple_zero_modifier = true;
  const std::function<AttackReport()> extra_runs[] = {
      [] { return attacks::run_bruteforce(ProtectionConfig::full(), 8, 16); },
      [] {
        return attacks::run_trapframe_escalation(ProtectionConfig::full(),
                                                 false);
      },
      [] {
        return attacks::run_trapframe_escalation(ProtectionConfig::full(),
                                                 true);
      },
      [&zero] { return attacks::run_fops_cross_object_swap(zero); },
      [] {
        return attacks::run_fops_cross_object_swap(ProtectionConfig::full());
      },
  };
  const auto extras =
      session.fleet(std::size(extra_runs), [&](size_t i) {
        return extra_runs[i]();
      });

  std::printf("%-38s", "attack \\ protection");
  for (size_t ci = 0; ci < ncfg; ++ci) std::printf(" %-12s", cfgs[ci].name);
  std::printf("\n%.*s\n", 96,
              "--------------------------------------------------------------"
              "--------------------------------------------------");
  for (size_t ri = 0; ri < nrows; ++ri) {
    const auto& a = attack_rows[ri];
    std::printf("%-38s", a.name);
    for (size_t ci = 0; ci < ncfg; ++ci) {
      const Outcome o = reports[ri * ncfg + ci].outcome;
      std::printf(" %-12s", attacks::outcome_name(o));
      session.add(cfgs[ci].name, a.name, static_cast<double>(o),
                  "outcome (0=hijacked 1=detected 2=blocked)");
    }
    std::printf("\n");
  }

  // Brute force (§5.4) under the default threshold.
  {
    const AttackReport& r = extras[0];
    std::printf("%-38s %s after %llu attempts (threshold 8, halt=0x%llx)\n",
                "PAC brute force (§5.4)", attacks::outcome_name(r.outcome),
                static_cast<unsigned long long>(r.attempts),
                static_cast<unsigned long long>(r.halt_code));
    session.add("full", "PAC brute force attempts",
                static_cast<double>(r.attempts), "tries");
  }

  // §8 extension: forged saved exception state (ERET-to-EL1 escalation).
  {
    const AttackReport& off = extras[1];
    const AttackReport& on = extras[2];
    std::printf("%-38s %s; with signed trapframe (§8 ext.): %s\n",
                "trapframe ELR/SPSR rewrite (§8)",
                attacks::outcome_name(off.outcome),
                attacks::outcome_name(on.outcome));
    session.add("full", "trapframe rewrite",
                static_cast<double>(off.outcome),
                "outcome (0=hijacked 1=detected 2=blocked)");
    session.add("full+signed-trapframe", "trapframe rewrite",
                static_cast<double>(on.outcome),
                "outcome (0=hijacked 1=detected 2=blocked)");
  }

  // Ablation: Apple-style zero modifiers (§7) lose object binding.
  {
    std::printf("%-38s %s (object-bound modifier: %s)\n",
                "cross-object reuse, zero modifier",
                attacks::outcome_name(extras[3].outcome),
                attacks::outcome_name(extras[4].outcome));
  }

  // Replay matrix.
  std::printf("\nbackward-edge replay acceptance (✓ = replay authenticates, "
              "i.e. scheme is bypassed):\n");
  std::printf("%-28s %-10s %-10s %-12s\n", "scenario", "clang-sp", "parts",
              "camouflage");
  const attacks::ReplayScenario scenarios[] = {
      attacks::ReplayScenario::SameFunctionSameSp,
      attacks::ReplayScenario::DiffFunctionSameSp,
      attacks::ReplayScenario::CrossThread64kStacks,
      attacks::ReplayScenario::DiffFunctionDiffSp,
  };
  const struct {
    const char* name;
    BackwardScheme scheme;
  } schemes[] = {{"clang-sp", BackwardScheme::ClangSp},
                 {"parts", BackwardScheme::Parts},
                 {"camouflage", BackwardScheme::Camouflage}};
  // The on-CPU replay checks each boot a machine; shard them like the
  // matrix (int, not bool: vector<bool> packs bits and concurrent writes
  // to neighbouring cells would race).
  const size_t nschemes = std::size(schemes);
  const auto cpu_accepts = session.fleet(
      std::size(scenarios) * nschemes, [&](size_t t) {
        return static_cast<int>(attacks::replay_accepted_on_cpu(
            schemes[t % nschemes].scheme, scenarios[t / nschemes]));
      });
  for (size_t si = 0; si < std::size(scenarios); ++si) {
    const auto sc = scenarios[si];
    std::printf("%-28s", attacks::replay_scenario_name(sc));
    for (size_t ki = 0; ki < nschemes; ++ki) {
      const auto& sch = schemes[ki];
      const bool host = attacks::replay_accepted(sch.scheme, sc);
      const bool cpu = cpu_accepts[si * nschemes + ki] != 0;
      std::printf(" %-10s", host == cpu ? (host ? "  BYPASS" : "  caught")
                                        : "MISMATCH");
      if (sch.scheme == BackwardScheme::Parts) std::printf("  ");
      session.add(sch.name,
                  std::string("replay: ") + attacks::replay_scenario_name(sc),
                  host == cpu ? (host ? 1.0 : 0.0) : -1.0,
                  "accepted (1=bypass 0=caught -1=model mismatch)");
    }
    std::printf("\n");
  }
  std::printf("\n(Camouflage is bypassed only by same-function/same-SP "
              "replay, which the paper acknowledges as residual: 'the "
              "function address does not completely prevent reuse'.)\n");

  // Execution coverage (§3g): merge each configuration's column of attack
  // runs in row order — deterministic at any --jobs — then fold the one-off
  // runs into the overall map. The cov.* series is informational
  // (camo-perfdiff never gates on it); --cov additionally writes the merged
  // camo-cov/v1 bundle that `camo-cov report` consumes.
  std::printf("\nexecution coverage per configuration (informational):\n");
  obs::CoverageMap all_cov;
  uint64_t cov_machines = 0;
  for (size_t ci = 0; ci < ncfg; ++ci) {
    obs::CoverageMap cfg_cov;
    for (size_t ri = 0; ri < nrows; ++ri) {
      const auto& cov = reports[ri * ncfg + ci].coverage;
      if (!cov) continue;
      cfg_cov.merge_from(*cov);
      ++cov_machines;
    }
    session.add_coverage(cfgs[ci].name, cfg_cov);
    all_cov.merge_from(cfg_cov);
  }
  for (const AttackReport& r : extras)
    if (r.coverage) {
      all_cov.merge_from(*r.coverage);
      ++cov_machines;
    }
  if (!session.cov_path().empty() &&
      !bench::Session::write_coverage_bundle(session.cov_path(), all_cov,
                                             "security-matrix", cov_machines))
    return 1;

  // --flight-rec: run the forged-return attack once more with flight-bundle
  // capture and write the camo-flight/v1 replay bundle — the producer side
  // of `camo-audit replay`, and what the Release CI uploads as an artifact.
  if (!session.flight_rec_path().empty()) {
    std::string bundle;
    const auto r = attacks::run_named_attack("rop-injection", "full", &bundle);
    if (!r || bundle.empty()) {
      std::fprintf(stderr, "flight-rec: rop-injection produced no bundle\n");
      return 1;
    }
    std::ofstream out(session.flight_rec_path());
    if (!out) {
      std::fprintf(stderr, "flight-rec: cannot write %s\n",
                   session.flight_rec_path().c_str());
      return 1;
    }
    out << bundle << "\n";
    std::printf("\n[flight bundle (rop-injection, full) -> %s]\n",
                session.flight_rec_path().c_str());
  }
  return session.finish();
}
