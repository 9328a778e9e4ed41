// camo-cov: inspect camo-cov/v1 execution-coverage bundles and bisect
// cross-run divergence (DESIGN.md §3g).
//
// Four commands:
//   report <bundle>        summary (blocks/edges/per-EL retirements) plus
//                          the protected-table audit: every annotated
//                          syscall_table / hook_registry / *_fops row that
//                          never executed is listed — the "which CFI-guarded
//                          targets did this workload actually reach" view;
//   diff <a> <b>           block-level set difference of two bundles
//                          (blocks only in A, only in B, common count);
//   merge -o <out> <in>... merge N bundles into one (hits add, per-EL
//                          retirements add, regions deduplicate) in argv
//                          order — the same fold the fleet uses;
//   bisect [--engine-a <tier>] [--engine-b <tier>]
//          [--perturb <kernel-symbol>] [--interval <n>] [--out <div.json>]
//                          boot two machines running the standard parity
//                          workload on the given engine tiers (reference,
//                          fast, block or trace; default fast vs trace),
//                          bisect to the first divergent retired instruction
//                          (kernel/bisect.h) and optionally write the
//                          camo-div/v1 bundle. --perturb seeds a deliberate
//                          divergence on side B: at the first hit of the
//                          named kernel symbol its SP is shifted down 16
//                          bytes, which persists (the trapframe restore path
//                          reads a shifted frame). Exit 0 when the outcome
//                          matches the expectation: converged without
//                          --perturb, diverged with it.
//
// The command implementations live in a small library so tests can drive
// them in-process; camo_cov_main.cpp is a thin argv shim.
#pragma once

#include <string>
#include <vector>

#include "cpu/engine.h"
#include "obs/coverage.h"

namespace camo::cov_tool {

/// Load + parse + schema-validate + decode one bundle. Returns false after
/// printing the error to stderr.
bool load_cov_bundle(const std::string& path, obs::CovBundle* out);

int cmd_report(const std::string& bundle_path);
int cmd_diff(const std::string& a_path, const std::string& b_path);
int cmd_merge(const std::string& out_path,
              const std::vector<std::string>& inputs);

struct BisectCliOptions {
  cpu::Engine engine_a = cpu::Engine::Fast;
  cpu::Engine engine_b = cpu::Engine::Trace;
  /// Kernel symbol at whose first execution side B's SP is corrupted;
  /// empty = no perturbation (the parity expectation flips to "converged").
  std::string perturb;
  uint64_t digest_interval = 64;
  std::string out_path;  ///< camo-div/v1 bundle destination ("" = none)
};

int cmd_bisect(const BisectCliOptions& opts);

const char* usage();

}  // namespace camo::cov_tool
