// Divergence bisector (DESIGN.md §3g).
//
// Given two Machine configurations that are *supposed* to execute
// identically (two engine tiers, a replayed flight bundle vs. a fresh
// boot), the bisector finds the first retired instruction after which
// their architectural states differ:
//
//  1. forward scan: run both machines in lockstep windows of
//     `digest_interval` retirements, comparing obs::snapshot_digest at
//     every checkpoint (cheap: one snapshot walk per window);
//  2. binary search: inside the first divergent window, re-run *fresh*
//     machine pairs to the midpoint retirement count and compare digests —
//     legal because Cpu::run's split-budget guarantee makes the state at
//     any retirement boundary independent of how run() calls were sliced;
//  3. capture: re-run a final fresh pair to the divergence point and
//     export both sides' snapshots and last-K retire rings as a
//     `camo-div/v1` bundle (obs/divergence.h).
//
// Probes share one kernel::ImageCache, so the kernel is built, verified
// and signed once per distinct configuration — each probe only pays
// install + execution.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "kernel/machine.h"
#include "obs/divergence.h"

namespace camo::kernel {

/// One side of the comparison. `setup` runs pre-boot (add user programs,
/// register modules); `prepare` runs post-boot (breakpoints, deliberate
/// perturbations — kernel_symbol() needs a booted machine).
struct BisectSide {
  MachineConfig cfg;
  std::string label;
  std::function<void(Machine&)> setup;
  std::function<void(Machine&)> prepare;
};

struct BisectOptions {
  /// Checkpoint spacing for the forward scan. Larger intervals make the
  /// scan cheaper (fewer snapshot walks) but widen the window the binary
  /// search must split: total work is O(run/N) scan + O(K·log2 N) probe
  /// re-runs of up to `first_divergent` retirements each. See DESIGN.md §3g.
  uint64_t digest_interval = 2048;
  /// Retirement budget per side; the scan stops (converged) at this count.
  uint64_t max_retired = 20'000'000;
  /// Flight-ring depth captured per side in the final report.
  size_t ring_capacity = 64;
};

/// Bisect two configurations to their first divergent retired instruction.
/// Returns a report with diverged=false when the runs stay digest-equal
/// through both halting (or the budget). Observability is forced on for
/// both sides (coverage stays off; attaching sinks never changes simulated
/// state, so the comparison measures only guest divergence).
obs::DivergenceReport bisect_divergence(const BisectSide& a,
                                        const BisectSide& b,
                                        const BisectOptions& opts = {});

}  // namespace camo::kernel
