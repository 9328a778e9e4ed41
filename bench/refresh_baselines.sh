#!/usr/bin/env bash
# Regenerate the checked-in perf baselines (bench/baselines/*.json) that the
# `perf_gate` ctest label diffs fresh runs against with camo-perfdiff.
#
# Run after an *intentional* change to the cycle model, the instrumentation,
# or a workload — then review the camo-perfdiff output in the diff and
# commit the new baselines together with the change that explains them.
#
# Usage: bench/refresh_baselines.sh [build-dir]   (default: build)
#
# bench_qarma is skipped on purpose: it times host QARMA code with
# google-benchmark wall-clock, which is not reproducible across machines.
# Every other bench reports deterministic simulated cycles; --seed pins the
# one bench whose *sampling* (not timing) uses an RNG.
#
# Informational units ("insns/s" host throughput, wall-clock "s"/"ns"/"us"/
# "ms", "*-host") and the informational series families — "fleet."
# scheduler telemetry, "hist." histogram quantiles, "cov."/"div."
# execution-coverage and divergence counters (DESIGN.md §3g), and the
# "imgcache." image-cache reuse counters (DESIGN.md §3d; they count
# host-side kernel-build reuse, which varies with sweep shape, never guest
# results) — are
# recorded in the baselines for reference but are NEVER gated: camo-perfdiff
# prints them with the "info" status and excludes them from the
# regressed/missing/new counts, because they measure the host machine or
# diagnostic execution shape, not simulated guest performance.
#
# --jobs is pinned to 1: baselines must be byte-stable, and camo-perfdiff
# refuses to compare documents recorded at different --jobs values. A
# baseline accidentally recorded at --jobs 8 (e.g. via a stray CAMO_JOBS in
# the environment) would make every later --jobs 1 gate run fail.
#
# --cores is pinned to 1 for the stronger reason: guest core count changes
# the *simulated* results, and camo-perfdiff refuses cross-cores pairs
# outright. (bench_smp sweeps its own core counts internally regardless of
# the flag, so its baseline stays uniprocessor-headed and comparable.)
#
# The engine tier (cpu::Engine, DESIGN.md §3c/§3e/§3i) stays at its
# default, trace: the tiers are cycle-exact, so the gated series are
# identical on any of them, and a gate run passing on the top tier is itself
# the parity check. The benches' informational throughput series cover all
# four tiers regardless (fastpath-off / sb-off / sb-on / trace-on are
# reference / fast / block / trace). The session's tier rides in the
# camo-bench/v1 header ("engine"; older baselines carry the legacy "sb" and
# "trace" booleans, which parse as the same tier) and camo-perfdiff refuses
# cross-engine pairs, so baselines recorded on a non-default tier make every
# later default gate run fail: only pass --engine here deliberately, and say
# so in the commit.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir=${1:-build}
out_dir=bench/baselines
seed=2024

if [[ ! -d "$build_dir" ]]; then
  echo "error: build dir '$build_dir' not found; configure and build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 2
fi

benches=(
  bench_fig2_call_overhead
  bench_keyswitch
  bench_fig3_lmbench
  bench_fig4_userspace
  bench_tables_valayout
  bench_security_matrix
  bench_bruteforce
  bench_ablation_modifiers
  bench_census
  bench_instruction_mix
  bench_fleet
  bench_smp
)

mkdir -p "$out_dir"
for b in "${benches[@]}"; do
  bin="$build_dir/bench/$b"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built" >&2
    exit 2
  fi
  echo "== $b"
  "$bin" --smoke --seed "$seed" --jobs 1 --cores 1 --json "$out_dir/$b.json" > /dev/null
done

echo
echo "Baselines refreshed in $out_dir/. Check the gate is self-consistent:"
if [[ -x "$build_dir/tools/camo-perfdiff" ]]; then
  "$build_dir/tools/camo-perfdiff" --threshold 5 "$out_dir" "$out_dir"
else
  echo "  (camo-perfdiff not built; run ctest -L perf_gate instead)"
fi
