// Figure 2: function-call overhead (nanoseconds) of the three PAuth
// return-address modifier constructions:
//   1) Camouflage (proposed): 32-bit SP ‖ 32-bit function address,
//   2) PARTS: 16-bit SP ‖ 48-bit LTO function id,
//   3) Clang/Qualcomm: SP only (PACIASP/AUTIASP).
// The paper reports Clang < Camouflage < PARTS, with Camouflage "slightly
// slower than the weaker protection present in compilers, but faster than
// prior work with equal security properties".
//
// Method: a guest loop performs N calls to a framed no-op function built
// with each scheme; per-call cost is the cycle delta over the empty loop,
// converted to ns at 1.2 GHz.
#include <chrono>
#include <cstdio>

#include "assembler/builder.h"
#include "bench_util.h"
#include "compiler/instrument.h"
#include "cpu/cpu.h"
#include "mem/mmu.h"

namespace {

using namespace camo;  // NOLINT
using assembler::FunctionBuilder;
using compiler::BackwardScheme;

constexpr uint64_t kText = 0xFFFF000000080000ull;
constexpr uint64_t kStackTop = 0xFFFF000000140000ull;
uint64_t kIters = 4000;  // reduced under --smoke

struct CallRun {
  uint64_t cycles = 0;
  uint64_t retired = 0;
  double host_seconds = 0;
  cpu::Engine ran_on = cpu::Engine::Reference;
  double throughput() const {
    return host_seconds > 0 ? static_cast<double>(retired) / host_seconds : 0;
  }
};

/// The engine tier a run's host counters show it ran on: formed traces mean
/// Trace, built blocks mean Block, predecoded pages mean Fast.
cpu::Engine ran_on(const cpu::Cpu& core) {
  const cpu::SuperblockStats& sb = core.superblock_stats();
  if (sb.traces_formed > 0) return cpu::Engine::Trace;
  if (sb.blocks > 0) return cpu::Engine::Block;
  if (core.fast_path_stats().icache_misses > 0) return cpu::Engine::Fast;
  return cpu::Engine::Reference;
}

/// One run of a loop that BLs into a framed no-op callee built under
/// `scheme` (or a loop with no call at all for `with_call = false`), with
/// the given host engine configuration and iteration count.
CallRun run_call_loop(BackwardScheme scheme, bool compat, bool with_call,
                      uint64_t iters, const cpu::Cpu::Config& cpu_cfg) {
  mem::PhysicalMemory pm(1 << 20);
  mem::Mmu mmu(pm, {});
  mem::Stage1Map kmap;
  kmap.map_range(kText, 0x10000, 0x10000, mem::PagePerms::kernel_text());
  kmap.map_range(kStackTop - 0x10000, 0x30000, 0x10000,
                 mem::PagePerms::kernel_rw());
  mmu.set_kernel_map(&kmap);
  cpu::Cpu core(mmu, cpu_cfg);
  core.set_sysreg(isa::SysReg::SCTLR_EL1, isa::kSctlrEnIA | isa::kSctlrEnIB |
                                              isa::kSctlrEnDA |
                                              isa::kSctlrEnDB);
  for (int i = 0; i < 10; ++i)
    core.set_sysreg(static_cast<isa::SysReg>(i), 0x1111111111111111ull * (i + 2));
  core.set_sp_el(mem::El::El1, kStackTop);

  FunctionBuilder f("bench");
  const auto callee = f.make_label();
  const auto loop = f.make_label();
  const auto start = f.make_label();
  f.b(start);
  f.bind(callee);
  f.frame_push();
  f.frame_pop_ret();
  f.bind(start);
  f.mov_imm(19, iters);
  f.bind(loop);
  if (with_call) f.bl(callee);
  f.sub_i(19, 19, 1);
  f.cbnz(19, loop);
  f.hlt(1);

  compiler::ProtectionConfig cfg;
  cfg.backward = scheme;
  cfg.compat_mode = compat;
  compiler::instrument(f, cfg);

  const auto words = f.assemble().words;
  for (size_t i = 0; i < words.size(); ++i)
    pm.write32(0x10000 + i * 4, words[i]);
  core.pc = kText;
  const auto t0 = std::chrono::steady_clock::now();
  core.run(10'000'000);
  CallRun r;
  r.cycles = core.cycles();
  r.retired = core.retired();
  r.ran_on = ran_on(core);
  r.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

/// Cycles per iteration on the given engine tier.
double measure(cpu::Engine engine, BackwardScheme scheme, bool compat,
               bool with_call) {
  cpu::Cpu::Config cc;
  cc.engine = engine;
  return static_cast<double>(
             run_call_loop(scheme, compat, with_call, kIters, cc).cycles) /
         kIters;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session s(
      argc, argv, "Figure 2", "function call overhead by modifier scheme",
      "ordering Clang(SP) < Camouflage(32b SP + fn addr) < PARTS(16b SP + "
      "48b LTO id); ~tens of ns at 1.2 GHz");
  kIters = s.iters(4000, 200);

  const cpu::Engine engine = s.engine();
  const double empty = measure(engine, BackwardScheme::None, false, false);
  const double baseline =
      measure(engine, BackwardScheme::None, false, true) - empty;

  struct Row {
    const char* name;
    const char* key;
    BackwardScheme scheme;
    bool compat;
  };
  const Row rows[] = {
      {"3) clang (SP only)", "clang-sp", BackwardScheme::ClangSp, false},
      {"1) camouflage (SP32+fn)", "camouflage", BackwardScheme::Camouflage,
       false},
      {"2) parts (SP16+id48)", "parts", BackwardScheme::Parts, false},
      {"   camouflage compat (§5.5)", "camouflage-compat",
       BackwardScheme::Camouflage, true},
      {"   parts compat", "parts-compat", BackwardScheme::Parts, true},
  };

  std::printf("%-30s %12s %12s %14s\n", "scheme", "cycles/call", "ns/call",
              "CFI overhead ns");
  std::printf("%-30s %12.1f %12.1f %14s\n", "baseline (unprotected call)",
              baseline, bench::to_ns(baseline), "-");
  s.add("baseline", "call", baseline, "cycles/call");
  for (const auto& row : rows) {
    const double c = measure(engine, row.scheme, row.compat, true) - empty;
    std::printf("%-30s %12.1f %12.1f %14.1f\n", row.name, c, bench::to_ns(c),
                bench::to_ns(c - baseline));
    s.add(row.key, "call", c, "cycles/call", c / baseline);
  }

  std::printf(
      "\ninstrumentation instruction counts per prologue+epilogue pair: "
      "clang=%u camouflage=%u parts=%u (compat: %u/%u)\n",
      compiler::backward_overhead_insns(BackwardScheme::ClangSp, false),
      compiler::backward_overhead_insns(BackwardScheme::Camouflage, false),
      compiler::backward_overhead_insns(BackwardScheme::Parts, false),
      compiler::backward_overhead_insns(BackwardScheme::Camouflage, true),
      compiler::backward_overhead_insns(BackwardScheme::Parts, true));

  // Host throughput on each engine tier (informational): the same best-of-3
  // "insns/s" series fig3/fig4 emit, on the Camouflage call loop. This
  // binary drives a raw Cpu (no Machine), so wall time is taken around run()
  // directly; simulated cycles and retired counts must be bit-for-bit
  // identical across tiers, and each row's host counters must show the tier
  // it is named after.
  {
    const uint64_t tp_iters = kIters * 16;
    std::vector<bench::TierRun> runs;
    for (const auto& mode : bench::engine_modes()) {
      cpu::Cpu::Config cc;
      cc.engine = mode.engine;
      CallRun best;
      for (int rep = 0; rep < 3; ++rep) {
        CallRun r = run_call_loop(BackwardScheme::Camouflage, false, true,
                                  tp_iters, cc);
        if (rep == 0 || r.throughput() > best.throughput()) best = r;
      }
      if (best.ran_on != mode.engine) {
        std::fprintf(stderr, "%s row ran on the %s tier, not %s\n", mode.name,
                     cpu::engine_name(best.ran_on),
                     cpu::engine_name(mode.engine));
        return 1;
      }
      runs.push_back({{best.cycles, best.retired}, best.throughput()});
    }
    if (!bench::report_tier_runs(s, "camouflage call loop", runs)) return 1;
  }
  return s.finish();
}
