// Superblock execution engine (DESIGN.md §3e): bit-for-bit parity with the
// single-step interpreter on every engine tier, exact max_steps
// budgets, and the invalidation protocol under self-modifying code and
// forged control flow into the middle of cached blocks.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "compiler/instrument.h"
#include "harness.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obs/collector.h"
#include "parity.h"

namespace camo {
namespace {

using assembler::FunctionBuilder;
using testing::SimHarness;

/// Assemble a code fragment in isolation and return its words. Fragments are
/// placed at hand-chosen addresses below, so tests can refer to absolute
/// locations (a patch target, a mid-block entry) without the circularity of
/// an address that depends on mov_imm expansion lengths.
template <class Gen>
std::vector<uint32_t> words_of(Gen&& gen) {
  FunctionBuilder f("frag");
  gen(f);
  return f.assemble().words;
}

/// Engine tiers. Everything in this file must behave identically on all of
/// them. The (superblocks, fast path) parameter is the suite's original
/// spelling, kept so test names stay stable: (off, off) is Reference,
/// (off, on) Fast and (on, on) the default Trace tier, which runs the
/// superblocks with traces on top as this suite always has. The Block tier
/// runs test_trace.cpp's cases and the machine parity below.
class Superblock
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  cpu::Cpu::Config cfg() const {
    cpu::Cpu::Config c;
    c.engine = std::get<0>(GetParam())   ? cpu::Engine::Trace
               : std::get<1>(GetParam()) ? cpu::Engine::Fast
                                         : cpu::Engine::Reference;
    return c;
  }
};

INSTANTIATE_TEST_SUITE_P(
    EngineCombos, Superblock,
    ::testing::Values(std::tuple{false, false}, std::tuple{false, true},
                      std::tuple{true, true}),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "SbOn" : "SbOff") +
             (std::get<1>(info.param) ? "FpOn" : "FpOff");
    });

// ---------------------------------------------------------------------------
// SMC straddling a page boundary mid-block.
//
// Layout (two writable+executable kernel pages):
//   page 1: controller at +0x000, patch/loop logic at +0x800, NOP pad from
//           +0xF00 falling through the page boundary
//   page 2: the patch site S at +0x000: `add x0, x0, #K ; br x13`
// Pass 1 executes the pad into page 2 with K=1 (caching both blocks and the
// fall-through chain edge), then a store in page 1 rewrites S to K=2, and
// pass 2 re-runs the same pad → boundary → S path. A stale cached decode of
// page 2 would add 1 again; the page write generation must invalidate it.
// ---------------------------------------------------------------------------

TEST_P(Superblock, SmcAcrossPageBoundaryInvalidatesCachedBlock) {
  SimHarness sim(cfg());
  constexpr uint64_t kWx = 0xFFFF000000200000ull;
  constexpr uint64_t kWxPa = 0x50000;
  mem::PagePerms wx;
  wx.r_el1 = wx.w_el1 = wx.x_el1 = true;
  sim.kmap.map_range(kWx, kWxPa, 0x2000, wx);

  const uint64_t site = kWx + 0x1000;       // patch site: first insn, page 2
  const uint64_t cback = kWx + 0x800;       // loop controller
  const uint64_t pad = kWx + 0xF00;         // NOP run into the boundary
  const uint32_t br13 = words_of([](FunctionBuilder& f) { f.br(13); })[0];
  const uint32_t add2 =
      words_of([](FunctionBuilder& f) { f.add_i(0, 0, 2); })[0];
  const uint64_t patch =
      static_cast<uint64_t>(add2) | (static_cast<uint64_t>(br13) << 32);

  const auto init = words_of([&](FunctionBuilder& f) {
    f.mov_imm(0, 0);
    f.mov_imm(9, site);
    f.mov_imm(10, patch);
    f.mov_imm(11, 0);
    f.mov_imm(12, pad);
    f.mov_imm(13, cback);
    f.br(12);
  });
  const auto controller = words_of([&](FunctionBuilder& f) {
    const auto done = f.make_label();
    f.cbnz(11, done);
    f.mov_imm(11, 1);
    f.str(10, 9, 0);  // rewrite S in the already-executed page-2 block
    f.br(12);         // second pass over pad → boundary → patched S
    f.bind(done);
    f.hlt(0x55);
  });
  const auto hot = words_of([&](FunctionBuilder& f) {
    f.add_i(0, 0, 1);  // S: becomes add #2 after the patch
    f.br(13);
  });

  ASSERT_LE(init.size() * 4, 0x800u);
  ASSERT_LE(controller.size() * 4, 0x700u);
  sim.write_words(kWx, init);
  sim.write_words(cback, controller);
  const uint32_t nop = words_of([](FunctionBuilder& f) { f.nop(); })[0];
  sim.write_words(pad, std::vector<uint32_t>(0x100 / 4, nop));
  sim.write_words(site, hot);

  sim.core.pc = kWx;
  sim.core.run(100000);
  ASSERT_TRUE(sim.core.halted());
  EXPECT_EQ(sim.core.halt_code(), 0x55u);
  EXPECT_EQ(sim.core.x(0), 3u) << "pass 1 adds 1, patched pass 2 adds 2";
  if (cfg().engine >= cpu::Engine::Block) {
    EXPECT_GE(sim.core.superblock_stats().invalidations, 1u)
        << "the store must invalidate the cached page-2 block";
  }
}

// ---------------------------------------------------------------------------
// Cross-core SMC: the Machine's SMP shape in miniature (DESIGN.md §3h) —
// two cores, each with its own Mmu, micro-TLB and superblock cache, sharing
// one physical memory and one kernel map. Core B executes and caches a
// block; core A's guest store rewrites it; core B's next dispatch must
// re-translate, because the write generation the cache is validated against
// lives in the *shared* PhysicalMemory, not in either core.
// ---------------------------------------------------------------------------

TEST_P(Superblock, CrossCoreSmcInvalidatesPeerCachedBlock) {
  const cpu::Cpu::Config c = cfg();
  mem::PhysicalMemory pm{1 << 20};
  mem::Stage1Map kmap;
  mem::Mmu mmu_a(pm, c.layout), mmu_b(pm, c.layout);
  cpu::Cpu a(mmu_a, c), b(mmu_b, c);

  constexpr uint64_t kWx = 0xFFFF000000200000ull;
  mem::PagePerms wx;
  wx.r_el1 = wx.w_el1 = wx.x_el1 = true;
  kmap.map_range(kWx, 0x50000, 0x2000, wx);
  mmu_a.set_kernel_map(&kmap);
  mmu_b.set_kernel_map(&kmap);

  const auto write_words = [&](uint64_t va,
                               const std::vector<uint32_t>& words) {
    for (size_t i = 0; i < words.size(); ++i) {
      const auto t =
          mmu_a.translate(va + i * 4, mem::Access::Fetch, mem::El::El2);
      ASSERT_TRUE(t.ok()) << "cross-core harness: text not mapped";
      pm.write32(t.pa, words[i]);
    }
  };

  const uint64_t site = kWx + 0x800;     // the block core B caches
  const uint64_t entry_b = kWx;          // core B's per-pass driver
  const uint64_t patcher = kWx + 0x400;  // core A's program
  const uint32_t hlt55 = words_of([](FunctionBuilder& f) { f.hlt(0x55); })[0];
  const uint32_t add2 =
      words_of([](FunctionBuilder& f) { f.add_i(0, 0, 2); })[0];
  const uint64_t patch =
      static_cast<uint64_t>(add2) | (static_cast<uint64_t>(hlt55) << 32);

  write_words(entry_b, words_of([&](FunctionBuilder& f) {
    f.mov_imm(0, 0);
    f.mov_imm(12, site);
    f.br(12);
  }));
  write_words(site, words_of([](FunctionBuilder& f) {
    f.add_i(0, 0, 1);  // becomes add #2 after core A's store
    f.hlt(0x55);
  }));
  write_words(patcher, words_of([&](FunctionBuilder& f) {
    f.mov_imm(9, site);
    f.mov_imm(10, patch);
    f.str(10, 9, 0);  // core A rewrites core B's cached block
    f.hlt(0x66);
  }));

  // Pass 1: core B runs and caches the site block.
  b.pc = entry_b;
  b.run(1000);
  ASSERT_TRUE(b.halted());
  EXPECT_EQ(b.halt_code(), 0x55u);
  EXPECT_EQ(b.x(0), 1u);

  // Core A patches the site through its own Mmu — never executed on A.
  a.pc = patcher;
  a.run(1000);
  ASSERT_TRUE(a.halted());
  EXPECT_EQ(a.halt_code(), 0x66u);

  // Pass 2: core B must fetch the new code, not its cached decode.
  b.clear_halt();
  b.pc = entry_b;
  b.run(1000);
  ASSERT_TRUE(b.halted());
  EXPECT_EQ(b.halt_code(), 0x55u);
  EXPECT_EQ(b.x(0), 2u)
      << "core B dispatched a stale cached block after core A's store";
  if (cfg().engine >= cpu::Engine::Block) {
    EXPECT_GE(b.superblock_stats().invalidations, 1u)
        << "the cross-core store must invalidate core B's cached block";
  }
}

// ---------------------------------------------------------------------------
// Forged RET into the middle of a cached block: executing a straight-line
// run from its start caches a block at its start PA; a later RET targeting
// an interior instruction must execute from exactly that instruction, never
// a misaligned or offset cached entry.
// ---------------------------------------------------------------------------

TEST_P(Superblock, ForgedRetIntoMiddleOfCachedBlock) {
  SimHarness sim(cfg());
  const uint64_t hot_va = testing::kHText + 0x400;
  const uint64_t cback = testing::kHText + 0x800;

  const auto init = words_of([&](FunctionBuilder& f) {
    f.mov_imm(0, 0);
    f.mov_imm(9, hot_va + 8);  // forged return target: 3rd insn of the block
    f.mov_imm(11, 0);
    f.mov_imm(12, hot_va);
    f.mov_imm(13, cback);
    f.br(12);  // first pass: run the block from the top (and cache it)
  });
  const auto hot = words_of([&](FunctionBuilder& f) {
    f.add_i(0, 0, 1);
    f.add_i(0, 0, 1);
    f.add_i(0, 0, 1);  // hot_va + 8: the forged entry point
    f.add_i(0, 0, 1);
    f.br(13);
  });
  const auto controller = words_of([&](FunctionBuilder& f) {
    const auto done = f.make_label();
    f.cbnz(11, done);
    f.mov_imm(11, 1);
    f.mov(30, 9);
    f.ret();  // forged RET to hot_va + 8
    f.bind(done);
    f.hlt(0x66);
  });

  sim.write_words(testing::kHText, init);
  sim.write_words(hot_va, hot);
  sim.write_words(cback, controller);

  sim.core.pc = testing::kHText;
  sim.core.run(100000);
  ASSERT_TRUE(sim.core.halted());
  EXPECT_EQ(sim.core.halt_code(), 0x66u);
  EXPECT_EQ(sim.core.x(0), 6u)
      << "full pass adds 4, forged mid-block entry adds 2";
}

// ---------------------------------------------------------------------------
// Exact step budgets: run(max_steps) retires exactly max_steps (blocks are
// split at the boundary, never overshot), and any split of a budget lands
// on the identical simulated state.
// ---------------------------------------------------------------------------

FunctionBuilder long_loop() {
  FunctionBuilder f("loop");
  const auto loop = f.make_label();
  f.mov_imm(19, 100000);
  f.bind(loop);
  f.add_i(0, 0, 1);
  f.add_i(1, 1, 1);
  f.add_i(2, 2, 1);
  f.sub_i(19, 19, 1);
  f.cbnz(19, loop);
  f.hlt(1);
  return f;
}

TEST_P(Superblock, RunRetiresExactlyMaxSteps) {
  SimHarness sim(cfg());
  sim.write_words(testing::kHText, long_loop().assemble().words);
  sim.core.pc = testing::kHText;
  EXPECT_EQ(sim.core.run(997), 997u);
  EXPECT_EQ(sim.core.retired(), 997u);
  EXPECT_FALSE(sim.core.halted());
  EXPECT_EQ(sim.core.run(1), 1u);
  EXPECT_EQ(sim.core.retired(), 998u);
}

TEST_P(Superblock, SplitBudgetsLandOnIdenticalState) {
  const auto run_split = [&](std::vector<uint64_t> budgets) {
    SimHarness sim(cfg());
    sim.write_words(testing::kHText, long_loop().assemble().words);
    sim.core.pc = testing::kHText;
    for (uint64_t b : budgets) sim.core.run(b);
    return std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>(
        sim.core.pc, sim.core.cycles(), sim.core.retired(), sim.core.x(0),
        sim.core.x(19));
  };
  const auto whole = run_split({5000});
  EXPECT_EQ(whole, run_split({1, 4999}));
  EXPECT_EQ(whole, run_split({2500, 2500}));
  EXPECT_EQ(whole, run_split({4999, 1}));
  EXPECT_EQ(whole, run_split({1337, 1, 3662}));
}

// ---------------------------------------------------------------------------
// Timer/IRQ and breakpoint parity: both can hit in the middle of what the
// engine would run as one block, and must be observed on exactly the same
// instruction as the single-step path.
// ---------------------------------------------------------------------------

TEST_P(Superblock, TimerIrqDeliveredAtIdenticalPoint) {
  SimHarness sim(cfg());
  FunctionBuilder f("irq");
  const auto loop = f.make_label();
  f.daifclr();
  f.mov_imm(19, 100000);
  f.bind(loop);
  f.add_i(0, 0, 1);
  f.sub_i(19, 19, 1);
  f.cbnz(19, loop);
  f.hlt(1);
  sim.core.set_timer_period(157);  // lands mid straight-line run
  sim.run(f);
  ASSERT_TRUE(sim.core.halted());
  EXPECT_EQ(sim.core.halt_code(), 0xE2u) << "IRQ vector must halt the sim";

  // The cycle count and retire count at delivery are the parity signal:
  // compare against a single-step reference run.
  cpu::Cpu::Config ref_cfg = cfg();
  ref_cfg.engine = cpu::Engine::Reference;
  SimHarness ref(ref_cfg);
  ref.core.set_timer_period(157);
  ref.run(f);
  EXPECT_EQ(sim.core.cycles(), ref.core.cycles());
  EXPECT_EQ(sim.core.retired(), ref.core.retired());
  EXPECT_EQ(sim.core.x(0), ref.core.x(0));
}

TEST_P(Superblock, BreakpointInsideStraightLineRunFires) {
  SimHarness sim(cfg());
  sim.write_words(testing::kHText, long_loop().assemble().words);
  // long_loop's body: the 2nd add of the loop sits 4 instructions into the
  // straight-line run that a block would cover.
  uint64_t hits = 0;
  uint64_t first_x0 = ~uint64_t{0};
  const uint64_t bp = testing::kHText + long_loop().assemble().words.size() * 4 -
                      4 /*hlt*/ - 4 /*cbnz*/ - 4 /*sub*/ - 4 /*add x2*/;
  sim.core.add_breakpoint(bp, [&](cpu::Cpu& c) {
    if (hits++ == 0) first_x0 = c.x(0);
  });
  sim.core.pc = testing::kHText;
  sim.core.run(1000);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(first_x0, 1u) << "hook must run before the insn at the bp";
  EXPECT_EQ(sim.core.retired(), 1000u);
}

// ---------------------------------------------------------------------------
// Machine-level parity: a full boot + protected workload mix (syscalls,
// context switches, preemption) is bit-for-bit identical on every engine
// tier and at 1 and 2 guest cores, including the obs retire stream.
// ---------------------------------------------------------------------------

kernel::BisectSide parity_side(cpu::Engine engine, unsigned cores = 1) {
  kernel::BisectSide s;
  s.label = std::string(cpu::engine_name(engine)) +
            (cores > 1 ? " cores=" + std::to_string(cores) : "");
  s.cfg.kernel.protection = compiler::ProtectionConfig::full();
  s.cfg.kernel.log_pac_failures = false;
  s.cfg.kernel.preempt = true;
  s.cfg.cpu.engine = engine;
  s.cfg.cores = cores;
  s.cfg.smp_quantum = 50;  // real interleaving at this workload size
  s.setup = [](kernel::Machine& m) {
    m.add_user_program(kernel::workloads::null_syscall(25));
    m.add_user_program(kernel::workloads::yield_loop(10));
  };
  return s;
}

std::tuple<std::vector<uint64_t>, uint64_t, std::string> machine_fingerprint(
    cpu::Engine engine, unsigned cores = 1) {
  const kernel::BisectSide s = parity_side(engine, cores);
  kernel::Machine m(s.cfg);
  s.setup(m);
  m.boot();
  EXPECT_TRUE(m.run());
  // Per-core clocks and retire counts: at cores=1 this is the classic
  // {cycles, retired} pair; multi-core runs must agree core by core.
  std::vector<uint64_t> clocks;
  for (unsigned c = 0; c < m.cores(); ++c) {
    clocks.push_back(m.core(c).cycles());
    clocks.push_back(m.core(c).retired());
  }
  return {std::move(clocks), m.halt_code(), m.console()};
}

TEST(SuperblockParity, MachineRunBitForBitAcrossAllEngineCombos) {
  for (const unsigned cores : {1u, 2u}) {
    const auto ref = machine_fingerprint(cpu::Engine::Reference, cores);
    for (const cpu::Engine e : cpu::kEngines) {
      if (e == cpu::Engine::Reference) continue;
      const auto cur = machine_fingerprint(e, cores);
      if (cur == ref) continue;
      // Fingerprints disagree: escalate to the divergence bisector so the
      // failure names the first divergent retired instruction instead of
      // just the end-of-run totals (DESIGN.md §3g).
      EXPECT_EQ(cur, ref) << "cores=" << cores << " " << cpu::engine_name(e);
      EXPECT_TRUE(testing_support::MachinesConverge(
          parity_side(cpu::Engine::Reference, cores), parity_side(e, cores)));
    }
  }
}

TEST(SuperblockParity, ObsTraceByteIdenticalWithEngineOnAndOff) {
  const auto traced = [](cpu::Engine engine) {
    kernel::MachineConfig cfg;
    cfg.kernel.protection = compiler::ProtectionConfig::full();
    cfg.kernel.log_pac_failures = false;
    cfg.obs.enabled = true;
    cfg.cpu.engine = engine;
    kernel::Machine m(cfg);
    m.add_user_program(kernel::workloads::null_syscall(25));
    m.boot();
    EXPECT_TRUE(m.run());
    const obs::Collector* st = m.stats();
    EXPECT_NE(st, nullptr);
    return std::tuple<std::string, std::string, std::string>(
        st->chrome_trace_json(), st->flat_profile(), st->folded_profile());
  };
  const auto ref = traced(cpu::Engine::Reference);
  EXPECT_EQ(traced(cpu::Engine::Fast), ref);
  EXPECT_EQ(traced(cpu::Engine::Block), ref);
}

// ---------------------------------------------------------------------------
// Counters: the engine's stats flow into the metrics registry as
// fastpath.sb.* and stay zero below the Block tier.
// ---------------------------------------------------------------------------

TEST(SuperblockStats, CountersPublishedWhenEngineOn) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  cfg.cpu.engine = cpu::Engine::Block;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(25));
  m.boot();
  ASSERT_TRUE(m.run());
  const obs::Registry& reg = m.stats()->metrics();
  EXPECT_GT(reg.value("fastpath.sb.blocks"), 0u);
  EXPECT_GT(reg.value("fastpath.sb.hits"), 0u);
  EXPECT_GT(reg.value("fastpath.sb.chain_hits"), 0u);
  const auto& sb = m.cpu().superblock_stats();
  EXPECT_EQ(reg.value("fastpath.sb.blocks"), sb.blocks);
  EXPECT_EQ(reg.value("fastpath.sb.hits"), sb.hits);
}

TEST(SuperblockStats, CountersStayZeroWhenEngineOff) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  cfg.cpu.engine = cpu::Engine::Fast;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(25));
  m.boot();
  ASSERT_TRUE(m.run());
  const obs::Registry& reg = m.stats()->metrics();
  EXPECT_EQ(reg.value("fastpath.sb.blocks"), 0u);
  EXPECT_EQ(reg.value("fastpath.sb.hits"), 0u);
  EXPECT_EQ(reg.value("fastpath.sb.invalidations"), 0u);
  EXPECT_EQ(reg.value("fastpath.sb.chain_hits"), 0u);
}

}  // namespace
}  // namespace camo
