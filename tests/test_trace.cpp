// Trace-tier execution engine (DESIGN.md §3i): branch-following superblock
// traces with guarded side exits must be bit-for-bit invisible to the guest.
// This file covers the invalidation protocol for multi-page traces (SMC in a
// page the trace crosses into, including from a peer core), forged control
// flow that misses a segment-boundary guard, and asynchronous event delivery
// at guard boundaries, on every engine tier, and machine-level parity of the
// whole ladder with the obs collector on.
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

/// Assemble a code fragment in isolation and return its words (see
/// test_superblock.cpp for the rationale: hand-placed absolute addresses).
template <class Gen>
std::vector<uint32_t> words_of(Gen&& gen) {
  FunctionBuilder f("frag");
  gen(f);
  return f.assemble().words;
}

/// The engine ladder. Guest-visible behaviour in this file must be identical
/// on every tier; trace-tier counters are asserted only on Trace. The
/// (engine, fast path) parameter is the suite's original spelling, kept so
/// test names stay stable: (interp, off) is Reference, (interp, on) Fast,
/// (sb, on) Block and (trace, on) Trace.
class TraceTier : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  cpu::Engine engine() const {
    static constexpr cpu::Engine kWithFastPath[] = {
        cpu::Engine::Fast, cpu::Engine::Block, cpu::Engine::Trace};
    return std::get<1>(GetParam()) ? kWithFastPath[std::get<0>(GetParam())]
                                   : cpu::Engine::Reference;
  }
  bool trace_engine() const { return engine() == cpu::Engine::Trace; }
  cpu::Cpu::Config cfg() const {
    cpu::Cpu::Config c;
    c.engine = engine();
    return c;
  }
  static cpu::Cpu::Config ref_cfg() {
    cpu::Cpu::Config c;
    c.engine = cpu::Engine::Reference;
    return c;
  }
};

std::string combo_name(
    const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
  static const char* const kEngines[] = {"Interp", "Sb", "Trace"};
  return std::string(kEngines[std::get<0>(info.param)]) +
         (std::get<1>(info.param) ? "FpOn" : "FpOff");
}

INSTANTIATE_TEST_SUITE_P(
    EngineCombos, TraceTier,
    ::testing::Values(std::tuple{0, false}, std::tuple{0, true},
                      std::tuple{1, true}, std::tuple{2, true}),
    combo_name);

// ---------------------------------------------------------------------------
// SMC in the *second* page of a cross-page trace.
//
// Layout (two writable+executable kernel pages):
//   page 1: loop driver at +0x000, controller at +0x800, NOP pad at +0xF80
//           falling through the page boundary
//   page 2: the patch site S at +0x1000: `add x0, x0, #K ; br x13`
// The loop runs pad → boundary → S twenty times, which is enough for the
// edge profiles to bias and a trace spanning both pages to form. On the
// tenth iteration the controller (page 1) rewrites S to K=2. The trace's
// page records cover page 2, so the store must invalidate it — a trace that
// only validated its head page would keep adding 1.
// ---------------------------------------------------------------------------

TEST_P(TraceTier, SmcInSecondPageOfCrossPageTraceInvalidates) {
  SimHarness sim(cfg());
  constexpr uint64_t kWx = 0xFFFF000000200000ull;
  constexpr uint64_t kWxPa = 0x50000;
  mem::PagePerms wx;
  wx.r_el1 = wx.w_el1 = wx.x_el1 = true;
  sim.kmap.map_range(kWx, kWxPa, 0x2000, wx);

  const uint64_t site = kWx + 0x1000;  // patch site: first insn of page 2
  const uint64_t cback = kWx + 0x800;  // loop controller
  const uint64_t pad = kWx + 0xF80;    // NOP run into the page boundary
  const uint32_t br13 = words_of([](FunctionBuilder& f) { f.br(13); })[0];
  const uint32_t add2 =
      words_of([](FunctionBuilder& f) { f.add_i(0, 0, 2); })[0];
  const uint64_t patch =
      static_cast<uint64_t>(add2) | (static_cast<uint64_t>(br13) << 32);

  const auto init = words_of([&](FunctionBuilder& f) {
    f.mov_imm(0, 0);
    f.mov_imm(19, 20);  // loop count
    f.mov_imm(9, site);
    f.mov_imm(10, patch);
    f.mov_imm(12, pad);
    f.mov_imm(13, cback);
    f.br(13);
  });
  const auto controller = words_of([&](FunctionBuilder& f) {
    const auto done = f.make_label();
    const auto skip = f.make_label();
    f.cbz(19, done);
    f.sub_i(19, 19, 1);
    f.sub_i(11, 19, 10);
    f.cbnz(11, skip);    // patch exactly once, when x19 hits 10
    f.str(10, 9, 0);     // rewrite S in the trace's *second* page
    f.bind(skip);
    f.br(12);            // pad → page boundary → S
    f.bind(done);
    f.hlt(0x55);
  });
  const auto hot = words_of([&](FunctionBuilder& f) {
    f.add_i(0, 0, 1);  // S: becomes add #2 after the patch
    f.br(13);
  });

  ASSERT_LE(init.size() * 4, 0x800u);
  ASSERT_LE(controller.size() * 4, 0x780u);
  sim.write_words(kWx, init);
  sim.write_words(cback, controller);
  const uint32_t nop = words_of([](FunctionBuilder& f) { f.nop(); })[0];
  sim.write_words(pad, std::vector<uint32_t>(0x80 / 4, nop));
  sim.write_words(site, hot);

  sim.core.pc = kWx;
  sim.core.run(100000);
  ASSERT_TRUE(sim.core.halted());
  EXPECT_EQ(sim.core.halt_code(), 0x55u);
  // The patch lands when the decremented count reaches 10: the first 9
  // iterations add 1, the remaining 11 add 2.
  EXPECT_EQ(sim.core.x(0), 9u * 1 + 11u * 2);
  if (trace_engine()) {
    const auto& st = sim.core.superblock_stats();
    EXPECT_GE(st.traces_formed, 1u)
        << "20 stable iterations must bias the edges and form a trace";
    EXPECT_GE(st.trace_invalidations, 1u)
        << "the store into page 2 must invalidate the cross-page trace";
  }
}

// ---------------------------------------------------------------------------
// Forged branch target mid-trace: a register branch the trace recorded as
// strongly biased toward the next segment suddenly goes elsewhere. The
// segment-boundary guard must take the side exit and hand the real pc to the
// plain dispatcher — a trace that trusted its recorded successor would keep
// executing stale segments.
// ---------------------------------------------------------------------------

TEST_P(TraceTier, ForgedBranchTargetTakesGuardSideExit) {
  SimHarness sim(cfg());
  const uint64_t hot = testing::kHText + 0x400;
  const uint64_t cback = testing::kHText + 0x800;
  const uint64_t done = testing::kHText + 0xC00;

  sim.write_words(testing::kHText, words_of([&](FunctionBuilder& f) {
    f.mov_imm(0, 0);
    f.mov_imm(19, 12);  // 12 stable iterations: enough to form the trace
    f.mov_imm(13, cback);
    f.mov_imm(15, done);
    f.mov_imm(12, hot);
    f.br(12);
  }));
  sim.write_words(hot, words_of([](FunctionBuilder& f) {
    f.add_i(0, 0, 1);
    f.br(13);  // biased to cback; forged to done on the last pass
  }));
  sim.write_words(cback, words_of([](FunctionBuilder& f) {
    const auto cont = f.make_label();
    f.sub_i(19, 19, 1);
    f.cbnz(19, cont);
    f.mov(13, 15);  // retarget: the next `br x13` in hot goes to done
    f.bind(cont);
    f.br(12);
  }));
  sim.write_words(done, words_of([](FunctionBuilder& f) { f.hlt(0x77); }));

  sim.core.pc = testing::kHText;
  sim.core.run(100000);
  ASSERT_TRUE(sim.core.halted());
  EXPECT_EQ(sim.core.halt_code(), 0x77u);
  EXPECT_EQ(sim.core.x(0), 13u) << "12 loop passes plus the forged final one";
  if (trace_engine()) {
    const auto& st = sim.core.superblock_stats();
    EXPECT_GE(st.traces_formed, 1u);
    EXPECT_GE(st.trace_guard_exits, 1u)
        << "the forged target must miss the segment guard, not be followed";
  }
}

// ---------------------------------------------------------------------------
// Asynchronous events at guard boundaries: a timer IRQ and a breakpoint both
// land inside what the trace tier runs as one long dispatch, and must be
// observed on exactly the same instruction as the single-step interpreter.
// ---------------------------------------------------------------------------

FunctionBuilder counted_loop() {
  FunctionBuilder f("loop");
  const auto loop = f.make_label();
  f.daifclr();
  f.mov_imm(19, 100000);
  f.bind(loop);
  f.add_i(0, 0, 1);
  f.add_i(1, 1, 1);
  f.sub_i(19, 19, 1);
  f.cbnz(19, loop);
  f.hlt(1);
  return f;
}

TEST_P(TraceTier, TimerIrqDeliveredAtIdenticalPointMidTrace) {
  SimHarness sim(cfg());
  sim.core.set_timer_period(157);  // lands mid-trace once the loop is hot
  sim.run(counted_loop());
  ASSERT_TRUE(sim.core.halted());
  EXPECT_EQ(sim.core.halt_code(), 0xE2u) << "IRQ vector must halt the sim";

  SimHarness ref(ref_cfg());
  ref.core.set_timer_period(157);
  ref.run(counted_loop());
  EXPECT_EQ(sim.core.cycles(), ref.core.cycles());
  EXPECT_EQ(sim.core.retired(), ref.core.retired());
  EXPECT_EQ(sim.core.x(0), ref.core.x(0));
}

TEST_P(TraceTier, BreakpointAtGuardBoundaryFiresIdentically) {
  const auto run_with_bp = [&](cpu::Cpu::Config c, uint64_t bp_va,
                               uint64_t* hits, uint64_t* first_x0) {
    SimHarness sim(c);
    sim.write_words(testing::kHText, counted_loop().assemble().words);
    sim.core.add_breakpoint(bp_va, [&](cpu::Cpu& cc) {
      if ((*hits)++ == 0) *first_x0 = cc.x(0);
    });
    sim.core.pc = testing::kHText;
    sim.core.run(2000);
    return sim.core.retired();
  };
  // The loop head is a trace segment boundary once the back edge biases;
  // the add one instruction in is mid-segment. Both must fire exactly as
  // under the interpreter.
  const auto words = counted_loop().assemble().words;
  const uint64_t loop_head =
      testing::kHText + (words.size() - 5) * 4;  // add/add/sub/cbnz/hlt
  for (const uint64_t bp : {loop_head, loop_head + 4}) {
    uint64_t hits = 0, first_x0 = ~uint64_t{0};
    const uint64_t retired = run_with_bp(cfg(), bp, &hits, &first_x0);
    uint64_t ref_hits = 0, ref_first_x0 = ~uint64_t{0};
    const uint64_t ref_retired =
        run_with_bp(ref_cfg(), bp, &ref_hits, &ref_first_x0);
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(hits, ref_hits) << "bp at +0x" << std::hex << bp;
    EXPECT_EQ(first_x0, ref_first_x0);
    EXPECT_EQ(retired, ref_retired);
  }
}

// ---------------------------------------------------------------------------
// Cross-core SMC against a hot trace: core B loops through a block long
// enough to form a trace over it; core A rewrites the loop body through its
// own Mmu. Core B's next run must fetch the new code — the page write
// generation the trace validates against lives in the shared PhysicalMemory.
// ---------------------------------------------------------------------------

TEST_P(TraceTier, CrossCoreSmcInvalidatesPeerTrace) {
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

  const uint64_t site = kWx + 0x800;     // the loop core B forms a trace over
  const uint64_t entry_b = kWx;          // core B's per-pass driver
  const uint64_t patcher = kWx + 0x400;  // core A's program
  const uint32_t add2 =
      words_of([](FunctionBuilder& f) { f.add_i(0, 0, 2); })[0];
  const uint32_t sub1 =
      words_of([](FunctionBuilder& f) { f.sub_i(19, 19, 1); })[0];
  const uint64_t patch =
      static_cast<uint64_t>(add2) | (static_cast<uint64_t>(sub1) << 32);

  write_words(entry_b, words_of([&](FunctionBuilder& f) {
    f.mov_imm(0, 0);
    f.mov_imm(19, 12);  // hot enough for the loop trace to form
    f.mov_imm(12, site);
    f.br(12);
  }));
  write_words(site, words_of([](FunctionBuilder& f) {
    const auto loop = f.make_label();
    f.bind(loop);
    f.add_i(0, 0, 1);  // becomes add #2 after core A's store
    f.sub_i(19, 19, 1);
    f.cbnz(19, loop);
    f.hlt(0x55);
  }));
  write_words(patcher, words_of([&](FunctionBuilder& f) {
    f.mov_imm(9, site);
    f.mov_imm(10, patch);
    f.str(10, 9, 0);  // core A rewrites core B's hot loop
    f.hlt(0x66);
  }));

  // Pass 1: core B runs the loop hot — block cached, trace formed.
  b.pc = entry_b;
  b.run(10000);
  ASSERT_TRUE(b.halted());
  EXPECT_EQ(b.halt_code(), 0x55u);
  EXPECT_EQ(b.x(0), 12u);
  if (trace_engine()) {
    EXPECT_GE(b.superblock_stats().traces_formed, 1u)
        << "12 stable loop passes must form a trace on core B";
  }

  // Core A patches the loop through its own Mmu — never executed on A.
  a.pc = patcher;
  a.run(1000);
  ASSERT_TRUE(a.halted());
  EXPECT_EQ(a.halt_code(), 0x66u);

  // Pass 2: core B must fetch the new code, not replay its trace.
  b.clear_halt();
  b.pc = entry_b;
  b.run(10000);
  ASSERT_TRUE(b.halted());
  EXPECT_EQ(b.halt_code(), 0x55u);
  EXPECT_EQ(b.x(0), 24u)
      << "core B replayed a stale trace after core A's store";
  if (trace_engine()) {
    EXPECT_GE(b.superblock_stats().trace_invalidations, 1u)
        << "the cross-core store must invalidate core B's trace";
  }
}

// ---------------------------------------------------------------------------
// Machine-level parity: a full boot + protected workload mix (syscalls,
// context switches, preemption) with the obs collector on is bit-for-bit
// identical on every engine tier and at 1 and 2 guest cores — clocks, retire
// counts, console and the folded profile built from the retire stream. The
// name is the suite's original one, from when the ladder was spelled as six
// (engine, fast path) combinations.
// ---------------------------------------------------------------------------

kernel::BisectSide parity_side(cpu::Engine engine, unsigned cores) {
  kernel::BisectSide s;
  s.label = std::string(cpu::engine_name(engine)) +
            (cores > 1 ? " cores=" + std::to_string(cores) : "");
  s.cfg.kernel.protection = compiler::ProtectionConfig::full();
  s.cfg.kernel.log_pac_failures = false;
  s.cfg.kernel.preempt = true;
  s.cfg.obs.enabled = true;
  s.cfg.cpu.engine = engine;
  s.cfg.cores = cores;
  s.cfg.smp_quantum = 50;  // real interleaving at this workload size
  s.setup = [](kernel::Machine& m) {
    m.add_user_program(kernel::workloads::null_syscall(40));
    m.add_user_program(kernel::workloads::yield_loop(10));
  };
  return s;
}

std::tuple<std::vector<uint64_t>, uint64_t, std::string, std::string>
machine_fingerprint(cpu::Engine engine, unsigned cores) {
  const kernel::BisectSide s = parity_side(engine, cores);
  kernel::Machine m(s.cfg);
  s.setup(m);
  m.boot();
  EXPECT_TRUE(m.run());
  std::vector<uint64_t> clocks;
  for (unsigned c = 0; c < m.cores(); ++c) {
    clocks.push_back(m.core(c).cycles());
    clocks.push_back(m.core(c).retired());
  }
  const obs::Collector* st = m.stats();
  EXPECT_NE(st, nullptr);
  return {std::move(clocks), m.halt_code(), m.console(),
          st ? st->folded_profile() : std::string()};
}

TEST(TraceParity, MachineRunBitForBitAcrossAllSixEngineCombos) {
  for (const unsigned cores : {1u, 2u}) {
    const auto ref = machine_fingerprint(cpu::Engine::Reference, cores);
    for (const cpu::Engine e : cpu::kEngines) {
      if (e == cpu::Engine::Reference) continue;
      const auto cur = machine_fingerprint(e, cores);
      if (cur == ref) continue;
      // Fingerprints disagree: escalate to the divergence bisector so the
      // failure names the first divergent retired instruction.
      EXPECT_EQ(cur, ref) << "cores=" << cores << " " << cpu::engine_name(e);
      EXPECT_TRUE(testing_support::MachinesConverge(
          parity_side(cpu::Engine::Reference, cores), parity_side(e, cores)));
    }
  }
}

// ---------------------------------------------------------------------------
// The obs retire stream and every derived artifact are byte-identical with
// and without the block and trace tiers.
// ---------------------------------------------------------------------------

TEST(TraceParity, ObsTraceByteIdenticalAcrossInterpSbTrace) {
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
  EXPECT_EQ(traced(cpu::Engine::Block), ref);
  EXPECT_EQ(traced(cpu::Engine::Trace), ref);
}

// ---------------------------------------------------------------------------
// Counters: the trace tier's stats flow into the metrics registry as
// fastpath.trace.* and stay zero below the Trace tier.
// ---------------------------------------------------------------------------

TEST(TraceStats, CountersPublishedWhenTierOn) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  cfg.cpu.engine = cpu::Engine::Trace;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(40));
  m.boot();
  ASSERT_TRUE(m.run());
  const obs::Registry& reg = m.stats()->metrics();
  EXPECT_GT(reg.value("fastpath.trace.formed"), 0u);
  EXPECT_GT(reg.value("fastpath.trace.hits"), 0u);
  const auto& st = m.cpu().superblock_stats();
  EXPECT_EQ(reg.value("fastpath.trace.formed"), st.traces_formed);
  EXPECT_EQ(reg.value("fastpath.trace.hits"), st.trace_hits);
  EXPECT_EQ(reg.value("fastpath.trace.guard_exits"), st.trace_guard_exits);
  EXPECT_EQ(reg.value("fastpath.trace.invalidations"),
            st.trace_invalidations);
}

TEST(TraceStats, CountersStayZeroWhenTierOff) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  cfg.cpu.engine = cpu::Engine::Block;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(40));
  m.boot();
  ASSERT_TRUE(m.run());
  const obs::Registry& reg = m.stats()->metrics();
  EXPECT_EQ(reg.value("fastpath.trace.formed"), 0u);
  EXPECT_EQ(reg.value("fastpath.trace.hits"), 0u);
  EXPECT_EQ(reg.value("fastpath.trace.guard_exits"), 0u);
  EXPECT_EQ(reg.value("fastpath.trace.invalidations"), 0u);
  EXPECT_GT(reg.value("fastpath.sb.hits"), 0u)
      << "the superblock tier underneath must still be live";
}

}  // namespace
}  // namespace camo
