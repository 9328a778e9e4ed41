// CallGraphProfiler tests: the shadow call stack built from the retire
// stream, and its accounting contract — folded-stack cycles sum to exactly
// Cpu::cycles() no matter how hostile the control flow (recursion, exception
// entry mid-call, RET to an address no call pushed), and attaching the
// profiler never changes guest cycle counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

#include "assembler/builder.h"
#include "cpu/cpu.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "mem/mmu.h"
#include "obs/callgraph.h"
#include "obs/collector.h"

namespace camo {
namespace {

using assembler::FunctionBuilder;
using cpu::Cpu;
using isa::SysReg;
using mem::El;
using obs::CallGraphProfiler;

constexpr uint64_t kText = 0xFFFF000000080000ull;
constexpr uint64_t kFnStride = 0x400;  ///< one region per test function
constexpr uint64_t kStackTop = 0xFFFF000000140000ull;
constexpr uint64_t kVbar = 0xFFFF000000060000ull;

/// Sum the "stack cycles" lines of a folded-stack export.
uint64_t folded_cycle_sum(const std::string& folded) {
  uint64_t sum = 0;
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) ADD_FAILURE() << "bad folded line: " << line;
    sum += std::strtoull(line.c_str() + sp + 1, nullptr, 10);
  }
  return sum;
}

/// Bare-CPU harness: EL1 programs written function-by-function at
/// kText + i*kFnStride, each its own named profiler region. A plain struct
/// (not the gtest fixture) so tests can build a second, tracing-off
/// instance of the same machine for the bit-identical baseline.
struct CpuHarness {
  explicit CpuHarness(cpu::Engine engine = cpu::Engine::Trace)
      : mmu(pm, {}), core(mmu, Cpu::Config{.engine = engine}) {
    kmap.map_range(kText, 0x10000, 0x10000, mem::PagePerms::kernel_text());
    kmap.map_range(kStackTop - 0x10000, 0x40000, 0x10000,
                   mem::PagePerms::kernel_rw());
    kmap.map_range(kVbar, 0x60000, 0x2000, mem::PagePerms::kernel_text());
    mmu.set_kernel_map(&kmap);
    core.set_sysreg(SysReg::VBAR_EL1, kVbar);
    core.set_sp_el(El::El1, kStackTop);
    cg.add_region("vectors", kVbar, kVbar + 0x2000);
  }

  uint64_t fn_addr(int slot) const { return kText + slot * kFnStride; }

  /// Assemble `f` into slot `slot` and register it as a region.
  void place(FunctionBuilder& f, int slot, const std::string& name) {
    write_words(fn_addr(slot), f.assemble().words);
    cg.add_region(name, fn_addr(slot), fn_addr(slot) + kFnStride);
  }

  void install_vector(uint64_t offset, FunctionBuilder& f) {
    write_words(kVbar + offset, f.assemble().words);
  }

  void write_words(uint64_t va, const std::vector<uint32_t>& words) {
    for (size_t i = 0; i < words.size(); ++i) {
      const auto t = mmu.translate(va + i * 4, mem::Access::Fetch, El::El2);
      ASSERT_TRUE(t.ok());
      pm.write32(t.pa, words[i]);
    }
  }

  /// Attach the profiler and run from slot 0 until halt.
  void run(bool attach = true, uint64_t max_steps = 100000) {
    if (attach) {
      core.set_cycle_attributor(&cg);
      core.set_cf_sink(&cg);
    }
    core.pc = fn_addr(0);
    core.run(max_steps);
  }

  void expect_exact_accounting() {
    EXPECT_EQ(cg.total_cycles(), core.cycles());
    EXPECT_EQ(cg.total_retires(), core.retired());
    EXPECT_EQ(folded_cycle_sum(cg.folded()), core.cycles());
  }

  mem::PhysicalMemory pm{1 << 20};
  mem::Stage1Map kmap;
  mem::Mmu mmu;
  Cpu core;
  CallGraphProfiler cg;
};

/// The gtest fixture is a thin wrapper exposing one default harness.
class CallGraphTest : public ::testing::Test, public CpuHarness {};

TEST_F(CallGraphTest, RecursionAttributesEveryCycleAndNestsStacks) {
  // main: x0 = 4; blr rec; hlt.   rec: if (x0--) rec(); ret.
  FunctionBuilder main_fn("main");
  main_fn.mov_imm(0, 4);
  main_fn.mov_imm(9, fn_addr(1));
  main_fn.blr(9);
  main_fn.hlt(1);

  FunctionBuilder rec("rec");
  auto done = rec.make_label();
  rec.stp_pre(29, 30, 31, -16);
  rec.cbz(0, done);
  rec.sub_i(0, 0, 1);
  rec.mov_imm(9, fn_addr(1));
  rec.blr(9);
  rec.bind(done);
  rec.ldp_post(29, 30, 31, 16);
  rec.ret();

  place(main_fn, 0, "main");
  place(rec, 1, "rec");
  run();
  ASSERT_EQ(core.halt_code(), 1u);

  expect_exact_accounting();
  // The recursion shows up as a nested path, not a flat self-cycle bucket.
  const std::string folded = cg.folded();
  EXPECT_NE(folded.find("main;rec;rec;rec"), std::string::npos) << folded;
  // After halt everything has returned except main's frame-less body.
  EXPECT_LE(cg.depth(), 1u);
}

TEST_F(CallGraphTest, ExceptionEntryMidCallBracketsHandlerCycles) {
  // main calls worker; worker raises SVC mid-body; the EL1 sync vector
  // ERETs straight back. Handler cycles must land under a synthetic
  // "[exc:svc]" frame nested inside main;worker.
  FunctionBuilder main_fn("main");
  main_fn.mov_imm(9, fn_addr(1));
  main_fn.blr(9);
  main_fn.hlt(1);

  FunctionBuilder worker("worker");
  worker.stp_pre(29, 30, 31, -16);
  worker.nop();
  worker.svc(42);
  worker.nop();
  worker.ldp_post(29, 30, 31, 16);
  worker.ret();

  FunctionBuilder vec("vec");
  vec.nop();
  vec.eret();

  place(main_fn, 0, "main");
  place(worker, 1, "worker");
  install_vector(Cpu::kVecSyncEl1, vec);
  run();
  ASSERT_EQ(core.halt_code(), 1u);

  expect_exact_accounting();
  const std::string folded = cg.folded();
  EXPECT_NE(folded.find("main;worker;[exc:svc];vectors"), std::string::npos)
      << folded;
}

TEST_F(CallGraphTest, RetWithoutMatchingCallStaysExact) {
  // evil returns through a forged x30 that no BL pushed: the shadow stack
  // pops its only call frame and the landing pad self-heals as a fresh
  // leaf. Shape degrades gracefully; accounting must not.
  FunctionBuilder main_fn("main");
  main_fn.mov_imm(9, fn_addr(1));
  main_fn.blr(9);
  main_fn.hlt(7);  // never reached: evil "returns" to landing instead

  FunctionBuilder evil("evil");
  evil.mov_imm(30, fn_addr(2));
  evil.ret();

  FunctionBuilder landing("landing");
  landing.nop();
  landing.hlt(2);

  place(main_fn, 0, "main");
  place(evil, 1, "evil");
  place(landing, 2, "landing");
  run();
  ASSERT_EQ(core.halt_code(), 2u);

  expect_exact_accounting();
  EXPECT_NE(cg.folded().find("landing"), std::string::npos) << cg.folded();
}

TEST(CallGraph, RepeatedFaultingCallKeepsTheStackBounded) {
  // main calls into unmapped text 10,000 times; each fetch aborts and the
  // EL1 sync vector returns to the caller through x30. Every aborted call
  // must leave no frame behind, on every tier.
  constexpr uint64_t kUnmappedText = kText + 0x20000;
  for (const cpu::Engine engine : cpu::kEngines) {
    SCOPED_TRACE(cpu::engine_name(engine));
    CpuHarness t(engine);
    FunctionBuilder main_fn("main");
    const auto loop = main_fn.make_label();
    main_fn.mov_imm(19, 10000);
    main_fn.mov_imm(9, kUnmappedText);
    main_fn.bind(loop);
    main_fn.blr(9);
    main_fn.sub_i(19, 19, 1);
    main_fn.cbnz(19, loop);
    main_fn.hlt(1);
    FunctionBuilder vec("vec");
    vec.msr(SysReg::ELR_EL1, 30);
    vec.eret();
    t.place(main_fn, 0, "main");
    t.install_vector(Cpu::kVecSyncEl1, vec);
    t.run(/*attach=*/true, /*max_steps=*/1'000'000);
    ASSERT_EQ(t.core.halt_code(), 1u);
    EXPECT_EQ(t.core.exception_steps(), 10000u);

    EXPECT_EQ(t.cg.total_cycles(), t.core.cycles());
    EXPECT_EQ(t.cg.total_retires(),
              t.core.retired() + t.core.exception_steps());
    const std::string folded = t.cg.folded();
    EXPECT_EQ(folded_cycle_sum(folded), t.core.cycles());
    EXPECT_EQ(folded.find("[truncated]"), std::string::npos);
    size_t deepest = 0;
    std::istringstream in(folded);
    for (std::string line; std::getline(in, line);)
      deepest = std::max<size_t>(
          deepest, 1 + std::count(line.begin(), line.end(), ';'));
    EXPECT_EQ(deepest, 4u) << folded;  // main;[other];[exc:insn-abort];vectors
    EXPECT_LE(t.cg.depth(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Ground truth: the guest's own frame records. A function that has run its
// prologue (stp x29, x30, [sp, #-16]!; mov x29, sp) and not yet its epilogue
// sits on a chain of frame records, each holding the caller's frame pointer
// and the return address the call left in x30. At such a pc the shadow
// stack must hold exactly the base frame and one call frame per record,
// with the same return addresses, outermost first.

/// [begin, end): pcs at which the frame-record chain is complete.
struct FramedRange {
  uint64_t begin, end;
};

/// `f` assembled into slot `slot` of `t`, framed: its prologue and
/// epilogue wrap `body`, which must not touch x29 or x30.
FramedRange place_framed(CpuHarness& t, int slot, const std::string& name,
                         const std::function<void(FunctionBuilder&)>& body) {
  FunctionBuilder f(name);
  f.stp_pre(29, 30, 31, -16);
  f.mov_from_sp(29);
  body(f);
  f.ldp_post(29, 30, 31, 16);
  f.ret();
  const size_t words = f.assemble().words.size();
  t.place(f, slot, name);
  return {t.fn_addr(slot) + 8, t.fn_addr(slot) + 4 * (words - 2)};
}

/// Runs `t` to halt in slices of 1 to `max_slice` steps (every slice end
/// flushes the retire feed, on every tier) and, after each slice that stops
/// at a pc in `ranges`, checks the shadow stack against the frame-record
/// chain. Returns the number of checks made.
size_t check_against_frame_records(CpuHarness& t,
                                   const std::vector<FramedRange>& ranges,
                                   uint64_t max_slice) {
  t.core.set_cycle_attributor(&t.cg);
  t.core.set_cf_sink(&t.cg);
  t.core.pc = t.fn_addr(0);
  size_t checks = 0;
  for (uint64_t i = 0; !t.core.halted() && i < 1'000'000; ++i) {
    t.core.run(1 + (i * 37) % max_slice);
    const uint64_t pc = t.core.pc;
    if (std::none_of(ranges.begin(), ranges.end(), [&](const FramedRange& r) {
          return pc >= r.begin && pc < r.end;
        }))
      continue;
    std::vector<uint64_t> chain;
    for (uint64_t fp = t.core.x(29); fp != 0 && chain.size() < 64;) {
      const auto lr = t.mmu.read64(fp + 8, El::El1);
      const auto up = t.mmu.read64(fp, El::El1);
      EXPECT_EQ(lr.fault, mem::FaultKind::None);
      chain.push_back(lr.value);
      fp = up.value;
    }
    std::vector<uint64_t> want = {0};  // the base frame: main
    want.insert(want.end(), chain.rbegin(), chain.rend());
    ++checks;
    if (t.cg.return_addresses() != want) {
      ADD_FAILURE() << "shadow stack disagrees with the frame records at pc 0x"
                    << std::hex << pc << " after " << std::dec
                    << t.core.retired() << " retirements\n"
                    << t.cg.folded();
      break;
    }
  }
  return checks;
}

TEST(CallGraph, ShadowStackMatchesFrameRecordsOnIrqAndFetchAbortGuest) {
  // The shape of the retire-feed golden guest, with frame records: timer
  // IRQs every 53 cycles, calls into unmapped text and to a misaligned
  // address (both fetch aborts, returned from through x30), a DataAbort in
  // a callee's body, and a two-deep call chain main -> mid -> leaf.
  constexpr uint64_t kUnmappedText = kText + 0x20000;
  constexpr uint64_t kUnmappedData = 0xFFFF000000900000ull;
  for (const cpu::Engine engine : cpu::kEngines) {
    SCOPED_TRACE(cpu::engine_name(engine));
    CpuHarness t(engine);
    FunctionBuilder main_fn("main");
    {
      const auto loop = main_fn.make_label();
      const auto no_fetch_fault = main_fn.make_label();
      const auto aligned = main_fn.make_label();
      main_fn.mov_imm(29, 0);
      main_fn.mov_imm(19, 48);
      main_fn.mov_imm(5, kStackTop - 0x100);
      main_fn.bind(loop);
      main_fn.sub_i(19, 19, 1);
      main_fn.sub_i(11, 19, 30);
      main_fn.cbnz(11, no_fetch_fault);
      main_fn.mov_imm(5, kUnmappedData);  // from here on leaf's load aborts
      main_fn.bind(no_fetch_fault);
      main_fn.and_i(11, 19, 7);
      main_fn.cbnz(11, aligned);
      main_fn.mov_imm(9, kUnmappedText);
      main_fn.blr(9);
      main_fn.mov_imm(9, t.fn_addr(2) + 2);
      main_fn.blr(9);
      main_fn.bind(aligned);
      main_fn.mov_imm(9, t.fn_addr(1));
      main_fn.blr(9);
      main_fn.cbnz(19, loop);
      main_fn.hlt(1);
    }
    const size_t main_words = main_fn.assemble().words.size();
    t.place(main_fn, 0, "main");
    const FramedRange mid = place_framed(t, 1, "mid", [&](FunctionBuilder& f) {
      f.add_i(7, 7, 1);
      f.mov_imm(9, t.fn_addr(2));
      f.blr(9);
      f.add_i(7, 7, 1);
    });
    const FramedRange leaf = place_framed(t, 2, "leaf", [](FunctionBuilder& f) {
      const auto spin = f.make_label();
      f.mov_imm(3, 5);
      f.bind(spin);
      f.add_i(7, 7, 1);
      f.sub_i(3, 3, 1);
      f.cbnz(3, spin);
      f.ldr(6, 5, 0);  // DataAbort once x5 is unmapped
      f.add_i(7, 7, 1);
    });
    // EL1 sync vector: a fetch abort (FAR == ELR) returns to the caller,
    // anything else steps over the faulting instruction.
    FunctionBuilder sync("sync");
    {
      const auto fetch = sync.make_label();
      sync.mrs(10, SysReg::ELR_EL1);
      sync.mrs(13, SysReg::FAR_EL1);
      sync.cmp(10, 13);
      sync.b_cond(isa::Cond::EQ, fetch);
      sync.add_i(10, 10, 4);
      sync.msr(SysReg::ELR_EL1, 10);
      sync.eret();
      sync.bind(fetch);
      sync.msr(SysReg::ELR_EL1, 30);
      sync.eret();
    }
    FunctionBuilder irq("irq");
    irq.add_i(20, 20, 1);
    irq.eret();
    t.install_vector(Cpu::kVecSyncEl1, sync);
    t.install_vector(Cpu::kVecIrqEl1, irq);
    t.core.pstate.irq_masked = false;
    t.core.set_timer_period(53);

    const size_t checks = check_against_frame_records(
        t, {{t.fn_addr(0), t.fn_addr(0) + 4 * main_words}, mid, leaf}, 23);
    ASSERT_EQ(t.core.halt_code(), 1u);
    EXPECT_GT(checks, 100u);
    EXPECT_GT(t.core.exception_steps(), 48u);  // IRQs and fetch aborts
  }
}

TEST(CallGraph, ShadowStackMatchesFrameRecordsOnRepeatedFaultingCall) {
  // main calls mid, which makes 10,000 calls into unmapped text; each fetch
  // aborts and the EL1 sync vector returns through x30. Inside mid the
  // shadow stack must hold main and mid and nothing else, every time.
  constexpr uint64_t kUnmappedText = kText + 0x20000;
  for (const cpu::Engine engine : cpu::kEngines) {
    SCOPED_TRACE(cpu::engine_name(engine));
    CpuHarness t(engine);
    FunctionBuilder main_fn("main");
    main_fn.mov_imm(29, 0);
    main_fn.mov_imm(9, t.fn_addr(1));
    main_fn.blr(9);
    main_fn.hlt(1);
    t.place(main_fn, 0, "main");
    const FramedRange mid = place_framed(t, 1, "mid", [](FunctionBuilder& f) {
      const auto loop = f.make_label();
      f.mov_imm(19, 10000);
      f.mov_imm(9, kUnmappedText);
      f.bind(loop);
      f.blr(9);
      f.sub_i(19, 19, 1);
      f.cbnz(19, loop);
    });
    FunctionBuilder vec("vec");
    vec.msr(SysReg::ELR_EL1, 30);
    vec.eret();
    t.install_vector(Cpu::kVecSyncEl1, vec);

    const size_t checks = check_against_frame_records(t, {mid}, 401);
    ASSERT_EQ(t.core.halt_code(), 1u);
    EXPECT_EQ(t.core.exception_steps(), 10000u);
    EXPECT_GT(checks, 100u);
  }
}

TEST_F(CallGraphTest, AttachingProfilerDoesNotChangeGuestCycles) {
  const auto build = [&](CpuHarness& t) {
    FunctionBuilder main_fn("main");
    main_fn.mov_imm(0, 3);
    main_fn.mov_imm(9, t.fn_addr(1));
    main_fn.blr(9);
    main_fn.hlt(1);
    FunctionBuilder rec("rec");
    auto done = rec.make_label();
    rec.stp_pre(29, 30, 31, -16);
    rec.cbz(0, done);
    rec.sub_i(0, 0, 1);
    rec.mov_imm(9, t.fn_addr(1));
    rec.blr(9);
    rec.bind(done);
    rec.ldp_post(29, 30, 31, 16);
    rec.ret();
    t.place(main_fn, 0, "main");
    t.place(rec, 1, "rec");
  };
  build(*this);
  run(/*attach=*/false);
  const uint64_t plain_cycles = core.cycles();
  const uint64_t plain_insns = core.retired();

  CpuHarness traced;
  build(traced);
  traced.run(/*attach=*/true);
  EXPECT_EQ(traced.core.cycles(), plain_cycles);
  EXPECT_EQ(traced.core.retired(), plain_insns);
  traced.expect_exact_accounting();
}

TEST_F(CallGraphTest, TopStacksOrdersByCycles) {
  FunctionBuilder main_fn("main");
  for (int i = 0; i < 8; ++i) main_fn.nop();
  main_fn.hlt(1);
  place(main_fn, 0, "main");
  run();
  const std::string top = cg.top_stacks(3);
  EXPECT_NE(top.find("main"), std::string::npos) << top;
  EXPECT_EQ(cg.hot_node_count(), 1u);
}

// ---------------------------------------------------------------------------
// Machine-level: the full kernel boot + syscall workload, profiled through
// the obs collector exactly as the benches use it.

TEST(CallGraphMachine, FoldedProfileAccountsForEveryKernelCycle) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::read_file(20, 64,
                                                  kernel::FileKind::Null));
  m.boot();
  ASSERT_TRUE(m.run());
  ASSERT_NE(m.stats(), nullptr);
  const CallGraphProfiler& cg = m.stats()->callgraph();
  EXPECT_EQ(cg.total_cycles(), m.cpu().cycles());
  EXPECT_EQ(cg.total_retires(), m.cpu().retired());
  const std::string folded = m.stats()->folded_profile();
  EXPECT_EQ(folded_cycle_sum(folded), m.cpu().cycles());
  // Syscalls from EL0 enter the kernel through synthetic exception frames.
  EXPECT_NE(folded.find("[exc:svc]"), std::string::npos);
  // Folded export is deterministic: sorted lines, byte-identical re-export.
  EXPECT_EQ(folded, m.stats()->folded_profile());
}

TEST(CallGraphMachine, CallgraphCanBeDisabledIndependently) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::none();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  cfg.obs.callgraph = false;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(5));
  m.boot();
  ASSERT_TRUE(m.run());
  ASSERT_NE(m.stats(), nullptr);
  EXPECT_EQ(m.stats()->callgraph().total_cycles(), 0u);
  EXPECT_EQ(m.stats()->folded_profile(), "");
  // The flat view is derived from the call graph, so it goes with it...
  EXPECT_TRUE(m.stats()->callgraph().flat_entries().empty());
  // ...while the collector's own retire feed still accounts for every
  // cycle and every retirement.
  const obs::Registry& reg = m.stats()->metrics();
  uint64_t cycles = 0, insns = 0;
  for (int el = 0; el < 3; ++el) {
    cycles += reg.value("cycles.el" + std::to_string(el));
    insns += reg.value("insn.el" + std::to_string(el));
  }
  EXPECT_EQ(cycles, m.cpu().cycles());
  EXPECT_EQ(insns, m.cpu().retired());
}

}  // namespace
}  // namespace camo
