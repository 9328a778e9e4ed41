// RetireFeed: the block and trace engines deliver one obs::RetireRun per
// executed straight-line run instead of one retire() per instruction
// (DESIGN.md §3e). A run record must be indistinguishable from the
// per-instruction records it replaces: the coverage map, call-graph and flat
// attribution and the collector's counters and flight ring are the same
// either way, and every export is byte-identical between the single-step,
// block and trace engines — including around an exception taken inside a
// block body and an authentication failure at a terminator, the two places
// the pending run must be flushed before an observer runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "assembler/builder.h"
#include "harness.h"
#include "obs/callgraph.h"
#include "obs/collector.h"
#include "obs/coverage.h"
#include "obs/flight.h"

namespace camo {
namespace {

using assembler::FunctionBuilder;
using obs::CallGraphProfiler;
using obs::RetireRun;
using obs::RetireSlot;

/// A run over `slots` starting at `va` (pa = va - 0x1000 for the tests that
/// do not care) whose last instruction absorbs `extra` cycles.
RetireRun make_run(uint64_t va, const std::vector<RetireSlot>& slots,
                   uint8_t el, uint64_t extra = 0) {
  RetireRun r;
  r.va = va;
  r.pa = va - 0x1000;
  r.slots = slots.data();
  r.n = static_cast<uint32_t>(slots.size());
  r.el = el;
  for (const RetireSlot& s : slots) r.cycles += s.cost;
  r.cycles += extra;
  return r;
}

/// The per-instruction records a run stands for, spelled out (not via
/// RetireRun::for_each, which the batched side itself uses).
void feed_stepped(obs::CycleAttributor& a, const RetireRun& r) {
  uint64_t left = r.cycles;
  for (uint32_t i = 0; i < r.n; ++i) {
    const uint64_t c = i + 1 == r.n ? left : r.cost(i);
    a.retire(r.va + 4 * i, r.el, r.slots[i].op_class, c);
    left -= c;
  }
}

// ---------------------------------------------------------------------------
// CoverageMap

TEST(RetireFeed, CoverageRunEqualsPerInstructionRetires) {
  struct Run {
    uint64_t pa, va;
    uint8_t el;
    uint64_t n;
  };
  const Run runs[] = {
      {0x1000, 0xF000, 1, 5},  // fresh block
      {0x1014, 0xF014, 1, 3},  // continues the previous run
      {0x2000, 0xA000, 0, 1},  // jump: new block and an edge
      {0x1000, 0xF000, 1, 8},  // re-entry, longer than before
      {0x3000, 0xB000, 2, 4},
      {0x3010, 0xB010, 1, 2},  // contiguous, EL changed: still one block
      {0x4000, 0xC000, 1, 1},
  };
  obs::CoverageMap batched, stepped;
  for (const Run& r : runs) {
    batched.retire_run(r.pa, r.va, r.el, r.n);
    for (uint64_t i = 0; i < r.n; ++i)
      stepped.retire(r.pa + 4 * i, r.va + 4 * i, r.el);
  }
  batched.retire_run(0x5000, 0xD000, 1, 0);  // empty runs are no-ops
  EXPECT_EQ(obs::cov_bundle_json(batched, "t", 1),
            obs::cov_bundle_json(stepped, "t", 1));
  // The open run's continuation state matches too: one more instruction
  // after the last run extends the same block in both maps.
  batched.retire(0x4004, 0xC004, 1);
  stepped.retire(0x4004, 0xC004, 1);
  EXPECT_EQ(obs::cov_bundle_json(batched, "t", 1),
            obs::cov_bundle_json(stepped, "t", 1));
  EXPECT_EQ(batched.retired_total(), stepped.retired_total());
}

// ---------------------------------------------------------------------------
// CallGraphProfiler

constexpr uint64_t kF = 0x10000;  ///< region "f": [kF, kF + 0x10)
constexpr uint64_t kG = 0x10010;  ///< region "g": [kG, kG + 0x20)

void add_regions(CallGraphProfiler& cg) {
  cg.add_region("f", kF, kF + 0x10);
  cg.add_region("g", kG, kG + 0x20);
}

void expect_same(const CallGraphProfiler& a, const CallGraphProfiler& b) {
  EXPECT_EQ(a.folded(), b.folded());
  EXPECT_EQ(a.flat_profile(), b.flat_profile());
  EXPECT_EQ(a.total_cycles(), b.total_cycles());
  EXPECT_EQ(a.total_retires(), b.total_retires());
  EXPECT_EQ(a.depth(), b.depth());
}

const std::vector<RetireSlot> kMixed = {{1, 0}, {4, 6}, {1, 4}, {2, 5},
                                        {1, 0}, {1, 1}, {1, 0}, {3, 0}};

TEST(RetireFeed, CallGraphRunFallingThroughIntoNextSymbolFromEmptyStack) {
  // Two instructions of f, then six of g: from an empty stack the first
  // record makes f the base frame and g lands as its appended leaf. The
  // last instruction also absorbs an exception-entry cost.
  CallGraphProfiler batched, stepped;
  add_regions(batched);
  add_regions(stepped);
  const RetireRun run = make_run(kF + 8, kMixed, 1, /*extra=*/12);
  batched.retire_run(run);
  feed_stepped(stepped, run);
  expect_same(batched, stepped);
  EXPECT_EQ(batched.folded(), "f 5\nf;g 21\n");
  EXPECT_EQ(batched.total_cycles(), run.cycles);
  EXPECT_EQ(batched.total_retires(), run.n);
}

TEST(RetireFeed, CallGraphRunFromOutsideEveryRegion) {
  // Starting in unregistered code ("[other]") and running into f.
  CallGraphProfiler batched, stepped;
  add_regions(batched);
  add_regions(stepped);
  const RetireRun run = make_run(kF - 12, kMixed, 0);
  batched.retire_run(run);
  feed_stepped(stepped, run);
  expect_same(batched, stepped);
  EXPECT_NE(batched.flat_profile().find("[other]"), std::string::npos);
}

TEST(RetireFeed, CallGraphRunAppliesPendingControlFlowAfterTheWholeRun) {
  // An exception taken by the run's last instruction fires its ExcEnter
  // event during that instruction, i.e. after its predecessors retired and
  // before its own record. In the batched feed the event is pending when the
  // run record arrives and must only apply after all of it, so every
  // instruction of the run (the faulting one included) stays on the
  // interrupted stack; the next record lands in the handler frame.
  CallGraphProfiler batched, stepped;
  add_regions(batched);
  add_regions(stepped);
  for (CallGraphProfiler* cg : {&batched, &stepped}) {
    cg->control_flow(obs::CfKind::Call, kF - 4, kF, 0);
    cg->retire(kF - 4, 1, 2, 1);  // the BL from [other] pushes f
  }
  const RetireRun run = make_run(kF, kMixed, 1, /*extra=*/12);
  const uint64_t last = run.va + 4 * (run.n - 1);
  RetireRun head = run;  // everything before the faulting instruction
  head.n = run.n - 1;
  head.cycles = 0;
  for (uint32_t i = 0; i < head.n; ++i) head.cycles += run.cost(i);
  feed_stepped(stepped, head);
  stepped.control_flow(obs::CfKind::ExcEnter, last, kG, 4);
  stepped.retire(last, run.el, run.slots[run.n - 1].op_class,
                 run.cycles - head.cycles);
  batched.control_flow(obs::CfKind::ExcEnter, last, kG, 4);
  batched.retire_run(run);
  for (CallGraphProfiler* cg : {&batched, &stepped})
    cg->retire(kG + 4, 1, 0, 1);
  expect_same(batched, stepped);
  EXPECT_NE(batched.folded().find("f;[exc:data-abort];g 1"),
            std::string::npos)
      << batched.folded();
}

TEST(RetireFeed, CallGraphRunUnderTruncatedOverflow) {
  // Calls nested past kMaxDepth collapse into "[truncated]": a whole run
  // there, across two regions, is one bucket either way.
  CallGraphProfiler batched, stepped;
  add_regions(batched);
  add_regions(stepped);
  for (CallGraphProfiler* cg : {&batched, &stepped}) {
    for (size_t i = 0; i < CallGraphProfiler::kMaxDepth + 3; ++i) {
      cg->control_flow(obs::CfKind::Call, kF, i % 2 ? kF : kG, 0);
      cg->retire(i % 2 ? kG : kF, 1, 2, 1);
    }
  }
  const RetireRun run = make_run(kF + 8, kMixed, 1);
  batched.retire_run(run);
  feed_stepped(stepped, run);
  expect_same(batched, stepped);
  EXPECT_NE(batched.folded().find("[truncated]"), std::string::npos);
  // Popping back out of the overflow resumes exact attribution.
  for (CallGraphProfiler* cg : {&batched, &stepped}) {
    for (int i = 0; i < 4; ++i) {
      cg->control_flow(obs::CfKind::Ret, kG, kF, 0);
      cg->retire(kG, 1, 3, 1);
    }
  }
  const RetireRun after = make_run(kG, kMixed, 1);
  batched.retire_run(after);
  feed_stepped(stepped, after);
  expect_same(batched, stepped);
}

TEST(RetireFeed, UnitCostRunChargesOnePerInstruction) {
  // Cycle model off: every instruction costs 1 whatever its slot says, and
  // the last still absorbs the exception entry.
  CallGraphProfiler batched, stepped;
  add_regions(batched);
  add_regions(stepped);
  RetireRun run = make_run(kF + 8, kMixed, 1);
  run.unit_cost = true;
  run.cycles = run.n + 12;
  batched.retire_run(run);
  feed_stepped(stepped, run);
  expect_same(batched, stepped);
  EXPECT_EQ(batched.folded(), "f 2\nf;g 18\n");
}

// ---------------------------------------------------------------------------
// Collector: counters, flight ring and both profiles.

TEST(RetireFeed, CollectorRunEqualsPerInstructionRetires) {
  obs::Options opts;
  opts.enabled = true;
  opts.flight_capacity = 16;  // small enough for the runs to wrap it
  obs::Collector batched(opts), stepped(opts);
  for (obs::Collector* c : {&batched, &stepped}) {
    c->enable_percpu(2);
    add_regions(c->callgraph());
  }
  const std::vector<RetireSlot> longer(20, RetireSlot{2, 4});
  const RetireRun runs[] = {make_run(kF, kMixed, 1),
                            make_run(kG, longer, 0, 12),
                            make_run(kF + 4, kMixed, 2)};
  unsigned cpu = 0;
  for (const RetireRun& r : runs) {
    batched.set_active_cpu(cpu);
    stepped.set_active_cpu(cpu);
    cpu ^= 1;
    batched.retire_run(r);
    feed_stepped(stepped, r);
  }
  EXPECT_EQ(batched.metrics_json(), stepped.metrics_json());
  EXPECT_EQ(batched.flat_profile(), stepped.flat_profile());
  EXPECT_EQ(batched.folded_profile(), stepped.folded_profile());
  const auto ring = [](const obs::Collector& c) {
    std::string s;
    for (const obs::FlightInsn& f : c.flight().live_ring())
      s += std::to_string(f.cycles) + ":" + std::to_string(f.pc) + ":" +
           std::to_string(f.op) + ":" + std::to_string(f.el) + "\n";
    return s;
  };
  EXPECT_EQ(ring(batched), ring(stepped));
}

// ---------------------------------------------------------------------------
// Engines: a hot loop whose callee takes a DataAbort inside a block body
// (once the loop is hot, so inside a trace too) and, later, fails an AUTIA
// at a block terminator. Whichever comes first freezes the flight ring: a
// stage-2 abort does (so the ring pins the flush at exception entry), a
// stage-1 one does not (so the AUTIA failure pins the flush before the
// terminator). Everything the collector exports must be byte-identical
// across the single-step, block and trace engines.

constexpr uint64_t kUnmapped = 0xFFFF000000900000ull;
/// Second data page, readable at stage 1 but denied by the stage-2 overlay.
constexpr uint64_t kS2Denied = testing::kHData + 0x1000;
constexpr uint64_t kS2DeniedPa = 0x31000;

/// Forwards to the collector, counting the two record kinds.
class CountingFeed : public obs::CycleAttributor {
 public:
  explicit CountingFeed(obs::CycleAttributor& to) : to_(to) {}
  void retire(uint64_t pc, uint8_t el, uint8_t op_class,
              uint64_t cycles) override {
    ++singles;
    to_.retire(pc, el, op_class, cycles);
  }
  void retire_run(const RetireRun& run) override {
    ++runs;
    to_.retire_run(run);
  }
  uint64_t singles = 0, runs = 0;

 private:
  obs::CycleAttributor& to_;
};

struct EngineExports {
  std::string folded, flat, metrics, chrome, flight, coverage;
  uint64_t cycles = 0, retired = 0, halt = 0;
  uint64_t singles = 0, runs = 0;
  uint64_t trace_hits = 0;
  obs::EventKind trigger = obs::EventKind::None;
};

EngineExports run_engine(bool superblocks, bool traces, bool stage2) {
  cpu::Cpu::Config cfg;
  cfg.fast_path = superblocks;
  cfg.superblocks = superblocks;
  cfg.traces = traces;
  testing::SimHarness sim(cfg);
  mem::Stage2Map s2;
  s2.restrict_range(kS2DeniedPa, 0x1000, {false, true, true});
  sim.mmu.set_stage2(&s2);

  const uint64_t leaf_va = testing::kHText + 0x400;
  FunctionBuilder main_fn("main");
  {
    const auto loop = main_fn.make_label();
    const auto keep_ptr = main_fn.make_label();
    const auto keep_mod = main_fn.make_label();
    main_fn.mov_imm(19, 40);  // iterations
    main_fn.mov_imm(4, 0x77);  // PAC modifier
    main_fn.mov_imm(5, testing::kHData);
    main_fn.mov_imm(12, 0);
    main_fn.bind(loop);
    main_fn.sub_i(19, 19, 1);
    main_fn.sub_i(11, 19, 12);
    main_fn.cbnz(11, keep_ptr);
    // From here on the leaf's load aborts.
    main_fn.mov_imm(5, stage2 ? kS2Denied : kUnmapped);
    main_fn.bind(keep_ptr);
    main_fn.sub_i(11, 19, 4);
    main_fn.cbnz(11, keep_mod);
    main_fn.mov_imm(12, uint64_t{1} << 50);  // ...and its AUTIA fails
    main_fn.bind(keep_mod);
    main_fn.mov_imm(9, leaf_va);
    main_fn.blr(9);
    main_fn.cbnz(19, loop);
    main_fn.hlt(1);
  }
  FunctionBuilder leaf("leaf");
  leaf.add_i(7, 7, 1);
  leaf.ldr(6, 5, 0);  // DataAbort mid-body once x5 is unmapped
  leaf.add_i(7, 7, 1);
  leaf.mov_imm(8, 0x1234);
  leaf.pacia(8, 4);
  leaf.eor(8, 8, 12);
  leaf.autia(8, 4);  // AuthFail at the terminator once x12 flips a PAC bit
  leaf.add_i(7, 7, 1);
  leaf.ret();
  // EL1 sync vector: step over the faulting load and return.
  FunctionBuilder vec("vec");
  vec.mrs(10, isa::SysReg::ELR_EL1);
  vec.add_i(10, 10, 4);
  vec.msr(isa::SysReg::ELR_EL1, 10);
  vec.eret();

  sim.write_words(leaf_va, leaf.assemble().words);
  sim.write_words(testing::kHVbar + cpu::Cpu::kVecSyncEl1,
                  vec.assemble().words);

  obs::Options opts;
  opts.enabled = true;
  opts.coverage = true;
  obs::Collector c(opts);
  c.callgraph().add_region("main", testing::kHText, leaf_va);
  c.callgraph().add_region("leaf", leaf_va, leaf_va + 0x100);
  c.callgraph().add_region("vectors", testing::kHVbar,
                           testing::kHVbar + 0x800);
  CountingFeed feed(c);
  sim.core.set_trace_sink(&c);
  sim.core.set_cycle_attributor(&feed);
  sim.core.set_cf_sink(&c);
  sim.core.set_audit_sink(&c);
  sim.core.set_coverage(&c.coverage());
  sim.run(main_fn);

  EngineExports e;
  e.folded = c.folded_profile();
  e.flat = c.flat_profile();
  e.metrics = c.metrics_json();
  e.chrome = c.chrome_trace_json();
  e.flight = obs::flight_bundle_json(c.flight(), c.audit_log().snapshot(),
                                     "retire-feed", "test", 1);
  e.coverage = obs::cov_bundle_json(c.coverage(), "retire-feed", 1);
  e.cycles = sim.core.cycles();
  e.retired = sim.core.retired();
  e.halt = sim.core.halted() ? sim.core.halt_code() : ~uint64_t{0};
  e.singles = feed.singles;
  e.runs = feed.runs;
  e.trace_hits = sim.core.superblock_stats().trace_hits;
  if (c.flight().captured()) e.trigger = c.flight().trigger_event().kind;
  return e;
}

void expect_engines_agree(bool stage2) {
  const EngineExports ref = run_engine(false, false, stage2);
  ASSERT_EQ(ref.halt, 1u);
  ASSERT_EQ(ref.trigger, stage2 ? obs::EventKind::Stage2Fault
                                : obs::EventKind::AuthFail);
  EXPECT_NE(ref.metrics.find("\"exc.data-abort\""), std::string::npos);
  EXPECT_NE(ref.metrics.find("\"pauth.auth.fail\""), std::string::npos);
  EXPECT_EQ(ref.metrics.find("\"stage2.fault\"") != std::string::npos,
            stage2);
  EXPECT_EQ(ref.runs, 0u) << "the single-step oracle sends no run records";

  for (const bool traces : {false, true}) {
    SCOPED_TRACE(traces ? "trace engine" : "block engine");
    const EngineExports cur = run_engine(true, traces, stage2);
    EXPECT_EQ(cur.cycles, ref.cycles);
    EXPECT_EQ(cur.retired, ref.retired);
    EXPECT_EQ(cur.halt, ref.halt);
    EXPECT_EQ(cur.flight, ref.flight);
    EXPECT_EQ(cur.folded, ref.folded);
    EXPECT_EQ(cur.flat, ref.flat);
    EXPECT_EQ(cur.metrics, ref.metrics);
    EXPECT_EQ(cur.chrome, ref.chrome);
    EXPECT_EQ(cur.coverage, ref.coverage);
    // The engines batch: far fewer records than retirements.
    EXPECT_GT(cur.runs, 0u);
    EXPECT_LT(cur.runs + cur.singles, ref.singles);
    if (traces) {
      EXPECT_GT(cur.trace_hits, 0u);
    }
  }
}

TEST(RetireFeed, EnginesAgreeWhenAStage2AbortInABlockBodyFreezesTheRing) {
  expect_engines_agree(/*stage2=*/true);
}

TEST(RetireFeed, EnginesAgreeWhenAnAuthFailAtATerminatorFreezesTheRing) {
  expect_engines_agree(/*stage2=*/false);
}

}  // namespace
}  // namespace camo
