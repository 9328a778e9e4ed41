// RetireFeed: the engines deliver one obs::RetireRun record per stretch
// between two flush points (a block, or a trace dispatch's segments) where
// the single-step path delivers a record of one per instruction (DESIGN.md
// §3e). A record must be indistinguishable from the records of one it
// replaces: the coverage map, call-graph and flat attribution and the
// collector's counters and flight ring are the same either way, and every
// export is byte-identical between the single-step, block and trace
// engines — including around an exception taken inside a block body and an
// authentication failure at a terminator, two places the pending record
// must be flushed before an observer runs.
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "assembler/builder.h"
#include "harness.h"
#include "obs/callgraph.h"
#include "obs/collector.h"
#include "obs/coverage.h"
#include "obs/flight.h"
#include "obs/json.h"

namespace camo {
namespace {

using assembler::FunctionBuilder;
using obs::CallGraphProfiler;
using obs::RetireRun;
using obs::RetireSlot;

/// A segment list that outlives every record the tests build over it.
const obs::RetireSeg* segments(std::vector<obs::RetireSeg> segs) {
  static std::deque<std::vector<obs::RetireSeg>> keep;
  return keep.emplace_back(std::move(segs)).data();
}

/// A record over `slots` walking `segs` (pa = va - 0x1000 for the tests
/// that do not care) from `skip` instructions in, whose last instruction
/// absorbs `extra` cycles.
RetireRun make_segs_run(const std::vector<std::pair<uint64_t, uint32_t>>& segs,
                        const std::vector<RetireSlot>& slots, uint8_t el,
                        uint64_t extra = 0, uint32_t skip = 0) {
  std::vector<obs::RetireSeg> list;
  for (const auto& [va, n] : segs) list.push_back({va, va - 0x1000, n});
  RetireRun r;
  r.segs = segments(std::move(list));
  r.slots = slots.data();
  r.n = static_cast<uint32_t>(slots.size());
  r.skip = skip;
  r.el = el;
  for (const RetireSlot& s : slots) r.cycles += s.cost;
  r.cycles += extra;
  return r;
}

/// A record of one straight-line run over `slots` starting at `va`.
RetireRun make_run(uint64_t va, const std::vector<RetireSlot>& slots,
                   uint8_t el, uint64_t extra = 0) {
  return make_segs_run({{va, static_cast<uint32_t>(slots.size())}}, slots, el,
                       extra);
}

/// The record Cpu::step() delivers: a record of one at `pc` carrying the
/// whole step's `cycles`.
void step_record(obs::CycleAttributor& a, uint64_t pc, uint8_t el,
                 uint8_t op_class, uint64_t cycles) {
  const RetireSlot slot{1, op_class};
  const obs::RetireSeg seg{pc, pc - 0x1000, 1};
  a.retire_run({&seg, &slot, cycles, 1, 0, el});
}

/// The pcs of a record's instructions, spelled out (not via
/// RetireRun::for_each_seg, which the batched side itself uses).
std::vector<uint64_t> record_pcs(const RetireRun& r) {
  std::vector<uint64_t> pcs;
  uint32_t skip = r.skip;
  for (const obs::RetireSeg* s = r.segs; pcs.size() < r.n; ++s)
    for (uint32_t i = 0; i < s->n && pcs.size() < r.n; ++i)
      if (skip > 0)
        --skip;
      else
        pcs.push_back(s->va + 4 * uint64_t{i});
  return pcs;
}

/// The records of one a record stands for, spelled out.
void feed_stepped(obs::CycleAttributor& a, const RetireRun& r) {
  const std::vector<uint64_t> pcs = record_pcs(r);
  uint64_t left = r.cycles;
  for (uint32_t i = 0; i < r.n; ++i) {
    const uint64_t c = i + 1 == r.n ? left : r.slots[i].cost;
    step_record(a, pcs[i], r.el, r.slots[i].op_class, c);
    left -= c;
  }
}

/// `slots` spread over one to four segments at random pcs, after a skipped
/// lead-in segment and before an unused tail: the shapes a quiet-loop
/// record takes across segment boundaries and after a mid-record flush.
RetireRun scatter_run(std::mt19937& rng, const std::vector<RetireSlot>& slots,
                      uint8_t el, uint64_t extra) {
  std::vector<std::pair<uint64_t, uint32_t>> segs;
  const uint32_t lead = rng() % 3;
  if (lead > 0) segs.push_back({0x90000 + 4 * uint64_t{rng() % 1024}, lead});
  for (uint32_t left = static_cast<uint32_t>(slots.size()); left > 0;) {
    const uint32_t k = left == 1 || segs.size() >= 4 ? left : 1 + rng() % left;
    segs.push_back({0x80000 + 4 * uint64_t{rng() % 4096}, k});
    left -= k;
  }
  segs.back().second += rng() % 3;
  return make_segs_run(segs, slots, el, extra, lead);
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
      stepped.retire_run(r.pa + 4 * i, r.va + 4 * i, r.el, 1);
  }
  batched.retire_run(0x5000, 0xD000, 1, 0);  // empty runs are no-ops
  EXPECT_EQ(obs::cov_bundle_json(batched, "t", 1),
            obs::cov_bundle_json(stepped, "t", 1));
  // The open run's continuation state matches too: one more instruction
  // after the last run extends the same block in both maps.
  batched.retire_run(0x4004, 0xC004, 1, 1);
  stepped.retire_run(0x4004, 0xC004, 1, 1);
  EXPECT_EQ(obs::cov_bundle_json(batched, "t", 1),
            obs::cov_bundle_json(stepped, "t", 1));
  EXPECT_EQ(batched.retired_total(), stepped.retired_total());
}

/// One step of a coverage stream: a run of n instructions at pa.
struct CovRun {
  uint64_t pa;
  uint8_t el;
  uint64_t n;
};

void feed(obs::CoverageMap& m, const std::vector<CovRun>& s, size_t from,
          size_t to) {
  for (size_t i = from; i < to; ++i)
    m.retire_run(s[i].pa, s[i].pa + 0x40000000, s[i].el, s[i].n);
}

std::string cov_bytes(const obs::CoverageMap& m) {
  return obs::cov_bundle_json(m, "t", 1);
}

/// A seeded stream over block starts that collide in the lookup memo
/// (starts 4 KiB apart share a slot), with loops back to earlier starts,
/// fall-through continuations and runs split in two mid-block.
std::vector<CovRun> memo_stream(uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint64_t> starts;
  for (uint64_t i = 0; i < 24; ++i)
    starts.push_back(0x40000 + (i % 6) * 0x1000 + (i / 6) * 0x40);
  std::vector<CovRun> s;
  while (s.size() < 400) {
    const uint64_t pa = starts[rng() % starts.size()];
    const uint8_t el = static_cast<uint8_t>(rng() % 3);
    const uint64_t n = 1 + rng() % 12;
    if (rng() % 4 == 0 && n > 1) {  // one block delivered as two runs
      s.push_back({pa, el, n / 2});
      s.push_back({pa + 4 * (n / 2), el, n - n / 2});
    } else {
      s.push_back({pa, el, n});
    }
  }
  return s;
}

/// From `start`, copying, copy-assigning, moving and snapshotting the map
/// at several points of `s` (mid-run included) leaves a map that, fed the
/// rest of the stream, equals the one fed `s` uninterrupted.
void expect_interruptions_invisible(const obs::CoverageMap& start,
                                    const std::vector<CovRun>& s) {
  obs::CoverageMap whole = start;
  feed(whole, s, 0, s.size());
  const std::string want = cov_bytes(whole);
  for (const size_t k : {size_t{1}, size_t{37}, s.size() / 2, s.size() - 1}) {
    SCOPED_TRACE(k);
    obs::CoverageMap a = start;
    feed(a, s, 0, k);
    obs::CoverageMap prefix = start;  // what a snapshot at k must hold
    feed(prefix, s, 0, k);

    obs::CoverageMap copied(a);
    obs::CoverageMap assigned;  // with a memo of its own, over other nodes
    feed(assigned, s, k, s.size());
    assigned = a;
    const obs::CoverageMap snap = a.snapshot();
    EXPECT_EQ(cov_bytes(snap), cov_bytes(prefix));

    feed(copied, s, k, s.size());
    feed(assigned, s, k, s.size());
    EXPECT_EQ(cov_bytes(copied), want);
    EXPECT_EQ(cov_bytes(assigned), want);

    obs::CoverageMap moved(std::move(a));
    feed(moved, s, k, s.size());
    EXPECT_EQ(cov_bytes(moved), want);
    a = start;  // the moved-from map is reusable
    feed(a, s, 0, s.size());
    EXPECT_EQ(cov_bytes(a), want);

    obs::CoverageMap move_assigned;
    feed(move_assigned, s, 0, k);
    obs::CoverageMap donor = prefix;
    move_assigned = std::move(donor);
    feed(move_assigned, s, k, s.size());
    EXPECT_EQ(cov_bytes(move_assigned), want);
  }
}

TEST(RetireFeed, CoverageLookupCacheSurvivesCopyMoveAndMerge) {
  const std::vector<CovRun> s = memo_stream(7);
  {
    SCOPED_TRACE("fresh map");
    expect_interruptions_invisible(obs::CoverageMap{}, s);
  }
  // A map whose memo is armed, then merged into: the merge adds nodes (and
  // bumps existing ones) behind the memo's back, which must stay valid.
  const std::vector<CovRun> other = memo_stream(8);
  obs::CoverageMap donor;
  feed(donor, other, 0, other.size());
  obs::CoverageMap merged;
  feed(merged, s, 0, 100);
  merged.merge_from(donor.snapshot());
  {
    SCOPED_TRACE("after merge_from");
    // The reference builds the same contents with no memo history.
    obs::CoverageMap ref;
    obs::CoverageMap head;
    feed(head, s, 0, 100);
    ref.merge_from(head.snapshot());
    ref.merge_from(donor.snapshot());
    feed(ref, s, 0, s.size());
    obs::CoverageMap cur = merged;
    feed(merged, s, 0, s.size());
    EXPECT_EQ(cov_bytes(merged), cov_bytes(ref));
    expect_interruptions_invisible(cur, s);
  }
  {
    SCOPED_TRACE("after cov_bundle_from_json");
    obs::CovBundle b;
    const auto doc = obs::json::Value::parse(cov_bytes(donor));
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(obs::cov_bundle_from_json(*doc, &b));
    expect_interruptions_invisible(b.map, s);
    obs::CoverageMap ref;
    ref.merge_from(donor.snapshot());
    feed(ref, s, 0, s.size());
    feed(b.map, s, 0, s.size());
    EXPECT_EQ(cov_bytes(b.map), cov_bytes(ref));
  }
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
    cg->control_flow(0, obs::CfKind::Call, kF - 4, kF, 0);
    step_record(*cg, kF - 4, 1, 2, 1);  // the BL from [other] pushes f
  }
  const RetireRun run = make_run(kF, kMixed, 1, /*extra=*/12);
  const uint64_t last = record_pcs(run).back();
  RetireRun head = run;  // everything before the faulting instruction
  head.n = run.n - 1;
  head.cycles = 0;
  for (uint32_t i = 0; i < head.n; ++i) head.cycles += run.slots[i].cost;
  feed_stepped(stepped, head);
  stepped.control_flow(0, obs::CfKind::ExcEnter, last, kG, 4);
  step_record(stepped, last, run.el, run.slots[run.n - 1].op_class,
              run.cycles - head.cycles);
  batched.control_flow(0, obs::CfKind::ExcEnter, last, kG, 4);
  batched.retire_run(run);
  for (CallGraphProfiler* cg : {&batched, &stepped})
    step_record(*cg, kG + 4, 1, 0, 1);
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
      cg->control_flow(0, obs::CfKind::Call, kF, i % 2 ? kF : kG, 0);
      step_record(*cg, i % 2 ? kG : kF, 1, 2, 1);
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
      cg->control_flow(0, obs::CfKind::Ret, kG, kF, 0);
      step_record(*cg, kG, 1, 3, 1);
    }
  }
  const RetireRun after = make_run(kG, kMixed, 1);
  batched.retire_run(after);
  feed_stepped(stepped, after);
  expect_same(batched, stepped);
}

TEST(RetireFeed, CallGraphWholeRunFastPath) {
  // A run that starts and ends in the cached region is attributed in one
  // step; every other run takes the per-instruction grouping. Both must
  // match runs of one, in folded and flat output alike.
  constexpr uint64_t kH = 0x10030;  ///< region "h": [kH, kH + 0x10)
  CallGraphProfiler batched, stepped;
  const auto both = [&](auto&& f) {
    f(batched);
    f(stepped);
  };
  const auto run = [&](const RetireRun& r) {
    batched.retire_run(r);
    feed_stepped(stepped, r);
    expect_same(batched, stepped);
  };
  const std::vector<RetireSlot> two = {{1, 0}, {3, 4}};
  const std::vector<RetireSlot> four = {{1, 0}, {2, 5}, {1, 0}, {1, 1}};
  both([](CallGraphProfiler& cg) { cg.add_region("f", kF, kF + 0x10); });
  {
    SCOPED_TRACE("empty stack, first run after add_region");
    run(make_run(kF, two, 1));
  }
  {
    SCOPED_TRACE("inside the cached region");
    run(make_run(kF + 4, two, 1, /*extra=*/12));
  }
  {
    SCOPED_TRACE("last instruction outside every region");
    run(make_run(kF + 8, four, 1));
  }
  {
    SCOPED_TRACE("first instruction outside, last in the cached region");
    run(make_run(kF + 4, two, 1));
    run(make_run(kF - 8, four, 1));
  }
  both([](CallGraphProfiler& cg) { cg.add_region("g", kG, kG + 0x20); });
  {
    SCOPED_TRACE("first run after a later add_region");
    run(make_run(kG, four, 1));
  }
  {
    SCOPED_TRACE("last instruction crosses into the next region");
    run(make_run(kF + 8, four, 1));
  }
  both([](CallGraphProfiler& cg) { cg.add_region("h", kH, kH + 0x10); });
  // f's child g is its memoized child; a call gives f a second child h
  // between two attributions to g.
  {
    SCOPED_TRACE("node gains a second child between attributions");
    run(make_run(kG + 4, two, 1));  // f;g
    both([](CallGraphProfiler& cg) {
      cg.control_flow(0, obs::CfKind::Call, kF + 8, kH, 0);
      step_record(cg, kF + 8, 1, 2, 1);  // the BL, in f: pushes f;h
    });
    run(make_run(kH, two, 1));  // f;h
    both([](CallGraphProfiler& cg) {
      cg.control_flow(0, obs::CfKind::Ret, kH + 8, kG + 8, 0);
      step_record(cg, kH + 8, 1, 3, 1);
    });
    run(make_run(kG + 8, four, 1));  // f;g again, past f's memo of h
    run(make_run(kF - 8, four, 1));  // f;[other], past f's memo of g
  }
  {
    SCOPED_TRACE("run on an emptied stack");
    both([](CallGraphProfiler& cg) {
      cg.control_flow(0, obs::CfKind::Ret, kG + 12, kH, 0);
      step_record(cg, kG + 12, 1, 3, 1);
    });
    EXPECT_EQ(batched.depth(), 0u);
    run(make_run(kH, four, 1));
  }
  // Both sides share child(), so pin the tree itself too.
  EXPECT_EQ(batched.folded(),
            "f 35\nf;[other] 8\nf;g 17\nf;h 5\nh 5\n");
}

TEST(RetireFeed, CallGraphRecordAppliesCallsAndReturnsAtTheirStretch) {
  // One record through f, a call into g (the BL ends the first stretch),
  // g up to its RET (which ends the second) and back into f. Each event
  // applies right after the stretch ending at its pc, so g's instructions
  // land on f;g and those after the return on f, as records of one put
  // them; the last instruction also absorbs an exception-entry cost.
  CallGraphProfiler batched, stepped;
  add_regions(batched);
  add_regions(stepped);
  const std::vector<RetireSlot> slots = {{1, 0}, {1, 0}, {1, 2}, {2, 0},
                                         {1, 4}, {1, 0}, {1, 3}, {3, 0}};
  const RetireRun run =
      make_segs_run({{kF, 3}, {kG, 4}, {kF + 12, 1}}, slots, 1, /*extra=*/12);
  batched.control_flow(0, obs::CfKind::Call, kF + 8, kG, 0);
  batched.control_flow(0, obs::CfKind::Ret, kG + 12, kF + 12, 0);
  batched.retire_run(run);
  const std::vector<uint64_t> pcs = record_pcs(run);
  uint64_t left = run.cycles;
  for (uint32_t i = 0; i < run.n; ++i) {
    if (pcs[i] == kF + 8)
      stepped.control_flow(0, obs::CfKind::Call, kF + 8, kG, 0);
    if (pcs[i] == kG + 12)
      stepped.control_flow(0, obs::CfKind::Ret, kG + 12, kF + 12, 0);
    const uint64_t c = i + 1 == run.n ? left : slots[i].cost;
    step_record(stepped, pcs[i], 1, slots[i].op_class, c);
    left -= c;
  }
  expect_same(batched, stepped);
  EXPECT_EQ(batched.folded(), "f 18\nf;g 5\n");
  EXPECT_EQ(batched.depth(), 1u);
}

// ---------------------------------------------------------------------------
// Collector: counters, flight ring and both profiles.

TEST(RetireFeed, CollectorRunEqualsPerInstructionRetires) {
  obs::Options opts;
  opts.enabled = true;
  opts.flight_capacity = 16;  // small enough for the runs to wrap it
  obs::Collector batched(opts), stepped(opts);
  for (obs::Collector* c : {&batched, &stepped}) add_regions(c->callgraph());
  const std::vector<RetireSlot> longer(20, RetireSlot{2, 4});
  const RetireRun runs[] = {make_run(kF, kMixed, 1),
                            make_run(kG, longer, 0, 12),
                            make_run(kF + 4, kMixed, 2),
                            make_segs_run({{kG, 5}, {kF, 3}}, kMixed, 1, 12)};
  for (const RetireRun& r : runs) {
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
// FlightRecorder: run records against a per-instruction reference ring.

std::string ring_text(const std::vector<obs::FlightInsn>& ring) {
  std::string s;
  for (const obs::FlightInsn& f : ring)
    s += std::to_string(f.cycles) + ":" + std::to_string(f.pc) + ":" +
         std::to_string(f.op) + ":" + std::to_string(f.el) + "\n";
  return s;
}

/// The last `cap` instructions, pushed one at a time.
struct ReferenceRing {
  size_t cap;
  std::deque<obs::FlightInsn> q;
  void push(const obs::FlightInsn& f) {
    q.push_back(f);
    if (q.size() > cap) q.pop_front();
  }
  std::vector<obs::FlightInsn> get() const { return {q.begin(), q.end()}; }
};

TEST(RetireFeed, FlightRingFromRunRecords) {
  for (const size_t cap : {size_t{1}, size_t{3}, size_t{256}}) {
    SCOPED_TRACE(cap);
    std::mt19937 rng(static_cast<uint32_t>(cap * 2));
    obs::FlightRecorder rec(cap);
    ReferenceRing ref{cap, {}};
    uint64_t cycles = 0;
    std::vector<RetireSlot> slots;
    // A single step's record: a run of one carrying `c` cycles.
    const auto step = [&](uint64_t pc, uint8_t op, uint8_t el, uint64_t c) {
      const RetireSlot slot{1, op};
      const obs::RetireSeg seg{pc, 0, 1};
      rec.retire_run(cycles, {&seg, &slot, c, 1, 0, el});
      ref.push({cycles, pc, op, el});
      cycles += c;
    };
    // One random record: a run of 1 to 3 * cap instructions (sometimes
    // absorbing an exception-entry cost), or a single step.
    const auto record = [&] {
      const uint64_t pc = 0x80000 + 4 * (rng() % 4096);
      const uint8_t el = static_cast<uint8_t>(rng() % 3);
      if (rng() % 5 == 0) {
        const uint8_t op = static_cast<uint8_t>(rng() % 9);
        step(pc, op, el, 1 + rng() % 20);
        return;
      }
      slots.assign(1 + rng() % (3 * cap), RetireSlot{});
      for (RetireSlot& sl : slots)
        sl = {static_cast<uint8_t>(1 + rng() % 8),
              static_cast<uint8_t>(rng() % 9)};
      const uint64_t extra = rng() % 2 ? 12 : 0;
      const RetireRun r = rng() % 2 ? make_run(pc, slots, el, extra)
                                    : scatter_run(rng, slots, el, extra);
      rec.retire_run(cycles, r);
      uint64_t c = cycles;
      const std::vector<uint64_t> pcs = record_pcs(r);
      for (uint32_t i = 0; i < r.n; ++i) {
        ref.push({c, pcs[i], slots[i].op_class, el});
        c += slots[i].cost;
      }
      cycles += r.cycles;
      // The recorder must own copies: clobber the caller's slots.
      for (RetireSlot& sl : slots) sl = {0xEE, 0xEE};
    };

    // A ring that never fills.
    step(0x1000, 2, 1, 3);
    if (cap > 1) {
      EXPECT_EQ(rec.live_ring().size(), 1u);
    }
    EXPECT_EQ(ring_text(rec.live_ring()), ring_text(ref.get()));

    std::string frozen;
    for (int i = 0; i < 120; ++i) {
      record();
      ASSERT_EQ(ring_text(rec.live_ring()), ring_text(ref.get()))
          << "record " << i;
      if (i == 60) {  // trigger mid-stream freezes the window
        obs::TraceEvent e;
        e.kind = obs::EventKind::AuthFail;
        rec.trigger(e);
        frozen = ring_text(ref.get());
      }
    }
    EXPECT_TRUE(rec.captured());
    EXPECT_EQ(ring_text(rec.ring()), frozen);

    // clear() and reuse: the old stream leaves nothing behind.
    rec.clear();
    ref.q.clear();
    EXPECT_TRUE(rec.live_ring().empty());
    EXPECT_FALSE(rec.captured());
    for (int i = 0; i < 40; ++i) {
      record();
      ASSERT_EQ(ring_text(rec.live_ring()), ring_text(ref.get()))
          << "after clear, record " << i;
    }
  }
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

/// Forwards to the collector, counting all records and the runs of one.
class CountingFeed : public obs::CycleAttributor {
 public:
  explicit CountingFeed(obs::CycleAttributor& to) : to_(to) {}
  void retire_run(const RetireRun& run) override {
    ++records;
    if (run.n == 1) ++singles;
    to_.retire_run(run);
  }
  uint64_t records = 0, singles = 0;

 private:
  obs::CycleAttributor& to_;
};

struct EngineExports {
  std::string folded, flat, metrics, chrome, flight, coverage;
  uint64_t cycles = 0, retired = 0, halt = 0;
  uint64_t records = 0, singles = 0;
  uint64_t trace_hits = 0;
  obs::EventKind trigger = obs::EventKind::None;
};

/// Runs the guest at sim.core.pc to halt with a collector attached through a
/// CountingFeed (coverage on, regions main/leaf/vectors) and returns every
/// export, its bundles named after `scenario`.
EngineExports observe(testing::SimHarness& sim, uint64_t leaf_va,
                      const char* scenario) {
  obs::Options opts;
  opts.enabled = true;
  opts.coverage = true;
  obs::Collector c(opts);
  c.callgraph().add_region("main", testing::kHText, leaf_va);
  c.callgraph().add_region("leaf", leaf_va, leaf_va + 0x100);
  c.callgraph().add_region("vectors", testing::kHVbar,
                           testing::kHVbar + 0x800);
  CountingFeed feed(c);
  sim.core.set_collector(&c);
  sim.core.set_cycle_attributor(&feed);
  sim.core.set_cf_sink(&c);
  sim.core.set_coverage(&c.coverage());
  sim.core.run(200000);
  const cpu::Cpu* cores[] = {&sim.core};
  cpu::publish_retire_counters(c.metrics(), cores);

  EngineExports e;
  e.folded = c.folded_profile();
  e.flat = c.flat_profile();
  e.metrics = c.metrics_json();
  e.chrome = c.chrome_trace_json();
  e.flight = obs::flight_bundle_json(c.flight(), c.audit_log().snapshot(),
                                     scenario, "test", 1);
  e.coverage = obs::cov_bundle_json(c.coverage(), scenario, 1);
  e.cycles = sim.core.cycles();
  e.retired = sim.core.retired();
  e.halt = sim.core.halted() ? sim.core.halt_code() : ~uint64_t{0};
  e.records = feed.records;
  e.singles = feed.singles;
  e.trace_hits = sim.core.superblock_stats().trace_hits;
  if (c.flight().captured()) e.trigger = c.flight().trigger_event().kind;
  return e;
}

EngineExports run_engine(cpu::Engine engine, bool stage2) {
  cpu::Cpu::Config cfg;
  cfg.engine = engine;
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

  sim.write_words(testing::kHText, main_fn.assemble().words);
  sim.write_words(leaf_va, leaf.assemble().words);
  sim.write_words(testing::kHVbar + cpu::Cpu::kVecSyncEl1,
                  vec.assemble().words);
  sim.core.pc = testing::kHText;
  return observe(sim, leaf_va, "retire-feed");
}

void expect_engines_agree(bool stage2) {
  const EngineExports ref = run_engine(cpu::Engine::Reference, stage2);
  ASSERT_EQ(ref.halt, 1u);
  ASSERT_EQ(ref.trigger, stage2 ? obs::EventKind::Stage2Fault
                                : obs::EventKind::AuthFail);
  EXPECT_NE(ref.metrics.find("\"exc.data-abort\""), std::string::npos);
  EXPECT_NE(ref.metrics.find("\"pauth.auth.fail\""), std::string::npos);
  EXPECT_EQ(ref.metrics.find("\"stage2.fault\"") != std::string::npos,
            stage2);
  EXPECT_EQ(ref.singles, ref.records)
      << "the single-step oracle sends only runs of one";

  for (const cpu::Engine engine : {cpu::Engine::Block, cpu::Engine::Trace}) {
    SCOPED_TRACE(cpu::engine_name(engine));
    const EngineExports cur = run_engine(engine, stage2);
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
    EXPECT_LT(cur.singles, cur.records);
    EXPECT_LT(cur.records, ref.records);
    if (engine == cpu::Engine::Trace) {
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


// ---------------------------------------------------------------------------
// Trace dispatches: one record walks a whole quiet-loop dispatch.

/// A loop of three blocks joined by B and CBNZ (no call, return or system
/// op), `iters` times, then HLT: on the trace tier a trace unrolls it and
/// the quiet loop runs whole dispatches with nothing to flush inside.
void write_hot_loop(testing::SimHarness& sim, uint64_t iters) {
  FunctionBuilder f("main");
  const auto loop = f.make_label();
  const auto mid = f.make_label();
  const auto tail = f.make_label();
  f.mov_imm(19, iters);
  f.bind(loop);
  f.sub_i(19, 19, 1);
  f.add_i(7, 7, 1);
  f.b(mid);
  f.bind(mid);
  f.add_i(8, 8, 2);
  f.b(tail);
  f.bind(tail);
  f.eor(9, 9, 7);
  f.cbnz(19, loop);
  f.hlt(1);
  sim.write_words(testing::kHText, f.assemble().words);
  sim.core.pc = testing::kHText;
}

TEST(RetireFeed, TraceDispatchIsOneRecordNotOnePerBlock) {
  // Structural guard: a record may end only at a flush point — an alone
  // instruction (before and after it), an exception, the budget or the end
  // of a dispatch — so the records delivered are bounded by dispatches plus
  // twice the alone instructions plus the exceptions. One record per block
  // (three per iteration here) breaks the bound many times over.
  constexpr uint64_t kIters = 3000;
  cpu::Cpu::Config cfg;
  cfg.engine = cpu::Engine::Trace;
  testing::SimHarness sim(cfg);
  write_hot_loop(sim, kIters);
  obs::Options opts;
  opts.enabled = true;
  opts.coverage = true;
  obs::Collector c(opts);
  CountingFeed feed(c);
  sim.core.set_collector(&c);
  sim.core.set_cycle_attributor(&feed);
  sim.core.set_cf_sink(&c);
  sim.core.set_coverage(&c.coverage());
  sim.core.run(1'000'000);
  ASSERT_EQ(sim.core.halt_code(), 1u);

  const cpu::SuperblockStats& st = sim.core.superblock_stats();
  EXPECT_GT(st.trace_hits, kIters / 32);
  const uint64_t alone = sim.core.op_count(isa::Op::HVC) +
                         sim.core.op_count(isa::Op::MSR);
  EXPECT_EQ(alone, 0u);
  EXPECT_EQ(sim.core.exception_steps(), 0u);
  EXPECT_LE(feed.records,
            st.run_length.count() + 2 * alone + sim.core.exception_steps());
  EXPECT_LT(feed.records, kIters / 4);
  EXPECT_EQ(c.callgraph().total_retires(), sim.core.retired());
  EXPECT_EQ(c.coverage().retired_total(), sim.core.retired());
}

TEST(RetireFeed, FlightRingOutlivesADroppedTrace) {
  // The flight ring keeps copies of what it rebuilds PCs from: a trace
  // dropped while the ring still covers its records (a host store into the
  // trace's page) leaves the ring, and the bundle a later trigger freezes,
  // equal to the single-step oracle's. Under ASan a ring that kept pointers
  // into the dropped trace fails here.
  const auto run = [](cpu::Engine engine) {
    cpu::Cpu::Config cfg;
    cfg.engine = engine;
    testing::SimHarness sim(cfg);
    write_hot_loop(sim, 3000);
    obs::Options opts;
    opts.enabled = true;
    obs::Collector c(opts);
    sim.core.set_collector(&c);
    sim.core.set_cycle_attributor(&c);
    sim.core.set_cf_sink(&c);
    sim.core.run(5000);  // mid-dispatch: the budget flushes a record
    const uint64_t dropped = sim.core.superblock_stats().trace_invalidations;
    if (engine == cpu::Engine::Trace) {
      EXPECT_GT(sim.core.superblock_stats().trace_hits, 0u);
    }
    // An unused word of the loop's page: its write generation moves, so
    // the next dispatch drops the trace.
    sim.write_words(testing::kHText + 0x800, {0xD503201F});
    sim.core.run(30);
    if (engine == cpu::Engine::Trace) {
      EXPECT_GT(sim.core.superblock_stats().trace_invalidations, dropped);
    }
    EXPECT_EQ(c.flight().live_ring().size(), opts.flight_capacity);
    obs::TraceEvent e;
    e.kind = obs::EventKind::AuthFail;
    e.cycles = sim.core.cycles();
    c.flight().trigger(e);
    return obs::flight_bundle_json(c.flight(), c.audit_log().snapshot(),
                                   "flight-lifetime", "test", 1);
  };
  const std::string ref = run(cpu::Engine::Reference);
  for (const cpu::Engine engine : {cpu::Engine::Block, cpu::Engine::Trace}) {
    SCOPED_TRACE(cpu::engine_name(engine));
    EXPECT_EQ(run(engine), ref);
  }
}

// ---------------------------------------------------------------------------
// Golden digests: the parity tests above compare engines against the
// single-step oracle, so a change to the oracle's own feed (coverage fed on
// an IRQ-only step, a record moved to another pc) would pass them. This
// guest meets every shape the single-step path and the engines deliver —
// timer IRQs taken between any two instructions, instruction-fetch aborts
// (an unmapped and a misaligned BLR target), a DataAbort inside a block
// body, a failing AUTIA at a terminator and the alone terminators around
// them — and pins an FNV-1a digest of every export on all four tiers.

using testing::fnv1a;

EngineExports run_golden(cpu::Engine engine) {
  cpu::Cpu::Config cfg;
  cfg.engine = engine;
  testing::SimHarness sim(cfg);

  const uint64_t leaf_va = testing::kHText + 0x400;
  FunctionBuilder main_fn("main");
  {
    const auto loop = main_fn.make_label();
    const auto keep_ptr = main_fn.make_label();
    const auto keep_mod = main_fn.make_label();
    const auto no_fetch_fault = main_fn.make_label();
    const auto aligned = main_fn.make_label();
    main_fn.mov_imm(19, 48);  // iterations
    main_fn.mov_imm(4, 0x77);
    main_fn.mov_imm(5, testing::kHData);
    main_fn.mov_imm(12, 0);
    main_fn.bind(loop);
    main_fn.sub_i(19, 19, 1);
    main_fn.sub_i(11, 19, 30);
    main_fn.cbnz(11, keep_ptr);
    main_fn.mov_imm(5, kUnmapped);  // from here on the leaf's load aborts
    main_fn.bind(keep_ptr);
    main_fn.sub_i(11, 19, 12);
    main_fn.cbnz(11, keep_mod);
    main_fn.mov_imm(12, uint64_t{1} << 50);  // ...and its AUTIA fails
    main_fn.bind(keep_mod);
    // Every eighth iteration calls into unmapped text; the one after it
    // calls a misaligned address. Both fetches abort.
    main_fn.and_i(11, 19, 7);
    main_fn.cbnz(11, no_fetch_fault);
    main_fn.mov_imm(9, kUnmapped + 0x40);
    main_fn.blr(9);
    main_fn.bind(no_fetch_fault);
    main_fn.sub_i(11, 11, 1);
    main_fn.cbnz(11, aligned);
    main_fn.mov_imm(9, leaf_va + 2);
    main_fn.blr(9);
    main_fn.bind(aligned);
    main_fn.mov_imm(9, leaf_va);
    main_fn.blr(9);
    main_fn.cbnz(19, loop);
    main_fn.hlt(1);
  }
  FunctionBuilder leaf("leaf");
  {
    const auto spin = leaf.make_label();
    leaf.mov_imm(3, 5);
    leaf.bind(spin);
    leaf.add_i(7, 7, 1);
    leaf.sub_i(3, 3, 1);
    leaf.cbnz(3, spin);
    leaf.ldr(6, 5, 0);  // DataAbort mid-body once x5 is unmapped
    leaf.add_i(7, 7, 1);
    leaf.mov_imm(8, 0x1234);
    leaf.pacia(8, 4);
    leaf.eor(8, 8, 12);
    leaf.autia(8, 4);
    leaf.add_i(7, 7, 1);
    leaf.ret();
  }
  // EL1 sync vector: a fetch abort (FAR == ELR) returns to the caller,
  // anything else steps over the faulting instruction.
  FunctionBuilder sync("sync");
  {
    const auto fetch = sync.make_label();
    sync.mrs(10, isa::SysReg::ELR_EL1);
    sync.mrs(13, isa::SysReg::FAR_EL1);
    sync.cmp(10, 13);
    sync.b_cond(isa::Cond::EQ, fetch);
    sync.add_i(10, 10, 4);
    sync.msr(isa::SysReg::ELR_EL1, 10);
    sync.eret();
    sync.bind(fetch);
    sync.msr(isa::SysReg::ELR_EL1, 30);
    sync.eret();
  }
  FunctionBuilder irq("irq");
  irq.add_i(20, 20, 1);
  irq.eret();

  sim.write_words(testing::kHText, main_fn.assemble().words);
  sim.write_words(leaf_va, leaf.assemble().words);
  sim.write_words(testing::kHVbar + cpu::Cpu::kVecSyncEl1,
                  sync.assemble().words);
  sim.write_words(testing::kHVbar + cpu::Cpu::kVecIrqEl1,
                  irq.assemble().words);

  sim.core.pstate.irq_masked = false;
  sim.core.set_timer_period(53);
  sim.core.pc = testing::kHText;
  return observe(sim, leaf_va, "retire-golden");
}

TEST(RetireFeed, GoldenExportDigestsOnEveryTier) {
  for (const cpu::Engine engine : {cpu::Engine::Reference, cpu::Engine::Fast,
                                   cpu::Engine::Block, cpu::Engine::Trace}) {
    SCOPED_TRACE(cpu::engine_name(engine));
    const EngineExports e = run_golden(engine);
    ASSERT_EQ(e.halt, 1u);
    EXPECT_EQ(e.trigger, obs::EventKind::AuthFail);
    for (const char* key : {"\"exc.irq\"", "\"exc.insn-abort\"",
                            "\"exc.data-abort\"", "\"pauth.auth.fail\""})
      EXPECT_NE(e.metrics.find(key), std::string::npos) << key;
    if (engine == cpu::Engine::Trace) {
      EXPECT_GT(e.trace_hits, 0u);
    }
    EXPECT_EQ(e.cycles, uint64_t{6739});
    EXPECT_EQ(e.retired, uint64_t{2417});
    EXPECT_EQ(fnv1a(e.folded), 0x839af6de1b068b56ull);
    EXPECT_EQ(fnv1a(e.flat), 0x0649b0dda3dbaa17ull);
    EXPECT_EQ(fnv1a(e.metrics), 0x1dca2b21b3d8747cull);
    EXPECT_EQ(fnv1a(e.chrome), 0xb5eaf21979bf5161ull);
    EXPECT_EQ(fnv1a(e.flight), 0x8bea41e087c7b16full);
    EXPECT_EQ(fnv1a(e.coverage), 0x6d0437123758d396ull);
  }
}

}  // namespace
}  // namespace camo
