// Superblock execution engine (DESIGN.md §3e) and its trace tier (§3i).
//
// The interpreter's dominant host cost after the PR-3 fetch/translate fast
// path is the per-instruction dispatch round-trip itself: translate, fetch a
// decoded instruction, switch on the opcode. This engine amortises all of it
// the way trace-cache interpreters do: straight-line runs of decoded
// instructions are lazily translated into cached *superblocks* — arrays of
// pre-resolved handler pointers plus copied operands — and executed by a
// tight loop that per instruction does only the architectural work the
// single-step path does (timer, pending-IRQ and breakpoint checks, the trace
// and attribution feeds, the handler itself, cycle/retire bookkeeping).
//
// The trace tier stacks on top (§3i): when a block's terminator is a
// guardable branch (isa::op_traits.guardable) whose edge profile
// (obs::EdgeProfile) is strongly biased, the cached run is extended across
// that edge into a *trace* — a sequence of block segments executed
// back-to-back. Each segment boundary embeds a guard that compares the pc
// the terminator actually produced (and the EL) against the recorded edge;
// a mismatch side-exits back to the block dispatcher, so a cold or forged
// edge costs one wasted guard, never correctness. Traces also extend across
// the side-effect-light system terminators MRS and MSR (not DAIF — that
// write flips the IRQ mask mid-trace): both transfer control only by
// faulting, which the boundary guard catches, and an MSR boundary
// additionally revalidates every page record because a system-register
// write is the one mid-trace event that could move a mapping. A trace
// spans multiple 4 KiB pages by carrying one FetchEpoch + write-generation
// validation record per constituent page, all re-checked at trace entry
// (mem::Mmu::fetch_epoch_current) and — the write generations — after every
// store inside the trace. Every terminator, PAuth ops included, runs its
// generic handler; PAC values come from the one §3c PauthUnit memo. When
// nothing inside a trace can need per-entry timer/IRQ/breakpoint work
// (checked once at entry, sound because every op that could change that is
// either a hard terminator — and so trace-final — or an MSR whose boundary
// guards cover its effects), a specialized quiet loop runs the trace
// without the per-entry preamble, retire feeds included (one pending run
// per segment). Otherwise each
// segment runs through the block dispatcher's one careful per-entry loop
// (run_careful), with the boundary guard between segments.
//
// Invariance contract (the same one the §3c caches honour): simulated state,
// cycle counts, fault sequences and the retire stream seen by every obs feed
// are bit-for-bit identical with the engine on or off, for any step budget.
// Anything the block path cannot reproduce exactly — interrupt delivery,
// breakpoint hooks, faulting fetches, unaligned pc — bails out to Cpu::step,
// which IS the single-step path.
//
// Validity by construction: a block caches decoded bytes *and* a fetch
// translation, so it is keyed on everything both depend on —
//   * the physical page's write generation (mem::PhysicalMemory): any store
//     to the page, guest or host, makes every cached decode of it stale;
//   * the identity (uid) and generation of the stage-1 half and the stage-2
//     overlay (mem::Mmu::fetch_epoch): translate() is a pure function of the
//     VA and this snapshot, so equality proves the cached translation — map,
//     permissions, XOM/PXN, canonicality — still holds;
//   * the start VA and EL the block was built for.
// Key-setter patching, module .text staging, in-place SMC, map edits and
// whole-map swaps (SwitchUserSpace) each bump one of these, so stale blocks
// are unreachable rather than flushed. Traces inherit the same keys, one
// record per page.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cpu/cpu.h"
#include "isa/isa.h"
#include "mem/mmu.h"
#include "obs/edge_profile.h"

namespace camo::cpu {

class SuperblockEngine {
 public:
  /// Execute whole blocks (and traces) starting at cpu.pc until `budget`
  /// steps are consumed, the CPU halts, or something only the single-step
  /// path can do comes up (pending deliverable IRQ, breakpoint at the next
  /// pc, faulting or unaligned fetch). Returns the budget units consumed —
  /// one per retired instruction, exactly like repeated Cpu::step() calls;
  /// never overshoots. A return of 0 with the CPU still running means
  /// "cannot make progress here": the caller must single-step once before
  /// retrying.
  uint64_t execute(Cpu& cpu, uint64_t budget);

  const SuperblockStats& stats() const { return stats_; }

 private:
  struct Trace;

  /// One translated instruction: the decoded operands plus everything the
  /// dispatch loop would otherwise recompute per retire (its cost and op
  /// class live in the parallel Block::slots).
  struct Entry {
    isa::Inst inst;
    Cpu::ExecFn fn = nullptr;
    bool is_store = false;  ///< recheck page generations after executing
    bool may_fault = false; ///< can redirect pc mid-block (DataAbort)
    /// Can reach an observer or host code (every terminator but B, B.cond,
    /// CBZ, CBNZ and BR): with a retire feed attached, the pending run is
    /// flushed before it and it retires as its own record.
    bool alone = false;
  };

  /// A straight-line run of entries ending at the first block terminator
  /// (isa::op_traits.ends_block) or the page boundary, terminator included.
  /// Cached by start PA; rebuilt in place when a validity key goes stale, so
  /// node addresses stay stable and chain pointers never dangle — a stale
  /// chain target is caught by valid(), not by lifetime.
  struct Block {
    uint64_t va_start = 0;
    uint64_t pa_start = 0;
    uint64_t phys_gen = 0;             ///< page write generation at build
    mem::Mmu::FetchEpoch epoch;        ///< stage-1/stage-2 snapshot at build
    mem::El el = mem::El::El1;
    bool built = false;
    std::vector<Entry> entries;
    /// Per-entry cost (Cpu::cycle_cost) and obs::OpClass, parallel to
    /// entries: the array a pending obs::RetireRun points into.
    std::vector<obs::RetireSlot> slots;
    /// Memoized successor edge (most-recent-successor): after this block
    /// completed with pc == chain_va last time, `chain` was the block there.
    /// Only a shortcut past the lookup+translate — the target is fully
    /// re-validated before every use, so a wrong or stale memo costs one
    /// lookup, never correctness. Unconditional branches and fall-through
    /// edges make it effectively permanent; conditional edges degrade to the
    /// plain lookup when they alternate.
    Block* chain = nullptr;
    uint64_t chain_va = 0;
    /// Edge-bias profile of this block's terminator (§3i): successor pcs
    /// recorded per completed dispatch, consumed by trace formation. Dies
    /// with the decode — build() resets it.
    obs::EdgeProfile prof;
    /// The trace headed by this block, when one exists. Resetting it
    /// destroys the trace; segments point at other cached blocks, which
    /// live as long as the engine.
    std::unique_ptr<Trace> trace;
    /// Regrowth rounds spent on this head (§3i): formation fires as soon as
    /// the head's edge is biased, when downstream profiles are still cold,
    /// so a young trace is re-walked a bounded number of times as the
    /// profiles warm. Lives on the block — each regrowth destroys the
    /// trace — and dies with the decode like prof.
    uint8_t trace_regrows = 0;
  };

  /// A branch-following multi-block trace (§3i), owned by its head block.
  /// Segments are the existing cached blocks — never copied — so a trace is
  /// a validated itinerary plus per-boundary guards over the block cache,
  /// which is the engine's one cache of decoded code.
  struct Trace {
    struct Seg {
      Block* block = nullptr;
      uint64_t va_start = 0;
      /// Terminator is a system-register write (MSR): the boundary guard
      /// revalidates all page records, since the write may have moved a
      /// mapping the rest of the trace depends on.
      bool env = false;
    };
    /// One validation record per constituent 4 KiB page: the write
    /// generation and translation snapshot every cached decode and fetch in
    /// the trace depends on (§3i multi-page epoch validation).
    struct PageRec {
      uint64_t page = 0;      ///< physical page number
      uint64_t phys_gen = 0;  ///< write generation at formation
      mem::Mmu::FetchEpoch epoch;
      uint64_t probe_va = 0;  ///< VA used to re-derive the epoch
    };
    Block* head = nullptr;
    mem::El el = mem::El::El1;
    std::vector<Seg> segs;
    std::vector<PageRec> pages;
    uint64_t entries_total = 0;  ///< instructions across all segments
    uint64_t cost_bound = 0;     ///< worst-case cycles a full run can add
    uint64_t va_min = ~uint64_t{0};  ///< breakpoint-overlap prefilter
    uint64_t va_max = 0;
    /// Value of the engine's build counter last time the per-segment
    /// revalidation in trace_valid passed (or formation time). While the
    /// counter is unchanged no block anywhere has been (re)built, so the
    /// per-segment walk is skipped — the common case on every hot dispatch.
    uint64_t build_stamp = 0;
    uint64_t uses = 0;         ///< dispatches (demotion denominator)
    uint64_t exits = 0;        ///< guard exits taken
    uint64_t entries_run = 0;  ///< instructions retired across all uses;
                               ///< a trace averaging under a quarter of
                               ///< entries_total per use gets demoted
  };

  static constexpr size_t kMaxSegs = 256;
  static constexpr size_t kMaxPages = 8;
  /// Loops unroll naturally (the head repeats as a segment); cap the
  /// repeats so a short-trip loop is not frozen into a trace whose average
  /// realized run immediately trips the demotion threshold.
  static constexpr size_t kMaxHeadRepeats = 16;
  /// Regrowth rounds per head decode (see Block::trace_regrows).
  static constexpr uint8_t kMaxRegrows = 4;

  enum class TraceExit : uint8_t {
    kReturn,    ///< stop consuming budget; execute() returns to the caller
    kContinue,  ///< guard/side exit or completion; re-enter the dispatcher
  };

  enum class CarefulExit : uint8_t {
    kDone,    ///< every entry retired, terminator included
    kReturn,  ///< stop consuming budget (IRQ, breakpoint, budget spent)
    kLeft,    ///< left early: halt, pc redirect, or stale after a store
  };

  /// True when `b` may execute at `va` right now: same start VA and EL, both
  /// the translation snapshot and the page's write generation unchanged.
  bool valid(const Cpu& cpu, const Block& b, uint64_t va) const;
  /// Run `b`'s entries with the full per-entry mirror of Cpu::step_impl's
  /// preamble and the retire feed, adding one to `consumed` per retired
  /// instruction (never past `budget`). `t` is the trace `b` runs in as a
  /// segment — its page records are the post-store staleness check — or
  /// null for a standalone block, checked against its own page generation.
  /// The pending retire run is flushed on every exit. Defined (inline) and
  /// used only in superblock.cpp.
  inline CarefulExit run_careful(Cpu& cpu, const Block& b, const Trace* t,
                          uint64_t budget, uint64_t& consumed) const;
  /// Look up (or build) a valid block for cpu.pc. Null when the fetch would
  /// fault or pc is unaligned — the single-step path owns those.
  Block* acquire(Cpu& cpu);
  void build(Cpu& cpu, Block& b, uint64_t va, uint64_t pa);
  /// Formation-time acquire at an arbitrary VA (no pc, no stats.hits).
  Block* lookup_build(Cpu& cpu, uint64_t va);

  /// All page records current: generations and epochs unchanged, and every
  /// segment still the block it was when the trace formed. Non-const: a
  /// passing per-segment walk refreshes t.build_stamp so the next dispatch
  /// can skip it.
  bool trace_valid(const Cpu& cpu, Trace& t) const;
  /// Write generations only — the post-store subset of trace_valid.
  bool trace_pages_current(const Cpu& cpu, const Trace& t) const;
  /// Generations and epochs — the post-MSR subset of trace_valid.
  bool trace_pages_fresh(const Cpu& cpu, const Trace& t) const;
  /// Extend `head` into a trace along its biased edge profile, if the walk
  /// yields at least two segments within the seg/page budgets.
  void try_form_trace(Cpu& cpu, Block& head);
  /// Dispatch one trace run; updates consumed and (on full completion) sets
  /// prev for the caller's chain memo.
  TraceExit run_trace(Cpu& cpu, Trace& t, uint64_t budget,
                      uint64_t& consumed, Block*& prev);
  std::unordered_map<uint64_t, Block> cache_;  // key: start PA
  SuperblockStats stats_;
  /// Monotonic count of build() calls; see Trace::build_stamp.
  uint64_t builds_ = 0;
};

}  // namespace camo::cpu
