#include "cpu/superblock.h"

#include <algorithm>

#include "support/bits.h"

namespace camo::cpu {

using isa::Inst;
using mem::FaultKind;

namespace {

/// A trace may extend past a block whose last entry either transfers control
/// with guardable semantics (isa::op_traits.guardable) or simply falls
/// through at the page boundary — the boundary guard is the same pc compare
/// the block loop already performs on straight-line entries.
///
/// MRS and MSR also qualify, although they are hard block terminators: both
/// transfer control only by faulting (EL or lock violations), which the
/// boundary pc/EL guard catches, and neither can invalidate a quiet-loop
/// precondition — they cannot arm the timer, install a breakpoint or attach
/// a feed, and the one MSR destination that flips the IRQ mask (DAIF) is
/// excluded here. An MSR write that moves a mapping (a mid-trace event no
/// other extendable op can cause) is covered by the env flag: its boundary
/// revalidates every page record. DAIFSET/DAIFCLR, barriers, SVC/HVC/ERET
/// and SWP stay trace-final.
bool edge_extendable(const Inst& term) {
  const isa::OpTraits t = isa::op_traits(term.op);
  if (t.guardable || !t.ends_block) return true;
  if (term.op == isa::Op::MRS) return true;
  return term.op == isa::Op::MSR && term.sysreg != isa::SysReg::DAIF;
}

/// Terminators that can never reach an observer or host code: they only set
/// pc. Every other terminator retires outside the pending run (Entry::alone).
bool batchable_terminator(isa::Op op) {
  using isa::Op;
  return op == Op::B || op == Op::BCOND || op == Op::CBZ || op == Op::CBNZ ||
         op == Op::BR;
}

}  // namespace

bool SuperblockEngine::valid(const Cpu& cpu, const Block& b,
                             uint64_t va) const {
  return b.built && b.va_start == va && b.el == cpu.pstate.el &&
         b.epoch == cpu.mmu_->fetch_epoch(va) &&
         b.phys_gen == cpu.mmu_->phys().page_generation(
                           b.pa_start >> mem::PhysicalMemory::kPageShift);
}

SuperblockEngine::Block* SuperblockEngine::acquire(Cpu& cpu) {
  const uint64_t va = cpu.pc;
  // Unaligned and faulting fetches take their exception on the single-step
  // path so the fault sequence is byte-identical to the engine-off run.
  if (!is_aligned(va, 4)) return nullptr;
  const auto xlat =
      cpu.mmu_->translate(va, mem::Access::Fetch, cpu.pstate.el);
  if (xlat.fault != FaultKind::None) return nullptr;

  Block& b = cache_[xlat.pa];
  if (valid(cpu, b, va)) {
    ++stats_.hits;
    return &b;
  }
  if (b.built) ++stats_.invalidations;
  build(cpu, b, va, xlat.pa);
  // An empty block means the fetch would run off the end of physical
  // memory; let the interpreter raise the host error it always raised.
  return b.entries.empty() ? nullptr : &b;
}

SuperblockEngine::Block* SuperblockEngine::lookup_build(Cpu& cpu,
                                                        uint64_t va) {
  if (!is_aligned(va, 4)) return nullptr;
  const auto xlat =
      cpu.mmu_->translate(va, mem::Access::Fetch, cpu.pstate.el);
  if (xlat.fault != FaultKind::None) return nullptr;
  Block& b = cache_[xlat.pa];
  if (!valid(cpu, b, va)) build(cpu, b, va, xlat.pa);
  return b.entries.empty() ? nullptr : &b;
}

void SuperblockEngine::build(Cpu& cpu, Block& b, uint64_t va, uint64_t pa) {
  const mem::PhysicalMemory& phys = cpu.mmu_->phys();
  ++builds_;  // any build can retarget a trace segment; see Trace::build_stamp
  b.built = true;
  b.va_start = va;
  b.pa_start = pa;
  b.el = cpu.pstate.el;
  b.epoch = cpu.mmu_->fetch_epoch(va);
  b.phys_gen =
      phys.page_generation(pa >> mem::PhysicalMemory::kPageShift);
  b.chain = nullptr;
  b.chain_va = 0;
  // New bytes, cold profile. The trace (if this block heads one) is
  // deliberately kept: the dispatcher revalidates and drops stale traces, so
  // a rebuild shows up as one trace invalidation rather than a silent drop.
  b.prof.reset();
  b.trace_regrows = 0;
  b.entries.clear();
  b.slots.clear();

  // Decode up to the page boundary (stage-1 mappings are page-granular, so
  // the VA and PA boundaries coincide), clamped to the end of physical
  // memory, stopping after the first terminator — which is *included*, so a
  // block is never empty even when it starts on a branch or PAuth op.
  const uint64_t page_words =
      ((uint64_t{1} << mem::PhysicalMemory::kPageShift) -
       (va & mask(mem::PhysicalMemory::kPageShift))) /
      4;
  const uint64_t phys_words = pa < phys.size() ? (phys.size() - pa) / 4 : 0;
  const uint64_t max_words = std::min(page_words, phys_words);
  b.entries.reserve(std::min<uint64_t>(max_words, 64));
  b.slots.reserve(std::min<uint64_t>(max_words, 64));
  for (uint64_t w = 0; w < max_words; ++w) {
    Entry e;
    e.inst = isa::decode(phys.read32(pa + w * 4));
    e.fn = Cpu::exec_handler(e.inst.op);
    const isa::OpTraits t = isa::op_traits(e.inst.op);
    e.is_store = t.is_store;
    e.may_fault = t.may_fault;
    e.alone = t.ends_block && !batchable_terminator(e.inst.op);
    b.entries.push_back(e);
    b.slots.push_back(
        {static_cast<uint8_t>(Cpu::cycle_cost(e.inst)),
         static_cast<uint8_t>(Cpu::op_class(e.inst.op))});
    if (t.ends_block) break;
  }
  ++stats_.blocks;
}

bool SuperblockEngine::trace_pages_current(const Cpu& cpu,
                                           const Trace& t) const {
  const mem::PhysicalMemory& phys = cpu.mmu_->phys();
  for (const Trace::PageRec& p : t.pages)
    if (phys.page_generation(p.page) != p.phys_gen) return false;
  return true;
}

bool SuperblockEngine::trace_pages_fresh(const Cpu& cpu,
                                         const Trace& t) const {
  const mem::PhysicalMemory& phys = cpu.mmu_->phys();
  for (const Trace::PageRec& p : t.pages) {
    if (phys.page_generation(p.page) != p.phys_gen) return false;
    if (!cpu.mmu_->fetch_epoch_current(p.probe_va, p.epoch)) return false;
  }
  return true;
}

bool SuperblockEngine::trace_valid(const Cpu& cpu, Trace& t) const {
  if (cpu.pstate.el != t.el || !trace_pages_fresh(cpu, t)) return false;
  // The page records prove every cached decode and fetch translation is
  // byte-identical to formation time; the per-segment checks close the
  // remaining hole of a constituent block having been rebuilt in place for
  // an aliased VA (same PA, unchanged generations) since then. A rebuild
  // cannot happen without a build() call, so while the engine-wide build
  // counter still reads what the last passing walk stamped, the walk is
  // skipped — the common case on every hot dispatch.
  if (t.build_stamp != builds_) {
    for (const Trace::Seg& s : t.segs) {
      const Block& b = *s.block;
      if (!b.built || b.va_start != s.va_start || b.el != t.el) return false;
    }
    t.build_stamp = builds_;
  }
  return true;
}

void SuperblockEngine::try_form_trace(Cpu& cpu, Block& head) {
  // A faulting terminator (FPAC) may have redirected to the vector at a
  // different EL; successor blocks must be built at the EL the trace runs
  // at, so only form from a completion that stayed there.
  if (cpu.pstate.el != head.el) return;
  uint64_t target = 0;
  if (!head.prof.biased(target)) return;

  // Epochs are per-half (kernel vs user map), so a physical page reached
  // through both halves carries one record per half.
  const auto page_known = [](const Trace& t, uint64_t page, uint64_t va) {
    for (const Trace::PageRec& p : t.pages)
      if (p.page == page && mem::VaLayout::is_kernel_va(p.probe_va) ==
                                mem::VaLayout::is_kernel_va(va))
        return true;
    return false;
  };

  Trace t;
  t.el = head.el;
  Block* cur = &head;
  uint64_t cur_va = head.va_start;
  size_t head_repeats = 0;
  while (true) {
    const size_t n = cur->entries.size();
    Trace::Seg s;
    s.block = cur;
    s.va_start = cur_va;
    s.env = cur->entries.back().inst.op == isa::Op::MSR;
    t.segs.push_back(s);
    t.entries_total += n;
    for (const obs::RetireSlot& sl : cur->slots) t.cost_bound += sl.cost;
    const uint64_t page = cur->pa_start >> mem::PhysicalMemory::kPageShift;
    if (!page_known(t, page, cur_va))
      t.pages.push_back({page, cpu.mmu_->phys().page_generation(page),
                         cpu.mmu_->fetch_epoch(cur_va), cur_va});
    t.va_min = std::min(t.va_min, cur_va);
    t.va_max = std::max(t.va_max, cur_va + 4 * (n - 1));

    if (t.segs.size() >= kMaxSegs) break;
    if (!edge_extendable(cur->entries.back().inst)) break;
    uint64_t next_va = 0;
    if (!cur->prof.biased(next_va)) break;
    Block* nb = lookup_build(cpu, next_va);
    if (nb == nullptr) break;  // faulting/unaligned edge: single-step owns it
    const uint64_t npage = nb->pa_start >> mem::PhysicalMemory::kPageShift;
    if (!page_known(t, npage, next_va) && t.pages.size() >= kMaxPages) break;
    // Loops unroll naturally (the same Block* repeats as a seg), bounded so
    // a short-trip loop does not freeze into a mostly-unreachable tail.
    if (nb == &head && ++head_repeats >= kMaxHeadRepeats) break;
    cur = nb;
    cur_va = next_va;
  }
  if (t.segs.size() < 2) return;  // nothing to chain across

  t.head = &head;
  t.build_stamp = builds_;  // every segment is valid as of right now
  ++stats_.trace_formations;
  stats_.trace_len.record(t.entries_total);
  head.trace = std::make_unique<Trace>(std::move(t));
}

// Forced inline into both callers: as an out-of-line call per dispatched
// block it cost the Block tier a few percent of host throughput.
[[gnu::always_inline]] inline SuperblockEngine::CarefulExit
SuperblockEngine::run_careful(Cpu& cpu, const Block& b, const Trace* t,
                              uint64_t budget, uint64_t& consumed) const {
  // Read once: the terminator can run host code (an HVC handler) that could
  // conceivably re-enter the engine and rebuild this very block in place.
  const size_t n = b.entries.size();
  const uint64_t va0 = b.va_start;
  const uint64_t pa0 = b.pa_start;
  // When no breakpoint can possibly fall inside this block, the per-entry
  // check collapses to nothing. [bp_min_pc_, bp_max_pc_] is empty
  // (min > max) when no breakpoints exist.
  const bool bp_overlap =
      cpu.bp_min_pc_ <= va0 + 4 * (n - 1) && cpu.bp_max_pc_ >= va0;
  const bool feeds = cpu.attr_ != nullptr || cpu.cov_ != nullptr;
  // Count in a local, as the quiet loop does: `consumed` is a caller
  // reference that every handler's indirect call would force to memory.
  const uint64_t cap = budget - consumed;  // >= 1: callers checked budget
  uint64_t done = 0;
  const auto leave = [&](CarefulExit r) {
    cpu.flush_run();
    consumed += done;
    return r;
  };
  if (feeds) cpu.begin_run(b.slots.data(), va0, pa0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t va = va0 + 4 * i;
    // Mirror of Cpu::step_impl's preamble, in the same order. Timer and
    // IRQ state are re-checked before *every* instruction because the
    // deadline can pass mid-block.
    if (cpu.timer_cycles_ != 0 && cpu.cycles_ >= cpu.timer_cycles_) {
      cpu.timer_cycles_ =
          cpu.timer_period_ == 0 ? 0 : cpu.cycles_ + cpu.timer_period_;
      cpu.irq_pending_ = true;
      cpu.irq_sources_ |= Cpu::kIrqSrcTimer;
    }
    if (cpu.irq_pending_ && !cpu.pstate.irq_masked)
      return leave(CarefulExit::kReturn);  // step_impl owns IRQ delivery
    if (bp_overlap && cpu.breakpoints_.find(va) != cpu.breakpoints_.end())
      return leave(CarefulExit::kReturn);  // step_impl owns hooks

    // Copy the entry: an instruction that can run host code retires from
    // the copies, outside the pending run.
    const Entry e = b.entries[i];
    const obs::RetireSlot slot = b.slots[i];
    const bool alone = feeds && e.alone;
    const uint64_t c0 = cpu.cycles_;
    const uint8_t el0 = static_cast<uint8_t>(cpu.pstate.el);
    if (alone) cpu.flush_run();
    cpu.pc = va + 4;
    e.fn(cpu, e.inst);
    cpu.cycles_ += slot.cost;
    ++cpu.instret_;
    ++cpu.op_counts_[static_cast<size_t>(e.inst.op)];
    if (alone)
      cpu.deliver({va, pa0 + (va - va0), &slot, cpu.cycles_ - c0, 1, el0,
                   static_cast<uint8_t>(cpu.cpu_id_)});
    else if (feeds)
      ++cpu.run_.n;
    if (++done == cap)
      return leave(CarefulExit::kReturn);  // exact, never overshoots
    if (i + 1 < n) {
      // Straight-line entries only leave the block early by faulting
      // (DataAbort redirects pc to the vector); the caller follows the
      // redirect by re-acquiring at the new pc.
      if (cpu.halted_ || cpu.pc != va + 4) return leave(CarefulExit::kLeft);
      // A store may have rewritten this very block (or, in a trace, a later
      // segment) further down: the page write generation is the same
      // signal valid() keys the block cache on, so the next acquire()
      // re-translates the fresh bytes.
      if (e.is_store &&
          (t != nullptr
               ? !trace_pages_current(cpu, *t)
               : b.phys_gen != cpu.mmu_->phys().page_generation(
                                   pa0 >> mem::PhysicalMemory::kPageShift)))
        return leave(CarefulExit::kLeft);
    }
  }
  return leave(CarefulExit::kDone);
}

SuperblockEngine::TraceExit SuperblockEngine::run_trace(Cpu& cpu, Trace& t,
                                                        uint64_t budget,
                                                        uint64_t& consumed,
                                                        Block*& prev) {
  ++stats_.trace_hits;
  ++t.uses;
  const uint64_t d0 = consumed;
  const size_t nsegs = t.segs.size();

  // Quiet-loop eligibility (§3i), decided once per dispatch: nothing inside
  // the trace can need the per-entry preamble. Sound because every op that
  // could invalidate a conjunct mid-trace — arming the timer, unmasking
  // IRQs, raising an IPI or installing a breakpoint from an HVC host
  // handler — is either a hard terminator and therefore trace-final, or an
  // extendable MRS/MSR, which can do none of those things (MSR DAIF, the
  // one mask-flipping write, is never extended across; a mapping-moving
  // MSR is caught by its boundary's page-record revalidation, and a
  // faulting one by the pc/EL guard). The cost bound guarantees the armed
  // timer deadline cannot pass before the trace ends; and guest SMP is
  // cooperatively scheduled on one host thread, so no other core runs
  // between these checks and the last entry.
  const bool bp_overlap =
      cpu.bp_min_pc_ <= t.va_max && cpu.bp_max_pc_ >= t.va_min;
  const bool timer_quiet =
      cpu.timer_cycles_ == 0 ||
      (cpu.cycles_ < cpu.timer_cycles_ &&
       cpu.timer_cycles_ - cpu.cycles_ > t.cost_bound);
  const bool quiet = timer_quiet &&
                     !(cpu.irq_pending_ && !cpu.pstate.irq_masked) &&
                     !bp_overlap;

  // Run-length bookkeeping: one sample per dispatch (zero-length dispatches
  // are not samples, matching the block loop), plus the demotion
  // denominator. Must run before `t` is dropped — that destroys it.
  const auto finish = [&](uint64_t run) {
    if (run > 0) stats_.run_length.record(run);
    t.entries_run += run;
  };
  // Demotion: a trace whose dispatches retire on average less than a
  // quarter of its entries is paying guard exits for no coverage — drop it
  // and let formation follow the freshly learned edges. Returns true when
  // `t` was destroyed.
  const auto demote = [&]() {
    if (t.uses < 16 || t.entries_run * 4 >= t.entries_total * t.uses)
      return false;
    ++stats_.trace_demotions;
    t.head->trace.reset();  // destroys t
    return true;
  };
  // Segment-boundary guard, shared by both loops: true when the run may go
  // on into segment si + 1. Otherwise it has called `leave`, which ends the
  // dispatch's bookkeeping, and the caller returns kContinue.
  const auto cross = [&](size_t si, const auto& leave) {
    const Trace::Seg& seg = t.segs[si];
    if (cpu.halted_) {
      leave();
      return false;  // outer loop observes the halt
    }
    // The terminator must have produced exactly the edge the trace was
    // formed across, at the EL every constituent block was built for.
    if (cpu.pc != t.segs[si + 1].va_start || cpu.pstate.el != t.el) {
      ++stats_.trace_guard_exits;
      ++t.exits;
      seg.block->prof.record(cpu.pc);  // learn the real edge
      leave();
      demote();
      return false;
    }
    // A store or MSR terminator may have touched a trace page.
    if (seg.env ? !trace_pages_fresh(cpu, t)
                : (seg.block->entries.back().is_store &&
                   !trace_pages_current(cpu, t))) {
      leave();
      return false;
    }
    return true;
  };

  if (quiet) {
    // Retire bookkeeping lives in locals: the handlers' indirect calls
    // force `consumed` (a caller reference whose address has escaped) and
    // the cpu counters back to memory every entry, while `done`/`cyc`/`ret`
    // provably cannot alias anything a handler touches and stay in
    // registers. The batched cycles_/instret_ are flushed before every
    // terminator (MRS reads CNTVCT; MSR/HVC can arm the timer off cycles_)
    // and on every exit. Body entries are plain ALU/memory ops whose only
    // cycles_ observer is the DataAbort path (the collector's report
    // timestamps, and with a retire feed the run flush at exception entry) —
    // the abort's own `cycles_ += 12` commutes with the pending batch — so
    // with no collector or feed attached they need no flush at all, and with
    // one attached the flush happens before each may-fault handler.
    //
    // Retire feeds keep this loop too: each segment is one pending retire
    // run, flushed exactly where run_careful flushes it — before an
    // Entry::alone terminator (which retires as its own record), at the
    // exception entry a may-fault entry can take, and at every exit.
    const bool feeds = cpu.attr_ != nullptr || cpu.cov_ != nullptr;
    const bool fault_observed = feeds || cpu.obs_ != nullptr;
    uint64_t done = 0, cyc = 0, ret = 0;
    const uint64_t cap = budget - consumed;  // >= 1: caller checked budget
    const auto flush = [&] {
      cpu.cycles_ += cyc;
      cpu.instret_ += ret;
      cyc = ret = 0;
    };
    const auto out = [&] {
      flush();
      cpu.flush_run();
      consumed += done;
      finish(done);
    };
    for (size_t si = 0; si < nsegs; ++si) {
      const Trace::Seg& seg = t.segs[si];
      const Block* const blk = seg.block;
      const size_t n = blk->entries.size();
      const Entry* const ents = blk->entries.data();
      const obs::RetireSlot* const slots = blk->slots.data();
      uint64_t va = seg.va_start;
      // The batch is empty here (flushed before the previous terminator),
      // so cycles_ is the run's first cycle stamp.
      if (feeds) cpu.begin_run(slots, va, blk->pa_start);
      // Body entries [0, n-1): straight-line, never guarded.
      // Run by reference — only host code (an HVC handler) can rebuild the
      // block under us, and HVC is a hard terminator, so trace-final.
      for (size_t i = 0; i + 1 < n; ++i, va += 4) {
        const Entry& e = ents[i];
        cpu.pc = va + 4;
        if (fault_observed && e.may_fault) flush();
        e.fn(cpu, e.inst);
        cyc += slots[i].cost;
        ++ret;
        ++cpu.op_counts_[static_cast<size_t>(e.inst.op)];
        if (feeds) ++cpu.run_.n;
        if (++done == cap) {
          out();
          return TraceExit::kReturn;  // exact, never overshoots
        }
        // Straight-line entries only leave the run by faulting; anything
        // that cannot fault cannot redirect pc, so the check vanishes.
        if (e.may_fault) {
          if (cpu.pc != va + 4) {
            out();
            return TraceExit::kContinue;  // DataAbort: re-acquire at pc
          }
          if (e.is_store && !trace_pages_current(cpu, t)) {
            out();
            return TraceExit::kContinue;  // SMC into a trace page
          }
        }
      }
      // The terminator is copied, not referenced: the final instruction of
      // the trace can run host code (an HVC handler) that could re-enter
      // the engine and rebuild this very block in place. Its handler can
      // also observe the counters (CNTVCT, timer arming, event
      // timestamps): flush the batch first, and count the terminator
      // itself straight into the cpu counters.
      const Entry e = ents[n - 1];
      const obs::RetireSlot slot = slots[n - 1];
      const bool alone = feeds && e.alone;
      const uint64_t pa = blk->pa_start + (va - seg.va_start);
      const uint8_t el0 = static_cast<uint8_t>(cpu.pstate.el);
      cpu.pc = va + 4;
      flush();
      if (alone) cpu.flush_run();
      const uint64_t c0 = cpu.cycles_;
      e.fn(cpu, e.inst);
      cpu.cycles_ += slot.cost;
      ++cpu.instret_;
      ++cpu.op_counts_[static_cast<size_t>(e.inst.op)];
      if (alone)
        cpu.deliver({va, pa, &slot, cpu.cycles_ - c0, 1, el0,
                     static_cast<uint8_t>(cpu.cpu_id_)});
      else if (feeds)
        ++cpu.run_.n;
      if (++done == cap) {
        out();
        return TraceExit::kReturn;
      }
      cpu.flush_run();  // the segment's run ends with its block
      if (si + 1 < nsegs && !cross(si, out)) return TraceExit::kContinue;
    }
    flush();
    consumed += done;  // completion: fall through to the shared tail
  } else {
    // Careful loop: each segment runs through the block dispatcher's
    // per-entry loop as one retire run, with the boundary guard between
    // segments — so traces keep running (and stay testable) with timers and
    // breakpoints.
    const auto left = [&] { finish(consumed - d0); };
    for (size_t si = 0; si < nsegs; ++si) {
      const CarefulExit r =
          run_careful(cpu, *t.segs[si].block, &t, budget, consumed);
      if (r != CarefulExit::kDone) {
        left();
        return r == CarefulExit::kReturn ? TraceExit::kReturn
                                         : TraceExit::kContinue;
      }
      if (si + 1 < nsegs && !cross(si, left)) return TraceExit::kContinue;
    }
  }

  // Full completion: the tail block's successor feeds both its edge profile
  // (future formation) and the caller's chain memo, exactly as if the tail
  // had just been dispatched standalone.
  finish(consumed - d0);
  if (!cpu.halted_) {
    Block* const tail = t.segs.back().block;
    tail->prof.record(cpu.pc);
    prev = tail;
    // Regrowth: formation fires the moment the head's edge is biased, when
    // downstream profiles are typically one sample short — freezing the
    // trace at two or three segments. Re-walk a well-used trace so it can
    // extend to what the now-warm profiles support. The round counter lives
    // on the head block (each regrowth destroys the trace, resetting uses),
    // capping the extra formation work at kMaxRegrows walks per decode.
    if (t.head->trace_regrows < kMaxRegrows &&
        t.uses == (uint64_t{32} << t.head->trace_regrows)) {
      Block* const head = t.head;
      ++head->trace_regrows;
      head->trace.reset();  // destroys t
      try_form_trace(cpu, *head);
    }
  }
  return TraceExit::kContinue;
}

uint64_t SuperblockEngine::execute(Cpu& cpu, uint64_t budget) {
  uint64_t consumed = 0;
  Block* prev = nullptr;  // completed predecessor, for the chain memo
  while (consumed < budget && !cpu.halted_) {
    Block* blk;
    if (prev != nullptr && prev->chain != nullptr &&
        prev->chain_va == cpu.pc && valid(cpu, *prev->chain, cpu.pc)) {
      blk = prev->chain;  // memoized edge: no lookup, no translate
      ++stats_.chain_hits;
    } else {
      blk = acquire(cpu);
      if (blk == nullptr) break;  // caller single-steps (fault/unaligned)
      if (prev != nullptr) {
        prev->chain = blk;
        prev->chain_va = blk->va_start;
      }
    }
    prev = nullptr;

    // Trace tier (§3i): a valid trace headed here replaces the whole
    // block-by-block walk; a stale one is dropped — its still-valid
    // constituent blocks keep running standalone and may re-form.
    if (cpu.cfg_.engine == Engine::Trace && blk->trace != nullptr) {
      Trace& t = *blk->trace;
      if (trace_valid(cpu, t)) {
        if (run_trace(cpu, t, budget, consumed, prev) == TraceExit::kReturn)
          return consumed;
        continue;  // guard/side exit or completion: re-enter the dispatcher
      }
      ++stats_.trace_invalidations;
      blk->trace.reset();
    }

    // Dispatch run length (instructions retired inside this block entry)
    // for the §3f histogram; zero-length dispatches (bail before the first
    // instruction) are not samples. The retire run has ended with the
    // block, before trace formation can rebuild blocks (this one included)
    // in place.
    const uint64_t d0 = consumed;
    const CarefulExit r = run_careful(cpu, *blk, nullptr, budget, consumed);
    if (consumed > d0) stats_.run_length.record(consumed - d0);
    if (r == CarefulExit::kReturn) return consumed;
    if (r == CarefulExit::kDone) {
      if (cpu.halted_) break;
      if (cpu.cfg_.engine == Engine::Trace) {
        blk->prof.record(cpu.pc);
        if (blk->trace == nullptr &&
            edge_extendable(blk->entries.back().inst))
          try_form_trace(cpu, *blk);
      }
      prev = blk;  // next acquisition memoizes the edge taken from here
    }
  }
  return consumed;
}

}  // namespace camo::cpu
