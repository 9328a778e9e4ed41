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
  // New bytes, cold profile. The trace pointer (if this block heads one) is
  // deliberately kept: the dispatcher revalidates and drops stale traces, so
  // a rebuild shows up as one trace invalidation rather than a silent leak.
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
  if (cpu.pstate.el != t.el) return false;
  const mem::PhysicalMemory& phys = cpu.mmu_->phys();
  for (const Trace::PageRec& p : t.pages) {
    if (phys.page_generation(p.page) != p.phys_gen) return false;
    if (!cpu.mmu_->fetch_epoch_current(p.probe_va, p.epoch)) return false;
  }
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

void SuperblockEngine::drop_trace(Trace& t) {
  if (t.head != nullptr && t.head->trace == &t) t.head->trace = nullptr;
  traces_.erase(t.head_pa);  // destroys t
}

void SuperblockEngine::try_form_trace(Cpu& cpu, Block& head) {
  // A faulting terminator (FPAC) may have redirected to the vector at a
  // different EL; successor blocks must be built at the EL the trace runs
  // at, so only form from a completion that stayed there.
  if (cpu.pstate.el != head.el) return;
  uint64_t target = 0;
  if (!head.prof.biased(target)) return;

  // Fusible PAuth terminator sites (§3i): the register-form sign/auth ops
  // and the HINT-space SP/1716 variants. PACGA and XPAC* gain nothing from
  // value memoization worth a descriptor, and the PAuth branches
  // (BRAA/RETAA/...) stay generic because they feed the control-flow
  // observers. Gated on has_pauth: pre-8.3 cores NOP the hint space.
  const bool pauth = cpu.cfg_.has_pauth;
  const auto set_fuse = [pauth](Trace::Seg& s, const Inst& in) {
    if (!pauth) return;
    using isa::Op;
    switch (in.op) {
      case Op::PACIA:
      case Op::PACIB:
      case Op::PACDA:
      case Op::PACDB:
        s.fuse = kFuseSign;
        s.fuse_key = static_cast<uint8_t>(static_cast<int>(in.op) -
                                          static_cast<int>(Op::PACIA));
        s.fuse_ptr = in.rd;
        s.fuse_mod = in.rn;
        break;
      case Op::AUTIA:
      case Op::AUTIB:
      case Op::AUTDA:
      case Op::AUTDB:
        s.fuse = kFuseAuth;
        s.fuse_key = static_cast<uint8_t>(static_cast<int>(in.op) -
                                          static_cast<int>(Op::AUTIA));
        s.fuse_ptr = in.rd;
        s.fuse_mod = in.rn;
        break;
      case Op::PACIASP:
      case Op::PACIBSP:
        s.fuse = kFuseSign;
        s.fuse_key = static_cast<uint8_t>(
            in.op == Op::PACIASP ? PacKey::IA : PacKey::IB);
        s.fuse_ptr = isa::kRegLr;
        s.fuse_mod = isa::kRegZrSp;  // read_gpr_or_sp(31) == SP
        break;
      case Op::AUTIASP:
      case Op::AUTIBSP:
        s.fuse = kFuseAuth;
        s.fuse_key = static_cast<uint8_t>(
            in.op == Op::AUTIASP ? PacKey::IA : PacKey::IB);
        s.fuse_ptr = isa::kRegLr;
        s.fuse_mod = isa::kRegZrSp;
        break;
      case Op::PACIA1716:
      case Op::PACIB1716:
        s.fuse = kFuseSign;
        s.fuse_key = static_cast<uint8_t>(
            in.op == Op::PACIA1716 ? PacKey::IA : PacKey::IB);
        s.fuse_ptr = isa::kRegIp1;
        s.fuse_mod = isa::kRegIp0;
        break;
      case Op::AUTIA1716:
      case Op::AUTIB1716:
        s.fuse = kFuseAuth;
        s.fuse_key = static_cast<uint8_t>(
            in.op == Op::AUTIA1716 ? PacKey::IA : PacKey::IB);
        s.fuse_ptr = isa::kRegIp1;
        s.fuse_mod = isa::kRegIp0;
        break;
      default:
        break;
    }
  };
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
    set_fuse(s, cur->entries.back().inst);
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
  t.head_pa = head.pa_start;
  t.build_stamp = builds_;  // every segment is valid as of right now
  Trace& slot = traces_[head.pa_start];
  slot = std::move(t);
  head.trace = &slot;
  ++stats_.traces_formed;
  stats_.trace_len.record(slot.entries_total);
}

SuperblockEngine::TraceExit SuperblockEngine::run_trace(Cpu& cpu, Trace& t,
                                                        uint64_t budget,
                                                        uint64_t& consumed,
                                                        Block*& prev) {
  ++stats_.trace_hits;
  ++t.uses;
  const uint64_t d0 = consumed;
  const bool cycle_model = cpu.cfg_.enable_cycle_model;
  const size_t nsegs = t.segs.size();

  // Fused PAuth entries replay results the sign/auth event sinks never saw
  // being computed, so they stay off while a sink or audit stream is
  // attached (the attribution/coverage feeds are unaffected: a fused entry
  // retires with the same cost, class and pc as the generic handler).
  const bool fuse_ok = cpu.sink_ == nullptr && cpu.audit_ == nullptr;

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
                     !bp_overlap && cpu.trace_ == nullptr &&
                     cpu.attr_ == nullptr && cpu.cov_ == nullptr;

  const auto fuse_exec = [&cpu](Trace::Seg& seg) {
    const PacKey k = static_cast<PacKey>(seg.fuse_key);
    if (!cpu.pauth_enabled(k)) return false;  // generic handler no-ops
    const uint64_t ptr = cpu.x(seg.fuse_ptr);
    const uint64_t mod = cpu.read_gpr_or_sp(seg.fuse_mod);
    const qarma::Key128 key = cpu.pac_key(k);
    if (seg.memo.hit(ptr, mod, key)) {
      cpu.set_x(seg.fuse_ptr, seg.memo.result);
      return true;
    }
    if (seg.fuse == kFuseSign) {
      const uint64_t r = cpu.pauth_.add_pac(ptr, mod, key);
      cpu.set_x(seg.fuse_ptr, r);
      seg.memo = {ptr, mod, key, r, true};
      return true;
    }
    const PauthUnit::AuthResult r = cpu.pauth_.auth(ptr, mod, key, k);
    if (!r.ok) return false;  // failure path owns observer/FPAC/poison
    cpu.set_x(seg.fuse_ptr, r.ptr);
    seg.memo = {ptr, mod, key, r.ptr, true};
    return true;
  };
  // Run-length bookkeeping: one sample per dispatch (zero-length dispatches
  // are not samples, matching the block loop), plus the demotion
  // denominator. Must run before any drop_trace — that destroys `t`. Every
  // exit passes here, so it also flushes the pending retire run (a no-op in
  // the quiet loop, which runs with no feed attached).
  const auto finish = [&](uint64_t run) {
    cpu.flush_run();
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
    drop_trace(t);
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
    // cycles_ observer is the DataAbort path's sink/audit event timestamps
    // — the abort's own `cycles_ += 12` commutes with the pending batch —
    // so with no sink or audit attached (fuse_ok) they need no flush at
    // all, and with one attached the flush happens before each may-fault
    // handler.
    uint64_t done = 0, cyc = 0, ret = 0;
    const uint64_t cap = budget - consumed;  // >= 1: caller checked budget
    const auto flush = [&] {
      cpu.cycles_ += cyc;
      cpu.instret_ += ret;
      cyc = ret = 0;
    };
    const auto out = [&] {
      flush();
      consumed += done;
      finish(done);
    };
    for (size_t si = 0; si < nsegs; ++si) {
      Trace::Seg& seg = t.segs[si];
      Block* const blk = seg.block;
      const size_t n = blk->entries.size();
      const Entry* const ents = blk->entries.data();
      const obs::RetireSlot* const slots = blk->slots.data();
      uint64_t va = seg.va_start;
      // Body entries [0, n-1): straight-line, never fused, never guarded.
      // Run by reference — only host code (an HVC handler) can rebuild the
      // block under us, and HVC is a hard terminator, so trace-final.
      for (size_t i = 0; i + 1 < n; ++i, va += 4) {
        const Entry& e = ents[i];
        cpu.pc = va + 4;
        if (!fuse_ok && e.may_fault) flush();  // abort events timestamp
        e.fn(cpu, e.inst);
        cyc += cycle_model ? slots[i].cost : 1;
        ++ret;
        ++cpu.op_counts_[static_cast<size_t>(e.inst.op)];
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
      // timestamps): flush the batch first.
      const Entry e = ents[n - 1];
      const uint8_t cost = slots[n - 1].cost;
      cpu.pc = va + 4;
      flush();
      if (!(seg.fuse != kFuseNone && fuse_ok && fuse_exec(seg)))
        e.fn(cpu, e.inst);
      cyc += cycle_model ? cost : 1;
      ++ret;
      ++cpu.op_counts_[static_cast<size_t>(e.inst.op)];
      if (++done == cap) {
        out();
        return TraceExit::kReturn;
      }
      if (si + 1 < nsegs) {
        if (cpu.halted_) {
          out();
          return TraceExit::kContinue;  // outer loop observes the halt
        }
        // Segment-boundary guard: the terminator must have produced
        // exactly the edge the trace was formed across, at the EL every
        // constituent block was built for.
        Trace::Seg& nxt = t.segs[si + 1];
        if (cpu.pc != nxt.va_start || cpu.pstate.el != t.el) {
          ++stats_.trace_guard_exits;
          ++t.exits;
          blk->prof.record(cpu.pc);  // learn the real edge
          out();
          demote();
          return TraceExit::kContinue;
        }
        if (seg.env ? !trace_pages_fresh(cpu, t)
                    : (e.is_store && !trace_pages_current(cpu, t))) {
          out();
          return TraceExit::kContinue;  // store/MSR touched a trace page
        }
      }
    }
    flush();
    consumed += done;  // completion: fall through to the shared tail
  } else {
    // Careful loop: the full per-entry mirror of Cpu::step_impl's preamble
    // and the block loop's feed order, plus the same guards as above — so
    // traces keep running (and stay testable) with timers, breakpoints and
    // every observability feed attached. Each segment is one retire run.
    const bool feeds = cpu.attr_ != nullptr || cpu.cov_ != nullptr;
    for (size_t si = 0; si < nsegs; ++si) {
      Trace::Seg& seg = t.segs[si];
      Block* const blk = seg.block;
      const size_t n = blk->entries.size();
      const uint64_t seg_last = seg.va_start + 4 * (n - 1);
      const bool seg_bp = bp_overlap && cpu.bp_min_pc_ <= seg_last &&
                          cpu.bp_max_pc_ >= seg.va_start;
      if (feeds)
        cpu.begin_run(blk->slots.data(), seg.va_start,
                      blk->pa_start + (seg.va_start - blk->va_start));
      for (size_t i = 0; i < n; ++i) {
        const uint64_t va = seg.va_start + 4 * i;
        const bool term = i + 1 == n;
        if (cpu.timer_cycles_ != 0 && cpu.cycles_ >= cpu.timer_cycles_) {
          cpu.timer_cycles_ = cpu.timer_period_ == 0
                                  ? 0
                                  : cpu.cycles_ + cpu.timer_period_;
          cpu.irq_pending_ = true;
          cpu.irq_sources_ |= Cpu::kIrqSrcTimer;
        }
        if (cpu.irq_pending_ && !cpu.pstate.irq_masked) {
          finish(consumed - d0);
          return TraceExit::kReturn;  // step_impl owns interrupt delivery
        }
        if (seg_bp &&
            cpu.breakpoints_.find(va) != cpu.breakpoints_.end()) {
          finish(consumed - d0);
          return TraceExit::kReturn;  // step_impl owns hooks
        }
        const Entry e = blk->entries[i];
        const obs::RetireSlot slot = blk->slots[i];
        if (cpu.trace_) {
          cpu.flush_run();
          cpu.trace_(cpu, va, e.inst);  // pc still == va here
        }
        const bool alone = feeds && e.alone;
        const uint64_t c0 = cpu.cycles_;
        const uint8_t el0 = static_cast<uint8_t>(cpu.pstate.el);
        if (alone) cpu.flush_run();
        cpu.pc = va + 4;
        if (!(term && seg.fuse != kFuseNone && fuse_ok && fuse_exec(seg)))
          e.fn(cpu, e.inst);
        cpu.cycles_ += cycle_model ? slot.cost : 1;
        ++cpu.instret_;
        ++cpu.op_counts_[static_cast<size_t>(e.inst.op)];
        if (alone)
          cpu.retire_one(va, blk->pa_start + (va - blk->va_start), el0,
                         slot.op_class, cpu.cycles_ - c0);
        else if (feeds)
          ++cpu.run_.n;
        if (term) cpu.flush_run();  // the segment's run ends here
        ++consumed;
        if (consumed == budget) {
          finish(consumed - d0);
          return TraceExit::kReturn;
        }
        if (!term) {
          if (cpu.halted_ || cpu.pc != va + 4) {
            finish(consumed - d0);
            return TraceExit::kContinue;
          }
          if (e.is_store && !trace_pages_current(cpu, t)) {
            finish(consumed - d0);
            return TraceExit::kContinue;
          }
        } else if (si + 1 < nsegs) {
          if (cpu.halted_) {
            finish(consumed - d0);
            return TraceExit::kContinue;
          }
          Trace::Seg& nxt = t.segs[si + 1];
          if (cpu.pc != nxt.va_start || cpu.pstate.el != t.el) {
            ++stats_.trace_guard_exits;
            ++t.exits;
            blk->prof.record(cpu.pc);
            finish(consumed - d0);
            demote();
            return TraceExit::kContinue;
          }
          if (seg.env ? !trace_pages_fresh(cpu, t)
                      : (e.is_store && !trace_pages_current(cpu, t))) {
            finish(consumed - d0);
            return TraceExit::kContinue;
          }
        }
      }
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
      drop_trace(t);  // destroys t
      try_form_trace(cpu, *head);
    }
  }
  return TraceExit::kContinue;
}

uint64_t SuperblockEngine::execute(Cpu& cpu, uint64_t budget) {
  const uint64_t consumed = dispatch(cpu, budget);
  cpu.flush_run();  // every engine exit ends the pending retire run
  return consumed;
}

uint64_t SuperblockEngine::dispatch(Cpu& cpu, uint64_t budget) {
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
      drop_trace(t);
    }

    // When no breakpoint can possibly fall inside this block, the per-entry
    // check collapses to nothing. [bp_min_pc_, bp_max_pc_] is empty
    // (min > max) when no breakpoints exist.
    const size_t n = blk->entries.size();
    const uint64_t va_last = blk->va_start + 4 * (n - 1);
    const bool bp_overlap =
        cpu.bp_min_pc_ <= va_last && cpu.bp_max_pc_ >= blk->va_start;

    // Dispatch run length (instructions retired inside this block entry)
    // for the §3f histogram; zero-length dispatches (bail before the first
    // instruction) are not samples.
    const uint64_t d0 = consumed;
    bool completed = true;
    const bool feeds = cpu.attr_ != nullptr || cpu.cov_ != nullptr;
    if (feeds) cpu.begin_run(blk->slots.data(), blk->va_start, blk->pa_start);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t va = blk->va_start + 4 * i;
      // Mirror of Cpu::step_impl's preamble, in the same order. Timer and
      // IRQ state are re-checked before *every* instruction because the
      // deadline can pass mid-block.
      if (cpu.timer_cycles_ != 0 && cpu.cycles_ >= cpu.timer_cycles_) {
        cpu.timer_cycles_ = cpu.timer_period_ == 0
                                ? 0
                                : cpu.cycles_ + cpu.timer_period_;
        cpu.irq_pending_ = true;
        cpu.irq_sources_ |= Cpu::kIrqSrcTimer;
      }
      if (cpu.irq_pending_ && !cpu.pstate.irq_masked) {
        if (consumed > d0) stats_.run_length.record(consumed - d0);
        return consumed;  // step_impl owns interrupt delivery
      }
      if (bp_overlap && cpu.breakpoints_.find(va) != cpu.breakpoints_.end()) {
        if (consumed > d0) stats_.run_length.record(consumed - d0);
        return consumed;  // step_impl owns hooks (they may mutate anything)
      }

      // Copy the entry: the final instruction of a block can run host code
      // (an HVC handler) that could conceivably re-enter the engine and
      // rebuild this very block in place. Such an instruction retires from
      // the copies, outside the pending run.
      const Entry e = blk->entries[i];
      const obs::RetireSlot slot = blk->slots[i];
      if (cpu.trace_) {
        cpu.flush_run();
        cpu.trace_(cpu, va, e.inst);  // pc still == va here
      }
      const bool alone = feeds && e.alone;
      const uint64_t c0 = cpu.cycles_;
      const uint8_t el0 = static_cast<uint8_t>(cpu.pstate.el);
      if (alone) cpu.flush_run();
      cpu.pc = va + 4;
      e.fn(cpu, e.inst);
      cpu.cycles_ += cpu.cfg_.enable_cycle_model ? slot.cost : 1;
      ++cpu.instret_;
      ++cpu.op_counts_[static_cast<size_t>(e.inst.op)];
      if (alone)
        cpu.retire_one(va, blk->pa_start + (va - blk->va_start), el0,
                       slot.op_class, cpu.cycles_ - c0);
      else if (feeds)
        ++cpu.run_.n;
      ++consumed;

      if (consumed == budget) {
        stats_.run_length.record(consumed - d0);
        return consumed;  // exact, never overshoots
      }
      if (i + 1 < n) {
        // Straight-line entries only leave the block early by faulting
        // (DataAbort redirects pc to the vector); follow the redirect by
        // re-acquiring at the new pc.
        if (cpu.halted_ || cpu.pc != va + 4) {
          completed = false;
          break;
        }
        // A store may have rewritten this very block further down: the
        // page's write generation is the same signal the predecode cache
        // keys on, so the next acquire() re-translates the fresh bytes.
        if (e.is_store &&
            blk->phys_gen !=
                cpu.mmu_->phys().page_generation(
                    blk->pa_start >> mem::PhysicalMemory::kPageShift)) {
          completed = false;
          break;
        }
      }
    }
    // The run ends with the block, before trace formation can rebuild
    // blocks (this one included) in place.
    cpu.flush_run();
    if (consumed > d0) stats_.run_length.record(consumed - d0);
    if (completed) {
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
