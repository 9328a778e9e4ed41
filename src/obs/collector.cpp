#include "obs/collector.h"

#include <string>

#include "obs/chrome_trace.h"

namespace camo::obs {

namespace {
constexpr uint8_t kOutcomeDetected = 1;  // mirrors attacks::Outcome::Detected
constexpr uint64_t kBurstGapCycles = 32;
}  // namespace

Collector::Collector(const Options& opts)
    : opts_(opts), flight_(opts.flight_capacity) {
  for (int el = 0; el < 3; ++el) {
    cycles_el_[el] = &reg_.counter("cycles.el" + std::to_string(el));
    insn_el_[el] = &reg_.counter("insn.el" + std::to_string(el));
  }
  syscall_cycles_ = &reg_.histogram("syscall.cycles");
  // Created eagerly so the registry shape is identical whether or not the
  // run produced samples (fleet merges and cross-config diffs rely on it).
  sign_to_auth_ = &reg_.histogram("pauth.sign_to_auth.cycles");
  key_switch_ = &reg_.histogram("key.switch.cycles");
}

void Collector::count(const Event& e) {
  // The registry counters a trace record bumps: one fixed name, and for some
  // kinds a "<family><label>" counter of its key (key kinds) or aux byte.
  // The label helpers map every out-of-range value to one label, which
  // shares the slot past the named ones.
  struct Names {
    const char* name = nullptr;
    const char* family = nullptr;
    const char* (*label)(uint8_t) = nullptr;
    size_t labels = 0;
  };
  Names n;
  switch (e.kind) {
    case EventKind::ExcEnter:
      n = {"exc.enter", "exc.", exc_class_label, kExcClassLabels};
      break;
    case EventKind::ExcExit: n = {"exc.exit"}; break;
    case EventKind::SyscallEnter: n = {"syscall.count"}; break;
    case EventKind::KeyWrite:
      n = {"key.write", "key.write.", pac_key_label, kPacKeyLabels};
      break;
    case EventKind::PacSign:
      n = {"pauth.sign", "pauth.sign.", pac_key_label, kPacKeyLabels};
      break;
    case EventKind::AuthOk: n = {"pauth.auth.ok"}; break;
    case EventKind::AuthFail:
      n = {"pauth.auth.fail", "pauth.auth.fail.", pac_key_label,
           kPacKeyLabels};
      break;
    case EventKind::Stage2Fault: n = {"stage2.fault"}; break;
    case EventKind::ContextSwitch: n = {"sched.switch"}; break;
    case EventKind::HvcCall: n = {"hvc.call"}; break;
    case EventKind::ModuleLoad: n = {"module.load"}; break;
    case EventKind::MsrDenied: n = {"msr.denied"}; break;
    case EventKind::AttackOutcome:
      n = {"attack.outcome", "attack.", outcome_label, kOutcomeLabels};
      break;
    default:
      return;
  }
  static_assert(kExcClassLabels >= kPacKeyLabels &&
                kExcClassLabels >= kOutcomeLabels);  // label_counters_ width
  const size_t k = static_cast<size_t>(e.kind);
  if (kind_counters_[k] == nullptr) kind_counters_[k] = &reg_.counter(n.name);
  kind_counters_[k]->inc();
  if (n.family == nullptr) return;
  uint8_t v = n.label == pac_key_label ? e.key : e.aux;
  if (v >= n.labels) v = static_cast<uint8_t>(n.labels);
  Counter*& slot = label_counters_[k][v];
  if (slot == nullptr) slot = &reg_.counter(std::string(n.family) + n.label(v));
  slot->inc();
}

// ---- reported facts ---------------------------------------------------------
//
// Each stores its one fact: the audit record plus the trace-only payloads.

void Collector::exc_enter(const Site& s, uint8_t cls, uint8_t fault,
                          uint16_t iss, uint64_t far, uint64_t x8) {
  const bool svc = cls == kExcClassSvc;
  record(s, {.ptr = far, .ptr2 = svc ? x8 : 0, .kind = EventKind::ExcEnter,
             .aux = cls, .fault = fault, .imm = iss, .syscall = svc});
}

void Collector::exc_exit(const Site& s, uint64_t target, uint8_t target_el) {
  record(s, {.ptr = target, .kind = EventKind::ExcExit, .aux = target_el});
}

void Collector::pac_sign(const Site& s, uint8_t key, uint64_t ptr,
                         uint64_t modifier, uint64_t signed_ptr,
                         uint64_t prov) {
  record(s, {.ptr = ptr, .ptr2 = signed_ptr, .modifier = modifier,
             .prov = prov, .kind = EventKind::PacSign, .key = key});
}

void Collector::pac_auth(const Site& s, bool ok, uint8_t key, uint64_t ptr,
                         uint64_t modifier, uint64_t result, uint64_t lr,
                         uint64_t prov) {
  record(s, {.ptr = ptr, .ptr2 = result, .modifier = modifier, .lr = lr,
             .prov = prov,
             .kind = ok ? EventKind::AuthOk : EventKind::AuthFail, .key = key});
}

void Collector::key_install(const Site& s, uint8_t key, uint64_t prov,
                            bool bank, uint16_t sysreg) {
  record(s, {.prov = prov, .kind = EventKind::KeyWrite, .key = key,
             .bank = bank, .imm = sysreg});
}

void Collector::msr_denied(const Site& s, uint16_t sysreg) {
  record(s, {.kind = EventKind::MsrDenied, .imm = sysreg});
}

void Collector::hvc_call(const Site& s, uint16_t imm, uint64_t x0,
                         uint64_t x1) {
  record(s, {.ptr = x0, .ptr2 = x1, .kind = EventKind::HvcCall, .imm = imm});
}

void Collector::module_verify(const Site& s, uint64_t id, uint64_t init_va,
                              bool ok) {
  record(s, {.ptr = id, .ptr2 = init_va, .kind = EventKind::ModuleLoad,
             .aux = ok});
}

void Collector::context_switch(const Site& s, uint64_t prev, uint64_t next) {
  record(s, {.ptr = prev, .ptr2 = next, .kind = EventKind::ContextSwitch});
}

void Collector::attack_verdict(unsigned cpu, uint64_t cycles, uint8_t outcome,
                               uint64_t pac_failures, uint64_t halt_code) {
  // A Detected verdict arms the flight recorder even when no guest-visible
  // fault fired (e.g. a threshold panic classified after the run). The
  // verdict has no guest pc; the fact files it under EL1, the trace view
  // under EL0.
  record({.cpu = cpu, .cycles = cycles, .el = 1},
         {.ptr = pac_failures, .ptr2 = halt_code,
          .kind = EventKind::AttackOutcome, .aux = outcome});
}

// ---- derived state ----------------------------------------------------------

void Collector::record(const Site& s, Event e) {
  e.cycles = s.cycles;
  e.pc = s.pc;
  e.el = s.el;
  e.cpu = static_cast<uint8_t>(s.cpu);
  e.machine = machine_id_;
  e.mclass = static_cast<uint8_t>(classify_modifier(e.modifier));  // 0: none
  switch (e.kind) {
    case EventKind::ExcEnter:
      if (e.syscall) {
        CoreState& c = core(s.cpu);
        c.syscall_open = true;
        c.syscall_enter_cycles = e.cycles;
        c.syscall_nr = static_cast<uint16_t>(e.ptr2);
      }
      break;
    case EventKind::ExcExit: {
      CoreState& c = core(s.cpu);
      if (c.syscall_open && e.aux == 0) {  // ERET to EL0 closes the window
        c.syscall_open = false;
        e.syscall = 1;
        e.ptr2 = e.cycles - c.syscall_enter_cycles;
        e.imm = c.syscall_nr;
        syscall_cycles_->record(e.ptr2);
      }
      break;
    }
    case EventKind::KeyWrite: {
      if (e.bank) break;
      CoreState& c = core(s.cpu);
      if (c.burst_open && e.cycles - c.burst_last <= kBurstGapCycles) {
        c.burst_last = e.cycles;
        ++c.burst_writes;
      } else {
        if (c.burst_open && c.burst_writes >= 2)
          key_switch_->record(c.burst_last - c.burst_first);
        c.burst_open = true;
        c.burst_first = c.burst_last = e.cycles;
        c.burst_writes = 1;
      }
      break;
    }
    case EventKind::PacSign: {
      // Sign→auth latency: each sign remembers its signed value and cycle,
      // and the matching auth on the same core records the distance and
      // retires the entry. One probe: insert (or find) the entry, and take
      // a fresh one back out when the table was already full.
      auto& pending = core(s.cpu).pending_signs;
      if (const auto [it, fresh] = pending.try_emplace(e.ptr2, e.cycles);
          !fresh) {
        it->second = e.cycles;
      } else if (pending.size() > kMaxPendingSigns) {
        pending.erase(it);
        reg_.counter("pauth.sign_to_auth.dropped").inc();
      }
      break;
    }
    case EventKind::AuthOk:
    case EventKind::AuthFail: {
      auto& pending = core(s.cpu).pending_signs;
      const auto it = pending.find(e.ptr);
      if (it != pending.end()) {
        sign_to_auth_->record(e.cycles - it->second);
        pending.erase(it);
      }
      break;
    }
    default:
      break;
  }
  if (is_audit_kind(e.kind)) ++audit_total_;
  ring_.push(e);
  // The counters and the flight trigger read the fact's trace view (of the
  // local copy: reading back the slot just stored stalls). Any protection
  // violation or attack detection there freezes the instruction ring and
  // snapshots machine state (first trigger wins — it is the causal root).
  for_each_trace_record(e, [this](const Event& t) {
    count(t);
    if (t.kind == EventKind::AuthFail || t.kind == EventKind::Stage2Fault ||
        t.kind == EventKind::MsrDenied ||
        (t.kind == EventKind::AttackOutcome && t.aux == kOutcomeDetected))
      flight_.trigger(t);
  });
}

std::vector<Event> Collector::audit_events() const {
  // Walk back from the newest fact to the window's oldest audit fact.
  size_t first = ring_.size(), n = 0;
  while (first > 0 && n < kAuditWindow)
    n += is_audit_kind(ring_.at(--first).kind) ? 1 : 0;
  std::vector<Event> out;
  out.reserve(n);
  for (size_t i = first; i < ring_.size(); ++i)
    if (is_audit_kind(ring_.at(i).kind)) out.push_back(audit_form(ring_.at(i)));
  return out;
}

uint64_t Collector::audit_dropped() const {
  return audit_total_ - audit_events().size();
}

void Collector::retire_run(const RetireRun& run) {
  if (run.cpu != run_cpu_) [[unlikely]] {
    core(run_cpu_).retired_cycles = retired_cycles_;
    retired_cycles_ = core(run.cpu).retired_cycles;
    run_cpu_ = run.cpu;
  }
  // retired_cycles_ is the core's cycle counter before the run (summing a
  // core's retire feed reproduces its Cpu::cycles()): the flight ring's
  // first stamp.
  flight_.retire_run(retired_cycles_, run);
  retired_cycles_ += run.cycles;
  if (run.el < 3) {
    cycles_el_[run.el]->inc(run.cycles);
    insn_el_[run.el]->inc(run.n);
  }
  if (opts_.callgraph) cg_.retire_run(run);
}

void Collector::control_flow(unsigned cpu, CfKind kind, uint64_t from_pc,
                             uint64_t to_pc, uint8_t info) {
  if (opts_.callgraph) cg_.control_flow(cpu, kind, from_pc, to_pc, info);
}

std::string Collector::chrome_trace_json() const {
  return obs::chrome_trace_json(ring_.snapshot());
}

}  // namespace camo::obs
