#include "obs/collector.h"

#include <string>

#include "obs/chrome_trace.h"

namespace camo::obs {

namespace {
constexpr uint8_t kExcClassSvc = 1;   // mirrors cpu::ExcClass::Svc
constexpr uint8_t kFaultStage2 = 4;   // mirrors mem::FaultKind::Stage2
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

void Collector::count(const TraceEvent& e) {
  // The registry counters an event kind bumps: one fixed name, and for some
  // kinds a "<family><label of k1>" counter. The label helpers map every
  // out-of-range k1 to one label, which shares the slot past the named ones.
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
  const uint8_t v = e.k1 < n.labels ? e.k1 : static_cast<uint8_t>(n.labels);
  Counter*& slot = label_counters_[k][v];
  if (slot == nullptr) slot = &reg_.counter(std::string(n.family) + n.label(v));
  slot->inc();
}

// ---- reported facts ---------------------------------------------------------
//
// Each builds the ring's record, then the log's, from the one report.

void Collector::exc_enter(const Site& s, uint8_t cls, uint8_t fault,
                          uint16_t iss, uint64_t far, uint64_t x8) {
  trace(s.cpu, {.cycles = s.cycles, .pc = s.pc, .a = far,
                .b = cls == kExcClassSvc ? x8 : 0, .kind = EventKind::ExcEnter,
                .el = s.el, .k1 = cls, .k2 = fault, .imm = iss});
  if (fault == kFaultStage2)
    trace(s.cpu, {.cycles = s.cycles, .pc = s.pc, .a = far,
                  .kind = EventKind::Stage2Fault, .el = s.el, .k1 = cls});
  audit(s.cpu, {.cycles = s.cycles, .pc = s.pc, .ptr = far,
                .kind = AuditKind::ElEnter, .el = s.el, .aux = cls});
}

void Collector::exc_exit(const Site& s, uint64_t target, uint8_t target_el) {
  trace(s.cpu, {.cycles = s.cycles, .pc = target, .a = target,
                .kind = EventKind::ExcExit, .el = s.el, .k2 = target_el});
  audit(s.cpu, {.cycles = s.cycles, .pc = s.pc, .ptr = target,
                .kind = AuditKind::ElExit, .el = s.el, .aux = target_el});
}

void Collector::pac_sign(const Site& s, uint8_t key, uint64_t ptr,
                         uint64_t modifier, uint64_t signed_ptr,
                         uint64_t prov) {
  pac(s, EventKind::PacSign, AuditKind::Sign, key, ptr, modifier, signed_ptr,
      0, prov);
}

void Collector::pac_auth(const Site& s, bool ok, uint8_t key, uint64_t ptr,
                         uint64_t modifier, uint64_t result, uint64_t lr,
                         uint64_t prov) {
  pac(s, ok ? EventKind::AuthOk : EventKind::AuthFail,
      ok ? AuditKind::AuthOk : AuditKind::AuthFail, key, ptr, modifier, result,
      lr, prov);
}

void Collector::pac(const Site& s, EventKind ek, AuditKind ak, uint8_t key,
                    uint64_t ptr, uint64_t modifier, uint64_t result,
                    uint64_t lr, uint64_t prov) {
  trace(s.cpu, {.cycles = s.cycles, .pc = s.pc, .a = ptr, .b = modifier,
                .kind = ek, .el = s.el, .k1 = key});
  audit(s.cpu,
        {.cycles = s.cycles, .pc = s.pc, .ptr = ptr, .ptr2 = result,
         .modifier = modifier, .lr = lr, .prov = prov, .kind = ak, .key = key,
         .el = s.el,
         .mclass = static_cast<uint8_t>(classify_modifier(modifier))});
}

void Collector::key_install(const Site& s, uint8_t key, uint64_t prov,
                            bool bank, uint16_t sysreg) {
  if (!bank)
    trace(s.cpu, {.cycles = s.cycles, .pc = s.pc, .kind = EventKind::KeyWrite,
                  .el = s.el, .k1 = key, .imm = sysreg});
  audit(s.cpu, {.cycles = s.cycles, .pc = s.pc, .prov = prov,
                .kind = AuditKind::KeyInstall, .key = key, .el = s.el,
                .bank = bank, .imm = sysreg});
}

void Collector::msr_denied(const Site& s, uint16_t sysreg) {
  trace(s.cpu, {.cycles = s.cycles, .pc = s.pc, .kind = EventKind::MsrDenied,
                .el = s.el, .imm = sysreg});
  audit(s.cpu, {.cycles = s.cycles, .pc = s.pc, .kind = AuditKind::HypDenied,
                .el = s.el, .imm = sysreg});
}

void Collector::hvc_call(const Site& s, uint16_t imm, uint64_t x0,
                         uint64_t x1) {
  trace(s.cpu, {.cycles = s.cycles, .pc = s.pc, .a = x0, .b = x1,
                .kind = EventKind::HvcCall, .el = s.el, .imm = imm});
}

void Collector::module_verify(const Site& s, uint64_t id, uint64_t init_va,
                              bool ok) {
  trace(s.cpu, {.cycles = s.cycles, .pc = s.pc, .a = id, .b = init_va,
                .kind = EventKind::ModuleLoad, .el = s.el, .k1 = ok});
  audit(s.cpu, {.cycles = s.cycles, .pc = s.pc, .ptr = id, .ptr2 = init_va,
                .kind = AuditKind::ModuleVerify, .el = s.el, .aux = ok});
}

void Collector::context_switch(const Site& s, uint64_t prev, uint64_t next) {
  trace(s.cpu, {.cycles = s.cycles, .pc = s.pc, .a = prev, .b = next,
                .kind = EventKind::ContextSwitch, .el = s.el});
}

void Collector::attack_verdict(unsigned cpu, uint64_t cycles, uint8_t outcome,
                               uint64_t pac_failures, uint64_t halt_code) {
  // The ring's record comes first so a Detected verdict arms the flight
  // recorder even when no guest-visible fault fired (e.g. a threshold panic
  // classified after the run). The verdict has no guest pc; the log files
  // it under EL1, the ring under EL0.
  trace(cpu,
        {.cycles = cycles, .kind = EventKind::AttackOutcome, .k1 = outcome});
  audit(cpu, {.cycles = cycles, .ptr = pac_failures, .ptr2 = halt_code,
              .kind = AuditKind::AttackVerdict, .el = 1, .aux = outcome});
}

// ---- derived state ----------------------------------------------------------

void Collector::trace(unsigned cpu, const TraceEvent& e) {
  ring_.push(e);
  count(e);
  switch (e.kind) {
    case EventKind::ExcEnter:
      if (e.k1 == kExcClassSvc) {
        if (syscall_count_ == nullptr)
          syscall_count_ = &reg_.counter("syscall.count");
        syscall_count_->inc();
        CoreState& c = core(cpu);
        c.syscall_open = true;
        c.syscall_enter_cycles = e.cycles;
        c.syscall_nr = static_cast<uint16_t>(e.b);
        ring_.push({.cycles = e.cycles, .pc = e.pc,
                    .kind = EventKind::SyscallEnter, .el = e.el,
                    .imm = c.syscall_nr});
      }
      break;
    case EventKind::ExcExit: {
      CoreState& c = core(cpu);
      if (c.syscall_open && e.k2 == 0) {  // ERET to EL0 closes the window
        c.syscall_open = false;
        const uint64_t window = e.cycles - c.syscall_enter_cycles;
        syscall_cycles_->record(window);
        ring_.push({.cycles = e.cycles, .pc = e.a, .a = window,
                    .kind = EventKind::SyscallExit, .el = e.el,
                    .imm = c.syscall_nr});
      }
      break;
    }
    case EventKind::KeyWrite: {
      CoreState& c = core(cpu);
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
    default:
      break;
  }
  // Flight-recorder capture: any protection violation or attack detection
  // freezes the instruction ring and snapshots machine state (first trigger
  // wins — it is the causal root).
  const bool violation =
      e.kind == EventKind::AuthFail || e.kind == EventKind::Stage2Fault ||
      e.kind == EventKind::MsrDenied ||
      (e.kind == EventKind::AttackOutcome && e.k1 == kOutcomeDetected);
  if (violation) flight_.trigger(e);
}

void Collector::audit(unsigned cpu, AuditEvent a) {
  a.cpu = static_cast<uint8_t>(cpu);
  a.machine = machine_id_;
  audit_log_.push(a);
  switch (a.kind) {
    case AuditKind::Sign: {
      // One probe: insert (or find) the entry, and take a fresh one back
      // out when the table was already full.
      auto& pending = core(cpu).pending_signs;
      if (const auto [it, fresh] = pending.try_emplace(a.ptr2, a.cycles);
          !fresh) {
        it->second = a.cycles;
      } else if (pending.size() > kMaxPendingSigns) {
        pending.erase(it);
        reg_.counter("pauth.sign_to_auth.dropped").inc();
      }
      break;
    }
    case AuditKind::AuthOk:
    case AuditKind::AuthFail: {
      auto& pending = core(cpu).pending_signs;
      const auto it = pending.find(a.ptr);
      if (it != pending.end()) {
        sign_to_auth_->record(a.cycles - it->second);
        pending.erase(it);
      }
      break;
    }
    default:
      break;
  }
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
