#include "obs/collector.h"

#include <string>

#include "obs/chrome_trace.h"

namespace camo::obs {

namespace {
constexpr uint8_t kExcClassSvc = 1;   // mirrors cpu::ExcClass::Svc
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

void Collector::emit(const TraceEvent& e) {
  ring_.emit(e);
  count(e);
  switch (e.kind) {
    case EventKind::ExcEnter:
      if (e.k1 == kExcClassSvc) {
        if (syscall_count_ == nullptr)
          syscall_count_ = &reg_.counter("syscall.count");
        syscall_count_->inc();
        syscall_open_ = true;
        syscall_enter_cycles_ = e.cycles;
        syscall_nr_ = static_cast<uint16_t>(e.b);
        TraceEvent sc{};
        sc.kind = EventKind::SyscallEnter;
        sc.cycles = e.cycles;
        sc.pc = e.pc;
        sc.el = e.el;
        sc.imm = syscall_nr_;
        ring_.emit(sc);
      }
      break;
    case EventKind::ExcExit:
      if (syscall_open_ && e.k2 == 0) {  // ERET back to EL0 closes the window
        syscall_open_ = false;
        const uint64_t window = e.cycles - syscall_enter_cycles_;
        syscall_cycles_->record(window);
        TraceEvent sc{};
        sc.kind = EventKind::SyscallExit;
        sc.cycles = e.cycles;
        sc.pc = e.a;
        sc.el = e.el;
        sc.imm = syscall_nr_;
        sc.a = window;
        ring_.emit(sc);
      }
      break;
    case EventKind::KeyWrite:
      if (burst_open_ && e.cycles - burst_last_ <= kBurstGapCycles) {
        burst_last_ = e.cycles;
        ++burst_writes_;
      } else {
        if (burst_open_ && burst_writes_ >= 2)
          key_switch_->record(burst_last_ - burst_first_);
        burst_open_ = true;
        burst_first_ = burst_last_ = e.cycles;
        burst_writes_ = 1;
      }
      break;
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

void Collector::audit(const AuditEvent& e) {
  audit_log_.audit(e);
  switch (e.kind) {
    case AuditKind::Sign:
      // One probe: insert (or find) the entry, and take a fresh one back
      // out when the table was already full.
      if (const auto [it, fresh] = pending_signs_.try_emplace(e.ptr2, e.cycles);
          !fresh) {
        it->second = e.cycles;
      } else if (pending_signs_.size() > kMaxPendingSigns) {
        pending_signs_.erase(it);
        reg_.counter("pauth.sign_to_auth.dropped").inc();
      }
      break;
    case AuditKind::AuthOk:
    case AuditKind::AuthFail: {
      const auto it = pending_signs_.find(e.ptr);
      if (it != pending_signs_.end()) {
        sign_to_auth_->record(e.cycles - it->second);
        pending_signs_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

void Collector::retire_run(const RetireRun& run) {
  // retired_cycles_ is the cycle counter before the run (summing the retire
  // feed reproduces Cpu::cycles()): the flight ring's first stamp.
  flight_.retire_run(retired_cycles_, run);
  retired_cycles_ += run.cycles;
  if (run.el < 3) {
    cycles_el_[run.el]->inc(run.cycles);
    insn_el_[run.el]->inc(run.n);
  }
  if (opts_.callgraph) cg_.retire_run(run);
}

void Collector::control_flow(CfKind kind, uint64_t from_pc, uint64_t to_pc,
                             uint8_t info) {
  if (opts_.callgraph) cg_.control_flow(kind, from_pc, to_pc, info);
}

std::string Collector::chrome_trace_json() const {
  return obs::chrome_trace_json(ring_.snapshot());
}

}  // namespace camo::obs
