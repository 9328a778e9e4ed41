#include "obs/trace.h"

namespace camo::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::None: return "none";
    case EventKind::ExcEnter: return "exc-enter";
    case EventKind::ExcExit: return "exc-exit";
    case EventKind::SyscallEnter: return "syscall-enter";
    case EventKind::SyscallExit: return "syscall-exit";
    case EventKind::KeyWrite: return "key-write";
    case EventKind::PacSign: return "pac-sign";
    case EventKind::AuthOk: return "auth-ok";
    case EventKind::AuthFail: return "auth-fail";
    case EventKind::Stage2Fault: return "stage2-fault";
    case EventKind::ContextSwitch: return "context-switch";
    case EventKind::HvcCall: return "hvc-call";
    case EventKind::ModuleLoad: return "module-load";
    case EventKind::MsrDenied: return "msr-denied";
    case EventKind::AttackOutcome: return "attack-outcome";
    case EventKind::kCount: break;
  }
  return "<bad-event>";
}

const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::Other: return "other";
    case OpClass::Branch: return "branch";
    case OpClass::Call: return "call";
    case OpClass::Ret: return "ret";
    case OpClass::Load: return "load";
    case OpClass::Store: return "store";
    case OpClass::Pauth: return "pauth";
    case OpClass::PauthBranch: return "pauth-branch";
    case OpClass::Sys: return "sys";
    case OpClass::kCount: break;
  }
  return "<bad-class>";
}

const char* cf_kind_name(CfKind k) {
  switch (k) {
    case CfKind::Call: return "call";
    case CfKind::Ret: return "ret";
    case CfKind::ExcEnter: return "exc-enter";
    case CfKind::ExcExit: return "exc-exit";
  }
  return "<bad-cf>";
}

// Mirrors cpu::ExcClass declaration order (pinned by ObsLabels.* tests).
const char* exc_class_label(uint8_t cls) {
  static const char* const names[] = {"unknown",    "svc",       "brk",
                                      "insn-abort", "data-abort", "undefined",
                                      "pac-fail",   "irq"};
  static_assert(sizeof(names) / sizeof(names[0]) == kExcClassLabels);
  return cls < sizeof(names) / sizeof(names[0]) ? names[cls] : "<bad-class>";
}

// Mirrors cpu::PacKey declaration order.
const char* pac_key_label(uint8_t key) {
  static const char* const names[] = {"ia", "ib", "da", "db", "ga"};
  static_assert(sizeof(names) / sizeof(names[0]) == kPacKeyLabels);
  return key < sizeof(names) / sizeof(names[0]) ? names[key] : "<bad-key>";
}

// Mirrors attacks::Outcome declaration order.
const char* outcome_label(uint8_t outcome) {
  static const char* const names[] = {"hijacked", "detected", "blocked"};
  static_assert(sizeof(names) / sizeof(names[0]) == kOutcomeLabels);
  return outcome < sizeof(names) / sizeof(names[0]) ? names[outcome]
                                                    : "<bad-outcome>";
}

}  // namespace camo::obs
