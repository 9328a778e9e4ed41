#include "obs/trace.h"

#include <iterator>

namespace camo::obs {

const char* event_kind_name(EventKind k) {
  static const char* const names[] = {
      "none",         "exc-enter",    "exc-exit",       "syscall-enter",
      "syscall-exit", "key-write",    "pac-sign",       "auth-ok",
      "auth-fail",    "stage2-fault", "context-switch", "hvc-call",
      "module-load",  "msr-denied",   "attack-outcome"};
  static_assert(std::size(names) == static_cast<size_t>(EventKind::kCount));
  const auto i = static_cast<size_t>(k);
  return i < std::size(names) ? names[i] : "<bad-event>";
}

const char* op_class_name(OpClass c) {
  static const char* const names[] = {"other", "branch", "call",
                                      "ret",   "load",   "store",
                                      "pauth", "pauth-branch", "sys"};
  static_assert(std::size(names) == static_cast<size_t>(OpClass::kCount));
  const auto i = static_cast<size_t>(c);
  return i < std::size(names) ? names[i] : "<bad-class>";
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
