#include "obs/audit.h"

namespace camo::obs {

const char* modifier_class_name(ModifierClass c) {
  switch (c) {
    case ModifierClass::Zero: return "zero";
    case ModifierClass::Address: return "address";
    case ModifierClass::Composite: return "composite";
  }
  return "<bad-class>";
}

std::vector<size_t> causal_chain(const std::vector<AuditEvent>& events,
                                 size_t at) {
  std::vector<size_t> chain;
  if (at >= events.size()) return chain;
  const AuditEvent& fail = events[at];
  if (fail.kind != EventKind::AuthFail) {
    chain.push_back(at);
    return chain;
  }
  // A PAC-stripped view of the failing pointer: when the attacker corrupted
  // the PAC bits but kept the target, the low 48 bits still match the raw
  // pointer that was signed.
  const uint64_t kLow48 = (uint64_t{1} << 48) - 1;
  for (size_t i = 0; i < at; ++i) {
    const AuditEvent& e = events[i];
    if (e.machine != fail.machine) continue;
    if (e.kind == EventKind::KeyWrite && e.prov == fail.prov &&
        fail.prov != 0) {
      chain.push_back(i);
    } else if (e.kind == EventKind::PacSign && e.key == fail.key &&
               e.prov == fail.prov) {
      const bool exact = e.ptr2 == fail.ptr;  // signed value replayed as-is
      const bool stripped =
          (e.ptr & kLow48) == (fail.ptr & kLow48);  // PAC bits corrupted
      if (exact || stripped) chain.push_back(i);
    }
  }
  chain.push_back(at);
  for (size_t i = at + 1; i < events.size(); ++i) {
    if (events[i].machine != fail.machine) continue;
    if (events[i].kind == EventKind::AttackOutcome) chain.push_back(i);
  }
  return chain;
}

}  // namespace camo::obs
