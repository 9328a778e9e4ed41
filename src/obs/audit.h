// camo::obs security audit stream (DESIGN.md §3f).
//
// The trace view answers "what happened"; the audit view answers "why was
// this pointer accepted or rejected". It is the typed stream of every
// security-relevant fact — key installs (MSR halves and EL2 bank
// provisioning), PAC sign and authentication outcomes, EL transitions,
// hypervisor denials, module verification and attack verdicts — with one
// extra ingredient the trace does not show: **key provenance**. Every live
// key value carries a monotonically increasing provenance id, assigned when
// the key material is installed; sign and auth events record the provenance
// of the key they used. An authentication failure therefore links causally
// back through the sign events made under the same key generation to the
// exact install that produced it, which is what camo-audit's causal-chain
// printer walks.
//
// An audit event is an obs::Event in audit form (audit_form): the Collector
// stores each fact once, in its ring (obs/ring.h), and its audit view is the
// newest 8,192 audit-kind facts there. The audit wire format numbers kinds
// by its own ordinals ("k"), mapped from EventKind by one table.
//
// Every payload is guest-deterministic (cycle counter, guest PCs,
// pointer/modifier values, provenance counters) — no host wall clock — so
// fleet runs merged in task-index order produce bit-identical streams for
// any --jobs value, and a flight-recorder bundle replayed on a fresh
// machine reproduces the stream exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "obs/trace.h"

namespace camo::obs {

/// The audit view's name for its records.
using AuditEvent = Event;

/// The audit wire format's kinds, by ordinal ("k" in its JSON): the one
/// table its writer and its reader map EventKind through.
inline constexpr struct {
  EventKind kind;
  const char* name;
} kAuditKinds[] = {
    {EventKind::None, "none"},
    {EventKind::KeyWrite, "key-install"},
    {EventKind::PacSign, "sign"},
    {EventKind::AuthOk, "auth-ok"},
    {EventKind::AuthFail, "auth-fail"},
    {EventKind::ExcEnter, "el-enter"},
    {EventKind::ExcExit, "el-exit"},
    {EventKind::MsrDenied, "hyp-denied"},
    {EventKind::ModuleLoad, "module-verify"},
    {EventKind::AttackOutcome, "attack-verdict"},
};

/// The audit ordinal of `k`, or 0 for a kind the audit view does not hold
/// (HvcCall, ContextSwitch, the derived kinds).
constexpr uint8_t audit_ordinal(EventKind k) {
  for (uint8_t i = 1; i < std::size(kAuditKinds); ++i)
    if (kAuditKinds[i].kind == k) return i;
  return 0;
}
/// True for the kinds the audit view holds.
constexpr bool is_audit_kind(EventKind k) { return audit_ordinal(k) != 0; }
/// The audit wire format's label of `k` ("key-install", "sign", ...).
constexpr const char* audit_kind_name(EventKind k) {
  const uint8_t i = audit_ordinal(k);
  return i != 0 || k == EventKind::None ? kAuditKinds[i].name : "<bad-kind>";
}

/// `e` as the audit view shows it: the trace-only payloads (an exception
/// entry's iss, fault kind and x8; an ERET's syscall window) zeroed.
inline Event audit_form(Event e) {
  if (e.kind == EventKind::ExcEnter || e.kind == EventKind::ExcExit) {
    e.ptr2 = 0;
    e.imm = 0;
  }
  e.fault = 0;
  e.syscall = 0;
  return e;
}

/// Structural classification of a PAC modifier value — enough to tell the
/// paper's modifier constructions apart without reaching into the compiler:
/// zero (Apple-style, §7), a plain canonical address (Clang's SP-only
/// scheme), or a composite mixing address and context bits (Camouflage's
/// SP ‖ function address, PARTS' SP ‖ function-id, the object modifier).
enum class ModifierClass : uint8_t { Zero = 0, Address, Composite };

const char* modifier_class_name(ModifierClass c);

/// Classify a modifier value structurally: 0 is Zero; a value whose top 16
/// bits are all-zero or all-one (a canonical VA) is Address; anything else
/// is Composite.
inline ModifierClass classify_modifier(uint64_t modifier) {
  if (modifier == 0) return ModifierClass::Zero;
  const uint64_t top = modifier >> 48;
  if (top == 0 || top == 0xFFFF) return ModifierClass::Address;
  return ModifierClass::Composite;
}

/// Indices (into `events`) of the causal chain ending at `at`: the key
/// installs sharing the failing key's provenance, the sign events made under
/// that provenance whose output (or raw input) matches the failing pointer,
/// the event at `at` itself, and any attack verdict recorded after it. When
/// `at` is not an auth failure the chain is just {at}. An AuthFail whose
/// pointer matches no sign event is the forged-pointer signature: the chain
/// then carries installs + the failure only, and camo-audit reports
/// "no matching sign event (forged pointer)".
std::vector<size_t> causal_chain(const std::vector<AuditEvent>& events,
                                 size_t at);

}  // namespace camo::obs
