// camo::obs security audit stream (DESIGN.md §3f).
//
// The trace ring answers "what happened"; the audit log answers "why was
// this pointer accepted or rejected". It is a typed, bounded stream of every
// security-relevant event — key installs (MSR halves and EL2 bank
// provisioning), PAC sign and authentication outcomes, EL transitions,
// hypervisor denials and attack verdicts — with one extra ingredient the
// trace lacks: **key provenance**. Every live key value carries a
// monotonically increasing provenance id, assigned when the key material is
// installed; sign and auth events record the provenance of the key they
// used. An authentication failure therefore links causally back through the
// sign events made under the same key generation to the exact install that
// produced it, which is what camo-audit's causal-chain printer walks.
//
// The Collector (obs/collector.h) builds every AuditEvent from the one
// report a producer makes of a fact, right after that fact's trace record.
//
// Determinism rules (same contract as the trace ring):
//  * producers hold a null Collector pointer by default — reporting never
//    costs simulated cycles and the guest run is bit-for-bit identical with
//    or without a collector attached;
//  * every payload is guest-deterministic (cycle counter, guest PCs,
//    pointer/modifier values, provenance counters) — no host wall clock —
//    so fleet runs merged in task-index order produce bit-identical logs
//    for any --jobs value, and a flight-recorder bundle replayed on a fresh
//    machine reproduces the stream exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/ring.h"

namespace camo::obs {

/// Typed audit events. Payload assignments are documented per kind.
enum class AuditKind : uint8_t {
  None = 0,
  KeyInstall,    ///< key material installed: key=PacKey, prov=new id,
                 ///< bank=1 for the EL2-managed kernel bank (§8) else 0,
                 ///< imm=sysreg (half written) when bank==0
  Sign,          ///< PAC insertion: ptr=raw pointer, ptr2=signed result,
                 ///< modifier, key, prov=provenance of the signing key
  AuthOk,        ///< AUT* accepted: ptr=input, ptr2=stripped result
  AuthFail,      ///< AUT* rejected: ptr=input, ptr2=poisoned result,
                 ///< pc=faulting instruction, lr=x30 at failure
  ElEnter,       ///< exception entry: aux=ExcClass, el=EL before entry,
                 ///< pc=preferred return, ptr=FAR
  ElExit,        ///< ERET: aux=target EL, ptr=target pc
  HypDenied,     ///< hypervisor denied an EL1 MSR write: imm=sysreg
  ModuleVerify,  ///< module load verification: ptr=module id, aux=1 when ok
  AttackVerdict, ///< attacks:: classification: aux=Outcome ordinal
  kCount,
};

const char* audit_kind_name(AuditKind k);

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

/// One audit record (fixed size). `cycles` is the reporting core's cycle
/// counter; `machine` is stamped by the Collector so fleet-merged streams
/// keep every machine's events distinct.
struct AuditEvent {
  uint64_t cycles = 0;
  uint64_t pc = 0;        ///< guest pc associated with the event (0 if none)
  uint64_t ptr = 0;       ///< kind-specific (see AuditKind)
  uint64_t ptr2 = 0;      ///< kind-specific
  uint64_t modifier = 0;  ///< Sign/Auth*: the PAC modifier used
  uint64_t lr = 0;        ///< AuthFail: x30 at the failing instruction
  uint64_t prov = 0;      ///< provenance id of the key involved (0 = none /
                          ///< installed outside the audited path)
  uint32_t machine = 0;   ///< fleet machine id (stamped by the log)
  AuditKind kind = AuditKind::None;
  uint8_t key = 0;      ///< PacKey ordinal for key/sign/auth events
  uint8_t el = 0;       ///< exception level at emission
  uint8_t mclass = 0;   ///< ModifierClass ordinal (Sign/Auth*)
  uint8_t bank = 0;     ///< KeyInstall: 1 = EL2 kernel bank, 0 = key register
  uint8_t aux = 0;      ///< kind-specific small payload (class, EL, outcome)
  uint8_t cpu = 0;      ///< emitting core id within the machine (0 = core 0
                        ///< and the only value single-core machines produce)
  uint16_t imm = 0;     ///< kind-specific 16-bit payload (sysreg)
};

/// Fixed-capacity audit ring (the Collector's audit log; obs/ring.h):
/// keeps the most recent `capacity` events, counts overwritten ones in
/// dropped() and iterates oldest→newest.
class AuditLog : public Ring<AuditEvent> {
 public:
  explicit AuditLog(size_t capacity = 8192) : Ring(capacity) {}
};

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
