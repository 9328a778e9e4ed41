// Attack injection framework: turns the paper's security arguments (§6.2)
// into executable experiments.
//
// The Attacker models exactly the threat-model adversary (§3.1): full control
// of user processes plus a kernel-memory read/write primitive that honours
// memory protections — writes to stage-2-protected pages (kernel text,
// rodata) and reads of execute-only memory fail, everything else succeeds.
//
// Each run_* function builds and boots a fresh Machine under the given
// protection configuration (about a millisecond: physical memory is paged,
// DESIGN.md §3j), mounts one attack, runs to completion and classifies:
//   Hijacked — the gadget executed (the kernel halts with kHaltPwned),
//   Detected — a PAuth authentication failure fired (task killed or §5.4
//              panic),
//   Blocked  — the memory protection stopped the primitive itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/instrument.h"
#include "kernel/machine.h"
#include "obs/coverage.h"

namespace camo::attacks {

enum class Outcome : uint8_t { Hijacked, Detected, Blocked };

const char* outcome_name(Outcome o);

struct AttackReport {
  Outcome outcome = Outcome::Blocked;
  std::string detail;
  uint64_t pac_failures = 0;
  uint64_t halt_code = 0;
  uint64_t attempts = 1;  ///< brute force: tries until panic/success
  /// AuthFail facts in the machine's event ring — the obs-side view of the
  /// same failures the guest counts in pac_fail_count.
  uint64_t trace_auth_failures = 0;
  /// Execution coverage of the attack run (null unless collect_coverage()
  /// was set before the run). Shared so reports stay cheap to copy.
  std::shared_ptr<obs::CoverageMap> coverage;
};

/// Process-wide knob: when set, every attack Machine also collects PA-keyed
/// execution coverage (obs/coverage.h) and each AttackReport carries its
/// map. Default off — the per-retirement feed costs a map probe, so only
/// coverage consumers (bench_security_matrix --cov, camo-cov) enable it.
/// Set it before spawning fleet workers; reads are unsynchronized.
bool& collect_coverage();

/// The threat-model memory primitive (kernel-level read/write that cannot
/// bypass stage-2 protections or read XOM).
class Attacker {
 public:
  explicit Attacker(kernel::Machine& m) : m_(&m) {}

  bool read(uint64_t va, uint64_t& out);
  bool write(uint64_t va, uint64_t value);

 private:
  kernel::Machine* m_;
};

// ---- full-system attacks ---------------------------------------------------

/// Classic kernel ROP: overwrite a saved return address on a kernel task
/// stack with the raw gadget address (§2.1, §6.2.1 "injection of arbitrary
/// unsigned pointers").
AttackReport run_rop_injection(const compiler::ProtectionConfig& prot);

/// Overwrite the writable lone function pointer (§4.4) with the raw gadget
/// address, then have user space trigger it.
AttackReport run_forward_edge_injection(const compiler::ProtectionConfig& prot);

/// DFI bypass attempt (§4.5): point an open file's f_ops at a fake
/// operations table forged in writable kernel memory.
AttackReport run_fops_redirect(const compiler::ProtectionConfig& prot);

/// Reuse attack across objects: copy the *validly signed* f_ops value from
/// one struct file into another. The 48-bit object-address modifier makes
/// the signature location-bound (§4.3).
AttackReport run_fops_cross_object_swap(const compiler::ProtectionConfig& prot);

/// PAC brute force (§5.4): guess PAC bits for the hook pointer until the
/// failure threshold halts the system (or a guess lands).
AttackReport run_bruteforce(const compiler::ProtectionConfig& prot,
                            unsigned threshold, unsigned max_tries = 64);

/// Try to learn the kernel keys: read the XOM key-setter page through the
/// kernel-read primitive and scan all EL1-readable kernel memory for key
/// halves (§6.2.2).
AttackReport run_key_extraction(const compiler::ProtectionConfig& prot);

/// Try to tamper with a read-only operations table directly (threat model:
/// write-protected memory is out of reach).
AttackReport run_rodata_tamper(const compiler::ProtectionConfig& prot);

/// §8 future-work extension: rewrite a *sleeping* task's saved exception
/// state — ELR to the gadget and SPSR to EL1 — so its next ERET executes the
/// gadget at kernel privilege. Defended by KernelConfig::protect_trapframe
/// (saved ELR signed against trapframe address ‖ SPSR).
AttackReport run_trapframe_escalation(const compiler::ProtectionConfig& prot,
                                      bool protect_trapframe);

/// SMP variant of the trapframe attack: on a 2-core machine, corrupt a
/// sleeping task's saved exception state after core 0 parked it and arrange
/// for core 1 to migrate the task in. Kernel keys are machine-wide (every
/// core's bank holds the same boot-derived keys), so the migrated frame's
/// signature would authenticate anywhere — only the *corruption* fails
/// closed, on the destination core, which the audit stream's per-event cpu
/// id attributes (trapframe protection is always on for this scenario).
AttackReport run_trapframe_migration(const compiler::ProtectionConfig& prot);

// ---- modifier replay matrix (§6.2.1, §7) -----------------------------------

/// Replay scenarios for backward-edge CFI. "Accepted" means the replayed
/// signed return address authenticates — i.e. the scheme does NOT stop it.
enum class ReplayScenario : uint8_t {
  SameFunctionSameSp,    ///< residual weakness of every SP-based scheme
  DiffFunctionSameSp,    ///< breaks the Clang SP-only modifier (Listing 2)
  CrossThread64kStacks,  ///< breaks PARTS' 16-bit SP window (§7)
  DiffFunctionDiffSp,    ///< baseline: must be rejected by every scheme
};

const char* replay_scenario_name(ReplayScenario s);

/// Host-side evaluation of the modifier algebra (the same constructions the
/// instrumentation emits; equivalence is covered by the compiler tests).
bool replay_accepted(compiler::BackwardScheme scheme, ReplayScenario scenario);

/// The same replay matrix exercised on the CPU with real signed pointers
/// (signs under modifier A, authenticates under modifier B).
bool replay_accepted_on_cpu(compiler::BackwardScheme scheme,
                            ReplayScenario scenario);

// ---- scenario registry (camo-audit / --flight-rec) -------------------------

/// Stable names for every full-system attack above, in a fixed order:
/// rop-injection, forward-edge, fops-redirect, fops-cross-object,
/// bruteforce, key-extraction, rodata-tamper, trapframe,
/// trapframe-protected, trapframe-migration.
const std::vector<std::string>& attack_names();

/// Stable names for the protection presets: none, backward, full.
const std::vector<std::string>& attack_config_names();

/// Resolve a preset name; returns nullopt for unknown names.
std::optional<compiler::ProtectionConfig> protection_config_by_name(
    const std::string& name);

/// Run one named attack under one named protection preset. When
/// `flight_bundle` is non-null, the run's camo-flight/v1 replay bundle
/// (flight ring + snapshot + audit stream + causal chain) is assembled into
/// it — this is the producer side of `camo-audit replay`. Returns nullopt
/// if either name is unknown.
std::optional<AttackReport> run_named_attack(
    const std::string& attack, const std::string& config,
    std::string* flight_bundle = nullptr);

}  // namespace camo::attacks
