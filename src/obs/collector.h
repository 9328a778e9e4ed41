// Collector: the per-machine observability hub.
//
// Producers (camo::cpu, camo::hyp, camo::kernel::Machine, camo::attacks)
// report each observed fact once, with one call on the Collector they hold:
// exc_enter, exc_exit, pac_sign, pac_auth, key_install, msr_denied,
// hvc_call, module_verify, context_switch and attack_verdict. Every call
// carries a Site: the reporting core's id, its cycle counter, the guest pc
// and the EL. The Collector stores each fact once, as one obs::Event in its
// ring, and derives everything else from it. The CPU's retire runs
// (CycleAttributor) and control flow (CfSink) arrive through their own
// interfaces. Everything fans out to the backends:
//
//  * the event ring (obs/ring.h) of the newest 32,768 facts. The trace view
//    (obs/trace.h) expands all of them; the audit view (obs/audit.h) is the
//    newest 8,192 audit-kind facts among them,
//  * a Registry of named counters/histograms derived from the event stream
//    and the retire feed (EL cycle residency, per-key auth failures,
//    syscall latency histogram, ...). Counts the CPUs keep themselves are
//    not recounted here: per-class retired ops (ops.*) and the per-core
//    insn.c<k>/cycles.c<k> are published into this registry from the
//    cores by cpu::publish_retire_counters,
//  * the flight recorder and the coverage map,
//  * a CallGraphProfiler attributing retired cycles to guest call stacks;
//    the flat per-symbol profile is its self-cycle view.
//
// The counters, syscall windows, key-switch bursts and sign-to-auth matches
// are live state, updated as each fact is stored, so they keep counting the
// facts the ring overwrites. An SVC entry opens a syscall window and the
// next exception exit to EL0 on that core closes it: both facts are marked
// (Event::syscall), the exit carries the window length into the
// `syscall.cycles` histogram, and the trace view derives its SyscallEnter
// and SyscallExit from the marks. Under context switching a window can span
// other tasks' execution; the histogram therefore measures wall-clock
// (guest cycle) syscall latency, which is what Fig. 3 reports.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/audit.h"
#include "obs/callgraph.h"
#include "obs/coverage.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace camo::obs {

/// Knobs carried in MachineConfig. Disabled by default: a Machine without
/// `enabled` never allocates a Collector and the CPU's observer pointers
/// stay null.
struct Options {
  bool enabled = false;
  /// Attach the shadow-call-stack profiler (folded stacks and, from the
  /// same counts, the flat per-symbol profile).
  bool callgraph = true;
  size_t flight_capacity = 256;  ///< flight-recorder ring (instructions)
  /// Attach the PA-keyed execution coverage map (obs/coverage.h). Off by
  /// default: the feed costs a memoized map probe per executed
  /// straight-line run (per retirement on the single-step path), so only
  /// coverage consumers (bench --cov, security matrix, camo-cov) pay for it.
  bool coverage = false;
};

/// Where and when a fact was observed: the reporting core's id and cycle
/// counter, the guest pc and the exception level.
struct Site {
  unsigned cpu = 0;
  uint64_t cycles = 0;
  uint64_t pc = 0;
  uint8_t el = 0;
};

class Collector : public CycleAttributor, public CfSink {
 public:
  static constexpr size_t kEventCapacity = 1 << 15;  ///< facts in the ring
  static constexpr size_t kAuditWindow = 8192;  ///< facts in the audit view

  explicit Collector(const Options& opts = Options{});

  // Reported facts (DESIGN.md §3a payloads) ---------------------------------
  /// Exception entry; `s.pc` is the preferred return address and `s.el` the
  /// EL the exception was taken from. `cls` is the cpu::ExcClass ordinal,
  /// `fault` the mem::FaultKind one; `x8` is the syscall nr for an SVC.
  void exc_enter(const Site& s, uint8_t cls, uint8_t fault, uint16_t iss,
                 uint64_t far, uint64_t x8);
  /// ERET at `s.pc` returning to `target` at `target_el`.
  void exc_exit(const Site& s, uint64_t target, uint8_t target_el);
  /// PAC insertion with `key` (cpu::PacKey ordinal) whose key material has
  /// provenance `prov`.
  void pac_sign(const Site& s, uint8_t key, uint64_t ptr, uint64_t modifier,
                uint64_t signed_ptr, uint64_t prov);
  /// AUT* outcome: `result` is the stripped or poisoned pointer and `lr` x30
  /// at the instruction.
  void pac_auth(const Site& s, bool ok, uint8_t key, uint64_t ptr,
                uint64_t modifier, uint64_t result, uint64_t lr,
                uint64_t prov);
  /// Key material installed with provenance `prov`: a guest MSR of key half
  /// `sysreg`, or (`bank`) an EL2 kernel-bank install, which the trace view
  /// does not show.
  void key_install(const Site& s, uint8_t key, uint64_t prov, bool bank,
                   uint16_t sysreg = 0);
  /// The hypervisor denied an EL1 MSR write to `sysreg`.
  void msr_denied(const Site& s, uint16_t sysreg);
  /// Guest→hypervisor call `imm` with its first two arguments.
  void hvc_call(const Site& s, uint16_t imm, uint64_t x0, uint64_t x1);
  /// Module `id` verified (`ok`) and, when ok, its init at `init_va`.
  void module_verify(const Site& s, uint64_t id, uint64_t init_va, bool ok);
  /// cpu_switch_to from task struct `prev` to `next`.
  void context_switch(const Site& s, uint64_t prev, uint64_t next);
  /// The attack framework's classification (attacks::Outcome ordinal) of a
  /// finished run, with the guest's PAC failure count and halt code.
  void attack_verdict(unsigned cpu, uint64_t cycles, uint8_t outcome,
                      uint64_t pac_failures, uint64_t halt_code);

  void retire_run(const RetireRun& run) override;
  void control_flow(unsigned cpu, CfKind kind, uint64_t from_pc,
                    uint64_t to_pc, uint8_t info) override;

  /// Fleet identity stamped onto every subsequent fact, so merged streams
  /// stay per-machine attributable.
  void set_machine_id(uint32_t id) { machine_id_ = id; }

  // Backends ----------------------------------------------------------------
  Registry& metrics() { return reg_; }
  const Registry& metrics() const { return reg_; }
  /// The stored facts, oldest first.
  const Ring& events() const { return ring_; }
  /// The audit view: the newest kAuditWindow audit-kind facts in the ring,
  /// oldest first, in audit form.
  std::vector<Event> audit_events() const;
  /// Audit-kind facts reported but not in the audit view.
  uint64_t audit_dropped() const;
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  /// Execution coverage map; only fed when options().coverage is set (the
  /// Machine attaches it to the CPU at boot).
  CoverageMap& coverage() { return cov_; }
  const CoverageMap& coverage() const { return cov_; }
  CallGraphProfiler& callgraph() { return cg_; }
  const CallGraphProfiler& callgraph() const { return cg_; }
  const Options& options() const { return opts_; }

  // Export ------------------------------------------------------------------
  /// Chrome trace_event JSON of the trace view of the stored facts.
  std::string chrome_trace_json() const;
  /// Flat per-symbol cycle profile (text): the call graph's self-cycle
  /// view, so it is empty when options().callgraph is off.
  std::string flat_profile() const { return cg_.flat_profile(); }
  /// Folded-stack call-graph profile (flamegraph.pl / speedscope input).
  std::string folded_profile() const { return cg_.folded(); }
  /// Counters + histograms as a JSON document.
  std::string metrics_json() const { return reg_.to_json(); }

 private:
  /// Store fact `e` as observed at `s` (stamped with its cycles, pc, EL and
  /// core, and the machine id) and update the live state from it: the
  /// core's syscall windows, key bursts and pending signs, and, over its
  /// trace view, the counters and the flight trigger.
  void record(const Site& s, Event e);

  Options opts_;
  uint32_t machine_id_ = 0;
  Registry reg_;
  Ring ring_{kEventCapacity};
  uint64_t audit_total_ = 0;  ///< audit-kind facts ever stored
  FlightRecorder flight_;
  CallGraphProfiler cg_;
  CoverageMap cov_;

  // Derived state, kept per reporting core: each core has its own cycle
  // clock, so a window, a burst or a pending sign only ever pairs with a
  // later report from the same core.
  struct CoreState {
    // The core's cycle counter reconstructed from its retire runs, while
    // another core's runs arrive (see retired_cycles_).
    uint64_t retired_cycles = 0;

    // Syscall-window synthesis.
    bool syscall_open = false;
    uint64_t syscall_enter_cycles = 0;
    uint16_t syscall_nr = 0;

    // Key-switch burst detection: consecutive key-register writes ≤ 32
    // cycles apart form one burst (a bank switch writes several halves
    // back-to-back); the burst span is recorded into `key.switch.cycles`
    // when it closes. A burst still open at end of run is deliberately
    // unrecorded — that keeps the histogram a pure function of the event
    // stream.
    bool burst_open = false;
    uint64_t burst_first = 0, burst_last = 0;
    unsigned burst_writes = 0;

    // Sign→auth latency matching: signed value -> sign cycle. Entries
    // retire on the matching auth; the map is capped so signs that are
    // never authenticated cannot grow it unboundedly (drops are counted).
    std::unordered_map<uint64_t, uint64_t> pending_signs;
  };
  static constexpr size_t kMaxPendingSigns = 1 << 16;  // per core
  std::vector<CoreState> cores_;
  CoreState& core(unsigned cpu) {
    if (cpu >= cores_.size()) cores_.resize(cpu + 1);
    return cores_[cpu];
  }

  // Cycle counter of core run_cpu_ reconstructed from its retire runs (the
  // pre-run stamps of the flight ring). A core retires a whole SMP quantum
  // at a time, so the other cores' counters wait in their CoreState.
  uint64_t retired_cycles_ = 0;
  unsigned run_cpu_ = 0;

  /// Bump the registry counters of trace record `e` (see the .cpp).
  void count(const Event& e);
  // Those counters, resolved on their first increment (so the registry only
  // ever holds counters that fired) and then kept, indexed by EventKind:
  // the fixed-name one, and the labelled family by the record's key or aux
  // byte. Registry references are stable.
  static constexpr size_t kKinds = static_cast<size_t>(EventKind::kCount);
  std::array<Counter*, kKinds> kind_counters_{};
  std::array<std::array<Counter*, kExcClassLabels + 1>, kKinds>
      label_counters_{};

  // Hot-path counter/histogram references (resolved once; Registry
  // references are stable).
  Counter* cycles_el_[3];
  Counter* insn_el_[3];
  Histogram* syscall_cycles_;
  Histogram* sign_to_auth_;
  Histogram* key_switch_;
};

}  // namespace camo::obs
