// Collector: the per-machine observability hub.
//
// One object implements the producer interfaces (TraceSink +
// CycleAttributor + CfSink + AuditSink) and fans everything out to the
// backends:
//
//  * a TraceRing keeping the most recent events,
//  * a Registry of named counters/histograms derived from the event stream
//    and the retire feed (EL cycle residency, per-key auth failures,
//    syscall latency histogram, ...). Counts the CPUs keep themselves are
//    not recounted here: per-class retired ops (ops.*) and the per-core
//    insn.c<k>/cycles.c<k> are published into this registry from the
//    cores by cpu::publish_retire_counters,
//  * the audit log, the flight recorder and the coverage map,
//  * a CallGraphProfiler attributing retired cycles to guest call stacks;
//    the flat per-symbol profile is its self-cycle view.
//
// The Collector also *synthesizes* syscall windows: an ExcEnter with the SVC
// class opens a window (emitting SyscallEnter with the nr from x8) and the
// next ExcExit returning to EL0 closes it (emitting SyscallExit and
// recording the window length in the `syscall.cycles` histogram). Under
// context switching a window can span other tasks' execution; the histogram
// therefore measures wall-clock (guest cycle) syscall latency, which is what
// Fig. 3 reports.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <unordered_map>

#include "obs/audit.h"
#include "obs/callgraph.h"
#include "obs/coverage.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace camo::obs {

/// Knobs carried in MachineConfig. Disabled by default: a Machine without
/// `enabled` never allocates a Collector and the CPU's sink pointers stay
/// null.
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

class Collector : public TraceSink,
                  public CycleAttributor,
                  public CfSink,
                  public AuditSink {
 public:
  explicit Collector(const Options& opts = Options{});

  // Producer interfaces -----------------------------------------------------
  void emit(const TraceEvent& e) override;
  void retire_run(const RetireRun& run) override;
  void control_flow(CfKind kind, uint64_t from_pc, uint64_t to_pc,
                    uint8_t info) override;
  /// Security audit stream (DESIGN.md §3f). Besides recording into the
  /// AuditLog, the collector derives the `pauth.sign_to_auth.cycles`
  /// histogram here: each Sign remembers its signed value + cycle, the
  /// matching Auth* records the distance and retires the entry.
  void audit(const AuditEvent& e) override;

  // Backends ----------------------------------------------------------------
  Registry& metrics() { return reg_; }
  const Registry& metrics() const { return reg_; }
  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }
  AuditLog& audit_log() { return audit_log_; }
  const AuditLog& audit_log() const { return audit_log_; }
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
  /// Chrome trace_event JSON of the retained event window.
  std::string chrome_trace_json() const;
  /// Flat per-symbol cycle profile (text): the call graph's self-cycle
  /// view, so it is empty when options().callgraph is off.
  std::string flat_profile() const { return cg_.flat_profile(); }
  /// Folded-stack call-graph profile (flamegraph.pl / speedscope input).
  std::string folded_profile() const { return cg_.folded(); }
  /// Counters + histograms as a JSON document.
  std::string metrics_json() const { return reg_.to_json(); }

 private:
  Options opts_;
  Registry reg_;
  TraceRing ring_;       // default capacity: 32768 events
  AuditLog audit_log_;   // default capacity: 8192 events
  FlightRecorder flight_;
  CallGraphProfiler cg_;
  CoverageMap cov_;

  // Syscall-window synthesis state.
  bool syscall_open_ = false;
  uint64_t syscall_enter_cycles_ = 0;
  uint16_t syscall_nr_ = 0;

  // Sign→auth latency matching: signed value -> sign cycle. Entries retire
  // on the matching auth; the map is capped so signs that are never
  // authenticated cannot grow it unboundedly (drops are counted).
  static constexpr size_t kMaxPendingSigns = 1 << 16;
  std::unordered_map<uint64_t, uint64_t> pending_signs_;

  // Key-switch burst detection: consecutive KeyWrite events ≤ 32 cycles
  // apart form one burst (a bank switch writes several halves back-to-back);
  // the burst span is recorded into `key.switch.cycles` when it closes. A
  // burst still open at end of run is deliberately unrecorded — that keeps
  // the histogram a pure function of the event stream.
  bool burst_open_ = false;
  uint64_t burst_first_ = 0, burst_last_ = 0;
  unsigned burst_writes_ = 0;

  // Cycle counter reconstructed from the retire feed (pre-step timestamps
  // for the flight ring).
  uint64_t retired_cycles_ = 0;

  /// Bump the registry counters of event `e` (see count() in the .cpp).
  void count(const TraceEvent& e);
  // Those counters, resolved on their first increment (so the registry only
  // ever holds counters that fired) and then kept, indexed by EventKind:
  // the fixed-name one, and the labelled family by k1. Registry references
  // are stable.
  static constexpr size_t kKinds = static_cast<size_t>(EventKind::kCount);
  std::array<Counter*, kKinds> kind_counters_{};
  std::array<std::array<Counter*, kExcClassLabels + 1>, kKinds>
      label_counters_{};
  Counter* syscall_count_ = nullptr;

  // Hot-path counter/histogram references (resolved once; Registry
  // references are stable).
  Counter* cycles_el_[3];
  Counter* insn_el_[3];
  Histogram* syscall_cycles_;
  Histogram* sign_to_auth_;
  Histogram* key_switch_;
};

}  // namespace camo::obs
