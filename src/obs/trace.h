// camo::obs — structured tracing for the simulator and the guest kernel.
//
// Every observable claim in the paper is an event stream: key switches
// (§6.1.1), PAuth sign/auth outcomes and the §5.4 brute-force threshold,
// syscall latencies (Fig. 3), context switches, stage-2 permission faults and
// attack outcomes (§6.2). This header defines the one event record and the
// retire and control-flow feeds the CPU drives:
//
//  * Event — one reported fact. Producers (camo::cpu, camo::hyp,
//    camo::kernel::Machine, camo::attacks) never build one: they report each
//    fact once to the obs::Collector (obs/collector.h), which stores it once
//    and derives the trace and audit views from it. Producers hold a
//    Collector pointer that is null by default, so the disabled path is a
//    single predictable branch per would-be report and the simulated cycle
//    counts are bit-for-bit identical whether or not one is attached
//    (reports never consume guest cycles).
//  * CycleAttributor — receives one RetireRun record per stretch the engines
//    retire between two flush points (a block, or a trace's segments up to
//    the next one) and a record of one per single step: the feed for
//    EL-residency accounting, the flight ring and the call-graph profiler.
//
// obs sits below every other subsystem (it depends only on camo_support), so
// the CPU itself can report. Event payloads are therefore plain integers;
// the label helpers below mirror the producer-side enums (cpu::ExcClass,
// cpu::PacKey order) and a test pins them in sync.
#pragma once

#include <cstddef>
#include <cstdint>

namespace camo::obs {

/// Event kinds. The ordinals are the trace wire format's (the flight
/// bundle's "trigger"); the audit wire format maps them through one table
/// (obs/audit.h). Payloads are documented in DESIGN.md §3a.
enum class EventKind : uint8_t {
  None = 0,
  ExcEnter,       ///< exception entry (pc = preferred return)
  ExcExit,        ///< ERET (pc = the ERET; ptr = target)
  SyscallEnter,   ///< derived: an SVC entry opens a syscall window
  SyscallExit,    ///< derived: the next ERET to EL0 closes it
  KeyWrite,       ///< key material installed (key register or EL2 bank)
  PacSign,        ///< PAC insertion
  AuthOk,         ///< AUT* accepted
  AuthFail,       ///< AUT* rejected
  Stage2Fault,    ///< derived: an entry on a stage-2 permission fault
  ContextSwitch,  ///< cpu_switch_to (trace view only)
  HvcCall,        ///< guest->hypervisor call (trace view only)
  ModuleLoad,     ///< module load verification
  MsrDenied,      ///< hypervisor-denied EL1 MSR write
  AttackOutcome,  ///< attacks:: classification of a finished run
  kCount,
};

const char* event_kind_name(EventKind k);

/// One stored fact (fixed 72 bytes). `cycles` is the reporting core's cycle
/// counter; `machine` and `cpu` are stamped by the Collector so fleet-merged
/// streams keep every machine's and core's events distinct. `fault` and
/// `syscall` sit in what would be padding: only the trace view reads them.
struct Event {
  uint64_t cycles = 0;
  uint64_t pc = 0;        ///< guest pc associated with the event (0 if none)
  uint64_t ptr = 0;       ///< kind-specific (see DESIGN.md §3a)
  uint64_t ptr2 = 0;      ///< kind-specific
  uint64_t modifier = 0;  ///< PacSign/Auth*: the PAC modifier used
  uint64_t lr = 0;        ///< AuthFail: x30 at the failing instruction
  uint64_t prov = 0;      ///< provenance id of the key involved (0 = none /
                          ///< installed outside the audited path)
  uint32_t machine = 0;   ///< fleet machine id
  EventKind kind = EventKind::None;
  uint8_t key = 0;      ///< PacKey ordinal for key/sign/auth events
  uint8_t el = 0;       ///< exception level at emission
  uint8_t mclass = 0;   ///< ModifierClass ordinal (PacSign/Auth*)
  uint8_t bank = 0;     ///< KeyWrite: 1 = EL2 kernel bank, 0 = key register
  uint8_t aux = 0;      ///< kind-specific small payload (class, EL, outcome)
  uint8_t cpu = 0;      ///< emitting core id within the machine
  uint8_t fault = 0;    ///< ExcEnter: mem::FaultKind ordinal
  uint16_t imm = 0;     ///< kind-specific 16-bit payload (iss, sysreg, nr)
  uint8_t syscall = 0;  ///< ExcEnter/ExcExit: opens/closes a syscall window
};

static_assert(sizeof(Event) == 72);

inline constexpr uint8_t kExcClassSvc = 1;  ///< cpu::ExcClass::Svc
inline constexpr uint8_t kFaultStage2 = 4;  ///< mem::FaultKind::Stage2

/// The trace view of one stored fact: calls f(const Event&) per record, in
/// order. First the fact as the trace shows it (an ERET's pc is its target,
/// its window payload moving to the SyscallExit; an attack outcome sits at
/// EL0; an EL2 bank key install has none), then the derived records: the
/// SyscallEnter of a window-opening entry, the SyscallExit of a closing
/// ERET, the Stage2Fault of a stage-2 entry. A derived kind maps to itself.
template <typename F>
void for_each_trace_record(const Event& e, F&& f) {
  if (e.kind == EventKind::KeyWrite && e.bank) return;
  Event t = e;
  t.syscall = 0;
  if (e.kind == EventKind::AttackOutcome) t.el = 0;
  if (e.kind == EventKind::ExcExit) {
    t.pc = e.ptr;
    t.ptr2 = 0;
    t.imm = 0;
  }
  f(t);
  if (e.kind == EventKind::ExcEnter && e.syscall)
    f(Event{.cycles = e.cycles, .pc = e.pc, .machine = e.machine,
            .kind = EventKind::SyscallEnter, .el = e.el, .cpu = e.cpu,
            .imm = static_cast<uint16_t>(e.ptr2)});
  if (e.kind == EventKind::ExcExit && e.syscall)
    f(Event{.cycles = e.cycles, .pc = e.ptr, .ptr = e.ptr2,
            .machine = e.machine, .kind = EventKind::SyscallExit,
            .el = e.el, .cpu = e.cpu, .imm = e.imm});
  if (e.kind == EventKind::ExcEnter && e.fault == kFaultStage2)
    f(Event{.cycles = e.cycles, .pc = e.pc, .ptr = e.ptr,
            .machine = e.machine, .kind = EventKind::Stage2Fault,
            .el = e.el, .aux = e.aux, .cpu = e.cpu});
}

/// Retired-operation classes for per-class metrics (coarser than isa::Op;
/// the CPU classifies each retired instruction).
enum class OpClass : uint8_t {
  Other = 0,
  Branch,       ///< B, B.cond, CBZ/CBNZ, BR
  Call,         ///< BL, BLR
  Ret,          ///< RET
  Load,         ///< LDR/LDRB/LDP*
  Store,        ///< STR/STRB/STP*
  Pauth,        ///< PAC*/AUT*/XPAC*/PACGA (non-branching forms)
  PauthBranch,  ///< RETAA/RETAB/BRAA/BRAB/BLRAA/BLRAB
  Sys,          ///< MRS/MSR/SVC/HVC/BRK/ERET/ISB/DAIF*
  kCount,
};

const char* op_class_name(OpClass c);

/// Per-instruction retire facts the block engine precomputes at translation
/// time: the cycle-model cost and the OpClass.
struct RetireSlot {
  uint8_t cost = 1;
  uint8_t op_class = 0;
};

/// `n` instructions at va, va+4, ... (pa likewise): a block or trace segment.
struct RetireSeg {
  uint64_t va = 0;
  uint64_t pa = 0;
  uint32_t n = 0;
};

/// One retire record (DESIGN.md §3e): `n` instructions, all retired at
/// `el`, walking the segment list from `skip` instructions into segs[0]
/// (the skip may run on into later segments), with their slots back to
/// back. `cycles` is the whole delta: every instruction but the last retires
/// exactly its slot cost; the last also absorbs any exception-entry cost its
/// own execution took. A single step is a record of one carrying the whole
/// step's delta; a step that only took an exception (IRQ delivery,
/// misaligned pc, fetch abort) is one at the pre-step pc, op class Other.
struct RetireRun {
  const RetireSeg* segs = nullptr;
  const RetireSlot* slots = nullptr;  ///< n entries, in retire order
  uint64_t cycles = 0;
  uint32_t n = 0;
  uint32_t skip = 0;
  uint8_t el = 0;
  uint8_t cpu = 0;  ///< the reporting core's id

  /// Calls f(va, pa, k) once per segment stretch the record covers, in
  /// order; the k sum to n.
  template <typename F>
  void for_each_seg(F&& f) const {
    uint32_t skip_left = skip, left = n;
    for (const RetireSeg* s = segs; left > 0; ++s) {
      if (skip_left >= s->n) {
        skip_left -= s->n;
        continue;
      }
      const uint32_t k = s->n - skip_left < left ? s->n - skip_left : left;
      f(s->va + 4 * uint64_t{skip_left}, s->pa + 4 * uint64_t{skip_left}, k);
      left -= k;
      skip_left = 0;
    }
  }
};

static_assert(sizeof(RetireRun) == 40);

/// Cycle consumer: one retire_run() per record the CPU delivers, in order.
/// Summing the cycles over all records reproduces Cpu::cycles() exactly.
class CycleAttributor {
 public:
  virtual ~CycleAttributor() = default;
  virtual void retire_run(const RetireRun& run) = 0;
};

/// Control-flow kinds the CPU reports to a CfSink — exactly the events a
/// shadow call stack needs: linking calls push a frame, returns pop one,
/// exception entry/exit bracket handler execution as a synthetic frame.
/// Non-linking branches (B, BR, BRAA/BRAB, tail jumps) are deliberately not
/// reported; the call-graph profiler self-heals via the leaf region instead.
enum class CfKind : uint8_t {
  Call,      ///< BL / BLR / BLRAA / BLRAB (authenticated and taken)
  Ret,       ///< RET / RETAA / RETAB (authenticated and taken)
  ExcEnter,  ///< exception entry; info = ExcClass ordinal
  ExcExit,   ///< ERET; info = target EL
};

/// Control-flow consumer fed from the CPU's retire stream. Events for an
/// instruction fire *during* it, i.e. before the retire_run() record that
/// carries it, which is the next record from the same core. A Call or Ret
/// comes from the last instruction of a segment stretch of that record, at
/// `from_pc`, and every such instruction reports one, in order; an
/// exception event belongs to the record's last instruction. Consumers that
/// want call-site attribution buffer events until the record arrives
/// (obs::CallGraphProfiler does). Null sink = no emission, and attaching
/// one never changes simulated cycle counts.
class CfSink {
 public:
  virtual ~CfSink() = default;
  /// `cpu` is the reporting core's id, `from_pc` the instruction (or
  /// preferred return address for exceptions), `to_pc` the new pc after the
  /// transfer.
  virtual void control_flow(unsigned cpu, CfKind kind, uint64_t from_pc,
                            uint64_t to_pc, uint8_t info) = 0;
};

// Label helpers for numeric payloads. These mirror the producer enums
// (cpu::ExcClass, cpu::PacKey, attacks::Outcome declaration order); a test
// asserts they stay in sync.
const char* exc_class_label(uint8_t cls);
const char* pac_key_label(uint8_t key);
const char* outcome_label(uint8_t outcome);
/// Number of named values per helper; every larger value gets the helper's
/// one out-of-range label.
inline constexpr size_t kExcClassLabels = 8;
inline constexpr size_t kPacKeyLabels = 5;
inline constexpr size_t kOutcomeLabels = 3;

}  // namespace camo::obs
