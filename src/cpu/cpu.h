// The simulated CPU core.
//
// Executes the ISA of isa/isa.h with AArch64 semantics: 31 GPRs, banked
// stack pointers per EL, NZCV flags, EL0/EL1 exception model, the full PAuth
// instruction family, and a deterministic cycle model (the paper's
// "PA-analogue" costing: 4 cycles per PAuth instruction, §6.1).
//
// Host integration points:
//  * HVC lands in a host-installed handler (the EL2 hypervisor is host code).
//  * MSR writes at EL1 pass through a host-installed filter so the hypervisor
//    can lock MMU control registers (threat model §3.1).
//  * Breakpoint hooks fire before executing the instruction at a VA — the
//    attack framework uses them to corrupt state mid-execution.
//  * camo::obs observers (the Collector for security facts, retire runs,
//    control flow, coverage) observe execution without ever changing it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cpu/engine.h"
#include "cpu/pauth.h"
#include "isa/isa.h"
#include "mem/mmu.h"
#include "obs/collector.h"
#include "obs/coverage.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace camo::cpu {

class SuperblockEngine;

/// Superblock-cache statistics (host-side; informational).
struct SuperblockStats {
  uint64_t blocks = 0;         ///< block translations (first builds + rebuilds)
  uint64_t hits = 0;           ///< blocks served from the cache via lookup
  uint64_t invalidations = 0;  ///< cached blocks rejected by a stale key
  uint64_t chain_hits = 0;     ///< block→block transitions via the memoized
                               ///< chain edge (no lookup, no translate)
  // Trace tier (DESIGN.md §3i): branch-following multi-block traces.
  uint64_t trace_formations = 0;    ///< traces built from biased edge profiles
  uint64_t trace_hits = 0;          ///< dispatches served by a valid trace
  uint64_t trace_guard_exits = 0;   ///< mid-trace guard mismatches (side exit)
  uint64_t trace_invalidations = 0; ///< traces rejected by a stale page record
  uint64_t trace_demotions = 0;     ///< traces dropped for chronic guard exits
  /// Instructions retired per block dispatch (DESIGN.md §3f): every entry
  /// into a cached block records the number of instructions the dispatch
  /// loop retired before leaving it. Deterministic for a fixed engine
  /// configuration, but — like the counters above — a property of the host
  /// execution strategy, so it lives here and not in the merged metrics
  /// registry.
  obs::Histogram run_length;
  /// Entries (instructions) per formed trace, sampled at formation time —
  /// the §3i companion of run_length, serialized as hist.trace.len.
  obs::Histogram trace_len;
};

/// Saved/current processor state flags.
struct Pstate {
  mem::El el = mem::El::El1;
  bool irq_masked = true;
  bool n = false, z = false, c = false, v = false;
};

/// Exception classes (our simplified ESR encoding; see Cpu::esr_*).
enum class ExcClass : uint8_t {
  Unknown = 0,
  Svc,          ///< SVC from EL0 (or EL1)
  Brk,          ///< BRK instruction
  InsnAbort,    ///< instruction fetch fault
  DataAbort,    ///< data access fault
  Undefined,    ///< undefined/denied instruction
  PacFail,      ///< FPAC-style immediate authentication failure
  Irq,          ///< asynchronous interrupt (pseudo-class for vectoring)
};

const char* exc_class_name(ExcClass c);

class Cpu {
 public:
  struct Config {
    bool has_pauth = true;  ///< ARMv8.3 core; false = pre-8.3 (hint ops NOP)
    bool fpac = false;      ///< fault immediately on AUT* failure (v8.6 ext.)
    /// Experimental ISA extension prototyping the paper's §8 proposal:
    /// a second, EL2-managed bank of PAuth keys that EL1 execution uses
    /// automatically. The kernel keys then never exist in EL1-accessible
    /// state — no XOM, no per-transition key switching, and MRS of the key
    /// registers only ever reveals the EL0 (user) keys.
    bool banked_keys = false;
    mem::VaLayout layout{};
    /// Host engine tier (engine.h). Purely a host-side choice: simulated
    /// state, cycles, the retire stream and every observability feed are
    /// bit-for-bit identical on every tier. From Fast up translation and
    /// PAC go through the micro-TLB and the PAC memo; run() executes cached
    /// blocks from Block up and extends them into traces at Trace.
    Engine engine = Engine::Trace;
  };

  Cpu(mem::Mmu& mmu, Config cfg);
  ~Cpu();  // out-of-line: SuperblockEngine is incomplete here

  // ---- Registers --------------------------------------------------------
  uint64_t x(unsigned i) const;          ///< X0..X30; 31 reads as 0 (XZR)
  void set_x(unsigned i, uint64_t v);    ///< writes to 31 are discarded
  uint64_t sp() const;                   ///< current EL's stack pointer
  void set_sp(uint64_t v);
  uint64_t sp_el(mem::El el) const;
  void set_sp_el(mem::El el, uint64_t v);

  uint64_t pc = 0;
  Pstate pstate;

  /// Host-side system register access (never trapped or filtered).
  uint64_t sysreg(isa::SysReg r) const;
  void set_sysreg(isa::SysReg r, uint64_t v);

  /// The 128-bit PAuth key `k` as seen by execution at the current EL:
  /// with banked_keys, EL1 uses the EL2-managed kernel bank, EL0 the
  /// ordinary key registers; otherwise always the key registers.
  qarma::Key128 pac_key(PacKey k) const;

  /// EL2/host-only: install a key into the kernel bank (banked_keys mode).
  /// There is deliberately no guest instruction that reads or writes the
  /// bank — that is the point of the §8 extension.
  void set_kernel_bank_key(PacKey k, const qarma::Key128& key);
  /// Host-only read of the kernel bank (flight-recorder snapshots).
  const qarma::Key128& kernel_bank_key(PacKey k) const {
    return kernel_bank_[static_cast<size_t>(k)];
  }

  /// Provenance id of the key value execution at the current EL would use
  /// for `k` (see obs/audit.h). 0 = installed outside the audited path
  /// (host set_sysreg without an MSR, e.g. the raw test harness).
  uint64_t key_provenance(PacKey k) const {
    if (cfg_.banked_keys && pstate.el != mem::El::El0)
      return bank_prov_[static_cast<size_t>(k)];
    return key_prov_[static_cast<size_t>(k)];
  }
  /// Provenance id of the key-register (non-bank) value for `k`.
  uint64_t sysreg_key_provenance(PacKey k) const {
    return key_prov_[static_cast<size_t>(k)];
  }
  /// Provenance id of the kernel-bank value for `k`.
  uint64_t bank_key_provenance(PacKey k) const {
    return bank_prov_[static_cast<size_t>(k)];
  }

  const PauthUnit& pauth() const { return pauth_; }
  mem::Mmu& mmu() { return *mmu_; }
  const Config& config() const { return cfg_; }

  // ---- Execution --------------------------------------------------------
  /// Execute one instruction (or take a pending interrupt). Returns false
  /// once the CPU has halted.
  bool step();
  /// Run until halted or the step budget is exhausted (an interrupt delivery
  /// consumes one budget unit like an instruction, exactly as repeated
  /// step() calls would). Returns the number of instructions *retired*
  /// during this call — the delta of retired() — which interrupt deliveries
  /// do not contribute to.
  uint64_t run(uint64_t max_steps);

  bool halted() const { return halted_; }
  uint64_t halt_code() const { return halt_code_; }
  void clear_halt() { halted_ = false; }

  uint64_t cycles() const { return cycles_; }
  /// Total instructions retired since construction. The single source of
  /// truth for instruction counts: throughput gauges, fleet telemetry and
  /// bench results all divide this, never a recomputation.
  uint64_t retired() const { return instret_; }

  /// Retired-instruction histogram by opcode (always maintained; drives the
  /// instruction-mix analysis of §6.1.3's "high rate of function calls").
  uint64_t op_count(isa::Op op) const {
    return op_counts_[static_cast<size_t>(op)];
  }
  /// Total retired instructions for which `pred` holds.
  template <typename Pred>
  uint64_t count_ops_if(Pred pred) const {
    uint64_t n = 0;
    for (size_t i = 0; i < op_counts_.size(); ++i)
      if (pred(static_cast<isa::Op>(i))) n += op_counts_[i];
    return n;
  }
  /// Steps that took an exception and retired nothing: IRQ delivery, a
  /// misaligned or faulting fetch. The retire feed still hands each one to
  /// the cycle attributor, as a run of one of op class Other.
  uint64_t exception_steps() const { return exc_steps_; }

  // ---- Interrupts -------------------------------------------------------
  /// IRQ source bits latched into ISR_EL1 (guest reads the latch, MSR is
  /// write-1-to-clear). A bare raise_irq() latches no source — legacy
  /// callers that never look at ISR_EL1 keep their exact behaviour.
  static constexpr uint64_t kIrqSrcTimer = uint64_t{1} << 0;
  static constexpr uint64_t kIrqSrcIpi = uint64_t{1} << 1;

  /// Arm the countdown timer: an IRQ is delivered after `cycles` more cycles
  /// (0 disables).
  void set_timer(uint64_t cycles);
  /// Periodic timer: re-arms itself every `cycles` (0 disables). Drives
  /// preemptive scheduling.
  void set_timer_period(uint64_t cycles);
  void raise_irq() { irq_pending_ = true; }
  /// Raise an IRQ and latch its source into ISR_EL1 (IPI doorbell path).
  void raise_irq(uint64_t source) {
    irq_pending_ = true;
    irq_sources_ |= source;
  }

  // ---- SMP identity -----------------------------------------------------
  /// Core id within the owning machine; reads back through MPIDR_EL1.
  /// Single-core machines leave this 0.
  unsigned cpu_id() const { return cpu_id_; }
  void set_cpu_id(unsigned id) { cpu_id_ = id; }

  // ---- Host hooks -------------------------------------------------------
  using Hook = std::function<void(Cpu&)>;
  void add_breakpoint(uint64_t va, Hook hook);

  using HvcHandler = std::function<void(Cpu&, uint16_t imm)>;
  void set_hvc_handler(HvcHandler h) { hvc_ = std::move(h); }

  /// Approves or denies EL1 MSR writes; return false to deny (the write
  /// becomes an Undefined exception). Installed by the hypervisor.
  using MsrFilter = std::function<bool(Cpu&, isa::SysReg, uint64_t)>;
  void set_msr_filter(MsrFilter f) { msr_filter_ = std::move(f); }

  // ---- Observability (camo::obs) ----------------------------------------
  // Every observer is null by default, which disables its feed; attaching
  // one never changes simulated cycle counts.
  /// The collector this core reports its security facts to, once each:
  /// exception entry/exit, PAC sign/auth with key provenance, key installs.
  /// It builds the trace ring's and the audit log's records from them.
  void set_collector(obs::Collector* c) { obs_ = c; }
  /// This core's id, cycle counter and EL, with `at` as the guest pc: the
  /// Site of a fact it (or the hypervisor on its behalf) reports.
  obs::Site obs_site(uint64_t at) const {
    return {cpu_id_, cycles_, at, static_cast<uint8_t>(pstate.el)};
  }
  /// Cycle attribution feed (EL residency, flight ring, call-graph
  /// profiling): one obs::RetireRun per record the engines deliver (a
  /// block, or a trace's segments up to the next flush point; DESIGN.md
  /// §3e), a record of one per single step. Summing the reported cycles
  /// reproduces cycles() exactly.
  void set_cycle_attributor(obs::CycleAttributor* a) { attr_ = a; }
  /// Control-flow feed for shadow-call-stack maintenance: linking calls,
  /// returns, exception entry/exit.
  void set_cf_sink(obs::CfSink* s) { cf_ = s; }
  /// Execution coverage feed (obs/coverage.h): the same records as the cycle
  /// attributor, except that a step which only took an exception retired no
  /// instruction and feeds it nothing, so the map is engine-invariant.
  void set_coverage(obs::CoverageMap* c) { cov_ = c; }

  /// Coarse class of an opcode for per-class retired-op metrics.
  static obs::OpClass op_class(isa::Op op);

  /// Superblock-cache statistics (zero below Engine::Block).
  const SuperblockStats& superblock_stats() const;

  /// Pre-resolved execute handler: the function execute() dispatches
  /// `inst.op` to. The superblock translator resolves these once per block
  /// so the dispatch loop is a straight indirect call — there is exactly one
  /// implementation of every instruction either way.
  using ExecFn = void (*)(Cpu&, const isa::Inst&);
  static ExecFn exec_handler(isa::Op op);

  // ---- Our simplified ESR encoding --------------------------------------
  static uint64_t esr_pack(ExcClass cls, uint16_t iss, mem::FaultKind fk);
  static ExcClass esr_class(uint64_t esr);
  static uint16_t esr_iss(uint64_t esr);
  static mem::FaultKind esr_fault(uint64_t esr);

  /// Cycle cost of one instruction under the PA-analogue model.
  static unsigned cycle_cost(const isa::Inst& inst);

  // Vector table offsets from VBAR_EL1.
  static constexpr uint64_t kVecSyncEl1 = 0x000;
  static constexpr uint64_t kVecIrqEl1 = 0x080;
  static constexpr uint64_t kVecSyncEl0 = 0x100;
  static constexpr uint64_t kVecIrqEl0 = 0x180;

 private:
  friend struct ExecHandlers;     // per-opcode handlers (cpu.cpp)
  friend class SuperblockEngine;  // block dispatch loop (superblock.cpp)

  /// One step. When `seg` is non-null and an instruction executes, sets
  /// seg's va and pa, `el` and `slot` to that instruction's.
  bool step_impl(obs::RetireSeg* seg, uint8_t* el, obs::RetireSlot* slot);
  void execute(const isa::Inst& inst);
  void take_exception(ExcClass cls, uint64_t far, uint16_t iss,
                      mem::FaultKind fk, uint64_t preferred_return);

  /// Retire-feed batching (DESIGN.md §3e). While a feed (attr_ or cov_) is
  /// attached, the engines count retired instructions in run_ and deliver
  /// them as one obs::RetireRun at the next flush point: take_exception, an
  /// authentication failure's report, an Entry::alone instruction (retired
  /// as a record of one over stack copies, since its host code may re-enter
  /// the engine), the end of a block run on its own, and every trace and
  /// engine exit. Counting follows execution, so a faulting instruction
  /// opens the rest of the record and absorbs the exception-entry cost.
  void begin_run(const obs::RetireSeg* segs, const obs::RetireSlot* slots) {
    run_ = {segs, slots, cycles_, 0, 0, static_cast<uint8_t>(pstate.el)};
  }
  void flush_run() {
    if (run_.n != 0) deliver_run();
  }
  void deliver_run();
  /// Hand one record to every attached feed.
  void deliver(const obs::RetireRun& r) {
    if (attr_ != nullptr) attr_->retire_run(r);
    if (cov_ != nullptr) cov_->retire_run(r);
  }
  void do_eret();

  uint64_t read_gpr_or_sp(unsigned i) const;
  void write_gpr_or_sp(unsigned i, uint64_t v);

  /// Data memory access helpers that take the DataAbort on fault. Return
  /// false when a fault was taken (caller must stop the instruction).
  bool mem_read64(uint64_t va, uint64_t& out);
  bool mem_write64(uint64_t va, uint64_t v);
  bool mem_read8(uint64_t va, uint64_t& out);
  bool mem_write8(uint64_t va, uint8_t v);

  /// PAuth helpers reading keys/SCTLR from the live system registers.
  bool pauth_enabled(PacKey k) const;
  uint64_t do_pac(uint64_t ptr, uint64_t modifier, PacKey k);
  uint64_t do_aut(uint64_t ptr, uint64_t modifier, PacKey k,
                  bool& fault_taken);

  mem::Mmu* mmu_;
  Config cfg_;
  PauthUnit pauth_;

  std::array<uint64_t, 31> gpr_{};
  uint64_t sp_el0_ = 0, sp_el1_ = 0;
  std::array<uint64_t, static_cast<size_t>(isa::SysReg::kCount)> sys_{};
  std::array<qarma::Key128, 5> kernel_bank_{};  // banked_keys mode only

  bool halted_ = false;
  uint64_t halt_code_ = 0;
  uint64_t cycles_ = 0;
  uint64_t instret_ = 0;
  uint64_t exc_steps_ = 0;
  std::array<uint64_t, static_cast<size_t>(isa::Op::kCount)> op_counts_{};

  std::unique_ptr<SuperblockEngine> sb_;  // used by run() from Engine::Block up

  bool irq_pending_ = false;
  uint64_t irq_sources_ = 0;   // ISR_EL1 latch: kIrqSrc* bits, W1C via MSR
  uint64_t timer_cycles_ = 0;  // 0 = disarmed; else absolute cycle deadline
  uint64_t timer_period_ = 0;  // 0 = one-shot; else re-arm interval
  unsigned cpu_id_ = 0;        // core index in the owning Machine

  std::unordered_map<uint64_t, std::vector<Hook>> breakpoints_;
  // [min, max] pc range of registered breakpoints: a one-compare guard that
  // keeps the per-step hash lookup off the hot path when pc cannot match.
  uint64_t bp_min_pc_ = ~uint64_t{0};
  uint64_t bp_max_pc_ = 0;
  HvcHandler hvc_;
  MsrFilter msr_filter_;

  obs::Collector* obs_ = nullptr;
  obs::CycleAttributor* attr_ = nullptr;
  obs::CfSink* cf_ = nullptr;
  obs::CoverageMap* cov_ = nullptr;
  struct PendingRun {
    const obs::RetireSeg* segs = nullptr;   ///< the record's segment list
    const obs::RetireSlot* slots = nullptr; ///< its first instruction's slot
    uint64_t c0 = 0;    ///< cycles_ before the record's first instruction
    uint32_t n = 0;     ///< instructions counted since the last flush
    uint32_t skip = 0;  ///< instructions of segs before the record's first
    uint8_t el = 0;
  } run_;

  // Key provenance (obs/audit.h): a monotonically increasing install id per
  // key slot, bumped on every guest MSR of a key half and on every kernel-
  // bank install. Pure bookkeeping — never consulted by execution.
  uint64_t prov_counter_ = 0;
  std::array<uint64_t, 5> key_prov_{};   // key registers, PacKey order
  std::array<uint64_t, 5> bank_prov_{};  // EL2 kernel bank, PacKey order
};

/// Publish one machine's retire counters, counted by its `cores` (in core
/// order), into `reg`: `ops.<class>` summed over the cores, with each
/// exception step counted as `ops.other`, and, when there is more than one
/// core, `insn.c<k>` (retired plus exception steps) and `cycles.c<k>`.
/// Each counter is raised to its total, so calling this after every run
/// keeps the registry monotonic; these are the counters' only writer.
void publish_retire_counters(obs::Registry& reg,
                             std::span<const Cpu* const> cores);

}  // namespace camo::cpu
