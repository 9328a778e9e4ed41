#include "cpu/cpu.h"

#include <algorithm>
#include <array>
#include <string>

#include "cpu/superblock.h"
#include "support/bits.h"
#include "support/error.h"

namespace camo::cpu {

using isa::Inst;
using isa::Op;
using isa::SysReg;
using mem::El;
using mem::FaultKind;

const char* exc_class_name(ExcClass c) {
  switch (c) {
    case ExcClass::Unknown: return "unknown";
    case ExcClass::Svc: return "svc";
    case ExcClass::Brk: return "brk";
    case ExcClass::InsnAbort: return "insn-abort";
    case ExcClass::DataAbort: return "data-abort";
    case ExcClass::Undefined: return "undefined";
    case ExcClass::PacFail: return "pac-fail";
    case ExcClass::Irq: return "irq";
  }
  return "<bad-class>";
}

Cpu::Cpu(mem::Mmu& mmu, Config cfg)
    : mmu_(&mmu),
      cfg_(cfg),
      pauth_(cfg.layout),
      sb_(std::make_unique<SuperblockEngine>()) {
  mmu_->set_fast_path(cfg_.engine >= Engine::Fast);
  pauth_.set_fast_path(cfg_.engine >= Engine::Fast);
}

Cpu::~Cpu() = default;

const SuperblockStats& Cpu::superblock_stats() const { return sb_->stats(); }

void publish_retire_counters(obs::Registry& reg,
                             std::span<const Cpu* const> cores) {
  constexpr size_t kClasses = static_cast<size_t>(obs::OpClass::kCount);
  std::array<uint64_t, kClasses> ops{};
  for (const Cpu* c : cores) {
    for (size_t i = 0; i < static_cast<size_t>(Op::kCount); ++i) {
      const Op op = static_cast<Op>(i);
      ops[static_cast<size_t>(Cpu::op_class(op))] += c->op_count(op);
    }
    ops[static_cast<size_t>(obs::OpClass::Other)] += c->exception_steps();
  }
  for (size_t k = 0; k < kClasses; ++k)
    reg.counter(std::string("ops.") +
                obs::op_class_name(static_cast<obs::OpClass>(k)))
        .raise_to(ops[k]);
  if (cores.size() < 2) return;
  for (size_t k = 0; k < cores.size(); ++k) {
    const std::string id = std::to_string(k);
    reg.counter("insn.c" + id)
        .raise_to(cores[k]->retired() + cores[k]->exception_steps());
    reg.counter("cycles.c" + id).raise_to(cores[k]->cycles());
  }
}

obs::OpClass Cpu::op_class(Op op) {
  switch (op) {
    case Op::B:
    case Op::BCOND:
    case Op::CBZ:
    case Op::CBNZ:
    case Op::BR:
      return obs::OpClass::Branch;
    case Op::BL:
    case Op::BLR:
      return obs::OpClass::Call;
    case Op::RET:
      return obs::OpClass::Ret;
    case Op::LDR:
    case Op::LDRB:
    case Op::LDP:
    case Op::LDP_POST:
      return obs::OpClass::Load;
    case Op::STR:
    case Op::STRB:
    case Op::STP:
    case Op::STP_PRE:
    case Op::SWP:
      return obs::OpClass::Store;
    case Op::PACIA:
    case Op::PACIB:
    case Op::PACDA:
    case Op::PACDB:
    case Op::AUTIA:
    case Op::AUTIB:
    case Op::AUTDA:
    case Op::AUTDB:
    case Op::PACGA:
    case Op::XPACI:
    case Op::XPACD:
    case Op::PACIASP:
    case Op::AUTIASP:
    case Op::PACIBSP:
    case Op::AUTIBSP:
    case Op::PACIA1716:
    case Op::PACIB1716:
    case Op::AUTIA1716:
    case Op::AUTIB1716:
    case Op::XPACLRI:
      return obs::OpClass::Pauth;
    case Op::RETAA:
    case Op::RETAB:
    case Op::BRAA:
    case Op::BRAB:
    case Op::BLRAA:
    case Op::BLRAB:
      return obs::OpClass::PauthBranch;
    case Op::MRS:
    case Op::MSR:
    case Op::SVC:
    case Op::HVC:
    case Op::BRK:
    case Op::HLT:
    case Op::ERET:
    case Op::ISB:
    case Op::DAIFSET:
    case Op::DAIFCLR:
      return obs::OpClass::Sys;
    default:
      return obs::OpClass::Other;
  }
}

// ---------------------------------------------------------------------------
// Registers
// ---------------------------------------------------------------------------

uint64_t Cpu::x(unsigned i) const {
  if (i >= 31) return 0;
  return gpr_[i];
}

void Cpu::set_x(unsigned i, uint64_t v) {
  if (i >= 31) return;
  gpr_[i] = v;
}

uint64_t Cpu::sp() const {
  return pstate.el == El::El0 ? sp_el0_ : sp_el1_;
}

void Cpu::set_sp(uint64_t v) {
  (pstate.el == El::El0 ? sp_el0_ : sp_el1_) = v;
}

uint64_t Cpu::sp_el(El el) const { return el == El::El0 ? sp_el0_ : sp_el1_; }
void Cpu::set_sp_el(El el, uint64_t v) {
  (el == El::El0 ? sp_el0_ : sp_el1_) = v;
}

uint64_t Cpu::sysreg(SysReg r) const {
  switch (r) {
    case SysReg::CurrentEL:
      return static_cast<uint64_t>(pstate.el) << 2;
    case SysReg::CNTVCT_EL0:
      return cycles_;
    case SysReg::DAIF:
      return pstate.irq_masked ? (uint64_t{1} << 7) : 0;
    case SysReg::SP_EL0:
      return sp_el0_;
    case SysReg::MPIDR_EL1:
      return cpu_id_;
    case SysReg::ISR_EL1:
      return irq_sources_;
    default:
      return sys_[static_cast<size_t>(r)];
  }
}

void Cpu::set_sysreg(SysReg r, uint64_t v) {
  switch (r) {
    case SysReg::CurrentEL:
    case SysReg::CNTVCT_EL0:
    case SysReg::MPIDR_EL1:
      return;  // read-only
    case SysReg::ISR_EL1:
      irq_sources_ &= ~v;  // write-1-to-clear
      return;
    case SysReg::DAIF:
      pstate.irq_masked = (v >> 7) & 1;
      return;
    case SysReg::SP_EL0:
      sp_el0_ = v;
      return;
    default:
      sys_[static_cast<size_t>(r)] = v;
  }
}

qarma::Key128 Cpu::pac_key(PacKey k) const {
  // §8 extension: privileged execution draws from the EL2-managed bank.
  if (cfg_.banked_keys && pstate.el != El::El0)
    return kernel_bank_[static_cast<size_t>(k)];
  const auto base = static_cast<size_t>(k) * 2;
  return {sys_[base + 1], sys_[base]};  // {Hi as w0, Lo as k0}
}

void Cpu::set_kernel_bank_key(PacKey k, const qarma::Key128& key) {
  kernel_bank_[static_cast<size_t>(k)] = key;
  bank_prov_[static_cast<size_t>(k)] = ++prov_counter_;
  if (obs_)
    obs_->key_install(obs_site(pc), static_cast<uint8_t>(k),
                      bank_prov_[static_cast<size_t>(k)], /*bank=*/true);
}

// ---------------------------------------------------------------------------
// ESR packing
// ---------------------------------------------------------------------------

uint64_t Cpu::esr_pack(ExcClass cls, uint16_t iss, FaultKind fk) {
  return (static_cast<uint64_t>(cls) << 56) |
         (static_cast<uint64_t>(fk) << 16) | iss;
}
ExcClass Cpu::esr_class(uint64_t esr) {
  return static_cast<ExcClass>(bits(esr, 56, 8));
}
uint16_t Cpu::esr_iss(uint64_t esr) { return static_cast<uint16_t>(esr); }
FaultKind Cpu::esr_fault(uint64_t esr) {
  return static_cast<FaultKind>(bits(esr, 16, 8));
}

// ---------------------------------------------------------------------------
// Cycle model (PA-analogue, §6.1)
// ---------------------------------------------------------------------------

unsigned Cpu::cycle_cost(const Inst& inst) {
  switch (inst.op) {
    case Op::LDR:
    case Op::LDRB:
      return 3;
    case Op::LDP:
    case Op::LDP_POST:
      return 4;
    case Op::STR:
    case Op::STRB:
      return 1;
    case Op::STP:
    case Op::STP_PRE:
      return 2;
    case Op::SWP:
      return 4;  // atomic read-modify-write: load + locked store
    case Op::MUL:
      return 3;
    case Op::UDIV:
      return 12;
    case Op::B:
    case Op::BL:
    case Op::BR:
    case Op::BLR:
    case Op::RET:
    case Op::CBZ:
    case Op::CBNZ:
    case Op::BCOND:
      return 2;
    // PAuth: 4 cycles each (the PA-analogue estimate used by the paper and
    // by PARTS); the combined branch forms pay auth + branch.
    case Op::PACIA:
    case Op::PACIB:
    case Op::PACDA:
    case Op::PACDB:
    case Op::AUTIA:
    case Op::AUTIB:
    case Op::AUTDA:
    case Op::AUTDB:
    case Op::PACGA:
    case Op::XPACI:
    case Op::XPACD:
    case Op::PACIASP:
    case Op::AUTIASP:
    case Op::PACIBSP:
    case Op::AUTIBSP:
    case Op::PACIA1716:
    case Op::PACIB1716:
    case Op::AUTIA1716:
    case Op::AUTIB1716:
    case Op::XPACLRI:
      return 4;
    case Op::RETAA:
    case Op::RETAB:
    case Op::BRAA:
    case Op::BRAB:
    case Op::BLRAA:
    case Op::BLRAB:
      return 6;
    case Op::MRS:
      return 2;
    case Op::MSR:
      // Writing PAuth key registers is costed so that one 128-bit key switch
      // comes to ~9 cycles, the figure measured in §6.1.1.
      if (isa::is_pauth_key_reg(inst.sysreg))
        return (static_cast<unsigned>(inst.sysreg) & 1) ? 5 : 4;  // Hi : Lo
      return 3;
    case Op::ISB:
      return 8;
    case Op::SVC:
    case Op::HVC:
      return 4;  // plus exception-entry cost
    case Op::ERET:
      return 8;
    default:
      return 1;
  }
}

// ---------------------------------------------------------------------------
// Exceptions
// ---------------------------------------------------------------------------

void Cpu::take_exception(ExcClass cls, uint64_t far, uint16_t iss,
                         FaultKind fk, uint64_t preferred_return) {
  // The observers below must see every instruction retired before this one.
  flush_run();
  const uint8_t from_el = static_cast<uint8_t>(pstate.el);
  // Pack PSTATE into our SPSR layout: el[1:0], irq_masked[7], NZCV[31:28].
  uint64_t spsr = static_cast<uint64_t>(pstate.el);
  if (pstate.irq_masked) spsr |= uint64_t{1} << 7;
  spsr |= (static_cast<uint64_t>(pstate.n) << 31) |
          (static_cast<uint64_t>(pstate.z) << 30) |
          (static_cast<uint64_t>(pstate.c) << 29) |
          (static_cast<uint64_t>(pstate.v) << 28);
  sys_[static_cast<size_t>(SysReg::SPSR_EL1)] = spsr;
  sys_[static_cast<size_t>(SysReg::ELR_EL1)] = preferred_return;
  sys_[static_cast<size_t>(SysReg::ESR_EL1)] = esr_pack(cls, iss, fk);
  sys_[static_cast<size_t>(SysReg::FAR_EL1)] = far;

  uint64_t offset;
  if (cls == ExcClass::Irq)
    offset = pstate.el == El::El0 ? kVecIrqEl0 : kVecIrqEl1;
  else
    offset = pstate.el == El::El0 ? kVecSyncEl0 : kVecSyncEl1;

  pstate.el = El::El1;
  pstate.irq_masked = true;
  pc = sys_[static_cast<size_t>(SysReg::VBAR_EL1)] + offset;
  cycles_ += 12;  // exception entry microarchitectural cost

  if (cf_)
    cf_->control_flow(cpu_id_, obs::CfKind::ExcEnter, preferred_return,
                      pc, static_cast<uint8_t>(cls));
  if (obs_)  // AAPCS64: the syscall nr is in x8
    obs_->exc_enter({cpu_id_, cycles_, preferred_return, from_el},
                    static_cast<uint8_t>(cls), static_cast<uint8_t>(fk), iss,
                    far, gpr_[8]);
}

void Cpu::do_eret() {
  const uint64_t eret_pc = pc - 4;  // pc was already advanced past the ERET
  const uint64_t spsr = sys_[static_cast<size_t>(SysReg::SPSR_EL1)];
  pstate.el = static_cast<El>(spsr & 0x3);
  pstate.irq_masked = (spsr >> 7) & 1;
  pstate.n = (spsr >> 31) & 1;
  pstate.z = (spsr >> 30) & 1;
  pstate.c = (spsr >> 29) & 1;
  pstate.v = (spsr >> 28) & 1;
  pc = sys_[static_cast<size_t>(SysReg::ELR_EL1)];

  if (cf_)
    cf_->control_flow(cpu_id_, obs::CfKind::ExcExit, eret_pc, pc,
                      static_cast<uint8_t>(pstate.el));
  if (obs_)  // ERET executes at EL1
    obs_->exc_exit({cpu_id_, cycles_, eret_pc, 1}, pc,
                   static_cast<uint8_t>(pstate.el));
}

// ---------------------------------------------------------------------------
// PAuth helpers
// ---------------------------------------------------------------------------

bool Cpu::pauth_enabled(PacKey k) const {
  const uint64_t sctlr = sys_[static_cast<size_t>(SysReg::SCTLR_EL1)];
  switch (k) {
    case PacKey::IA: return sctlr & isa::kSctlrEnIA;
    case PacKey::IB: return sctlr & isa::kSctlrEnIB;
    case PacKey::DA: return sctlr & isa::kSctlrEnDA;
    case PacKey::DB: return sctlr & isa::kSctlrEnDB;
    case PacKey::GA: return true;  // no SCTLR gate for the generic key
  }
  return false;
}

uint64_t Cpu::do_pac(uint64_t ptr, uint64_t modifier, PacKey k) {
  if (!pauth_enabled(k)) return ptr;  // disabled keys make PAC* a no-op
  // Computed before the report so the audit Sign event can carry the signed
  // result (the causal link an auth failure is matched against).
  const uint64_t signed_ptr = pauth_.add_pac(ptr, modifier, pac_key(k));
  if (obs_)
    obs_->pac_sign(obs_site(pc - 4), static_cast<uint8_t>(k), ptr, modifier,
                   signed_ptr, key_provenance(k));
  return signed_ptr;
}

uint64_t Cpu::do_aut(uint64_t ptr, uint64_t modifier, PacKey k,
                     bool& fault_taken) {
  fault_taken = false;
  if (!pauth_enabled(k)) return ptr;
  const auto r = pauth_.auth(ptr, modifier, pac_key(k), k);
  if (obs_) {
    // A failure freezes the flight ring, which must hold every instruction
    // retired before this one.
    if (!r.ok) flush_run();
    obs_->pac_auth(obs_site(pc - 4), r.ok, static_cast<uint8_t>(k), ptr,
                   modifier, r.ptr, gpr_[isa::kRegLr], key_provenance(k));
  }
  if (!r.ok && cfg_.fpac) {
    take_exception(ExcClass::PacFail, ptr, 0, FaultKind::None, pc - 4);
    fault_taken = true;
    return ptr;
  }
  return r.ptr;
}

// ---------------------------------------------------------------------------
// Step
// ---------------------------------------------------------------------------

void Cpu::set_timer(uint64_t cycles) {
  timer_cycles_ = cycles == 0 ? 0 : cycles_ + cycles;
}

void Cpu::set_timer_period(uint64_t cycles) {
  timer_period_ = cycles;
  set_timer(cycles);
}

void Cpu::add_breakpoint(uint64_t va, Hook hook) {
  breakpoints_[va].push_back(std::move(hook));
  bp_min_pc_ = std::min(bp_min_pc_, va);
  bp_max_pc_ = std::max(bp_max_pc_, va);
}

void Cpu::deliver_run() {
  deliver({run_.segs, run_.slots, cycles_ - run_.c0, run_.n, run_.skip,
           run_.el, static_cast<uint8_t>(cpu_id_)});
  // The rest of the record (if the code goes on) starts after these.
  run_.slots += run_.n;
  run_.skip += run_.n;
  run_.c0 = cycles_;
  run_.n = 0;
}

bool Cpu::step() {
  if (attr_ == nullptr && cov_ == nullptr)
    return step_impl(nullptr, nullptr, nullptr);
  // A record of one carrying the whole step's cycle delta (instruction cost
  // plus any exception-entry cost), so the feed sums to cycles() exactly. A
  // step that only took an exception keeps the pre-step pc/EL and op class
  // Other, and feeds coverage nothing.
  obs::RetireSlot slot;  // op class Other until an instruction executes
  obs::RetireSeg seg{pc, 0, 1};
  obs::RetireRun r{&seg, &slot, 0, 1, 0, static_cast<uint8_t>(pstate.el),
                   static_cast<uint8_t>(cpu_id_)};
  const uint64_t c0 = cycles_;
  const uint64_t i0 = instret_;
  const bool more = step_impl(&seg, &r.el, &slot);
  r.cycles = cycles_ - c0;
  if (instret_ != i0)
    deliver(r);
  else if (r.cycles != 0 && attr_ != nullptr)
    attr_->retire_run(r);
  return more;
}

bool Cpu::step_impl(obs::RetireSeg* seg, uint8_t* el,
                    obs::RetireSlot* slot) {
  if (halted_) return false;

  if (timer_cycles_ != 0 && cycles_ >= timer_cycles_) {
    timer_cycles_ = timer_period_ == 0 ? 0 : cycles_ + timer_period_;
    irq_pending_ = true;
    irq_sources_ |= kIrqSrcTimer;
  }
  if (irq_pending_ && !pstate.irq_masked) {
    irq_pending_ = false;
    take_exception(ExcClass::Irq, 0, 0, FaultKind::None, pc);
    ++exc_steps_;
    return true;
  }

  if (pc >= bp_min_pc_ && pc <= bp_max_pc_) {
    auto it = breakpoints_.find(pc);
    if (it != breakpoints_.end()) {
      // Copy: hooks may add/remove breakpoints.
      const auto hooks = it->second;
      for (const auto& h : hooks) h(*this);
      if (halted_) return false;
    }
  }

  const uint64_t iaddr = pc;
  if (!is_aligned(iaddr, 4)) {
    take_exception(ExcClass::InsnAbort, iaddr, 0, FaultKind::AddressSize,
                   iaddr);
    ++exc_steps_;
    return true;
  }
  // Fetch permission always goes through the full translation/fault model
  // (XOM, PXN, PAC-poison) before the fetched word is decoded.
  const auto xlat = mmu_->translate(iaddr, mem::Access::Fetch, pstate.el);
  if (xlat.fault != FaultKind::None) {
    take_exception(ExcClass::InsnAbort, iaddr, 0, xlat.fault, iaddr);
    ++exc_steps_;
    return true;
  }
  const Inst inst = isa::decode(mmu_->phys().read32(xlat.pa));
  const unsigned cost = cycle_cost(inst);
  if (seg != nullptr) {
    seg->va = iaddr;
    seg->pa = xlat.pa;
    *el = static_cast<uint8_t>(pstate.el);
    *slot = {static_cast<uint8_t>(cost),
             static_cast<uint8_t>(op_class(inst.op))};
  }

  pc = iaddr + 4;
  execute(inst);

  cycles_ += cost;
  ++instret_;
  ++op_counts_[static_cast<size_t>(inst.op)];
  return !halted_;
}

uint64_t Cpu::run(uint64_t max_steps) {
  const uint64_t retired0 = instret_;
  if (cfg_.engine < Engine::Block) {
    uint64_t n = 0;
    while (n < max_steps && step()) ++n;
    return instret_ - retired0;
  }
  // Block and Trace tiers (DESIGN.md §3e, §3i): the engine consumes the
  // budget in whole-block bites and hands back anything only the single-step
  // path can do exactly — interrupt delivery, breakpoint hooks, faulting or
  // unaligned fetches. One step() after every engine return also guarantees
  // forward progress when the engine reports 0. Budget units are identical
  // to the single-step loop's for any max_steps, so run(a); run(b) splits
  // land on the same instruction boundaries on every tier.
  uint64_t n = 0;
  while (n < max_steps) {
    n += sb_->execute(*this, max_steps - n);
    if (n >= max_steps || halted_) break;
    if (!step()) break;
    ++n;
  }
  return instret_ - retired0;
}

// ---------------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------------

namespace {

bool cond_holds(isa::Cond cond, const Pstate& ps) {
  using isa::Cond;
  switch (cond) {
    case Cond::EQ: return ps.z;
    case Cond::NE: return !ps.z;
    case Cond::HS: return ps.c;
    case Cond::LO: return !ps.c;
    case Cond::MI: return ps.n;
    case Cond::PL: return !ps.n;
    case Cond::HI: return ps.c && !ps.z;
    case Cond::LS: return !ps.c || ps.z;
    case Cond::GE: return ps.n == ps.v;
    case Cond::LT: return ps.n != ps.v;
    case Cond::GT: return !ps.z && ps.n == ps.v;
    case Cond::LE: return ps.z || ps.n != ps.v;
    case Cond::AL: return true;
  }
  return false;
}

}  // namespace

uint64_t Cpu::read_gpr_or_sp(unsigned i) const {
  return i == isa::kRegZrSp ? sp() : gpr_[i];
}

void Cpu::write_gpr_or_sp(unsigned i, uint64_t v) {
  if (i == isa::kRegZrSp)
    set_sp(v);
  else
    gpr_[i] = v;
}

// ---------------------------------------------------------------------------
// Execute: one static handler per opcode, dispatched through a constexpr
// table. Cpu::execute (the single-step path) and the superblock engine both
// dispatch through the same table, so there is exactly one implementation of
// every instruction and parity between the two paths is structural.
// ---------------------------------------------------------------------------

struct ExecHandlers {
  static void set_add_flags(Cpu& c, uint64_t a, uint64_t b, uint64_t res) {
    c.pstate.n = res >> 63;
    c.pstate.z = res == 0;
    c.pstate.c = res < a;  // carry out of unsigned add
    c.pstate.v = (~(a ^ b) & (a ^ res)) >> 63;
  }
  static void set_sub_flags(Cpu& c, uint64_t a, uint64_t b, uint64_t res) {
    c.pstate.n = res >> 63;
    c.pstate.z = res == 0;
    c.pstate.c = a >= b;  // no borrow
    c.pstate.v = ((a ^ b) & (a ^ res)) >> 63;
  }
  static void undefined(Cpu& c, const Inst& inst) {
    c.take_exception(ExcClass::Undefined, 0, static_cast<uint16_t>(inst.op),
                     FaultKind::None, c.pc - 4);
  }
  static bool require_el1(Cpu& c, const Inst& inst) {
    if (c.pstate.el == El::El0) {
      undefined(c, inst);
      return false;
    }
    return true;
  }

  static void invalid(Cpu& c, const Inst& inst) { undefined(c, inst); }

  // ---- moves ----
  static void movz(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, static_cast<uint64_t>(inst.imm) << (16 * inst.hw));
  }
  static void movk(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, insert_bits(c.x(inst.rd), 16u * inst.hw, 16,
                                 static_cast<uint64_t>(inst.imm)));
  }
  static void movn(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, ~(static_cast<uint64_t>(inst.imm) << (16 * inst.hw)));
  }

  // ---- register data processing ----
  static void add(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) + c.x(inst.rm));
  }
  static void sub(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) - c.x(inst.rm));
  }
  static void adds(Cpu& c, const Inst& inst) {
    const uint64_t a = c.x(inst.rn), b = c.x(inst.rm), r = a + b;
    set_add_flags(c, a, b, r);
    c.set_x(inst.rd, r);
  }
  static void subs(Cpu& c, const Inst& inst) {
    const uint64_t a = c.x(inst.rn), b = c.x(inst.rm), r = a - b;
    set_sub_flags(c, a, b, r);
    c.set_x(inst.rd, r);
  }
  static void and_(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) & c.x(inst.rm));
  }
  static void orr(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) | c.x(inst.rm));
  }
  static void eor(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) ^ c.x(inst.rm));
  }
  static void mul(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) * c.x(inst.rm));
  }
  static void udiv(Cpu& c, const Inst& inst) {
    const uint64_t d = c.x(inst.rm);
    c.set_x(inst.rd, d == 0 ? 0 : c.x(inst.rn) / d);
  }
  static void lslv(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) << (c.x(inst.rm) & 63));
  }
  static void lsrv(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) >> (c.x(inst.rm) & 63));
  }

  // ---- immediate data processing (rd/rn may be SP for ADD/SUB) ----
  static void addi(Cpu& c, const Inst& inst) {
    c.write_gpr_or_sp(
        inst.rd, c.read_gpr_or_sp(inst.rn) + static_cast<uint64_t>(inst.imm));
  }
  static void subi(Cpu& c, const Inst& inst) {
    c.write_gpr_or_sp(
        inst.rd, c.read_gpr_or_sp(inst.rn) - static_cast<uint64_t>(inst.imm));
  }
  static void addsi(Cpu& c, const Inst& inst) {
    const uint64_t a = c.read_gpr_or_sp(inst.rn);
    const uint64_t b = static_cast<uint64_t>(inst.imm);
    const uint64_t r = a + b;
    set_add_flags(c, a, b, r);
    c.set_x(inst.rd, r);
  }
  static void subsi(Cpu& c, const Inst& inst) {
    const uint64_t a = c.read_gpr_or_sp(inst.rn);
    const uint64_t b = static_cast<uint64_t>(inst.imm);
    const uint64_t r = a - b;
    set_sub_flags(c, a, b, r);
    c.set_x(inst.rd, r);
  }
  static void andi(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) & static_cast<uint64_t>(inst.imm));
  }
  static void orri(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) | static_cast<uint64_t>(inst.imm));
  }
  static void eori(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) ^ static_cast<uint64_t>(inst.imm));
  }

  // ---- shifts / bitfields ----
  static void lsli(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) << inst.imm);
  }
  static void lsri(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, c.x(inst.rn) >> inst.imm);
  }
  static void asri(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, static_cast<uint64_t>(
                         static_cast<int64_t>(c.x(inst.rn)) >> inst.imm));
  }
  static void bfi(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd,
            insert_bits(c.x(inst.rd), inst.lsb, inst.width, c.x(inst.rn)));
  }
  static void ubfx(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, bits(c.x(inst.rn), inst.lsb, inst.width));
  }

  static void adr(Cpu& c, const Inst& inst) {
    c.set_x(inst.rd, (c.pc - 4) + static_cast<uint64_t>(inst.imm));
  }

  // ---- loads / stores ----
  static void ldr(Cpu& c, const Inst& inst) {
    uint64_t v;
    if (c.mem_read64(c.read_gpr_or_sp(inst.rn) + static_cast<uint64_t>(inst.imm),
                     v))
      c.set_x(inst.rd, v);
  }
  static void str(Cpu& c, const Inst& inst) {
    c.mem_write64(c.read_gpr_or_sp(inst.rn) + static_cast<uint64_t>(inst.imm),
                  c.x(inst.rd));
  }
  static void ldrb(Cpu& c, const Inst& inst) {
    uint64_t v;
    if (c.mem_read8(c.read_gpr_or_sp(inst.rn) + static_cast<uint64_t>(inst.imm),
                    v))
      c.set_x(inst.rd, v);
  }
  static void strb(Cpu& c, const Inst& inst) {
    c.mem_write8(c.read_gpr_or_sp(inst.rn) + static_cast<uint64_t>(inst.imm),
                 static_cast<uint8_t>(c.x(inst.rd)));
  }
  static void swp(Cpu& c, const Inst& inst) {
    // Atomic swap: the quantum interleaver never splits one instruction, so
    // load+store here is indivisible across cores — the guest SMP runqueue
    // lock is built on exactly that.
    const uint64_t va = c.read_gpr_or_sp(inst.rn);
    uint64_t old;
    if (!c.mem_read64(va, old)) return;
    if (!c.mem_write64(va, c.x(inst.rm))) return;
    c.set_x(inst.rd, old);
  }
  static void ldp(Cpu& c, const Inst& inst) {
    const uint64_t base =
        c.read_gpr_or_sp(inst.rn) + static_cast<uint64_t>(inst.imm);
    uint64_t a, b;
    if (c.mem_read64(base, a) && c.mem_read64(base + 8, b)) {
      c.set_x(inst.rd, a);
      c.set_x(inst.rm, b);
    }
  }
  static void stp(Cpu& c, const Inst& inst) {
    const uint64_t base =
        c.read_gpr_or_sp(inst.rn) + static_cast<uint64_t>(inst.imm);
    if (c.mem_write64(base, c.x(inst.rd))) c.mem_write64(base + 8, c.x(inst.rm));
  }
  static void stp_pre(Cpu& c, const Inst& inst) {
    const uint64_t base =
        c.read_gpr_or_sp(inst.rn) + static_cast<uint64_t>(inst.imm);
    if (c.mem_write64(base, c.x(inst.rd)) &&
        c.mem_write64(base + 8, c.x(inst.rm)))
      c.write_gpr_or_sp(inst.rn, base);
  }
  static void ldp_post(Cpu& c, const Inst& inst) {
    const uint64_t base = c.read_gpr_or_sp(inst.rn);
    uint64_t a, b;
    if (c.mem_read64(base, a) && c.mem_read64(base + 8, b)) {
      c.set_x(inst.rd, a);
      c.set_x(inst.rm, b);
      c.write_gpr_or_sp(inst.rn, base + static_cast<uint64_t>(inst.imm));
    }
  }

  // ---- branches ----
  static void b(Cpu& c, const Inst& inst) {
    c.pc = (c.pc - 4) + static_cast<uint64_t>(inst.imm);
  }
  static void bl(Cpu& c, const Inst& inst) {
    const uint64_t iaddr = c.pc - 4;
    c.set_x(isa::kRegLr, iaddr + 4);
    c.pc = iaddr + static_cast<uint64_t>(inst.imm);
    if (c.cf_)
      c.cf_->control_flow(c.cpu_id_, obs::CfKind::Call, iaddr, c.pc, 0);
  }
  static void bcond(Cpu& c, const Inst& inst) {
    if (cond_holds(inst.cond, c.pstate))
      c.pc = (c.pc - 4) + static_cast<uint64_t>(inst.imm);
  }
  static void cbz(Cpu& c, const Inst& inst) {
    if (c.x(inst.rd) == 0) c.pc = (c.pc - 4) + static_cast<uint64_t>(inst.imm);
  }
  static void cbnz(Cpu& c, const Inst& inst) {
    if (c.x(inst.rd) != 0) c.pc = (c.pc - 4) + static_cast<uint64_t>(inst.imm);
  }
  static void br(Cpu& c, const Inst& inst) { c.pc = c.x(inst.rn); }
  static void blr(Cpu& c, const Inst& inst) {
    const uint64_t iaddr = c.pc - 4;
    c.set_x(isa::kRegLr, iaddr + 4);
    c.pc = c.x(inst.rn);
    if (c.cf_)
      c.cf_->control_flow(c.cpu_id_, obs::CfKind::Call, iaddr, c.pc, 0);
  }
  static void ret(Cpu& c, const Inst& inst) {
    // The assembler always encodes the target register explicitly (LR for
    // a plain `ret`).
    const uint64_t iaddr = c.pc - 4;
    c.pc = c.x(inst.rn);
    if (c.cf_)
      c.cf_->control_flow(c.cpu_id_, obs::CfKind::Ret, iaddr, c.pc, 0);
  }

  // ---- PAuth combined branches ----
  static void pac_branch(Cpu& c, const Inst& inst) {
    if (!c.cfg_.has_pauth) {
      undefined(c, inst);
      return;
    }
    const uint64_t iaddr = c.pc - 4;
    const bool b_key = inst.op == Op::BRAB || inst.op == Op::BLRAB;
    const bool link = inst.op == Op::BLRAA || inst.op == Op::BLRAB;
    const uint64_t modifier = c.read_gpr_or_sp(inst.rm);
    bool faulted;
    const uint64_t target =
        c.do_aut(c.x(inst.rn), modifier, b_key ? PacKey::IB : PacKey::IA,
                 faulted);
    if (faulted) return;
    if (link) c.set_x(isa::kRegLr, iaddr + 4);
    c.pc = target;
    if (link && c.cf_)
      c.cf_->control_flow(c.cpu_id_, obs::CfKind::Call, iaddr, c.pc, 0);
  }
  static void retax(Cpu& c, const Inst& inst) {
    if (!c.cfg_.has_pauth) {
      undefined(c, inst);
      return;
    }
    const uint64_t iaddr = c.pc - 4;
    bool faulted;
    const uint64_t target =
        c.do_aut(c.x(isa::kRegLr), c.sp(),
                 inst.op == Op::RETAB ? PacKey::IB : PacKey::IA, faulted);
    if (!faulted) {
      c.pc = target;
      if (c.cf_)
        c.cf_->control_flow(c.cpu_id_, obs::CfKind::Ret, iaddr, c.pc, 0);
    }
  }

  // ---- system ----
  static void mrs(Cpu& c, const Inst& inst) {
    // CNTVCT is readable from EL0 (Linux exposes the counter); everything
    // else requires EL1.
    if (c.pstate.el == El::El0 && inst.sysreg != SysReg::CNTVCT_EL0) {
      undefined(c, inst);
      return;
    }
    c.set_x(inst.rd, c.sysreg(inst.sysreg));
  }
  static void msr(Cpu& c, const Inst& inst) {
    if (!require_el1(c, inst)) return;
    if (inst.sysreg == SysReg::CurrentEL || inst.sysreg == SysReg::CNTVCT_EL0) {
      undefined(c, inst);
      return;
    }
    const uint64_t v = c.x(inst.rd);
    if (c.msr_filter_ && !c.msr_filter_(c, inst.sysreg, v)) {
      undefined(c, inst);  // hypervisor-locked register (threat model §3.1)
      return;
    }
    c.set_sysreg(inst.sysreg, v);
    if (isa::is_pauth_key_reg(inst.sysreg)) {
      // Key registers are laid out Lo/Hi pairs in PacKey order.
      const auto key_idx =
          static_cast<size_t>(static_cast<unsigned>(inst.sysreg) / 2);
      // Each half-write is an install: provenance bumps unconditionally so
      // audit streams attached later still see consistent ids.
      c.key_prov_[key_idx] = ++c.prov_counter_;
      if (c.obs_)
        c.obs_->key_install(c.obs_site(c.pc - 4),
                            static_cast<uint8_t>(key_idx), c.key_prov_[key_idx],
                            /*bank=*/false,
                            static_cast<uint16_t>(inst.sysreg));
    }
  }
  static void svc(Cpu& c, const Inst& inst) {
    c.take_exception(ExcClass::Svc, 0, static_cast<uint16_t>(inst.imm),
                     FaultKind::None, c.pc);
  }
  static void hvc(Cpu& c, const Inst& inst) {
    if (!require_el1(c, inst)) return;
    if (c.hvc_)
      c.hvc_(c, static_cast<uint16_t>(inst.imm));
    else
      undefined(c, inst);
  }
  static void brk(Cpu& c, const Inst& inst) {
    c.take_exception(ExcClass::Brk, 0, static_cast<uint16_t>(inst.imm),
                     FaultKind::None, c.pc - 4);
  }
  static void hlt(Cpu& c, const Inst& inst) {
    if (!require_el1(c, inst)) return;
    c.halted_ = true;
    c.halt_code_ = static_cast<uint64_t>(inst.imm);
  }
  static void eret(Cpu& c, const Inst& inst) {
    if (!require_el1(c, inst)) return;
    c.do_eret();
  }
  static void daifset(Cpu& c, const Inst& inst) {
    if (!require_el1(c, inst)) return;
    c.pstate.irq_masked = true;
  }
  static void daifclr(Cpu& c, const Inst& inst) {
    if (!require_el1(c, inst)) return;
    c.pstate.irq_masked = false;
  }
  static void nop(Cpu&, const Inst&) {}  // also ISB

  // ---- PAuth sign / authenticate ----
  static void pac_sign(Cpu& c, const Inst& inst) {
    if (!c.cfg_.has_pauth) {
      undefined(c, inst);
      return;
    }
    static constexpr PacKey keys[] = {PacKey::IA, PacKey::IB, PacKey::DA,
                                      PacKey::DB};
    const PacKey k =
        keys[static_cast<int>(inst.op) - static_cast<int>(Op::PACIA)];
    c.set_x(inst.rd, c.do_pac(c.x(inst.rd), c.read_gpr_or_sp(inst.rn), k));
  }
  static void pac_auth(Cpu& c, const Inst& inst) {
    if (!c.cfg_.has_pauth) {
      undefined(c, inst);
      return;
    }
    static constexpr PacKey keys[] = {PacKey::IA, PacKey::IB, PacKey::DA,
                                      PacKey::DB};
    const PacKey k =
        keys[static_cast<int>(inst.op) - static_cast<int>(Op::AUTIA)];
    bool faulted;
    const uint64_t v =
        c.do_aut(c.x(inst.rd), c.read_gpr_or_sp(inst.rn), k, faulted);
    if (!faulted) c.set_x(inst.rd, v);
  }
  static void pacga(Cpu& c, const Inst& inst) {
    if (!c.cfg_.has_pauth) {
      undefined(c, inst);
      return;
    }
    c.set_x(inst.rd,
            c.pauth_.pacga(c.x(inst.rn), c.x(inst.rm), c.pac_key(PacKey::GA)));
  }
  static void xpac(Cpu& c, const Inst& inst) {
    if (!c.cfg_.has_pauth) {
      undefined(c, inst);
      return;
    }
    c.set_x(inst.rd, c.pauth_.strip(c.x(inst.rd)));
  }

  // ---- HINT-space PAuth: NOP on pre-8.3 cores (§5.5) ----
  static void paciasp(Cpu& c, const Inst&) {
    if (c.cfg_.has_pauth)
      c.set_x(isa::kRegLr, c.do_pac(c.x(isa::kRegLr), c.sp(), PacKey::IA));
  }
  static void pacibsp(Cpu& c, const Inst&) {
    if (c.cfg_.has_pauth)
      c.set_x(isa::kRegLr, c.do_pac(c.x(isa::kRegLr), c.sp(), PacKey::IB));
  }
  static void autxsp(Cpu& c, const Inst& inst) {
    if (!c.cfg_.has_pauth) return;
    bool faulted;
    const uint64_t v =
        c.do_aut(c.x(isa::kRegLr), c.sp(),
                 inst.op == Op::AUTIBSP ? PacKey::IB : PacKey::IA, faulted);
    if (!faulted) c.set_x(isa::kRegLr, v);
  }
  static void pacx1716(Cpu& c, const Inst& inst) {
    if (c.cfg_.has_pauth)
      c.set_x(isa::kRegIp1,
              c.do_pac(c.x(isa::kRegIp1), c.x(isa::kRegIp0),
                       inst.op == Op::PACIB1716 ? PacKey::IB : PacKey::IA));
  }
  static void autx1716(Cpu& c, const Inst& inst) {
    if (!c.cfg_.has_pauth) return;
    bool faulted;
    const uint64_t v =
        c.do_aut(c.x(isa::kRegIp1), c.x(isa::kRegIp0),
                 inst.op == Op::AUTIB1716 ? PacKey::IB : PacKey::IA,
                 faulted);
    if (!faulted) c.set_x(isa::kRegIp1, v);
  }
  static void xpaclri(Cpu& c, const Inst&) {
    if (c.cfg_.has_pauth) c.set_x(isa::kRegLr, c.pauth_.strip(c.x(isa::kRegLr)));
  }
};

namespace {

constexpr Cpu::ExecFn pick_handler(Op op) {
  switch (op) {
    case Op::Invalid: return &ExecHandlers::invalid;
    case Op::MOVZ: return &ExecHandlers::movz;
    case Op::MOVK: return &ExecHandlers::movk;
    case Op::MOVN: return &ExecHandlers::movn;
    case Op::ADD: return &ExecHandlers::add;
    case Op::SUB: return &ExecHandlers::sub;
    case Op::ADDS: return &ExecHandlers::adds;
    case Op::SUBS: return &ExecHandlers::subs;
    case Op::AND: return &ExecHandlers::and_;
    case Op::ORR: return &ExecHandlers::orr;
    case Op::EOR: return &ExecHandlers::eor;
    case Op::MUL: return &ExecHandlers::mul;
    case Op::UDIV: return &ExecHandlers::udiv;
    case Op::LSLV: return &ExecHandlers::lslv;
    case Op::LSRV: return &ExecHandlers::lsrv;
    case Op::ADDI: return &ExecHandlers::addi;
    case Op::SUBI: return &ExecHandlers::subi;
    case Op::ADDSI: return &ExecHandlers::addsi;
    case Op::SUBSI: return &ExecHandlers::subsi;
    case Op::ANDI: return &ExecHandlers::andi;
    case Op::ORRI: return &ExecHandlers::orri;
    case Op::EORI: return &ExecHandlers::eori;
    case Op::LSLI: return &ExecHandlers::lsli;
    case Op::LSRI: return &ExecHandlers::lsri;
    case Op::ASRI: return &ExecHandlers::asri;
    case Op::BFI: return &ExecHandlers::bfi;
    case Op::UBFX: return &ExecHandlers::ubfx;
    case Op::ADR: return &ExecHandlers::adr;
    case Op::LDR: return &ExecHandlers::ldr;
    case Op::STR: return &ExecHandlers::str;
    case Op::LDRB: return &ExecHandlers::ldrb;
    case Op::STRB: return &ExecHandlers::strb;
    case Op::LDP: return &ExecHandlers::ldp;
    case Op::STP: return &ExecHandlers::stp;
    case Op::LDP_POST: return &ExecHandlers::ldp_post;
    case Op::STP_PRE: return &ExecHandlers::stp_pre;
    case Op::B: return &ExecHandlers::b;
    case Op::BL: return &ExecHandlers::bl;
    case Op::BCOND: return &ExecHandlers::bcond;
    case Op::CBZ: return &ExecHandlers::cbz;
    case Op::CBNZ: return &ExecHandlers::cbnz;
    case Op::BR: return &ExecHandlers::br;
    case Op::BLR: return &ExecHandlers::blr;
    case Op::RET: return &ExecHandlers::ret;
    case Op::BRAA:
    case Op::BRAB:
    case Op::BLRAA:
    case Op::BLRAB: return &ExecHandlers::pac_branch;
    case Op::RETAA:
    case Op::RETAB: return &ExecHandlers::retax;
    case Op::MRS: return &ExecHandlers::mrs;
    case Op::MSR: return &ExecHandlers::msr;
    case Op::SVC: return &ExecHandlers::svc;
    case Op::HVC: return &ExecHandlers::hvc;
    case Op::BRK: return &ExecHandlers::brk;
    case Op::HLT: return &ExecHandlers::hlt;
    case Op::ERET: return &ExecHandlers::eret;
    case Op::DAIFSET: return &ExecHandlers::daifset;
    case Op::DAIFCLR: return &ExecHandlers::daifclr;
    case Op::ISB:
    case Op::NOP: return &ExecHandlers::nop;
    case Op::PACIA:
    case Op::PACIB:
    case Op::PACDA:
    case Op::PACDB: return &ExecHandlers::pac_sign;
    case Op::AUTIA:
    case Op::AUTIB:
    case Op::AUTDA:
    case Op::AUTDB: return &ExecHandlers::pac_auth;
    case Op::PACGA: return &ExecHandlers::pacga;
    case Op::XPACI:
    case Op::XPACD: return &ExecHandlers::xpac;
    case Op::PACIASP: return &ExecHandlers::paciasp;
    case Op::PACIBSP: return &ExecHandlers::pacibsp;
    case Op::AUTIASP:
    case Op::AUTIBSP: return &ExecHandlers::autxsp;
    case Op::PACIA1716:
    case Op::PACIB1716: return &ExecHandlers::pacx1716;
    case Op::AUTIA1716:
    case Op::AUTIB1716: return &ExecHandlers::autx1716;
    case Op::XPACLRI: return &ExecHandlers::xpaclri;
    case Op::SWP: return &ExecHandlers::swp;
    case Op::kCount: return nullptr;  // never decoded; not in the table
  }
  return nullptr;
}

constexpr auto kExecTable = [] {
  std::array<Cpu::ExecFn, static_cast<size_t>(Op::kCount)> t{};
  for (size_t i = 0; i < t.size(); ++i)
    t[i] = pick_handler(static_cast<Op>(i));
  return t;
}();

}  // namespace

Cpu::ExecFn Cpu::exec_handler(isa::Op op) {
  return kExecTable[static_cast<size_t>(op)];
}

void Cpu::execute(const Inst& inst) {
  kExecTable[static_cast<size_t>(inst.op)](*this, inst);
}

}  // namespace camo::cpu
