#include "kernel/kernel_builder.h"

#include "core/keysetter.h"
#include "cpu/cpu.h"
#include "hyp/hypervisor.h"
#include "support/bits.h"
#include "support/error.h"

namespace camo::kernel {

using assembler::FunctionBuilder;
using assembler::Label;
using compiler::BackwardScheme;
using cpu::ExcClass;
using cpu::PacKey;
using hyp::HvcCall;
using isa::SysReg;

namespace {

constexpr uint8_t kSp = isa::kRegZrSp;
constexpr uint8_t kZr = isa::kRegZrSp;
constexpr uint8_t kLr = isa::kRegLr;

constexpr uint16_t kTrapFrameSize = 272;
constexpr uint16_t kTfX30 = 240;
constexpr uint16_t kTfElr = 248;
constexpr uint16_t kTfSpsr = 256;

uint16_t hvc_num(HvcCall c) { return static_cast<uint16_t>(c); }

/// Count of concrete instructions currently in `f` (for vector padding).
size_t insn_count(const FunctionBuilder& f) {
  size_t n = 0;
  for (const auto& item : f.items())
    if (item.kind != assembler::Item::Kind::LabelDef) ++n;
  return n;
}

void pad_nops_to(FunctionBuilder& f, size_t words) {
  while (insn_count(f) < words) f.nop();
}

/// Sign x[val] with modifier in x[mod] under the IA key (honours compat
/// builds by routing through the HINT-space 1716 form).
void emit_sign_ia(FunctionBuilder& f, uint8_t val, uint8_t mod, bool compat) {
  if (compat) {
    f.mov(isa::kRegIp1, val);
    f.mov(isa::kRegIp0, mod);
    f.pacia1716();
    f.mov(val, isa::kRegIp1);
  } else {
    f.pacia(val, mod);
  }
}

void emit_auth_ia(FunctionBuilder& f, uint8_t val, uint8_t mod, bool compat) {
  if (compat) {
    f.mov(isa::kRegIp1, val);
    f.mov(isa::kRegIp0, mod);
    f.autia1716();
    f.mov(val, isa::kRegIp1);
  } else {
    f.autia(val, mod);
  }
}

/// Save x0..x29 (15 pairs) + x30 + ELR + SPSR into a fresh trapframe.
/// With `protect` (the §8 extension) the saved ELR is signed with the IA key
/// against trapframe-address ‖ saved-SPSR, so neither the return address nor
/// the saved exception level can be forged while the task sleeps.
void emit_trapframe_save(FunctionBuilder& f, bool protect, bool compat) {
  f.sub_i(kSp, kSp, kTrapFrameSize);
  for (uint8_t i = 0; i < 30; i += 2)
    f.stp(i, static_cast<uint8_t>(i + 1), kSp, static_cast<int16_t>(i * 8));
  f.str(30, kSp, kTfX30);
  f.mrs(9, SysReg::ELR_EL1);
  f.mrs(10, SysReg::SPSR_EL1);
  if (protect) {
    f.mov_from_sp(11);
    f.bfi(11, 10, 48, 16);  // modifier = trapframe VA ‖ SPSR[15:0]
    emit_sign_ia(f, 9, 11, compat);
  }
  f.str(9, kSp, kTfElr);
  f.str(10, kSp, kTfSpsr);
}

void emit_trapframe_restore_and_eret(FunctionBuilder& f, bool protect,
                                     bool compat) {
  f.ldr(10, kSp, kTfSpsr);
  f.ldr(9, kSp, kTfElr);
  if (protect) {
    f.mov_from_sp(11);
    f.bfi(11, 10, 48, 16);
    emit_auth_ia(f, 9, 11, compat);
  }
  f.msr(SysReg::ELR_EL1, 9);
  f.msr(SysReg::SPSR_EL1, 10);
  for (uint8_t i = 0; i < 30; i += 2)
    f.ldp(i, static_cast<uint8_t>(i + 1), kSp, static_cast<int16_t>(i * 8));
  f.ldr(30, kSp, kTfX30);
  f.add_i(kSp, kSp, kTrapFrameSize);
  f.eret();
}

/// x[dst] = address of task with pid in x[pid_reg] (clobbers x[tmp]).
void emit_task_ptr(FunctionBuilder& f, uint8_t dst, uint8_t pid_reg,
                   uint8_t tmp) {
  f.mov_sym(dst, kSymTaskArray);
  f.lsl_i(tmp, pid_reg, 8);  // * kTaskSize
  f.add(dst, dst, tmp);
}

/// A syscall's shared tail: the success path jumps over the -EINVAL return
/// value its `einval` path loads, to `out`.
void emit_einval_tail(FunctionBuilder& f, Label einval, Label out) {
  f.b(out);
  f.bind(einval);
  f.mov_imm(0, static_cast<uint64_t>(kEInval));
  f.bind(out);
}

/// The idle loop early_boot and secondary_idle end in: schedule until every
/// user task (pids 1 .. num_tasks_g - 1) is Dead, then halt with kHaltDone.
void emit_idle_until_all_dead(FunctionBuilder& f) {
  const Label idle = f.make_label();
  const Label check_loop = f.make_label();
  const Label not_done = f.make_label();
  const Label all_done = f.make_label();
  f.bind(idle);
  f.bl_sym("schedule");
  f.mov_sym(9, "num_tasks_g");
  f.ldr(9, 9, 0);
  f.mov_imm(10, 1);  // pid iterator
  f.bind(check_loop);
  f.cmp(10, 9);
  f.b_cond(isa::Cond::HS, all_done);
  emit_task_ptr(f, 11, 10, 12);
  f.ldr(12, 11, task::kState);
  f.cmp_i(12, static_cast<uint16_t>(TaskState::Dead));
  f.b_cond(isa::Cond::NE, not_done);
  f.add_i(10, 10, 1);
  f.b(check_loop);
  f.bind(not_done);
  f.b(idle);
  f.bind(all_done);
  f.hlt(kHaltDone);
}

}  // namespace

obj::Program KernelBuilder::build() {
  const unsigned num_cpus = cfg_.num_cpus == 0 ? 1 : cfg_.num_cpus;
  // Every core needs a swapper slot in task_array (core 0 owns slot 0,
  // cores 1..N-1 the slots just past the user tasks).
  if (tasks_.size() + num_cpus > kMaxTasks) fail("kernel: too many tasks");
  if (cfg_.pac_failure_threshold > 4095)
    fail("kernel: pac threshold must fit cmp immediate");
  obj::Program k;
  const bool compat = cfg_.protection.compat_mode;
  // Keys must be switched on every EL0<->EL1 transition only when the kernel
  // actually uses PAuth (§3.3.1). The unprotected baseline kernel matches
  // the paper's stock-kernel baseline: no per-syscall key switching.
  const bool protected_build =
      cfg_.protection.backward != BackwardScheme::None ||
      cfg_.protection.forward_cfi || cfg_.protection.dfi;
  // With the §8 banked-keys ISA extension the per-transition switch
  // vanishes: EL1 execution draws kernel keys from the EL2-managed bank.
  const bool switch_keys = protected_build && !cfg_.banked_keys;
  // User keys still must follow the task; banked builds install them at
  // context switch (like Linux's thread_struct handling), switching builds
  // restore them on every exception return.
  const bool restore_keys_at_switch = protected_build && cfg_.banked_keys;
  const uint64_t num_tasks = tasks_.size() + 1;  // + swapper
  // SMP builds add the runqueue lock, the cfs-lite migrating scheduler, the
  // IPI mailbox and secondary_idle. Everything below is gated on this flag
  // so num_cpus == 1 emits the classic image byte-for-byte.
  const bool smp = num_cpus > 1;

  // =========================================================================
  // Data
  // =========================================================================

  // Boot config: n, then per task {user_pc, user_sp, space, keys[10]}.
  {
    std::vector<uint64_t> bc;
    bc.push_back(tasks_.size());
    for (const auto& t : tasks_) {
      bc.push_back(t.user_pc);
      bc.push_back(t.user_sp);
      bc.push_back(t.space_id);
      for (const uint64_t kv : t.user_keys) bc.push_back(kv);
    }
    k.add_rodata_u64("boot_config", std::move(bc));
  }
  k.add_rodata_u64("num_tasks_g", {num_tasks});

  // Ops tables (.rodata): read-only, hence unsigned (§4.4).
  for (const char* base : {"null", "ram", "con"}) {
    const std::string name = std::string(base) + "_fops";
    k.add_rodata_u64(name, {0, 0});
    k.add_abs64(name, fops::kRead, std::string(base) + "_read");
    k.add_abs64(name, fops::kWrite, std::string(base) + "_write");
  }
  k.add_rodata_u64("fops_by_kind", {0, 0, 0});
  k.add_abs64("fops_by_kind", 0, "null_fops");
  k.add_abs64("fops_by_kind", 8, "ram_fops");
  k.add_abs64("fops_by_kind", 16, "con_fops");

  // Syscall dispatch table (.rodata — read-only function pointers).
  {
    const char* names[] = {"sys_getpid",     "sys_write",     "sys_read",
                           "sys_open",       "sys_close",     "sys_yield",
                           "sys_exit",       "sys_stat",      "sys_queue_work",
                           "sys_call_hook",  "sys_init_module",
                           "sys_register_hook", "sys_getjiffies"};
    static_assert(sizeof(names) / sizeof(names[0]) ==
                  static_cast<size_t>(Sys::kCount));
    k.add_rodata_u64("syscall_table",
                     std::vector<uint64_t>(std::size(names), 0));
    for (size_t i = 0; i < std::size(names); ++i)
      k.add_abs64("syscall_table", static_cast<int64_t>(i * 8), names[i]);
  }

  // Registry of hook implementations a driver may install (§4.4).
  k.add_rodata_u64("hook_registry", {0, 0});
  k.add_abs64("hook_registry", 0, "default_hook");
  k.add_abs64("hook_registry", 8, "alt_hook");

  k.add_rodata("pacfail_msg", {'P', 'A', 'C', ' ', 'f', 'a', 'i', 'l', '\n'});

  // DECLARE_WORK equivalent (§4.6): statically initialised work item whose
  // function pointer is signed in place at early boot via .pauth_init.
  k.add_data_u64(kSymStaticWork, {1 /*data*/, 0 /*func*/});
  k.add_abs64(kSymStaticWork, 8, "default_work");
  k.declare_signed_ptr(kSymStaticWork, 8, kTypeWorkFunc, PacKey::IB);
  k.add_rodata_u64("pauth_count_g", {1});  // entries in our own table

  // Writable lone hook pointer container (§4.4) — set at run time.
  k.add_data_u64(kSymHookObj, {0, 0});

  // Simulated ram-file backing store, pre-filled with a pattern.
  {
    std::vector<uint8_t> ram(4096);
    for (size_t i = 0; i < ram.size(); ++i)
      ram[i] = static_cast<uint8_t>(0xA5 ^ (i * 7));
    k.add_data(kSymRamfsData, std::move(ram));
  }

  // BSS.
  k.add_bss(kSymTaskArray, kMaxTasks * kTaskSize, 0x100);
  k.add_bss(kSymFileTable, kMaxFiles * kFileSize, 0x20);
  k.add_bss(kSymKernelStacks,
            std::max<uint64_t>(tasks_.size(), 1) * kKernelStackStride,
            kKernelStackStride);
  k.add_bss(kSymPacFailCount, 8);
  k.add_bss(kSymJiffies, 8);
  k.add_bss(kSymWorkCounter, 8);
  k.add_bss(kSymHookCounter, 8);
  k.add_bss(kSymPwnedFlag, 8);
  if (smp) {
    // SMP-only state: the runqueue spinlock, one doorbell word per core and
    // the boot gate the secondaries spin on.
    k.add_bss(kSymSchedLock, 8);
    k.add_bss(kSymIpiMailbox, 8 * num_cpus);
    k.add_bss(kSymIpiCount, 8);
    k.add_bss(kSymSmpOnline, 8);
  }

  // =========================================================================
  // Exception vectors and entry stubs
  // =========================================================================

  {
    auto& f = k.add_function("vectors");
    f.set_no_instrument();
    f.b_sym("el1_sync_entry");
    pad_nops_to(f, 0x080 / 4);
    f.b_sym("el1_irq_entry");
    pad_nops_to(f, 0x100 / 4);
    f.b_sym("el0_sync_entry");
    pad_nops_to(f, 0x180 / 4);
    f.b_sym("el0_irq_entry");
  }

  // --- EL0 sync: syscall / user-fault entry. Kernel keys are installed
  // before anything else runs (§3.3.1); IRQs arrive masked.
  {
    auto& f = k.add_function("el0_sync_entry");
    f.set_no_instrument();
    emit_trapframe_save(f, cfg_.protect_trapframe, compat);
    if (switch_keys) f.bl_sym(core::kKeySetterSymbol);
    f.mov_from_sp(0);  // x0 = trapframe
    f.bl_sym("el0_sync_handler");
    f.b_sym("ret_to_user");
  }

  {
    auto& f = k.add_function("el0_irq_entry");
    f.set_no_instrument();
    emit_trapframe_save(f, cfg_.protect_trapframe, compat);
    if (switch_keys) f.bl_sym(core::kKeySetterSymbol);
    f.bl_sym("el0_irq_handler");
    f.b_sym("ret_to_user");
  }

  // --- common user-return path: restore the running task's EL0 keys (the
  // kernel keys must never leak into user execution, R5/§3.3.1).
  {
    auto& f = k.add_function("ret_to_user");
    f.set_no_instrument();
    if (switch_keys) f.bl_sym("restore_user_keys_current");
    emit_trapframe_restore_and_eret(f, cfg_.protect_trapframe, compat);
  }

  // --- EL1 sync: kernel faults. This is where PAuth authentication
  // failures surface (poisoned pointers fault on use) and where the §5.4
  // brute-force policy lives.
  {
    auto& f = k.add_function("el1_sync_entry");
    f.set_no_instrument();
    // A kernel fault can arrive while *user* keys are live — the window
    // between restore_user_keys_current and ERET on the exit path. The
    // handler (and the scheduler it calls on the kill path) authenticate
    // kernel-signed pointers, so kernel keys must be re-installed first.
    if (switch_keys) f.bl_sym(core::kKeySetterSymbol);
    f.bl_sym("el1_sync_handler");
    f.hlt(kHaltOops);  // unreachable
  }

  {
    auto& f = k.add_function("el1_sync_handler");
    const Label oops = f.make_label();
    const Label is_pac = f.make_label();
    const Label kill = f.make_label();
    const Label panic = f.make_label();
    f.frame_push();
    f.mrs(9, SysReg::ESR_EL1);
    f.lsr_i(10, 9, 56);    // exception class
    f.ubfx(11, 9, 16, 8);  // fault kind
    f.cmp_i(10, static_cast<uint16_t>(ExcClass::PacFail));
    f.b_cond(isa::Cond::EQ, is_pac);
    // Aborts caused by non-canonical (PAC-poisoned) addresses:
    f.cmp_i(11, static_cast<uint16_t>(mem::FaultKind::AddressSize));
    f.b_cond(isa::Cond::NE, oops);
    f.cmp_i(10, static_cast<uint16_t>(ExcClass::DataAbort));
    f.b_cond(isa::Cond::EQ, is_pac);
    f.cmp_i(10, static_cast<uint16_t>(ExcClass::InsnAbort));
    f.b_cond(isa::Cond::EQ, is_pac);
    f.bind(oops);
    f.hlt(kHaltOops);

    f.bind(is_pac);
    if (cfg_.log_pac_failures) {
      f.mov_sym(0, "pacfail_msg");
      f.mov_imm(1, 9);
      f.hvc(hvc_num(HvcCall::ConsoleWrite));
    }
    f.mov_sym(9, kSymPacFailCount);
    f.ldr(10, 9, 0);
    f.add_i(10, 10, 1);
    f.str(10, 9, 0);
    f.cmp_i(10, static_cast<uint16_t>(cfg_.pac_failure_threshold));
    f.b_cond(isa::Cond::HS, panic);
    // SIGKILL the offending task; a fault with no current user task is a
    // kernel bug → OOPS.
    f.bind(kill);
    f.mrs(9, SysReg::TPIDR_EL1);
    f.ldr(10, 9, task::kPid);
    f.cbz(10, oops);
    f.mov_imm(11, static_cast<uint64_t>(TaskState::Dead));
    f.str(11, 9, task::kState);
    f.bl_sym("schedule");  // never returns (task is dead)
    f.hlt(kHaltOops);
    f.bind(panic);
    f.hlt(kHaltPacPanic);
  }

  {
    auto& f = k.add_function("el1_irq_entry");
    f.set_no_instrument();
    f.stp_pre(9, 10, kSp, -16);
    if (smp) {
      // Ack every latched source (ISR_EL1 is write-1-to-clear). Kernel-mode
      // IRQs only bump jiffies — rescheduling happens on the EL0 path, so
      // an IPI caught here still takes effect at the next schedule poll.
      f.mrs(9, SysReg::ISR_EL1);
      f.msr(SysReg::ISR_EL1, 9);
    }
    f.mov_sym(9, kSymJiffies);
    f.ldr(10, 9, 0);
    f.add_i(10, 10, 1);
    f.str(10, 9, 0);
    f.ldp_post(9, 10, kSp, 16);
    f.eret();
  }

  {
    auto& f = k.add_function("el0_irq_handler");
    f.frame_push();
    f.mov_sym(9, kSymJiffies);
    f.ldr(10, 9, 0);
    f.add_i(10, 10, 1);
    f.str(10, 9, 0);
    if (smp) {
      // Read-and-ack the source latch; on an IPI, clear this core's mailbox
      // word and count the doorbell. Both IRQ sources (timer tick, IPI)
      // warrant a reschedule, so the schedule call is unconditional.
      const Label no_ipi = f.make_label();
      f.mrs(9, SysReg::ISR_EL1);
      f.msr(SysReg::ISR_EL1, 9);
      f.and_i(10, 9, static_cast<uint16_t>(cpu::Cpu::kIrqSrcIpi));
      f.cbz(10, no_ipi);
      f.mrs(11, SysReg::MPIDR_EL1);
      f.mov_sym(12, kSymIpiMailbox);
      f.lsl_i(11, 11, 3);
      f.add(12, 12, 11);
      f.str(kZr, 12, 0);
      f.mov_sym(12, kSymIpiCount);
      f.ldr(11, 12, 0);
      f.add_i(11, 11, 1);
      f.str(11, 12, 0);
      f.bind(no_ipi);
      f.bl_sym("schedule");
    } else if (cfg_.preempt) {
      f.bl_sym("schedule");
    }
    f.frame_pop_ret();
  }

  // --- syscall dispatch --------------------------------------------------
  {
    auto& f = k.add_function("el0_sync_handler");
    const Label not_syscall = f.make_label();
    const Label bad = f.make_label();
    const Label done = f.make_label();
    f.frame_push(16);
    f.str(19, kSp, 0);
    f.mov(19, 0);  // x19 = trapframe
    f.mrs(9, SysReg::ESR_EL1);
    f.lsr_i(10, 9, 56);
    f.cmp_i(10, static_cast<uint16_t>(ExcClass::Svc));
    f.b_cond(isa::Cond::NE, not_syscall);
    // current->syscalls++
    f.mrs(9, SysReg::TPIDR_EL1);
    f.ldr(11, 9, task::kSyscalls);
    f.add_i(11, 11, 1);
    f.str(11, 9, task::kSyscalls);
    // dispatch via the read-only table
    f.ldr(8, 19, 8 * 8);  // x8 slot of the trapframe
    f.cmp_i(8, static_cast<uint16_t>(Sys::kCount));
    f.b_cond(isa::Cond::HS, bad);
    f.mov_sym(9, "syscall_table");
    f.lsl_i(10, 8, 3);
    f.add(9, 9, 10);
    f.ldr(9, 9, 0);
    f.ldr(0, 19, 0);
    f.ldr(1, 19, 8);
    f.ldr(2, 19, 16);
    f.blr(9);  // .rodata table: plain call, like Listing 4's final blr
    f.str(0, 19, 0);  // result into trapframe x0
    f.b(done);
    f.bind(bad);
    f.mov_imm(0, static_cast<uint64_t>(kEInval));
    f.str(0, 19, 0);
    f.bind(done);
    f.ldr(19, kSp, 0);
    f.frame_pop_ret(16);
    // user fault (e.g. EL0 touching kernel memory): SIGKILL.
    f.bind(not_syscall);
    f.mrs(9, SysReg::TPIDR_EL1);
    f.mov_imm(11, static_cast<uint64_t>(TaskState::Dead));
    f.str(11, 9, task::kState);
    f.bl_sym("schedule");
    f.hlt(kHaltOops);
  }

  // =========================================================================
  // Key management helpers
  // =========================================================================

  // Restore the current task's user keys from its thread_struct slots. Only
  // the keys the kernel clobbers are restored (IA/IB/DB — or IB alone in
  // compat builds). Leaf: LR stays in a register, no frame needed.
  {
    auto& f = k.add_function("restore_user_keys_current");
    f.set_no_instrument();
    f.mrs(9, SysReg::TPIDR_EL1);
    struct Slot {
      int index;
      SysReg reg;
    };
    std::vector<Slot> slots;
    if (compat) {
      slots = {{2, SysReg::APIBKeyLo}, {3, SysReg::APIBKeyHi}};
    } else {
      slots = {{0, SysReg::APIAKeyLo}, {1, SysReg::APIAKeyHi},
               {2, SysReg::APIBKeyLo}, {3, SysReg::APIBKeyHi},
               {6, SysReg::APDBKeyLo}, {7, SysReg::APDBKeyHi}};
    }
    for (const auto& s : slots) {
      f.ldr(10, 9, static_cast<uint16_t>(task::kUserKeys + s.index * 8));
      f.msr(s.reg, 10);
    }
    f.ret();
  }

  // Walk a .pauth_init table (§4.6): sign each statically initialised
  // pointer in place. x0 = table, x1 = entry count. Used for the kernel's
  // own table at early boot and for every loaded module's table.
  {
    auto& f = k.add_function("sign_init_table");
    const Label loop = f.make_label();
    const Label done = f.make_label();
    const Label store = f.make_label();
    f.bind(loop);
    f.cbz(1, done);
    f.ldr(9, 0, 0);    // slot va
    f.ldr(10, 0, 8);   // container va
    f.ldr(11, 0, 16);  // type_id | key << 16
    f.ldr(12, 9, 0);   // raw pointer value
    if (cfg_.protection.apple_zero_modifier) {
      f.movz(13, 0, 0);  // ablation: Apple-style zero modifier
    } else {
      f.ubfx(13, 11, 0, 16);
      f.bfi(13, 10, 16, 48);  // §4.3 modifier
    }
    // Sign only the pointer classes the build actually protects — the
    // consumers (call_protected / load_protected expansions) are gated by
    // the same configuration.
    if (compat) {
      if (cfg_.protection.forward_cfi || cfg_.protection.dfi) {
        f.mov(isa::kRegIp1, 12);
        f.mov(isa::kRegIp0, 13);
        f.pacib1716();
        f.mov(12, isa::kRegIp1);
      }
    } else {
      const Label use_ib = f.make_label();
      f.ubfx(14, 11, 16, 8);
      f.cmp_i(14, static_cast<uint16_t>(PacKey::IB));
      f.b_cond(isa::Cond::EQ, use_ib);
      if (cfg_.protection.dfi) f.pacdb(12, 13);
      f.b(store);
      f.bind(use_ib);
      if (cfg_.protection.forward_cfi) f.pacib(12, 13);
    }
    f.bind(store);
    f.str(12, 9, 0);
    f.add_i(0, 0, 24);
    f.sub_i(1, 1, 1);
    f.b(loop);
    f.bind(done);
    f.ret();
  }

  // =========================================================================
  // Scheduler (§5.2)
  // =========================================================================

  if (!smp) {
    auto& f = k.add_function("schedule");
    const Label loop = f.make_label();
    const Label advance = f.make_label();
    const Label found = f.make_label();
    const Label do_switch = f.make_label();
    const Label keep_state = f.make_label();
    const Label out = f.make_label();
    f.frame_push(16);
    f.str(19, kSp, 0);
    f.mrs(19, SysReg::TPIDR_EL1);  // prev
    f.ldr(9, 19, task::kPid);
    f.mov_sym(10, "num_tasks_g");
    f.ldr(10, 10, 0);
    f.mov_imm(11, 1);  // i
    f.bind(loop);
    // cand = (prev_pid + i) % n; the swapper is only a fallback, skip it.
    f.add(12, 9, 11);
    f.udiv(13, 12, 10);
    f.mul(13, 13, 10);
    f.sub(12, 12, 13);
    f.cbz(12, advance);
    emit_task_ptr(f, 13, 12, 14);
    f.ldr(14, 13, task::kState);
    f.cmp_i(14, static_cast<uint16_t>(TaskState::New));
    f.b_cond(isa::Cond::EQ, found);
    f.cmp_i(14, static_cast<uint16_t>(TaskState::Runnable));
    f.b_cond(isa::Cond::EQ, found);
    f.bind(advance);
    f.add_i(11, 11, 1);
    f.cmp(11, 10);
    f.b_cond(isa::Cond::LS, loop);
    // No runnable user task. If prev is still running, keep running it;
    // otherwise (dead) fall back to the swapper.
    f.ldr(14, 19, task::kState);
    f.cmp_i(14, static_cast<uint16_t>(TaskState::Current));
    f.b_cond(isa::Cond::EQ, out);
    f.mov_sym(13, kSymTaskArray);  // swapper task 0
    f.b(do_switch);
    f.bind(found);
    f.cmp(13, 19);
    f.b_cond(isa::Cond::EQ, out);
    f.bind(do_switch);
    // prev: Current -> Runnable (Dead stays Dead).
    f.ldr(14, 19, task::kState);
    f.cmp_i(14, static_cast<uint16_t>(TaskState::Current));
    f.b_cond(isa::Cond::NE, keep_state);
    f.mov_imm(14, static_cast<uint64_t>(TaskState::Runnable));
    f.str(14, 19, task::kState);
    f.bind(keep_state);
    f.mov_imm(14, static_cast<uint64_t>(TaskState::Current));
    f.str(14, 13, task::kState);
    f.mov(0, 19);
    f.mov(1, 13);
    f.bl_sym(kSymCpuSwitchTo);
    f.bind(out);
    f.ldr(19, kSp, 0);
    f.frame_pop_ret(16);
  } else {
    // SMP schedule: one shared runqueue under sched_lock. Pick the runnable
    // task with the smallest virtual runtime (cfs-lite) regardless of which
    // core it last ran on — tasks migrate freely; cpu_switch_to reinstalls
    // their user keys on the destination core. The switched-out task is NOT
    // published as Runnable here: cpu_switch_to does that only after its SP
    // is saved and signed, so a concurrent core can never steal a task with
    // a half-written switch frame.
    auto& f = k.add_function("schedule");
    const Label spin = f.make_label();
    const Label pick_loop = f.make_label();
    const Label consider = f.make_label();
    const Label pick_next = f.make_label();
    const Label pick_done = f.make_label();
    const Label have_best = f.make_label();
    const Label to_swapper = f.make_label();
    const Label swapper0 = f.make_label();
    const Label check_same = f.make_label();
    const Label no_wrap = f.make_label();
    const Label no_kick = f.make_label();
    const Label unlock_out = f.make_label();
    const Label out = f.make_label();
    f.frame_push(16);
    f.str(19, kSp, 0);
    f.mrs(19, SysReg::TPIDR_EL1);  // x19 = prev
    // Acquire the runqueue lock. SWP is a single instruction, hence atomic
    // under the machine's quantum interleaver; a spinning core burns its
    // quantum while the holder progresses, so the wait is bounded.
    f.mov_sym(9, kSymSchedLock);
    f.mov_imm(10, 1);
    f.bind(spin);
    f.swp(11, 9, 10);
    f.cbnz(11, spin);
    // x9 holds the lock address until release. x10 = n, x11 = pid iter,
    // x12 = candidate, x13 = best, x14 = best vruntime, x2 = runnable
    // count, x3 = this core's id.
    f.mov_sym(10, "num_tasks_g");
    f.ldr(10, 10, 0);
    f.movz(13, 0, 0);
    f.movn(14, 0, 0);  // best vruntime = 2^64 - 1
    f.movz(2, 0, 0);
    f.mov_imm(11, 1);
    f.bind(pick_loop);
    f.cmp(11, 10);
    f.b_cond(isa::Cond::HS, pick_done);
    emit_task_ptr(f, 12, 11, 15);
    f.ldr(15, 12, task::kState);
    f.cmp_i(15, static_cast<uint16_t>(TaskState::New));
    f.b_cond(isa::Cond::EQ, consider);
    f.cmp_i(15, static_cast<uint16_t>(TaskState::Runnable));
    f.b_cond(isa::Cond::NE, pick_next);
    f.bind(consider);
    f.add_i(2, 2, 1);
    // Strict less-than keeps the lowest pid on vruntime ties: the scan is
    // ascending, so an equal vruntime never displaces an earlier winner.
    f.ldr(15, 12, task::kVruntime);
    f.cmp(15, 14);
    f.b_cond(isa::Cond::HS, pick_next);
    f.mov(14, 15);
    f.mov(13, 12);
    f.bind(pick_next);
    f.add_i(11, 11, 1);
    f.b(pick_loop);
    f.bind(pick_done);
    f.cbnz(13, have_best);
    // Nothing runnable: keep running prev while it may run; a dead prev
    // falls back to this core's swapper (slot 0 on core 0, slot n+c-1 for
    // core c — the slots just past the user tasks).
    f.ldr(15, 19, task::kState);
    f.cmp_i(15, static_cast<uint16_t>(TaskState::Current));
    f.b_cond(isa::Cond::EQ, unlock_out);
    f.bind(to_swapper);
    f.mrs(3, SysReg::MPIDR_EL1);
    f.cbz(3, swapper0);
    f.add(11, 10, 3);
    f.sub_i(11, 11, 1);
    emit_task_ptr(f, 13, 11, 15);
    f.b(check_same);
    f.bind(swapper0);
    f.mov_sym(13, kSymTaskArray);
    f.b(check_same);
    f.bind(have_best);
    // Advance the pick's virtual runtime so repeated picks rotate fairly.
    f.add_i(14, 14, 1);
    f.str(14, 13, task::kVruntime);
    f.bind(check_same);
    f.cmp(13, 19);
    f.b_cond(isa::Cond::EQ, unlock_out);
    // Claim next for this core, then release the lock.
    f.mov_imm(15, static_cast<uint64_t>(TaskState::Current));
    f.str(15, 13, task::kState);
    f.mrs(3, SysReg::MPIDR_EL1);
    f.str(3, 13, task::kCpu);
    f.str(kZr, 9, 0);
    // IPI kick: when other runnable work remains, ring the next core's
    // doorbell (mailbox word + HVC) so it reschedules promptly.
    f.cmp_i(2, 2);
    f.b_cond(isa::Cond::LO, no_kick);
    f.add_i(3, 3, 1);
    f.cmp_i(3, static_cast<uint16_t>(num_cpus));
    f.b_cond(isa::Cond::LO, no_wrap);
    f.movz(3, 0, 0);
    f.bind(no_wrap);
    f.mov_sym(15, kSymIpiMailbox);
    f.lsl_i(4, 3, 3);
    f.add(15, 15, 4);
    f.mov_imm(4, 1);
    f.str(4, 15, 0);
    f.mov(0, 3);
    f.hvc(hvc_num(HvcCall::SendIpi));
    f.bind(no_kick);
    f.mov(0, 19);
    f.mov(1, 13);
    f.bl_sym(kSymCpuSwitchTo);
    f.b(out);
    f.bind(unlock_out);
    f.str(kZr, 9, 0);
    f.bind(out);
    f.ldr(19, kSp, 0);
    f.frame_pop_ret(16);
  }

  // cpu_switch_to(prev=x0, next=x1): saves callee-saved state on prev's
  // stack, signs and stores prev's kernel SP into the task struct with the
  // §4.3 pointer-integrity scheme, then either resumes next (authenticating
  // its saved SP) or, for a never-run task, constructs the first ERET into
  // user space (Linux's ret_from_fork analogue). §5.2: "we additionally need
  // to sign the switched-from kernel task's SP and authenticate the
  // switched-to task's SP".
  {
    auto& f = k.add_function(kSymCpuSwitchTo);
    const Label nospace = f.make_label();
    const Label firstrun = f.make_label();
    f.frame_push(96);
    f.stp(19, 20, kSp, 0);
    f.stp(21, 22, kSp, 16);
    f.stp(23, 24, kSp, 32);
    f.stp(25, 26, kSp, 48);
    f.stp(27, 28, kSp, 64);
    f.mrs(9, SysReg::SP_EL0);
    f.str(9, 0, task::kSavedSpEl0);
    f.mov_from_sp(9);
    f.store_protected(9, 0, task::kKsp, kTypeTaskSp, PacKey::DB);
    if (smp) {
      // Publish prev as stealable only now that its SP is saved and signed:
      // a core that picks it up resumes a complete, authenticated switch
      // frame. Dead tasks stay Dead; nothing below writes prev's state.
      const Label keep = f.make_label();
      f.ldr(9, 0, task::kState);
      f.cmp_i(9, static_cast<uint16_t>(TaskState::Current));
      f.b_cond(isa::Cond::NE, keep);
      f.mov_imm(9, static_cast<uint64_t>(TaskState::Runnable));
      f.str(9, 0, task::kState);
      f.bind(keep);
    }
    f.msr(SysReg::TPIDR_EL1, 1);
    // Switch user address space when it differs (swapper keeps whatever
    // mapping is live — it never touches user memory).
    f.ldr(9, 1, task::kSpace);
    f.ldr(10, 0, task::kSpace);
    f.cmp(9, 10);
    f.b_cond(isa::Cond::EQ, nospace);
    f.mov_imm(11, kSwapperSpace);
    f.cmp(9, 11);
    f.b_cond(isa::Cond::EQ, nospace);
    f.mov(0, 9);  // prev pointer is no longer needed
    f.hvc(hvc_num(HvcCall::SwitchUserSpace));
    f.bind(nospace);
    if (restore_keys_at_switch) f.bl_sym("restore_user_keys_current");
    // First run? A suspended task always has a nonzero (signed) saved SP.
    f.ldr(9, 1, task::kKsp);
    f.cbz(9, firstrun);
    f.load_protected(9, 1, task::kKsp, kTypeTaskSp, PacKey::DB);
    f.mov_to_sp(9);
    f.ldr(9, 1, task::kSavedSpEl0);
    f.msr(SysReg::SP_EL0, 9);
    f.ldp(19, 20, kSp, 0);
    f.ldp(21, 22, kSp, 16);
    f.ldp(23, 24, kSp, 32);
    f.ldp(25, 26, kSp, 48);
    f.ldp(27, 28, kSp, 64);
    f.frame_pop_ret(96);
    f.bind(firstrun);
    f.ldr(9, 1, task::kKstackTop);
    f.mov_to_sp(9);
    f.ldr(9, 1, task::kUserSp);
    f.msr(SysReg::SP_EL0, 9);
    f.ldr(9, 1, task::kUserPc);
    f.msr(SysReg::ELR_EL1, 9);
    f.movz(9, 0, 0);
    f.msr(SysReg::SPSR_EL1, 9);  // EL0, IRQs unmasked
    // (banked builds already restored user keys on the common path above)
    if (switch_keys) f.bl_sym("restore_user_keys_current");
    f.eret();
  }

  // =========================================================================
  // File layer (§4.5, Listing 4)
  // =========================================================================

  // get_file(fd=x0) -> x0 = struct file* or 0. Leaf.
  {
    auto& f = k.add_function("get_file");
    const Label bad = f.make_label();
    f.cmp_i(0, kMaxFiles);
    f.b_cond(isa::Cond::HS, bad);
    f.mov_sym(9, kSymFileTable);
    f.lsl_i(10, 0, 5);  // * kFileSize
    f.add(9, 9, 10);
    f.ldr(11, 9, file::kInUse);
    f.cbz(11, bad);
    f.mov(0, 9);
    f.ret();
    f.bind(bad);
    f.movz(0, 0, 0);
    f.ret();
  }

  // sys_read(fd, buf, len) / sys_write: authenticate f_ops (the paper's
  // file_ops() getter), then call through the read-only table.
  for (const bool is_write : {false, true}) {
    auto& f = k.add_function(is_write ? "sys_write" : "sys_read");
    const Label einval = f.make_label();
    const Label out = f.make_label();
    f.frame_push(32);
    f.str(19, kSp, 0);
    f.str(20, kSp, 8);
    f.str(21, kSp, 16);
    f.mov(19, 1);  // buf
    f.mov(20, 2);  // len
    f.bl_sym("get_file");
    f.cbz(0, einval);
    f.mov(21, 0);
    // Listing 4: load + authenticate f_ops, then the plain indirect call.
    f.load_protected(9, 21, file::kFops, kTypeFileFops, PacKey::DB);
    f.ldr(9, 9, is_write ? fops::kWrite : fops::kRead);
    f.mov(0, 21);
    f.mov(1, 19);
    f.mov(2, 20);
    f.blr(9);
    emit_einval_tail(f, einval, out);
    f.ldr(19, kSp, 0);
    f.ldr(20, kSp, 8);
    f.ldr(21, kSp, 16);
    f.frame_pop_ret(32);
  }

  // sys_open(kind) -> fd. Uses the set_file_ops() setter pattern (§5.3).
  {
    auto& f = k.add_function("sys_open");
    const Label einval = f.make_label();
    const Label loop = f.make_label();
    const Label found = f.make_label();
    const Label out = f.make_label();
    f.frame_push(16);
    f.str(19, kSp, 0);
    f.cmp_i(0, 3);
    f.b_cond(isa::Cond::HS, einval);
    f.mov(19, 0);  // kind
    f.mov_imm(9, 1);
    f.bind(loop);
    f.cmp_i(9, kMaxFiles);
    f.b_cond(isa::Cond::HS, einval);
    f.mov_sym(10, kSymFileTable);
    f.lsl_i(11, 9, 5);
    f.add(10, 10, 11);
    f.ldr(12, 10, file::kInUse);
    f.cbz(12, found);
    f.add_i(9, 9, 1);
    f.b(loop);
    f.bind(found);
    f.mov_imm(12, 1);
    f.str(12, 10, file::kInUse);
    f.str(19, 10, file::kKind);
    f.str(kZr, 10, file::kPos);
    f.mov_sym(11, "fops_by_kind");
    f.lsl_i(12, 19, 3);
    f.add(11, 11, 12);
    f.ldr(11, 11, 0);
    f.store_protected(11, 10, file::kFops, kTypeFileFops, PacKey::DB);
    f.mov(0, 9);
    emit_einval_tail(f, einval, out);
    f.ldr(19, kSp, 0);
    f.frame_pop_ret(16);
  }

  {
    auto& f = k.add_function("sys_close");
    const Label einval = f.make_label();
    const Label out = f.make_label();
    f.frame_push();
    f.bl_sym("get_file");
    f.cbz(0, einval);
    f.str(kZr, 0, file::kInUse);
    f.movz(0, 0, 0);
    emit_einval_tail(f, einval, out);
    f.frame_pop_ret();
  }

  {
    auto& f = k.add_function("sys_stat");
    const Label einval = f.make_label();
    const Label out = f.make_label();
    f.frame_push(16);
    f.str(19, kSp, 0);
    f.mov(19, 1);  // user buf
    f.bl_sym("get_file");
    f.cbz(0, einval);
    f.ldr(9, 0, file::kKind);
    f.str(9, 19, 0);
    f.ldr(9, 0, file::kPos);
    f.str(9, 19, 8);
    f.ldr(9, 0, file::kInUse);
    f.str(9, 19, 16);
    f.mov_imm(9, 0x57A7);
    f.str(9, 19, 24);
    f.movz(0, 0, 0);
    emit_einval_tail(f, einval, out);
    f.ldr(19, kSp, 0);
    f.frame_pop_ret(16);
  }

  // --- file operation implementations (leaves) ---

  {
    auto& f = k.add_function("null_read");
    const Label loop = f.make_label();
    const Label done = f.make_label();
    f.movz(9, 0, 0);
    f.bind(loop);
    f.cmp(9, 2);
    f.b_cond(isa::Cond::HS, done);
    f.add(10, 1, 9);
    f.strb(kZr, 10, 0);
    f.add_i(9, 9, 1);
    f.b(loop);
    f.bind(done);
    f.mov(0, 2);
    f.ret();
  }
  {
    auto& f = k.add_function("null_write");
    f.mov(0, 2);
    f.ret();
  }
  // kcopy256(dst=x0, src=x1): copy one 256-byte block. A framed helper so
  // the kernel copy path has realistic function-call density (the
  // copy_to_user / iov-iteration layers of a real read path).
  {
    auto& f = k.add_function("kcopy256");
    f.frame_push();
    for (uint16_t off = 0; off < 256; off += 16) {
      f.ldp(9, 10, 1, static_cast<int16_t>(off));
      f.stp(9, 10, 0, static_cast<int16_t>(off));
    }
    f.frame_pop_ret();
  }

  for (const bool is_write : {false, true}) {
    auto& f = k.add_function(is_write ? "ram_write" : "ram_read");
    const Label blocks = f.make_label();
    const Label tail = f.make_label();
    const Label tail_loop = f.make_label();
    const Label done = f.make_label();
    const Label capped = f.make_label();
    f.frame_push(48);
    f.str(19, kSp, 0);
    f.str(20, kSp, 8);
    f.str(21, kSp, 16);
    f.str(22, kSp, 24);
    f.mov_imm(11, 4096);
    f.cmp(2, 11);
    f.b_cond(isa::Cond::LS, capped);
    f.mov(2, 11);
    f.bind(capped);
    f.mov_sym(9, kSymRamfsData);
    // x19 = dst, x20 = src, x21 = remaining, x22 = total
    if (is_write) {
      f.mov(19, 9);
      f.mov(20, 1);
    } else {
      f.mov(19, 1);
      f.mov(20, 9);
    }
    f.mov(21, 2);
    f.mov(22, 2);
    f.bind(blocks);
    f.cmp_i(21, 256);
    f.b_cond(isa::Cond::LO, tail);
    f.mov(0, 19);
    f.mov(1, 20);
    f.bl_sym("kcopy256");
    f.add_i(19, 19, 256);
    f.add_i(20, 20, 256);
    f.sub_i(21, 21, 256);
    f.b(blocks);
    f.bind(tail);
    f.bind(tail_loop);
    f.cbz(21, done);
    f.ldrb(9, 20, 0);
    f.strb(9, 19, 0);
    f.add_i(19, 19, 1);
    f.add_i(20, 20, 1);
    f.sub_i(21, 21, 1);
    f.b(tail_loop);
    f.bind(done);
    if (!is_write) {
      // Protocol checksum over the delivered data (the per-byte kernel work
      // a real network receive path performs).
      const Label cs_loop = f.make_label();
      const Label cs_done = f.make_label();
      f.mov_sym(9, kSymRamfsData);
      f.lsr_i(10, 22, 3);  // u64 words
      f.movz(11, 0, 0);
      f.bind(cs_loop);
      f.cbz(10, cs_done);
      f.ldr(12, 9, 0);
      f.add(11, 11, 12);
      f.add_i(9, 9, 8);
      f.sub_i(10, 10, 1);
      f.b(cs_loop);
      f.bind(cs_done);
    }
    f.mov(0, 22);
    f.ldr(19, kSp, 0);
    f.ldr(20, kSp, 8);
    f.ldr(21, kSp, 16);
    f.ldr(22, kSp, 24);
    f.frame_pop_ret(48);
  }
  {
    auto& f = k.add_function("con_read");
    f.movz(0, 0, 0);
    f.ret();
  }
  {
    auto& f = k.add_function("con_write");
    f.mov(9, 2);
    f.mov(0, 1);
    f.mov(1, 9);
    f.hvc(hvc_num(HvcCall::ConsoleWrite));
    f.mov(0, 9);
    f.ret();
  }

  // =========================================================================
  // Simple syscalls
  // =========================================================================

  {
    auto& f = k.add_function("sys_getpid");
    f.mrs(9, SysReg::TPIDR_EL1);
    f.ldr(0, 9, task::kPid);
    f.ret();
  }

  {
    auto& f = k.add_function("sys_yield");
    f.frame_push();
    f.bl_sym("schedule");
    f.movz(0, 0, 0);
    f.frame_pop_ret();
  }

  {
    auto& f = k.add_function("sys_exit");
    f.frame_push();
    f.mrs(9, SysReg::TPIDR_EL1);
    f.mov_imm(10, static_cast<uint64_t>(TaskState::Dead));
    f.str(10, 9, task::kState);
    f.bl_sym("schedule");  // never returns
    f.hlt(kHaltOops);
  }

  {
    auto& f = k.add_function("sys_getjiffies");
    f.mov_sym(9, kSymJiffies);
    f.ldr(0, 9, 0);
    f.ret();
  }

  // =========================================================================
  // Workqueue (§4.6) and lone hook pointer (§4.4)
  // =========================================================================

  {
    auto& f = k.add_function("default_work");
    f.mov_sym(9, kSymWorkCounter);
    f.ldr(10, 9, 0);
    f.add(10, 10, 0);  // += work data argument
    f.str(10, 9, 0);
    f.ret();
  }

  {
    auto& f = k.add_function("sys_queue_work");
    f.frame_push();
    f.mov_sym(9, kSymStaticWork);
    f.ldr(0, 9, 0);    // work->data as argument
    f.ldr(10, 9, 8);   // signed work->func
    f.call_protected(10, 9, kTypeWorkFunc, PacKey::IB);
    f.movz(0, 0, 0);
    f.frame_pop_ret();
  }

  // The attack framework's code-reuse target: stands in for a privilege-
  // escalation gadget. Present in kernel text (so it is a legitimate code
  // address an attacker can aim a pointer at) but never legitimately called.
  {
    auto& f = k.add_function(kSymGadget);
    f.mov_sym(9, kSymPwnedFlag);
    f.mov_imm(10, 0x31337);
    f.str(10, 9, 0);
    f.hlt(kHaltPwned);
  }

  {
    auto& f = k.add_function("default_hook");
    f.mov_sym(9, kSymHookCounter);
    f.ldr(10, 9, 0);
    f.add_i(10, 10, 1);
    f.str(10, 9, 0);
    f.ret();
  }
  {
    auto& f = k.add_function("alt_hook");
    f.mov_sym(9, kSymHookCounter);
    f.ldr(10, 9, 0);
    f.add_i(10, 10, 2);
    f.str(10, 9, 0);
    f.ret();
  }

  {
    auto& f = k.add_function("sys_call_hook");
    f.frame_push();
    f.mov_sym(9, kSymHookObj);
    f.ldr(10, 9, 0);
    f.call_protected(10, 9, kTypeHook, PacKey::IB);
    f.movz(0, 0, 0);
    f.frame_pop_ret();
  }

  {
    auto& f = k.add_function("sys_register_hook");
    const Label einval = f.make_label();
    const Label out = f.make_label();
    f.frame_push();
    f.cmp_i(0, 2);
    f.b_cond(isa::Cond::HS, einval);
    f.mov_sym(9, "hook_registry");
    f.lsl_i(10, 0, 3);
    f.add(9, 9, 10);
    f.ldr(10, 9, 0);
    f.mov_sym(9, kSymHookObj);
    f.store_protected(10, 9, 0, kTypeHook, PacKey::IB);
    f.movz(0, 0, 0);
    emit_einval_tail(f, einval, out);
    f.frame_pop_ret();
  }

  // =========================================================================
  // Module loading (§4.1 + §4.6)
  // =========================================================================

  {
    auto& f = k.add_function("sys_init_module");
    const Label eperm = f.make_label();
    const Label out = f.make_label();
    f.frame_push(16);
    f.str(19, kSp, 0);
    f.hvc(hvc_num(HvcCall::LoadModule));  // x0 = id in, entry out
    f.cbz(0, eperm);
    f.mov(19, 0);
    f.mov(0, 1);  // module .pauth_init table
    f.mov(1, 2);  // entry count
    f.bl_sym("sign_init_table");
    f.blr(19);  // module init (statically verified before mapping)
    f.movz(0, 0, 0);
    f.b(out);
    f.bind(eperm);
    f.mov_imm(0, static_cast<uint64_t>(kEPerm));
    f.bind(out);
    f.ldr(19, kSp, 0);
    f.frame_pop_ret(16);
  }

  // =========================================================================
  // Boot: early_boot -> kernel_late_init -> idle loop
  // =========================================================================

  // Post-key initialisation that uses protected stores (must run after the
  // key setter; instrumented normally).
  {
    auto& f = k.add_function("kernel_late_init");
    f.frame_push();
    // fd 0: the console (every task shares the global file table).
    f.mov_sym(9, kSymFileTable);
    f.mov_imm(10, 1);
    f.str(10, 9, file::kInUse);
    f.mov_imm(10, static_cast<uint64_t>(FileKind::Console));
    f.str(10, 9, file::kKind);
    f.mov_sym(10, "con_fops");
    f.store_protected(10, 9, file::kFops, kTypeFileFops, PacKey::DB);
    // Install the default hook into the writable hook slot.
    f.mov_sym(9, kSymHookObj);
    f.mov_sym(10, "default_hook");
    f.store_protected(10, 9, 0, kTypeHook, PacKey::IB);
    f.frame_pop_ret();
  }

  // early_boot: the only function allowed to write SCTLR_EL1 (§4.1).
  {
    auto& f = k.add_function("early_boot");
    f.set_no_instrument();
    const Label task_loop = f.make_label();
    const Label tasks_done = f.make_label();
    const Label key_loop = f.make_label();

    // Enable PAuth and point VBAR at the vector page.
    f.mov_imm(0, isa::kSctlrEnIA | isa::kSctlrEnIB | isa::kSctlrEnDA |
                     isa::kSctlrEnDB);
    f.msr(SysReg::SCTLR_EL1, 0);
    f.mov_sym(0, "vectors");
    f.msr(SysReg::VBAR_EL1, 0);
    f.bl_sym(core::kKeySetterSymbol);

    // §4.6: sign the kernel's statically initialised pointers in place.
    f.mov_sym(0, "__pauth_init_table");
    f.mov_sym(9, "pauth_count_g");
    f.ldr(1, 9, 0);
    f.bl_sym("sign_init_table");

    // Swapper task (pid 0) runs the boot context.
    f.mov_sym(9, kSymTaskArray);
    f.msr(SysReg::TPIDR_EL1, 9);
    f.str(kZr, 9, task::kPid);
    f.mov_imm(10, static_cast<uint64_t>(TaskState::Current));
    f.str(10, 9, task::kState);
    f.mov_imm(10, kSwapperSpace);
    f.str(10, 9, task::kSpace);
    f.mov_imm(10, kBootStackTop);
    f.str(10, 9, task::kKstackTop);

    // Populate user task structs from boot_config.
    f.mov_sym(10, "boot_config");
    f.ldr(11, 10, 0);       // n user tasks
    f.add_i(10, 10, 8);     // first record
    f.movz(12, 0, 0);       // i
    f.bind(task_loop);
    f.cmp(12, 11);
    f.b_cond(isa::Cond::HS, tasks_done);
    f.add_i(13, 12, 1);     // pid = i + 1
    emit_task_ptr(f, 14, 13, 15);
    f.str(13, 14, task::kPid);
    f.mov_imm(15, static_cast<uint64_t>(TaskState::New));
    f.str(15, 14, task::kState);
    f.ldr(15, 10, 0);
    f.str(15, 14, task::kUserPc);
    f.ldr(15, 10, 8);
    f.str(15, 14, task::kUserSp);
    f.ldr(15, 10, 16);
    f.str(15, 14, task::kSpace);
    // kstack top = kernel_stacks + i * stride + size
    f.mov_sym(15, kSymKernelStacks);
    f.lsl_i(2, 12, 16);  // * 0x10000
    f.add(15, 15, 2);
    f.mov_imm(2, kKernelStackSize);
    f.add(15, 15, 2);
    f.str(15, 14, task::kKstackTop);
    // copy 10 user key halves
    f.movz(3, 0, 0);
    f.bind(key_loop);
    f.lsl_i(4, 3, 3);
    f.add_i(5, 4, 24);   // offset of keys in the record
    f.add(5, 10, 5);
    f.ldr(5, 5, 0);
    f.add_i(6, 4, task::kUserKeys);
    f.add(6, 14, 6);
    f.str(5, 6, 0);
    f.add_i(3, 3, 1);
    f.cmp_i(3, 10);
    f.b_cond(isa::Cond::LO, key_loop);
    // next record
    f.add_i(10, 10, 13 * 8);
    f.add_i(12, 12, 1);
    f.b(task_loop);
    f.bind(tasks_done);

    if (smp) {
      // Swapper slots for cores 1..N-1 live just past the user tasks; the
      // host points each secondary's TPIDR_EL1 here before releasing it.
      for (unsigned c = 1; c < num_cpus; ++c) {
        const uint64_t slot = num_tasks + c - 1;
        f.mov_sym(9, kSymTaskArray);
        f.mov_imm(10, slot * kTaskSize);
        f.add(9, 9, 10);
        f.str(kZr, 9, task::kPid);
        f.mov_imm(10, static_cast<uint64_t>(TaskState::Current));
        f.str(10, 9, task::kState);
        f.mov_imm(10, kSwapperSpace);
        f.str(10, 9, task::kSpace);
        f.mov_imm(10, kBootStackTop - c * kKernelStackSize);
        f.str(10, 9, task::kKstackTop);
        f.mov_imm(10, c);
        f.str(10, 9, task::kCpu);
      }
    }

    f.bl_sym("kernel_late_init");
    f.hvc(hvc_num(HvcCall::Lockdown));
    if (smp) {
      // Release the secondaries only after keys, signed pointers and the
      // file layer are ready and the MMU registers are locked down.
      f.mov_sym(9, kSymSmpOnline);
      f.mov_imm(10, 1);
      f.str(10, 9, 0);
    }

    emit_idle_until_all_dead(f);
  }

  // secondary_idle: entry point for cores 1..N-1. The host "firmware" sets
  // up SCTLR/VBAR/keys/SP/TPIDR and jumps here; the core waits for core 0
  // to finish boot, then runs the same schedule-until-all-dead idle loop
  // as early_boot.
  if (smp) {
    auto& f = k.add_function(kSymSecondaryIdle);
    f.set_no_instrument();
    const Label wait = f.make_label();
    f.mov_sym(9, kSymSmpOnline);
    f.bind(wait);
    f.ldr(10, 9, 0);
    f.cbz(10, wait);
    emit_idle_until_all_dead(f);
  }

  return k;
}

}  // namespace camo::kernel
