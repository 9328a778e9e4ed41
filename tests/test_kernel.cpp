// Integration tests of the full system: boot, syscalls, scheduling with
// key switching, the file layer, the §4.6 static-pointer path, hooks,
// modules, preemption, and the §5.4 panic policy — across protection
// configurations including the pre-8.3 compatibility build.
#include <gtest/gtest.h>

#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "support/error.h"

namespace camo::kernel {
namespace {

using compiler::BackwardScheme;
using compiler::ProtectionConfig;

MachineConfig config_for(ProtectionConfig prot) {
  MachineConfig cfg;
  cfg.kernel.protection = prot;
  return cfg;
}

TEST(MachineBoot, KernelOnlyBootsToDone) {
  Machine m;  // no user tasks: idle loop sees zero tasks -> done
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_TRUE(m.kernel().verify.ok())
      << m.kernel().verify.describe();
  EXPECT_TRUE(m.hyp().locked_down());
}

TEST(MachineBoot, KernelImageVerifiesCleanUnderFullProtection) {
  Machine m(config_for(ProtectionConfig::full()));
  m.add_user_program(workloads::null_syscall(1));
  m.boot();
  EXPECT_TRUE(m.kernel().verify.ok());
  EXPECT_GT(m.kernel().verify.words_scanned, 1000u);
}

// Guest pages a booted machine backs: the kernel's .bss (one kernel stack
// per task) and never-written pages read as zero and hold no host memory.
TEST(MachineBoot, BackedGuestPagesAfterBootPinned) {
  struct Case {
    ProtectionConfig prot;
    unsigned users;
    uint64_t backed;
  };
  const Case cases[] = {
      {ProtectionConfig::full(), 0, 6},  {ProtectionConfig::full(), 1, 7},
      {ProtectionConfig::full(), 33, 39}, {ProtectionConfig::none(), 0, 5},
      {ProtectionConfig::none(), 1, 6},  {ProtectionConfig::none(), 33, 38},
  };
  for (const Case& c : cases) {
    Machine m(config_for(c.prot));
    for (unsigned u = 0; u < c.users; ++u)
      m.add_user_program(workloads::call_hook(1));
    m.boot();
    mem::PhysicalMemory& pm = m.mmu().phys();
    uint64_t backed = 0;
    for (uint64_t p = 0; p < pm.page_count(); ++p)
      backed += pm.backing(p) != nullptr;
    EXPECT_EQ(backed, c.backed) << c.users << " users, backward scheme "
                                << static_cast<int>(c.prot.backward);
  }
}

class AllConfigs : public ::testing::TestWithParam<int> {
 protected:
  static ProtectionConfig prot() {
    switch (GetParam()) {
      case 0: return ProtectionConfig::none();
      case 1: {
        ProtectionConfig c;
        c.backward = BackwardScheme::ClangSp;
        c.forward_cfi = c.dfi = false;
        return c;
      }
      case 2: return ProtectionConfig::backward_only();
      case 3: return ProtectionConfig::full();
      default: {
        ProtectionConfig c = ProtectionConfig::full();
        c.compat_mode = true;
        return c;
      }
    }
  }
};

TEST_P(AllConfigs, SyscallsAndExitWork) {
  Machine m(config_for(prot()));
  const int pid = m.add_user_program(workloads::null_syscall(25));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  // 25 getpid + 1 exit
  EXPECT_EQ(m.read_u64(m.task_struct(static_cast<unsigned>(pid)) +
                       task::kSyscalls),
            26u);
}

TEST_P(AllConfigs, FileReadThroughProtectedFops) {
  Machine m(config_for(prot()));
  m.add_user_program(workloads::read_file(5, 64, FileKind::Ram));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
}

TEST_P(AllConfigs, TwoTasksPingPong) {
  Machine m(config_for(prot()));
  m.add_user_program(workloads::yield_loop(10));
  m.add_user_program(workloads::yield_loop(10));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_u64(m.task_struct(1) + task::kSyscalls), 11u);
  EXPECT_EQ(m.read_u64(m.task_struct(2) + task::kSyscalls), 11u);
}

std::string config_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"none", "clang", "backward", "full",
                                      "compat"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Protections, AllConfigs, ::testing::Range(0, 5),
                         config_name);

TEST(MachineRun, ConsoleWriteReachesHost) {
  Machine m;
  // write_file on the console fd would flood; use load of a program that
  // writes one byte via fd 0 (see workloads::load_module's tail) — instead
  // just use write_file with the console kind.
  m.add_user_program(workloads::write_file(3, 4, FileKind::Console));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.console().size(), 12u);  // 3 writes x 4 bytes (ubuf zeroes)
}

TEST(MachineRun, RamReadReturnsPattern) {
  // ram_read must copy the ramfs pattern into user memory; the download
  // workload checksums it, which only terminates correctly if reads work.
  Machine m;
  m.add_user_program(workloads::download(3));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
}

TEST(MachineRun, StaticWorkSignedAtBootAndCallable) {
  // §4.6 end-to-end: the work_struct.func slot was statically initialised,
  // signed in place by the early-boot .pauth_init walk, and is callable
  // through the protected-call path.
  Machine m(config_for(ProtectionConfig::full()));
  m.add_user_program(workloads::queue_work(7));
  m.boot();
  // After linking (before boot runs the walker) the slot holds the raw
  // address.
  const uint64_t slot = m.kernel_symbol(kSymStaticWork) + 8;
  const uint64_t raw = m.kernel_symbol("default_work");
  EXPECT_EQ(m.read_u64(slot), raw);
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  // work ran 7 times, each adding work->data == 1
  EXPECT_EQ(m.read_global(kSymWorkCounter), 7u);
}

TEST(MachineRun, StaticWorkSlotIsSignedAfterBoot) {
  Machine m(config_for(ProtectionConfig::full()));
  m.add_user_program(workloads::queue_work(1));
  m.boot();
  const uint64_t slot = m.kernel_symbol(kSymStaticWork) + 8;
  const uint64_t raw = m.kernel_symbol("default_work");
  ASSERT_TRUE(m.run());
  const uint64_t signed_val = m.read_u64(slot);
  EXPECT_NE(signed_val, raw) << "slot must hold a signed pointer";
  EXPECT_EQ(m.cpu().pauth().strip(signed_val), raw);
}

TEST(MachineRun, StaticWorkUnsignedWhenDfiDisabledForwardOff) {
  Machine m(config_for(ProtectionConfig::none()));
  m.add_user_program(workloads::queue_work(2));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_global(kSymWorkCounter), 2u);
  // With protection off the walker still runs but PAC* are NOPs only if
  // SCTLR bits are off — they are on; however the table is still signed.
  // The calls authenticate symmetrically, so behaviour is identical.
}

TEST(MachineRun, HookRegisterAndCall) {
  Machine m(config_for(ProtectionConfig::full()));
  m.add_user_program(workloads::call_hook(5));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_global(kSymHookCounter), 5u);  // default_hook += 1 each
}

TEST(MachineRun, PreemptiveSchedulingViaTimer) {
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.kernel.preempt = true;
  cfg.preempt_timeslice = 5000;
  Machine m(cfg);
  // Two compute-heavy tasks with *no* voluntary yields: only timer IRQs can
  // interleave them.
  m.add_user_program(workloads::image_resize(20));
  m.add_user_program(workloads::image_resize(20));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_GT(m.read_global(kSymJiffies), 4u) << "timer IRQs must have fired";
}

TEST(MachineRun, ModuleLoadsThroughSyscall) {
  Machine m(config_for(ProtectionConfig::full()));
  obj::Program mod;
  auto& init = mod.add_function("drv_init");
  init.frame_push();
  init.mov_sym(9, kSymWorkCounter);
  init.mov_imm(10, 1000);
  init.str(10, 9, 0);
  init.frame_pop_ret();
  const int id = m.register_module("drv", std::move(mod));
  m.add_user_program(workloads::load_module(static_cast<uint64_t>(id)));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_global(kSymWorkCounter), 1000u);
  EXPECT_EQ(m.console().back(), 'Y');
}

TEST(MachineRun, MaliciousModuleRejectedAtLoad) {
  Machine m(config_for(ProtectionConfig::full()));
  obj::Program mod;
  auto& init = mod.add_function("spy_init");
  init.mrs(0, isa::SysReg::APIBKeyLo);  // key exfiltration
  init.ret();
  const int id = m.register_module("spy", std::move(mod));
  m.add_user_program(workloads::load_module(static_cast<uint64_t>(id)));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.console().back(), 'N');
  EXPECT_FALSE(m.hyp().last_module_verify()->ok());
}

TEST(MachineRun, ModuleWithStaticSignedPointer) {
  // A module's own .pauth_init table is walked at load (§4.6).
  Machine m(config_for(ProtectionConfig::full()));
  obj::Program mod;
  auto& workfn = mod.add_function("drv_work");
  workfn.mov_sym(9, kSymHookCounter);
  workfn.mov_imm(10, 77);
  workfn.str(10, 9, 0);
  workfn.ret();
  mod.add_data_u64("drv_workitem", {0, 0});
  mod.add_abs64("drv_workitem", 8, "drv_work");
  mod.declare_signed_ptr("drv_workitem", 8, kTypeWorkFunc, cpu::PacKey::IB);
  auto& init = mod.add_function("drv2_init");
  init.frame_push();
  init.mov_sym(9, "drv_workitem");
  init.ldr(10, 9, 8);
  init.call_protected(10, 9, kTypeWorkFunc, cpu::PacKey::IB);
  init.frame_pop_ret();
  const int id = m.register_module("drv2", std::move(mod));
  m.add_user_program(workloads::load_module(static_cast<uint64_t>(id)));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.console().back(), 'Y');
  EXPECT_EQ(m.read_global(kSymHookCounter), 77u);
}

TEST(MachineRun, UserKeysSwitchedPerTask) {
  // Each task's thread_struct user keys differ; both tasks run and exit —
  // the exit path restored per-task keys each time or EL0 would misbehave.
  Machine m(config_for(ProtectionConfig::full()));
  m.add_user_program(workloads::null_syscall(5));
  m.add_user_program(workloads::null_syscall(5));
  m.boot();
  const uint64_t k1 = m.read_u64(m.task_struct(1) + task::kUserKeys);
  const uint64_t k2 = m.read_u64(m.task_struct(2) + task::kUserKeys);
  // Before boot the slots are zero; populated by early_boot.
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  const uint64_t k1b = m.read_u64(m.task_struct(1) + task::kUserKeys);
  const uint64_t k2b = m.read_u64(m.task_struct(2) + task::kUserKeys);
  EXPECT_NE(k1b, 0u);
  EXPECT_NE(k1b, k2b);
  (void)k1;
  (void)k2;
}

TEST(MachineRun, KernelStacksLayoutMatchesPaper) {
  // 16 KiB stacks (§4.2), 4 KiB aligned, tops congruent modulo 2^16 (§7).
  Machine m;
  m.add_user_program(workloads::null_syscall(1));
  m.add_user_program(workloads::null_syscall(1));
  m.boot();
  ASSERT_TRUE(m.run());
  const uint64_t t1 = m.read_u64(m.task_struct(1) + task::kKstackTop);
  const uint64_t t2 = m.read_u64(m.task_struct(2) + task::kKstackTop);
  EXPECT_EQ(t1 % 0x1000, 0u);
  EXPECT_EQ(t2 - t1, kKernelStackStride);
  EXPECT_EQ(t1 & 0xFFFF, t2 & 0xFFFF);
}

TEST(MachineRun, SavedTaskSpIsSigned) {
  // §5.2: the scheduled-out task's kernel SP is stored signed. Freeze the
  // machine mid-run and inspect a suspended task's KSP slot.
  Machine m(config_for(ProtectionConfig::full()));
  m.add_user_program(workloads::yield_loop(50));
  m.add_user_program(workloads::yield_loop(50));
  m.boot();
  m.run(200000);  // long enough for several switches, not to completion
  bool saw_signed = false;
  for (unsigned pid = 0; pid <= 2; ++pid) {
    const uint64_t ksp = m.read_u64(m.task_struct(pid) + task::kKsp);
    if (ksp == 0) continue;
    if (!m.cpu().config().layout.is_canonical(ksp)) saw_signed = true;
  }
  EXPECT_TRUE(saw_signed) << "at least one suspended task must have a "
                             "PAC-signed saved SP";
}

TEST(MachineRun, Figure4WorkloadsComplete) {
  for (int i = 0; i < 3; ++i) {
    Machine m(config_for(ProtectionConfig::full()));
    switch (i) {
      case 0: m.add_user_program(workloads::image_resize(10)); break;
      case 1: m.add_user_program(workloads::package_build(5)); break;
      default: m.add_user_program(workloads::download(5)); break;
    }
    m.boot();
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.halt_code(), kHaltDone) << "workload " << i;
  }
}

TEST(MachineRun, PacFailurePanicAfterThreshold) {
  // §5.4: repeated authentication failures halt the system. Corrupt the
  // hook pointer and keep calling it: each call faults, the kernel kills
  // the task; spawn enough attackers to cross the threshold.
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.kernel.pac_failure_threshold = 3;
  Machine m(cfg);
  for (int i = 0; i < 4; ++i) m.add_user_program(workloads::call_hook(2));
  m.boot();
  // Let the kernel initialise, then corrupt the signed hook slot.
  bool corrupted = false;
  m.cpu().add_breakpoint(m.kernel_symbol("sys_call_hook"),
                         [&](cpu::Cpu&) {
                           if (corrupted) return;
                           corrupted = true;
                           const uint64_t slot = m.kernel_symbol(kSymHookObj);
                           m.write_u64(slot, m.kernel_symbol("alt_hook"));
                         });
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltPacPanic);
  EXPECT_EQ(m.read_global(kSymPacFailCount), 3u);
  EXPECT_NE(m.console().find("PAC fail"), std::string::npos);
}

TEST(MachineRun, SinglePacFailureKillsTaskOnly) {
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.kernel.pac_failure_threshold = 100;
  Machine m(cfg);
  m.add_user_program(workloads::call_hook(3));
  m.add_user_program(workloads::null_syscall(10));  // innocent bystander
  m.boot();
  bool corrupted = false;
  m.cpu().add_breakpoint(m.kernel_symbol("sys_call_hook"), [&](cpu::Cpu&) {
    if (corrupted) return;
    corrupted = true;
    m.write_u64(m.kernel_symbol(kSymHookObj), m.kernel_symbol("alt_hook"));
  });
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone) << "system must survive";
  EXPECT_EQ(m.read_global(kSymPacFailCount), 1u);
  EXPECT_EQ(m.read_u64(m.task_struct(1) + task::kState),
            static_cast<uint64_t>(TaskState::Dead));
  EXPECT_EQ(m.read_u64(m.task_struct(2) + task::kSyscalls), 11u)
      << "other task must finish unharmed";
}

TEST(MachineRun, TrapframeProtectionIsTransparent) {
  // The §8 extension must not break normal operation in any configuration.
  for (const bool compat : {false, true}) {
    MachineConfig cfg = config_for(ProtectionConfig::full());
    cfg.kernel.protection.compat_mode = compat;
    cfg.kernel.protect_trapframe = true;
    Machine m(cfg);
    m.add_user_program(workloads::yield_loop(10));
    m.add_user_program(workloads::read_file(5, 64, FileKind::Ram));
    m.boot();
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.halt_code(), kHaltDone) << "compat=" << compat;
  }
}

TEST(MachineRun, TrapframeProtectionNopOnPre83Core) {
  // Compat + trapframe protection on a pre-8.3 core: all HINT-space, runs
  // unprotected but correct.
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.kernel.protection.compat_mode = true;
  cfg.kernel.protect_trapframe = true;
  cfg.cpu.has_pauth = false;
  Machine m(cfg);
  m.add_user_program(workloads::null_syscall(10));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
}

TEST(MachineRun, FpacCoreDetectsAtAuthSite) {
  // ARMv8.6 FPAC semantics: the AUT* itself faults, so detection happens at
  // the authentication site instead of the later dereference.
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.cpu.fpac = true;
  cfg.kernel.pac_failure_threshold = 100;
  Machine m(cfg);
  m.add_user_program(workloads::call_hook(2));
  m.add_user_program(workloads::null_syscall(5));
  m.boot();
  bool corrupted = false;
  m.cpu().add_breakpoint(m.kernel_symbol("sys_call_hook"), [&](cpu::Cpu&) {
    if (corrupted) return;
    corrupted = true;
    m.write_u64(m.kernel_symbol(kSymHookObj), m.kernel_symbol("alt_hook"));
  });
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_global(kSymPacFailCount), 1u);
  EXPECT_EQ(m.read_u64(m.task_struct(1) + task::kState),
            static_cast<uint64_t>(TaskState::Dead));
}

TEST(MachineRun, ZeroModifierConfigStillFunctional) {
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.kernel.protection.apple_zero_modifier = true;
  Machine m(cfg);
  m.add_user_program(workloads::read_file(5, 64, FileKind::Ram));
  m.add_user_program(workloads::queue_work(3));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_global(kSymWorkCounter), 3u);
}

// ---------------------------------------------------------------------------
// Syscall edge cases and error paths
// ---------------------------------------------------------------------------

namespace {

/// Build a user program from raw builder code; the callback receives the
/// function and a syscall emitter.
obj::Program custom_user(
    const std::function<void(assembler::FunctionBuilder&,
                             std::function<void(Sys)>)>& body) {
  obj::Program p;
  auto& f = p.add_function("_ustart");
  p.add_bss("ubuf", 4096, 16);
  auto sys = [&f](Sys nr) {
    f.movz(8, static_cast<uint16_t>(nr), 0);
    f.svc(0);
  };
  body(f, sys);
  f.movz(8, static_cast<uint16_t>(Sys::Exit), 0);
  f.svc(0);
  return p;
}

}  // namespace

TEST(SyscallEdge, InvalidSyscallNumberReturnsEinval) {
  Machine m;
  m.add_user_program(custom_user([](auto& f, auto sys) {
    f.movz(8, 200, 0);  // out of range
    f.svc(0);
    f.mov_sym(9, "ubuf");
    f.str(0, 9, 3008);  // result slot 0
    sys(Sys::GetPid);   // proves the kernel survived
    f.mov_sym(9, "ubuf");
    f.str(0, 9, 3016);  // result slot 1
  }));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  const uint64_t ubuf = m.user_symbol(1, "ubuf");
  EXPECT_EQ(static_cast<int64_t>(m.read_user_u64(1, ubuf + 3008)), kEInval);
  EXPECT_EQ(m.read_user_u64(1, ubuf + 3016), 1u);  // pid
}

TEST(SyscallEdge, BadFdReturnsEinval) {
  Machine m;
  m.add_user_program(custom_user([](auto& f, auto sys) {
    f.mov_imm(0, 99);  // fd out of range
    f.mov_sym(1, "ubuf");
    f.mov_imm(2, 16);
    sys(Sys::Read);
    f.mov_sym(9, "ubuf");
    f.str(0, 9, 3008);
    f.mov_imm(0, 5);  // valid index, but not open
    f.mov_sym(1, "ubuf");
    f.mov_imm(2, 16);
    sys(Sys::Write);
    f.mov_sym(9, "ubuf");
    f.str(0, 9, 3016);
  }));
  m.boot();
  ASSERT_TRUE(m.run());
  const uint64_t ubuf = m.user_symbol(1, "ubuf");
  EXPECT_EQ(static_cast<int64_t>(m.read_user_u64(1, ubuf + 3008)), kEInval);
  EXPECT_EQ(static_cast<int64_t>(m.read_user_u64(1, ubuf + 3016)), kEInval);
}

TEST(SyscallEdge, RamFileWriteReadRoundTrip) {
  // User writes a pattern into the ram file and reads it back — exercises
  // both protected-f_ops call paths and the kernel copy helpers.
  Machine m;
  m.add_user_program(custom_user([](auto& f, auto sys) {
    const auto fill = f.make_label();
    const auto check = f.make_label();
    const auto fail = f.make_label();
    const auto done = f.make_label();
    // fill ubuf[i] = i & 0xff for 96 bytes (crosses a 64-byte block + tail)
    f.mov_sym(9, "ubuf");
    f.movz(10, 0, 0);
    f.bind(fill);
    f.add(11, 9, 10);
    f.strb(10, 11, 0);
    f.add_i(10, 10, 1);
    f.cmp_i(10, 96);
    f.b_cond(isa::Cond::LO, fill);
    // open(ram); write(96); read back into ubuf+2048; compare
    f.mov_imm(0, static_cast<uint64_t>(FileKind::Ram));
    sys(Sys::Open);
    f.mov(20, 0);
    f.mov(0, 20);
    f.mov_sym(1, "ubuf");
    f.mov_imm(2, 96);
    sys(Sys::Write);
    f.mov(0, 20);
    f.mov_sym(1, "ubuf");
    f.add_i(1, 1, 2048);
    f.mov_imm(2, 96);
    sys(Sys::Read);
    f.mov(22, 0);  // bytes read
    f.mov_sym(9, "ubuf");
    f.movz(10, 0, 0);
    f.bind(check);
    f.add(11, 9, 10);
    f.ldrb(12, 11, 0);
    f.add_i(11, 11, 2048);
    f.ldrb(13, 11, 0);
    f.cmp(12, 13);
    f.b_cond(isa::Cond::NE, fail);
    f.add_i(10, 10, 1);
    f.cmp_i(10, 96);
    f.b_cond(isa::Cond::LO, check);
    f.mov_imm(23, 1);  // match
    f.b(done);
    f.bind(fail);
    f.movz(23, 0, 0);
    f.bind(done);
    f.mov_sym(9, "ubuf");
    f.str(22, 9, 3008);
    f.str(23, 9, 3016);
  }));
  m.boot();
  ASSERT_TRUE(m.run());
  const uint64_t ubuf = m.user_symbol(1, "ubuf");
  EXPECT_EQ(m.read_user_u64(1, ubuf + 3008), 96u);
  EXPECT_EQ(m.read_user_u64(1, ubuf + 3016), 1u) << "data must round-trip";
}

TEST(SyscallEdge, RegisterHookSwitchesImplementation) {
  Machine m;
  m.add_user_program(custom_user([](auto& f, auto sys) {
    sys(Sys::CallHook);  // default_hook: +1
    f.mov_imm(0, 1);
    sys(Sys::RegisterHook);  // switch to alt_hook
    sys(Sys::CallHook);      // +2
    sys(Sys::CallHook);      // +2
    f.mov_imm(0, 7);
    sys(Sys::RegisterHook);  // invalid index
    f.mov_sym(9, "ubuf");
    f.str(0, 9, 3008);
  }));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.read_global(kSymHookCounter), 5u);
  EXPECT_EQ(static_cast<int64_t>(
                m.read_user_u64(1, m.user_symbol(1, "ubuf") + 3008)),
            kEInval);
}

TEST(SyscallEdge, UserTouchingKernelMemoryIsKilled) {
  // EL0 loads of kernel addresses fault to the EL0-sync handler, which
  // SIGKILLs the offender; other tasks continue.
  Machine m;
  m.add_user_program(custom_user([](auto& f, auto) {
    f.mov_imm(9, kKernelBase);
    f.ldr(10, 9, 0);  // permission fault from EL0
    f.hlt(0x99);      // never reached (HLT is privileged anyway)
  }));
  m.add_user_program(workloads::null_syscall(5));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_u64(m.task_struct(1) + task::kState),
            static_cast<uint64_t>(TaskState::Dead));
  EXPECT_EQ(m.read_u64(m.task_struct(2) + task::kSyscalls), 6u);
  EXPECT_EQ(m.read_global(kSymPacFailCount), 0u) << "not a PAuth event";
}

TEST(SyscallEdge, OpenExhaustionReturnsEinval) {
  Machine m;
  m.add_user_program(custom_user([](auto& f, auto sys) {
    const auto loop = f.make_label();
    f.movz(19, 0, 0);
    f.movz(20, 0, 0);
    f.bind(loop);
    f.mov_imm(0, static_cast<uint64_t>(FileKind::Null));
    sys(Sys::Open);
    // count successes; stop after 20 attempts
    f.lsr_i(9, 0, 63);  // 1 if negative (error)
    f.add(20, 20, 9);
    f.add_i(19, 19, 1);
    f.cmp_i(19, 20);
    f.b_cond(isa::Cond::LO, loop);
    f.mov_sym(9, "ubuf");
    f.str(20, 9, 3008);
  }));
  m.boot();
  ASSERT_TRUE(m.run());
  // 15 slots free (fd0 console pre-opened) -> 5 of 20 attempts fail.
  EXPECT_EQ(m.read_user_u64(1, m.user_symbol(1, "ubuf") + 3008), 5u);
}

TEST(SyscallEdge, GetJiffiesReflectsTimerTicks) {
  MachineConfig cfg;
  cfg.kernel.preempt = true;
  cfg.preempt_timeslice = 3000;
  Machine m(cfg);
  m.add_user_program(custom_user([](auto& f, auto sys) {
    const auto spin = f.make_label();
    f.mov_imm(19, 20000);
    f.bind(spin);
    f.sub_i(19, 19, 1);
    f.cbnz(19, spin);
    sys(Sys::GetJiffies);
    f.mov_sym(9, "ubuf");
    f.str(0, 9, 3008);
  }));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_GT(m.read_user_u64(1, m.user_symbol(1, "ubuf") + 3008), 0u);
}

// ---------------------------------------------------------------------------
// §8 ISA extension: EL2-managed banked kernel keys
// ---------------------------------------------------------------------------

TEST(BankedKeys, WorkloadsRunWithoutKeySwitching) {
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.cpu.banked_keys = true;
  Machine m(cfg);
  m.add_user_program(workloads::read_file(5, 64, FileKind::Ram));
  m.add_user_program(workloads::yield_loop(10));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_global(kSymPacFailCount), 0u);
}

TEST(BankedKeys, EachCoreBankProvisionedOnceAtItsEntry) {
  // Boot fills every core's bank exactly once, core by core, each while the
  // core sits at its entry point: early_boot on core 0, secondary_idle on
  // the others.
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.cpu.banked_keys = true;
  cfg.cores = 2;
  cfg.obs.enabled = true;
  Machine m(cfg);
  m.add_user_program(workloads::null_syscall(1));
  m.boot();
  std::vector<obs::Event> installs;
  for (const obs::Event& e : m.stats()->events().snapshot())
    if (e.kind == obs::EventKind::KeyWrite && e.bank) installs.push_back(e);
  ASSERT_EQ(installs.size(), 10u);
  const qarma::Key128 keys[] = {m.kernel().keys.ia, m.kernel().keys.ib,
                                m.kernel().keys.da, m.kernel().keys.db,
                                m.kernel().keys.ga};
  for (unsigned i = 0; i < 10; ++i) {
    const unsigned c = i / 5, k = i % 5;
    EXPECT_EQ(installs[i].cpu, c);
    EXPECT_EQ(installs[i].key, k);
    EXPECT_EQ(installs[i].pc, m.kernel_symbol(c == 0 ? "early_boot"
                                                     : kSymSecondaryIdle));
    EXPECT_EQ(m.core(c).kernel_bank_key(static_cast<cpu::PacKey>(k)), keys[k]);
  }
}

TEST(BankedKeys, NullSyscallCheaperThanXomSwitching) {
  // The extension's point: the per-transition key switch disappears.
  auto cycles_for = [](bool banked) {
    MachineConfig cfg = config_for(ProtectionConfig::full());
    cfg.cpu.banked_keys = banked;
    Machine m(cfg);
    m.add_user_program(workloads::null_syscall(200));
    m.boot();
    m.run();
    EXPECT_EQ(m.halt_code(), kHaltDone);
    return m.cpu().cycles();
  };
  const uint64_t xom = cycles_for(false);
  const uint64_t banked = cycles_for(true);
  EXPECT_LT(banked, xom);
  // Per syscall the saving must be at least the 3-key MSR switch (27 cyc).
  EXPECT_GT((xom - banked) / 201, 27u);
}

TEST(BankedKeys, KernelKeysInvisibleToKeyRegisterReads) {
  // Even an MRS of the key registers at EL1 (which §4.1's verifier forbids,
  // but suppose a gadget survived) only sees *user* keys under banking.
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.cpu.banked_keys = true;
  Machine m(cfg);
  m.add_user_program(workloads::null_syscall(3));
  m.boot();
  m.run();
  const auto& kk = m.kernel().keys;
  for (int reg = 0; reg < 10; ++reg) {
    const uint64_t v = m.cpu().sysreg(static_cast<isa::SysReg>(reg));
    EXPECT_NE(v, kk.ib.k0);
    EXPECT_NE(v, kk.ib.w0);
    EXPECT_NE(v, kk.db.k0);
  }
}

TEST(BankedKeys, RopStillDetected) {
  // Protection strength is unchanged; only key logistics differ.
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.cpu.banked_keys = true;
  Machine m(cfg);
  m.add_user_program(workloads::stat_file(5));
  m.boot();
  const uint64_t gadget = m.kernel_symbol(kSymGadget);
  bool injected = false;
  m.cpu().add_breakpoint(m.kernel_symbol("get_file"), [&](cpu::Cpu& c) {
    if (injected) return;
    injected = true;
    m.write_u64(c.x(isa::kRegFp) + 8, gadget);
  });
  ASSERT_TRUE(m.run());
  EXPECT_GE(m.read_global(kSymPacFailCount), 1u);
  EXPECT_EQ(m.read_global(kSymPwnedFlag), 0u);
}

TEST(BankedKeys, El1SigningIndependentOfKeyRegisters) {
  // Kernel-signed pointers authenticate even after user keys change in the
  // registers — the bank is authoritative at EL1.
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.cpu.banked_keys = true;
  Machine m(cfg);
  m.add_user_program(workloads::yield_loop(20));
  m.add_user_program(workloads::yield_loop(20));  // switches rewrite AP regs
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kHaltDone);
}

TEST(MachineStress, SixteenMixedTasksUnderPreemption) {
  // System test: a full mix of workloads, preemptive scheduling, module
  // loading, hooks and the work queue, all at once under full protection.
  MachineConfig cfg = config_for(ProtectionConfig::full());
  cfg.kernel.preempt = true;
  cfg.kernel.protect_trapframe = true;
  cfg.preempt_timeslice = 7000;
  Machine m(cfg);
  obj::Program mod;
  mod.add_function("stress_init").ret();
  const int mod_id = m.register_module("stress", std::move(mod));
  for (int i = 0; i < 3; ++i) {
    m.add_user_program(workloads::yield_loop(20));
    m.add_user_program(workloads::read_file(10, 64, FileKind::Ram));
    m.add_user_program(workloads::queue_work(5));
    m.add_user_program(workloads::image_resize(5));
  }
  m.add_user_program(workloads::call_hook(10));
  m.add_user_program(workloads::open_close(10));
  m.add_user_program(workloads::stat_file(10));
  m.add_user_program(workloads::load_module(static_cast<uint64_t>(mod_id)));
  m.boot();
  ASSERT_TRUE(m.run(400'000'000));
  EXPECT_EQ(m.halt_code(), kHaltDone);
  EXPECT_EQ(m.read_global(kSymPacFailCount), 0u);
  EXPECT_EQ(m.read_global(kSymWorkCounter), 15u);
  EXPECT_EQ(m.read_global(kSymHookCounter), 10u);
  EXPECT_EQ(m.console().back(), 'Y');
  for (unsigned pid = 1; pid <= 16; ++pid)
    EXPECT_EQ(m.read_u64(m.task_struct(pid) + task::kState),
              static_cast<uint64_t>(TaskState::Dead))
        << "pid " << pid;
}

TEST(MachineDeterminism, IdenticalRunsIdenticalCyclesAndConsole) {
  // The EXPERIMENTS.md reproducibility claim: same seed, same config =>
  // bit-identical behaviour.
  auto run_once = [] {
    MachineConfig cfg = config_for(ProtectionConfig::full());
    cfg.seed = 777;
    Machine m(cfg);
    m.add_user_program(workloads::package_build(3));
    m.add_user_program(workloads::write_file(2, 8, FileKind::Console));
    m.boot();
    m.run();
    return std::make_tuple(m.cpu().cycles(), m.cpu().retired(), m.console());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MachineDeterminism, SeedChangesKeysNotBehaviour) {
  auto cycles_for = [](uint64_t seed) {
    MachineConfig cfg = config_for(ProtectionConfig::full());
    cfg.seed = seed;
    Machine m(cfg);
    m.add_user_program(workloads::null_syscall(50));
    m.boot();
    m.run();
    EXPECT_EQ(m.halt_code(), kHaltDone);
    return m.cpu().cycles();
  };
  // Different keys, same instruction stream shape => same cycle count.
  EXPECT_EQ(cycles_for(1), cycles_for(999));
}

TEST(MachineBoot, AddProgramAfterBootThrows) {
  Machine m;
  m.boot();
  EXPECT_THROW(m.add_user_program(workloads::null_syscall(1)), camo::Error);
}

}  // namespace
}  // namespace camo::kernel
