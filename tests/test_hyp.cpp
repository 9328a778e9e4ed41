// Hypervisor tests: physical allocation, image loading with stage-2 locks,
// HVC services (console, address-space switch, module loading with §4.1
// verification), MSR lockdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "compiler/instrument.h"
#include "hyp/hypervisor.h"
#include "obj/object.h"
#include "obs/collector.h"

namespace camo::hyp {
namespace {

using assembler::FunctionBuilder;
using isa::SysReg;
using mem::El;

constexpr uint64_t kKernBase = 0xFFFF000000080000ull;
constexpr uint64_t kVbarBase = 0xFFFF000000060000ull;
constexpr uint64_t kStackTop = 0xFFFF000000200000ull;

class HypTest : public ::testing::Test {
 protected:
  HypTest() : mmu(pm, {}), hv(pm), core(mmu, {}) {
    hv.install(core);
    core.set_sysreg(SysReg::SCTLR_EL1, isa::kSctlrEnIA | isa::kSctlrEnIB |
                                           isa::kSctlrEnDA | isa::kSctlrEnDB);
    for (int i = 0; i < 10; ++i)
      core.set_sysreg(static_cast<SysReg>(i),
                      0xABCD0123ull * static_cast<uint64_t>(i + 3));

    // Minimal sync-EL1 vector: halt(0xE1).
    obj::Program vec;
    vec.add_function("vec_sync").hlt(0xE1);
    hv.load_image(obj::Linker::link(vec, kVbarBase), hv.kernel_map(), false);
    core.set_sysreg(SysReg::VBAR_EL1, kVbarBase);

    hv.map_kernel_rw(kStackTop - 0x10000, 0x10000);
    core.set_sp_el(El::El1, kStackTop);
  }

  /// Link `prog` as the kernel image at kKernBase, load it, export symbols.
  obj::Image load_kernel(obj::Program& prog) {
    obj::Image img = obj::Linker::link(prog, kKernBase);
    hv.load_image(img, hv.kernel_map(), false);
    hv.set_kernel_exports(img.symbols);
    return img;
  }

  void run_from(uint64_t va, uint64_t max_steps = 100000) {
    core.pc = va;
    core.run(max_steps);
  }

  mem::PhysicalMemory pm{8 << 20};
  mem::Mmu mmu;
  Hypervisor hv;
  cpu::Cpu core;
};

TEST_F(HypTest, AllocPagesMonotonic) {
  const uint64_t a = hv.alloc_pages(2);
  const uint64_t b = hv.alloc_pages(1);
  EXPECT_EQ(b, a + 2 * 4096);
  EXPECT_EQ(a % 4096, 0u);
}

TEST_F(HypTest, LoadImageAppliesSectionPermissions) {
  obj::Program p;
  auto& f = p.add_function("f");
  f.nop();
  f.ret();
  p.add_rodata_u64("ro", {1});
  p.add_data_u64("rw", {2});
  const auto img = load_kernel(p);

  EXPECT_TRUE(mmu.translate(img.symbol("f"), mem::Access::Fetch, El::El1).ok());
  EXPECT_FALSE(mmu.translate(img.symbol("f"), mem::Access::Write, El::El1).ok());
  EXPECT_TRUE(mmu.translate(img.symbol("ro"), mem::Access::Read, El::El1).ok());
  EXPECT_FALSE(mmu.translate(img.symbol("ro"), mem::Access::Write, El::El1).ok());
  EXPECT_TRUE(mmu.translate(img.symbol("rw"), mem::Access::Write, El::El1).ok());
}

TEST_F(HypTest, KernelTextStage2WriteLocked) {
  // Even if stage-1 were corrupted to RW, stage 2 refuses writes to text and
  // rodata (the threat-model "write-protected memory" guarantee).
  obj::Program p;
  p.add_function("f").ret();
  p.add_rodata_u64("ops", {0xAA});
  const auto img = load_kernel(p);
  const auto text_pa =
      mmu.translate(img.symbol("f"), mem::Access::Fetch, El::El1);
  ASSERT_TRUE(text_pa.ok());
  EXPECT_FALSE(hv.stage2().lookup(text_pa.pa).write);
  const auto ro_pa =
      mmu.translate(img.symbol("ops"), mem::Access::Read, El::El1);
  ASSERT_TRUE(ro_pa.ok());
  EXPECT_FALSE(hv.stage2().lookup(ro_pa.pa).write);
  EXPECT_TRUE(hv.stage2().lookup(ro_pa.pa).read);
}

TEST_F(HypTest, XomFetchableNotReadable) {
  obj::Program p;
  auto& f = p.add_function("setter");
  f.movz(9, 0xBEEF, 0);
  f.ret();
  const auto img = load_kernel(p);
  hv.protect_xom(img.symbol("setter"), 4096);

  EXPECT_TRUE(
      mmu.translate(img.symbol("setter"), mem::Access::Fetch, El::El1).ok());
  EXPECT_EQ(mmu.translate(img.symbol("setter"), mem::Access::Read, El::El1)
                .fault,
            mem::FaultKind::Stage2);
}

TEST_F(HypTest, ConsolePutcAndWrite) {
  obj::Program p;
  auto& f = p.add_function("_start");
  f.mov_imm(0, 'h');
  f.hvc(static_cast<uint16_t>(HvcCall::ConsolePutc));
  f.mov_imm(0, 'i');
  f.hvc(static_cast<uint16_t>(HvcCall::ConsolePutc));
  f.mov_sym(0, "msg");
  f.mov_imm(1, 6);
  f.hvc(static_cast<uint16_t>(HvcCall::ConsoleWrite));
  f.hlt(0);
  p.add_rodata("msg", {' ', 'w', 'o', 'r', 'l', 'd'});
  const auto img = load_kernel(p);
  run_from(img.symbol("_start"));
  EXPECT_EQ(hv.console(), "hi world");
}

TEST_F(HypTest, GuestHvcSwitchesUserSpace) {
  // Two cores wired the one way; each HVC switch moves only the caller's
  // user half.
  mem::Mmu mmu1(pm, {});
  cpu::Cpu core1(mmu1, {});
  core1.set_cpu_id(1);
  hv.install(core1);
  core1.set_sysreg(SysReg::VBAR_EL1, kVbarBase);
  core1.set_sp_el(El::El1, kStackTop);

  const int a = hv.create_user_space();
  const int b = hv.create_user_space();
  hv.map_user_rw(a, 0x400000, 0x1000);
  hv.map_user_rw(b, 0x400000, 0x1000);
  obj::Program p;
  for (const int id : {a, b}) {
    auto& f = p.add_function("switch_to_" + std::to_string(id));
    f.mov_imm(0, static_cast<uint16_t>(id));
    f.hvc(static_cast<uint16_t>(HvcCall::SwitchUserSpace));
    f.hlt(0);
  }
  const auto img = load_kernel(p);
  const auto user_pa = [](mem::Mmu& m) {
    const auto t = m.translate(0x400000, mem::Access::Read, El::El0);
    return t.ok() ? t.pa : ~uint64_t{0};
  };
  const auto space_pa = [&](int id) {
    return hv.user_space(id).lookup(0x400000)->pa_page
           << mem::VaLayout::kPageShift;
  };
  const uint64_t pa_a = space_pa(a);
  const uint64_t pa_b = space_pa(b);
  ASSERT_NE(pa_a, pa_b);

  run_from(img.symbol("switch_to_" + std::to_string(a)));
  EXPECT_EQ(user_pa(mmu), pa_a) << "core 0 must translate through space a";
  EXPECT_EQ(user_pa(mmu1), ~uint64_t{0}) << "core 1 has no user half yet";

  core1.pc = img.symbol("switch_to_" + std::to_string(b));
  core1.run(100000);
  EXPECT_EQ(user_pa(mmu1), pa_b) << "core 1 must translate through space b";
  EXPECT_EQ(user_pa(mmu), pa_a) << "core 1's switch moved core 0";
}

TEST_F(HypTest, TtbrWritesAlwaysDenied) {
  obj::Program p;
  auto& f = p.add_function("_start");
  f.mov_imm(0, 0xDEAD);
  f.msr(SysReg::TTBR0_EL1, 0);
  f.hlt(0);
  const auto img = load_kernel(p);
  run_from(img.symbol("_start"));
  EXPECT_EQ(core.halt_code(), 0xE1u);  // undefined exception vectored
  EXPECT_EQ(hv.denied_msr_count(), 1u);
}

TEST_F(HypTest, DeniedMsrReportedAtItsOwnPc) {
  obs::Collector col;
  core.set_collector(&col);
  hv.set_collector(&col);
  obj::Program p;
  auto& f = p.add_function("_start");
  f.mov_imm(0, 0xDEAD);
  f.msr(SysReg::TTBR0_EL1, 0);
  f.hlt(0);
  const auto img = load_kernel(p);
  run_from(img.symbol("_start"));
  ASSERT_EQ(core.halt_code(), 0xE1u);
  // The denial, its audit record and the Undefined exception it raises all
  // name the MSR itself (the exception's preferred return address).
  std::vector<obs::Event> trace;
  for (const obs::Event& e : col.events().snapshot())
    obs::for_each_trace_record(e, [&trace](const obs::Event& t) {
      trace.push_back(t);
    });
  const auto denied =
      std::find_if(trace.begin(), trace.end(), [](const obs::Event& e) {
        return e.kind == obs::EventKind::MsrDenied;
      });
  ASSERT_NE(denied, trace.end());
  ASSERT_NE(denied + 1, trace.end());
  EXPECT_EQ(denied[1].kind, obs::EventKind::ExcEnter);
  EXPECT_EQ(denied->pc, denied[1].pc);
  const auto audit = col.audit_events();
  const auto hyp =
      std::find_if(audit.begin(), audit.end(), [](const obs::AuditEvent& e) {
        return e.kind == obs::EventKind::MsrDenied;
      });
  ASSERT_NE(hyp, audit.end());
  ASSERT_NE(hyp + 1, audit.end());
  EXPECT_EQ(hyp[1].kind, obs::EventKind::ExcEnter);
  EXPECT_EQ(hyp->pc, denied->pc);
  EXPECT_EQ(hyp[1].pc, denied->pc);
  EXPECT_EQ(core.sysreg(SysReg::ELR_EL1), denied->pc);
}

TEST_F(HypTest, SctlrLockdownAfterBoot) {
  obj::Program p;
  auto& f = p.add_function("_start");
  f.mov_imm(0, 0x1234);
  f.msr(SysReg::SCTLR_EL1, 0);  // allowed during boot
  f.hvc(static_cast<uint16_t>(HvcCall::Lockdown));
  f.msr(SysReg::SCTLR_EL1, 0);  // now denied
  f.hlt(0);
  const auto img = load_kernel(p);
  run_from(img.symbol("_start"));
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_TRUE(hv.locked_down());
  EXPECT_EQ(core.sysreg(SysReg::SCTLR_EL1), 0x1234u);  // first write stuck
}

// ---------------------------------------------------------------------------
// Module loading (§4.1 verification + §4.6 pauth table hand-off)
// ---------------------------------------------------------------------------

obj::Program make_good_module() {
  obj::Program m;
  auto& init = m.add_function("mymod_init");
  init.frame_push();
  init.mov_imm(20, 0x77);
  init.bl_sym("kernel_helper");  // cross-image call into the kernel
  init.frame_pop_ret();
  m.add_data_u64("mod_work", {0, 0});
  m.add_abs64("mod_work", 8, "mymod_init");
  m.declare_signed_ptr("mod_work", 8, 0x2222, cpu::PacKey::IB);
  compiler::instrument(m, compiler::ProtectionConfig::full());
  return m;
}

obj::Program make_evil_module() {
  obj::Program m;
  auto& init = m.add_function("evil_init");
  init.mrs(0, SysReg::APIBKeyLo);  // key exfiltration attempt
  init.ret();
  compiler::instrument(m, compiler::ProtectionConfig::full());
  return m;
}

TEST_F(HypTest, GoodModuleLoadsAndRuns) {
  obj::Program k;
  auto& helper = k.add_function("kernel_helper");
  helper.mov_imm(21, 0x88);
  helper.ret();
  auto& start = k.add_function("_start");
  start.mov_imm(0, 0);  // module id
  start.hvc(static_cast<uint16_t>(HvcCall::LoadModule));
  start.mov(9, 0);
  start.mov(19, 1);  // pauth table va
  start.mov(22, 2);  // entry count
  start.blr(9);
  start.hlt(0);
  const auto img = load_kernel(k);

  const int id = hv.register_module("mymod", make_good_module());
  ASSERT_EQ(id, 0);
  run_from(img.symbol("_start"));
  EXPECT_EQ(core.halt_code(), 0u);
  EXPECT_EQ(core.x(20), 0x77u) << "module init must have run";
  EXPECT_EQ(core.x(21), 0x88u) << "module must call kernel export";
  EXPECT_NE(core.x(19), 0u) << "pauth table address returned";
  EXPECT_EQ(core.x(22), 1u) << "one signed-pointer entry";
  ASSERT_EQ(hv.loaded_modules().size(), 1u);
  EXPECT_TRUE(hv.last_module_verify()->ok());
}

TEST_F(HypTest, EvilModuleRejected) {
  obj::Program k;
  auto& start = k.add_function("_start");
  start.mov_imm(0, 0);
  start.hvc(static_cast<uint16_t>(HvcCall::LoadModule));
  start.hlt(0);
  const auto img = load_kernel(k);

  hv.register_module("evil", make_evil_module());
  run_from(img.symbol("_start"));
  EXPECT_EQ(core.x(0), 0u) << "load must fail";
  EXPECT_TRUE(hv.loaded_modules().empty());
  ASSERT_TRUE(hv.last_module_verify().has_value());
  EXPECT_FALSE(hv.last_module_verify()->ok());
  EXPECT_EQ(hv.last_module_verify()->violations[0].kind,
            analysis::ViolationKind::KeyRegisterRead);
}

TEST_F(HypTest, UnknownModuleIdFails) {
  obj::Program k;
  auto& start = k.add_function("_start");
  start.mov_imm(0, 99);
  start.hvc(static_cast<uint16_t>(HvcCall::LoadModule));
  start.hlt(0);
  const auto img = load_kernel(k);
  run_from(img.symbol("_start"));
  EXPECT_EQ(core.x(0), 0u);
}

TEST_F(HypTest, ModulesLoadAtDistinctBases) {
  obj::Program k;
  auto& start = k.add_function("_start");
  start.mov_imm(0, 0);
  start.hvc(static_cast<uint16_t>(HvcCall::LoadModule));
  start.mov(20, 0);
  start.mov_imm(0, 1);
  start.hvc(static_cast<uint16_t>(HvcCall::LoadModule));
  start.hlt(0);
  const auto img = load_kernel(k);

  auto make_mod = [](const std::string& n) {
    obj::Program m;
    m.add_function(n + "_init").ret();
    return m;
  };
  hv.register_module("m1", make_mod("m1"));
  hv.register_module("m2", make_mod("m2"));
  run_from(img.symbol("_start"));
  EXPECT_NE(core.x(20), 0u);
  EXPECT_NE(core.x(0), 0u);
  EXPECT_NE(core.x(20), core.x(0));
}

}  // namespace
}  // namespace camo::hyp
