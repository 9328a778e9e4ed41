// CPU core tests: instruction semantics, exception model, PAuth behaviour,
// cycle model. Programs are written via the FunctionBuilder, assembled into
// guest memory and executed on the simulated core.
#include <gtest/gtest.h>

#include "assembler/builder.h"
#include "cpu/cpu.h"
#include "mem/mmu.h"

namespace camo {
namespace {

using assembler::FunctionBuilder;
using cpu::Cpu;
using cpu::ExcClass;
using cpu::PacKey;
using isa::Cond;
using isa::SysReg;
using mem::El;

constexpr uint64_t kText = 0xFFFF000000080000ull;
constexpr uint64_t kData = 0xFFFF000000100000ull;
constexpr uint64_t kStackTop = 0xFFFF000000140000ull;
constexpr uint64_t kVbar = 0xFFFF000000060000ull;

class CpuTest : public ::testing::Test {
 protected:
  explicit CpuTest(Cpu::Config cfg = {}) : mmu(pm, cfg.layout), core(mmu, cfg) {
    kmap.map_range(kText, 0x10000, 0x10000, mem::PagePerms::kernel_text());
    kmap.map_range(kData, 0x30000, 0x10000, mem::PagePerms::kernel_rw());
    kmap.map_range(kStackTop - 0x10000, 0x40000, 0x10000,
                   mem::PagePerms::kernel_rw());
    kmap.map_range(kVbar, 0x60000, 0x2000, mem::PagePerms::kernel_text());
    mmu.set_kernel_map(&kmap);

    // Enable every PAuth key and install distinct key material.
    core.set_sysreg(SysReg::SCTLR_EL1, isa::kSctlrEnIA | isa::kSctlrEnIB |
                                           isa::kSctlrEnDA | isa::kSctlrEnDB);
    for (int i = 0; i < 10; ++i)
      core.set_sysreg(static_cast<SysReg>(i),
                      0x1111111111111111ull * static_cast<uint64_t>(i + 1));
    core.set_sysreg(SysReg::VBAR_EL1, kVbar);
    core.set_sp_el(El::El1, kStackTop);

    // Default vectors: halt with a code identifying the vector taken.
    install_vector(Cpu::kVecSyncEl1, 0xE1);
    install_vector(Cpu::kVecIrqEl1, 0xE2);
    install_vector(Cpu::kVecSyncEl0, 0xE3);
    install_vector(Cpu::kVecIrqEl0, 0xE4);
  }

  void install_vector(uint64_t offset, uint16_t halt_code) {
    FunctionBuilder f("vec");
    f.hlt(halt_code);
    write_words(kVbar + offset, f.assemble().words);
  }

  void write_words(uint64_t va, const std::vector<uint32_t>& words) {
    for (size_t i = 0; i < words.size(); ++i) {
      const auto t = mmu.translate(va + i * 4, mem::Access::Fetch, El::El2);
      ASSERT_TRUE(t.ok());
      pm.write32(t.pa, words[i]);
    }
  }

  /// Assemble `f` at kText and run until halt (or step limit).
  void run(FunctionBuilder& f, uint64_t max_steps = 100000) {
    write_words(kText, f.assemble().words);
    core.pc = kText;
    core.run(max_steps);
  }

  mem::PhysicalMemory pm{1 << 20};
  mem::Stage1Map kmap;
  mem::Mmu mmu;
  Cpu core;
};

TEST_F(CpuTest, MovAndArithmetic) {
  FunctionBuilder f("t");
  f.mov_imm(0, 41);
  f.mov_imm(1, 1);
  f.add(2, 0, 1);
  f.mov_imm(3, 7);
  f.mul(4, 2, 3);       // 294
  f.udiv(5, 4, 3);      // 42
  f.sub_i(6, 5, 2);     // 40
  f.mov_imm(9, 0xFFFF);
  f.movk(9, 0xABCD, 3);  // 0xabcd00000000ffff
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.halt_code(), 1u);
  EXPECT_EQ(core.x(2), 42u);
  EXPECT_EQ(core.x(4), 294u);
  EXPECT_EQ(core.x(5), 42u);
  EXPECT_EQ(core.x(6), 40u);
  EXPECT_EQ(core.x(9), 0xABCD00000000FFFFull);
}

TEST_F(CpuTest, MovImmWideValues) {
  FunctionBuilder f("t");
  f.mov_imm(0, 0xFFFF000000080000ull);
  f.mov_imm(1, 0);
  f.mov_imm(2, 0x123456789ABCDEF0ull);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(0), 0xFFFF000000080000ull);
  EXPECT_EQ(core.x(1), 0u);
  EXPECT_EQ(core.x(2), 0x123456789ABCDEF0ull);
}

TEST_F(CpuTest, LogicalAndShifts) {
  FunctionBuilder f("t");
  f.mov_imm(0, 0xFF00FF00);
  f.mov_imm(1, 0x0FF00FF0);
  f.and_(2, 0, 1);
  f.orr(3, 0, 1);
  f.eor(4, 0, 1);
  f.lsl_i(5, 0, 8);
  f.lsr_i(6, 0, 8);
  f.mov_imm(7, 4);
  f.lslv(8, 1, 7);
  f.mov_imm(9, 0x8000000000000000ull);
  f.asr_i(10, 9, 63);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(2), 0xFF00FF00u & 0x0FF00FF0u);
  EXPECT_EQ(core.x(3), 0xFF00FF00u | 0x0FF00FF0u);
  EXPECT_EQ(core.x(4), 0xFF00FF00u ^ 0x0FF00FF0u);
  EXPECT_EQ(core.x(5), 0xFF00FF0000ull);
  EXPECT_EQ(core.x(6), 0xFF00FFu);
  EXPECT_EQ(core.x(8), 0x0FF00FF00ull);
  EXPECT_EQ(core.x(10), ~uint64_t{0});
}

TEST_F(CpuTest, BitfieldOps) {
  FunctionBuilder f("t");
  // The Listing 3 modifier construction: low 32 bits of SP into the high 32
  // bits of the function address.
  f.mov_imm(0, 0x00000000DEAD0000ull);  // "function address"
  f.mov_imm(1, 0x12345678ull);          // "SP"
  f.bfi(0, 1, 32, 32);
  f.mov_imm(2, 0xABCDull);
  f.ubfx(3, 0, 32, 32);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(0), 0x12345678DEAD0000ull);
  EXPECT_EQ(core.x(3), 0x12345678u);
}

TEST_F(CpuTest, CompareAndBranch) {
  FunctionBuilder f("t");
  const auto less = f.make_label();
  const auto end = f.make_label();
  f.mov_imm(0, 5);
  f.cmp_i(0, 10);
  f.b_cond(Cond::LT, less);
  f.mov_imm(1, 111);
  f.b(end);
  f.bind(less);
  f.mov_imm(1, 222);
  f.bind(end);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(1), 222u);
}

TEST_F(CpuTest, SignedConditionsOnNegatives) {
  FunctionBuilder f("t");
  const auto ge = f.make_label();
  f.mov_imm(0, 0);
  f.sub_i(0, 0, 1);  // -1
  f.cmp_i(0, 0);
  f.b_cond(Cond::GE, ge);
  f.mov_imm(1, 1);  // taken: -1 < 0
  f.hlt(1);
  f.bind(ge);
  f.mov_imm(1, 2);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(1), 1u);
}

TEST_F(CpuTest, LoopCountsDown) {
  FunctionBuilder f("t");
  const auto loop = f.make_label();
  f.mov_imm(0, 10);
  f.mov_imm(1, 0);
  f.bind(loop);
  f.add_i(1, 1, 3);
  f.sub_i(0, 0, 1);
  f.cbnz(0, loop);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(1), 30u);
}

TEST_F(CpuTest, LoadStoreAndPairs) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData);
  f.mov_imm(1, 0xAABB);
  f.mov_imm(2, 0xCCDD);
  f.str(1, 0, 0);
  f.str(2, 0, 8);
  f.ldr(3, 0, 0);
  f.ldp(4, 5, 0, 0);
  f.stp(2, 1, 0, 16);
  f.ldr(6, 0, 16);
  f.ldr(7, 0, 24);
  f.strb(1, 0, 32);
  f.ldrb(8, 0, 32);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(3), 0xAABBu);
  EXPECT_EQ(core.x(4), 0xAABBu);
  EXPECT_EQ(core.x(5), 0xCCDDu);
  EXPECT_EQ(core.x(6), 0xCCDDu);
  EXPECT_EQ(core.x(7), 0xAABBu);
  EXPECT_EQ(core.x(8), 0xBBu);
}

TEST_F(CpuTest, FrameRecordPushPop) {
  // The canonical Listing 1 prologue/epilogue against the banked SP.
  FunctionBuilder f("t");
  f.mov_imm(29, 0x1111);
  f.mov_imm(30, 0x2222);
  f.stp_pre(29, 30, 31, -16);
  f.mov_imm(29, 0);
  f.mov_imm(30, 0);
  f.ldp_post(29, 30, 31, 16);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(29), 0x1111u);
  EXPECT_EQ(core.x(30), 0x2222u);
  EXPECT_EQ(core.sp_el(El::El1), kStackTop);
}

TEST_F(CpuTest, BlAndRet) {
  FunctionBuilder f("t");
  const auto fn = f.make_label();
  f.bl(fn);
  f.hlt(1);
  f.bind(fn);
  f.mov_imm(0, 77);
  f.ret();
  run(f);
  EXPECT_EQ(core.halt_code(), 1u);
  EXPECT_EQ(core.x(0), 77u);
}

TEST_F(CpuTest, AdrResolvesPcRelative) {
  FunctionBuilder f("t");
  f.adr(0, f.entry_label());
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(0), kText);
}

// ---------------------------------------------------------------------------
// Exceptions
// ---------------------------------------------------------------------------

TEST_F(CpuTest, SvcVectorsToSyncHandler) {
  FunctionBuilder f("t");
  f.svc(42);
  f.hlt(9);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);  // sync from EL1
  const uint64_t esr = core.sysreg(SysReg::ESR_EL1);
  EXPECT_EQ(Cpu::esr_class(esr), ExcClass::Svc);
  EXPECT_EQ(Cpu::esr_iss(esr), 42u);
  // Preferred return is the instruction after SVC.
  EXPECT_EQ(core.sysreg(SysReg::ELR_EL1), kText + 4);
}

TEST_F(CpuTest, EretReturnsAfterSvc) {
  // Replace the sync vector with an ERET trampoline.
  FunctionBuilder v("vec");
  v.eret();
  write_words(kVbar + Cpu::kVecSyncEl1, v.assemble().words);

  FunctionBuilder f("t");
  f.mov_imm(0, 1);
  f.svc(0);
  f.add_i(0, 0, 1);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.halt_code(), 1u);
  EXPECT_EQ(core.x(0), 2u);
}

TEST_F(CpuTest, DataAbortReportsFaultAddress) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x80000);  // unmapped
  f.ldr(1, 0, 0);
  f.hlt(9);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_class(core.sysreg(SysReg::ESR_EL1)), ExcClass::DataAbort);
  EXPECT_EQ(core.sysreg(SysReg::FAR_EL1), kData + 0x80000);
  EXPECT_EQ(Cpu::esr_fault(core.sysreg(SysReg::ESR_EL1)),
            mem::FaultKind::Translation);
}

TEST_F(CpuTest, StoreToTextFaults) {
  FunctionBuilder f("t");
  f.mov_imm(0, kText);
  f.str(0, 0, 0);
  f.hlt(9);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_fault(core.sysreg(SysReg::ESR_EL1)),
            mem::FaultKind::Permission);
}

TEST_F(CpuTest, BrkVectors) {
  FunctionBuilder f("t");
  f.brk(7);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_class(core.sysreg(SysReg::ESR_EL1)), ExcClass::Brk);
  EXPECT_EQ(core.sysreg(SysReg::ELR_EL1), kText);  // points at the BRK
}

TEST_F(CpuTest, UndefinedInstructionVectors) {
  write_words(kText, {0xFF000000u});  // invalid opcode
  core.pc = kText;
  core.run(100);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_class(core.sysreg(SysReg::ESR_EL1)),
            ExcClass::Undefined);
}

TEST_F(CpuTest, TimerIrqDeliveredWhenUnmasked) {
  FunctionBuilder f("t");
  const auto loop = f.make_label();
  f.daifclr();
  f.bind(loop);
  f.b(loop);
  write_words(kText, f.assemble().words);
  core.pc = kText;
  core.set_timer(50);
  core.run(10000);
  EXPECT_EQ(core.halt_code(), 0xE2u);  // IRQ vector from EL1
}

TEST_F(CpuTest, MaskedIrqStaysPending) {
  FunctionBuilder f("t");
  const auto loop = f.make_label();
  f.mov_imm(0, 40);
  f.bind(loop);
  f.sub_i(0, 0, 1);
  f.cbnz(0, loop);
  f.daifclr();  // unmask: pending IRQ must fire here
  f.hlt(9);
  write_words(kText, f.assemble().words);
  core.pc = kText;
  core.pstate.irq_masked = true;
  core.set_timer(10);
  core.run(10000);
  EXPECT_EQ(core.halt_code(), 0xE2u);
}

TEST_F(CpuTest, MsrFilterDeniesLockedRegister) {
  core.set_msr_filter([](Cpu&, SysReg r, uint64_t) {
    return r != SysReg::TTBR1_EL1;  // lock TTBR1 (threat model §3.1)
  });
  FunctionBuilder f("t");
  f.mov_imm(0, 0xDEAD);
  f.msr(SysReg::TTBR1_EL1, 0);
  f.hlt(9);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_class(core.sysreg(SysReg::ESR_EL1)),
            ExcClass::Undefined);
  EXPECT_EQ(core.sysreg(SysReg::TTBR1_EL1), 0u);
}

TEST_F(CpuTest, CntvctReadsCycles) {
  FunctionBuilder f("t");
  f.mrs(0, SysReg::CNTVCT_EL0);
  f.nop();
  f.nop();
  f.mrs(1, SysReg::CNTVCT_EL0);
  f.hlt(1);
  run(f);
  EXPECT_GT(core.x(1), core.x(0));
}

// ---------------------------------------------------------------------------
// PAuth
// ---------------------------------------------------------------------------

TEST_F(CpuTest, PacSignAuthRoundTrip) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x1234);  // modifier
  f.mov(2, 0);
  f.pacda(2, 1);   // sign
  f.mov(3, 2);
  f.autda(3, 1);   // authenticate
  f.hlt(1);
  run(f);
  EXPECT_NE(core.x(2), core.x(0)) << "PAC must alter the pointer";
  EXPECT_EQ(core.x(3), core.x(0)) << "auth must restore the pointer";
}

TEST_F(CpuTest, AuthFailurePoisonsPointer) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x1234);
  f.mov_imm(2, 0x9999);  // wrong modifier
  f.pacda(0, 1);
  f.autda(0, 2);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.halt_code(), 1u);
  // Poisoned pointer is non-canonical: dereferencing it faults.
  EXPECT_FALSE(core.config().layout.is_canonical(core.x(0)));
}

TEST_F(CpuTest, PoisonedPointerDereferenceFaults) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x1234);
  f.mov_imm(2, 0x9999);
  f.pacda(0, 1);
  f.autda(0, 2);
  f.ldr(3, 0, 0);  // address-size fault
  f.hlt(9);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_fault(core.sysreg(SysReg::ESR_EL1)),
            mem::FaultKind::AddressSize);
}

TEST_F(CpuTest, DifferentKeysGiveDifferentPacs) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x42);
  f.mov(2, 0);
  f.mov(3, 0);
  f.mov(4, 0);
  f.mov(5, 0);
  f.pacia(2, 1);
  f.pacib(3, 1);
  f.pacda(4, 1);
  f.pacdb(5, 1);
  f.hlt(1);
  run(f);
  EXPECT_NE(core.x(2), core.x(3));
  EXPECT_NE(core.x(2), core.x(4));
  EXPECT_NE(core.x(4), core.x(5));
}

TEST_F(CpuTest, XpacStripsWithoutAuth) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x42);
  f.pacda(0, 1);
  f.xpacd(0);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(0), kData + 0x100);
}

TEST_F(CpuTest, PaciaspAutiaspRoundTrip) {
  FunctionBuilder f("t");
  f.mov_imm(30, kText + 0x40);
  f.paciasp();
  f.autiasp();
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(30), kText + 0x40);
}

TEST_F(CpuTest, RetaaReturnsOnValidSignature) {
  FunctionBuilder f("t");
  const auto fn = f.make_label();
  f.bl(fn);
  f.hlt(1);
  f.bind(fn);
  f.paciasp();
  f.autiasp();  // matched pair...
  f.paciasp();  // ...then sign again and use RETAA
  f.retaa();
  run(f);
  EXPECT_EQ(core.halt_code(), 1u);
}

TEST_F(CpuTest, RetaaWithCorruptedLrFaults) {
  FunctionBuilder f("t");
  const auto fn = f.make_label();
  f.bl(fn);
  f.hlt(1);
  f.bind(fn);
  f.paciasp();
  f.mov_imm(30, kText + 8);  // attacker overwrites LR with unsigned value
  f.retaa();
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);  // fetch of poisoned target faulted
  EXPECT_EQ(Cpu::esr_class(core.sysreg(SysReg::ESR_EL1)),
            ExcClass::InsnAbort);
}

TEST_F(CpuTest, BlrabAuthenticatedCall) {
  FunctionBuilder f("t");
  const auto fn = f.make_label();
  const auto over = f.make_label();
  f.b(over);
  f.bind(fn);
  f.mov_imm(0, 55);
  f.ret();
  f.bind(over);
  f.adr(8, fn);
  f.mov_imm(9, 0x77);   // modifier
  f.pacib(8, 9);
  f.blrab(8, 9);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.halt_code(), 1u);
  EXPECT_EQ(core.x(0), 55u);
}

TEST_F(CpuTest, BlrabWrongModifierFaults) {
  FunctionBuilder f("t");
  const auto fn = f.make_label();
  const auto over = f.make_label();
  f.b(over);
  f.bind(fn);
  f.ret();
  f.bind(over);
  f.adr(8, fn);
  f.mov_imm(9, 0x77);
  f.mov_imm(10, 0x78);
  f.pacib(8, 9);
  f.blrab(8, 10);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_class(core.sysreg(SysReg::ESR_EL1)),
            ExcClass::InsnAbort);
}

TEST_F(CpuTest, Pac1716UsesX16X17) {
  FunctionBuilder f("t");
  f.mov_imm(17, kData + 0x200);
  f.mov_imm(16, 0xBEEF);
  f.pacib1716();
  f.mov(4, 17);      // signed value
  f.autib1716();
  f.mov(5, 17);      // authenticated value
  f.hlt(1);
  run(f);
  EXPECT_NE(core.x(4), kData + 0x200);
  EXPECT_EQ(core.x(5), kData + 0x200);
}

TEST_F(CpuTest, PacgaProducesTopHalfMac) {
  FunctionBuilder f("t");
  f.mov_imm(0, 0x1234);
  f.mov_imm(1, 0x5678);
  f.pacga(2, 0, 1);
  f.hlt(1);
  run(f);
  EXPECT_NE(core.x(2), 0u);
  EXPECT_EQ(core.x(2) & 0xFFFFFFFFull, 0u);
}

TEST_F(CpuTest, DisabledKeyMakesPacNop) {
  core.set_sysreg(SysReg::SCTLR_EL1,
                  core.sysreg(SysReg::SCTLR_EL1) & ~isa::kSctlrEnDA);
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x42);
  f.pacda(0, 1);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.x(0), kData + 0x100);  // unchanged
}

TEST_F(CpuTest, KeyChangeInvalidatesOldSignatures) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x42);
  f.pacda(0, 1);
  // Re-key DA (as the kernel entry key switch would).
  f.mov_imm(9, 0x1111);
  f.msr(SysReg::APDAKeyLo, 9);
  f.autda(0, 1);
  f.hlt(1);
  run(f);
  EXPECT_FALSE(core.config().layout.is_canonical(core.x(0)));
}

TEST_F(CpuTest, PacFailureObserverFires) {
  int failures = 0;
  core.set_pac_failure_observer(
      [&](Cpu&, isa::Op, uint64_t) { ++failures; });
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x42);
  f.mov_imm(2, 0x43);
  f.pacda(0, 1);
  f.autda(0, 2);  // fail
  f.mov_imm(0, kData + 0x100);
  f.pacda(0, 1);
  f.autda(0, 1);  // success
  f.hlt(1);
  run(f);
  EXPECT_EQ(failures, 1);
}

TEST_F(CpuTest, BreakpointHookRuns) {
  bool hit = false;
  core.add_breakpoint(kText + 4, [&](Cpu& c) {
    hit = true;
    c.set_x(7, 0xDEAD);
  });
  FunctionBuilder f("t");
  f.nop();
  f.nop();
  f.hlt(1);
  run(f);
  EXPECT_TRUE(hit);
  EXPECT_EQ(core.x(7), 0xDEADu);
}

TEST_F(CpuTest, CycleModelChargesPauth) {
  FunctionBuilder f("t");
  f.hlt(1);
  isa::Inst pac;
  pac.op = isa::Op::PACIA;
  EXPECT_EQ(Cpu::cycle_cost(pac), 4u);
  isa::Inst nop;
  nop.op = isa::Op::NOP;
  EXPECT_EQ(Cpu::cycle_cost(nop), 1u);
  // One 128-bit key = Lo + Hi MSR writes = 9 cycles (§6.1.1).
  isa::Inst lo;
  lo.op = isa::Op::MSR;
  lo.sysreg = SysReg::APIBKeyLo;
  isa::Inst hi = lo;
  hi.sysreg = SysReg::APIBKeyHi;
  EXPECT_EQ(Cpu::cycle_cost(lo) + Cpu::cycle_cost(hi), 9u);
}

// ---- FPAC (immediate faulting) variant ----

class CpuFpacTest : public CpuTest {
 protected:
  CpuFpacTest() : CpuTest([] {
    Cpu::Config c;
    c.fpac = true;
    return c;
  }()) {}
};

TEST_F(CpuFpacTest, AuthFailureFaultsImmediately) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData + 0x100);
  f.mov_imm(1, 0x42);
  f.mov_imm(2, 0x43);
  f.pacda(0, 1);
  f.autda(0, 2);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_class(core.sysreg(SysReg::ESR_EL1)), ExcClass::PacFail);
}

// ---- pre-8.3 core (binary compatibility, §5.5) ----

class CpuNoPauthTest : public CpuTest {
 protected:
  CpuNoPauthTest() : CpuTest([] {
    Cpu::Config c;
    c.has_pauth = false;
    return c;
  }()) {}
};

TEST_F(CpuNoPauthTest, HintSpaceOpsAreNops) {
  FunctionBuilder f("t");
  f.mov_imm(30, kText + 0x40);
  f.mov_imm(17, kData);
  f.mov_imm(16, 1);
  f.paciasp();
  f.autibsp();
  f.pacib1716();
  f.autib1716();
  f.xpaclri();
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.halt_code(), 1u);
  EXPECT_EQ(core.x(30), kText + 0x40);
  EXPECT_EQ(core.x(17), kData);
}

TEST_F(CpuNoPauthTest, NonHintPauthUndefined) {
  FunctionBuilder f("t");
  f.mov_imm(0, kData);
  f.mov_imm(1, 1);
  f.pacia(0, 1);
  f.hlt(1);
  run(f);
  EXPECT_EQ(core.halt_code(), 0xE1u);
  EXPECT_EQ(Cpu::esr_class(core.sysreg(SysReg::ESR_EL1)),
            ExcClass::Undefined);
}

// Every decodable op dispatches through the handler table shared by step()
// and the block engine, so a missing entry would be a null call on first
// execution. Checked here rather than by a static_assert over the table,
// which GCC 12 rejects under -fsanitize=undefined.
TEST(CpuExecTable, EveryOpHasAHandler) {
  for (size_t i = 0; i < static_cast<size_t>(isa::Op::kCount); ++i)
    EXPECT_NE(Cpu::exec_handler(static_cast<isa::Op>(i)), nullptr)
        << "op " << i << " has no exec handler";
}

}  // namespace
}  // namespace camo
