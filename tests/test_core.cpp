// Core-library tests: key generation, XOM key-setter synthesis, modifier
// scheme helpers, and the full boot protocol (§4.1/§5.1).
#include <gtest/gtest.h>

#include <map>

#include "core/bootloader.h"
#include "support/error.h"
#include "core/keys.h"
#include "core/keysetter.h"
#include "core/modifier.h"
#include "harness.h"
#include "kernel/abi.h"
#include "kernel/kernel_builder.h"
#include "kernel/machine.h"

namespace camo::core {
namespace {

using assembler::FunctionBuilder;
using isa::SysReg;
using mem::El;

TEST(Keys, DeterministicPerSeed) {
  const auto a = KernelKeys::generate(1);
  const auto b = KernelKeys::generate(1);
  const auto c = KernelKeys::generate(2);
  EXPECT_EQ(a.ia, b.ia);
  EXPECT_EQ(a.db, b.db);
  EXPECT_NE(a.ia, c.ia);
}

TEST(Keys, AllFiveKeysDistinct) {
  const auto k = KernelKeys::generate(42);
  const qarma::Key128 all[] = {k.ia, k.ib, k.da, k.db, k.ga};
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j) EXPECT_FALSE(all[i] == all[j]);
}

TEST(Keys, KeyAccessorMatchesFields) {
  const auto k = KernelKeys::generate(7);
  EXPECT_EQ(k.key(cpu::PacKey::IB), k.ib);
  EXPECT_EQ(k.key(cpu::PacKey::GA), k.ga);
}

TEST(KeyUsage, Counts) {
  EXPECT_EQ(KeyUsage::camouflage_default().count(), 3);
  EXPECT_EQ(KeyUsage::compat().count(), 1);
}

TEST(KeySetter, PaddedToExactlyOnePage) {
  const auto keys = KernelKeys::generate(3);
  auto f = make_key_setter(keys, KeyUsage::camouflage_default());
  EXPECT_EQ(f.assemble().words.size(), 1024u);
  EXPECT_TRUE(f.no_instrument());
}

TEST(KeySetter, HoldsOnlyItsLiveInstructions) {
  // The page padding is applied at assembly time, not stored as NOP items.
  const auto keys = KernelKeys::generate(3);
  for (const KeyUsage usage :
       {KeyUsage::camouflage_default(), KeyUsage::compat()}) {
    const auto f = make_key_setter(keys, usage);
    size_t insns = 0;
    for (const auto& item : f.items())
      insns += item.kind == assembler::Item::Kind::Inst;
    EXPECT_EQ(insns, key_setter_insn_count(usage));
    const auto words = f.assemble().words;
    ASSERT_EQ(words.size(), 1024u);
    EXPECT_EQ(isa::decode(words[insns - 1]).op, isa::Op::RET);
    for (size_t i = insns; i < words.size(); ++i)
      ASSERT_EQ(isa::decode(words[i]).op, isa::Op::NOP) << i;
  }
}

TEST(KeySetter, InstallsExactlyConfiguredKeys) {
  camo::testing::SimHarness sim;
  // Zero all key registers first.
  for (int i = 0; i < 10; ++i)
    sim.core.set_sysreg(static_cast<SysReg>(i), 0);

  const auto keys = KernelKeys::generate(99);
  auto f = make_key_setter(keys, KeyUsage::camouflage_default());
  // Place the setter at kHText and call it with LR pointing at a HLT stub.
  FunctionBuilder stub("stub");
  stub.hlt(1);
  sim.write_words(camo::testing::kHText + 0x2000, stub.assemble().words);
  sim.write_words(camo::testing::kHText, f.assemble().words);
  sim.core.set_x(isa::kRegLr, camo::testing::kHText + 0x2000);
  sim.core.pc = camo::testing::kHText;
  sim.core.run(20000);

  EXPECT_EQ(sim.core.halt_code(), 1u);
  EXPECT_EQ(sim.core.pac_key(cpu::PacKey::IA), keys.ia);
  EXPECT_EQ(sim.core.pac_key(cpu::PacKey::IB), keys.ib);
  EXPECT_EQ(sim.core.pac_key(cpu::PacKey::DB), keys.db);
  // DA/GA not in the default usage: untouched (still zero).
  EXPECT_EQ(sim.core.sysreg(SysReg::APDAKeyLo), 0u);
  EXPECT_EQ(sim.core.sysreg(SysReg::APGAKeyLo), 0u);
}

TEST(KeySetter, ClearsScratchRegister) {
  camo::testing::SimHarness sim;
  const auto keys = KernelKeys::generate(5);
  auto f = make_key_setter(keys, KeyUsage::camouflage_default());
  FunctionBuilder stub("stub");
  stub.hlt(1);
  sim.write_words(camo::testing::kHText + 0x2000, stub.assemble().words);
  sim.write_words(camo::testing::kHText, f.assemble().words);
  sim.core.set_x(isa::kRegLr, camo::testing::kHText + 0x2000);
  sim.core.pc = camo::testing::kHText;
  sim.core.run(20000);
  EXPECT_EQ(sim.core.x(kKeySetterScratch), 0u)
      << "key material must not survive in GPRs (R2)";
}

TEST(KeySetter, CompatInstallsOnlyIb) {
  EXPECT_EQ(key_setter_insn_count(KeyUsage::compat()), 12u);
  EXPECT_EQ(key_setter_insn_count(KeyUsage::camouflage_default()), 32u);
}

TEST(Modifier, CamouflageCombinesSpAndFunction) {
  const uint64_t m =
      camouflage_return_modifier(0xFFFF00000013FFF0ull, 0xFFFF000000081234ull);
  EXPECT_EQ(m, 0x0013FFF000081234ull);
}

TEST(Modifier, CamouflageDistinguishesFunctionsAtSameSp) {
  // The property Listing 3 buys over Listing 2: same SP, different callee →
  // different modifier.
  const uint64_t sp = 0xFFFF000000140000ull;
  EXPECT_NE(camouflage_return_modifier(sp, 0xFFFF000000081000ull),
            camouflage_return_modifier(sp, 0xFFFF000000082000ull));
  EXPECT_EQ(clang_return_modifier(sp), clang_return_modifier(sp));
}

TEST(Modifier, PartsRepeatsAcross64KiBStacks) {
  // §7: stacks separated by exactly 2^16 bytes give identical PARTS
  // modifiers — the replay weakness Camouflage fixes.
  const uint64_t fid = 0x123456789ABCull;
  const uint64_t sp1 = 0xFFFF000000140000ull;
  const uint64_t sp2 = sp1 + 0x10000;
  EXPECT_EQ(parts_return_modifier(sp1, fid), parts_return_modifier(sp2, fid));
  EXPECT_NE(camouflage_return_modifier(sp1, fid),
            camouflage_return_modifier(sp2, fid));
}

TEST(Modifier, ObjectModifierSegregatesTypes) {
  const uint64_t obj = 0xFFFF000000180040ull;
  EXPECT_NE(object_modifier(obj, 1), object_modifier(obj, 2));
  EXPECT_NE(object_modifier(obj, 1), object_modifier(obj + 0x40, 1));
  EXPECT_EQ(object_modifier(obj, 0xFB45) & 0xFFFF, 0xFB45u);
}

// ---------------------------------------------------------------------------
// Boot protocol
// ---------------------------------------------------------------------------

constexpr uint64_t kKernBase = 0xFFFF000000080000ull;
constexpr uint64_t kBootSp = 0xFFFF000000300000ull;

obj::Program tiny_kernel() {
  obj::Program k;
  auto& boot = k.add_function("early_boot");
  boot.set_no_instrument();
  boot.mov_imm(0, isa::kSctlrEnIA | isa::kSctlrEnIB | isa::kSctlrEnDA |
                      isa::kSctlrEnDB);
  boot.msr(SysReg::SCTLR_EL1, 0);
  boot.bl_sym(kKeySetterSymbol);
  boot.hvc(static_cast<uint16_t>(hyp::HvcCall::Lockdown));
  // Prove PAuth works end-to-end with the booted keys.
  boot.mov_imm(1, kKernBase + 0x4000);
  boot.mov_imm(2, 0x42);
  boot.pacdb(1, 2);
  boot.autdb(1, 2);
  boot.hlt(0x42);
  return k;
}

struct BootFixture {
  BootFixture() : mmu(pm, {}), hv(pm), core(mmu, {}) {
    hv.install(core);
    hv.map_kernel_rw(kBootSp - 0x10000, 0x10000);
  }
  PreparedKernel boot(obj::Program kernel, const BootConfig& cfg) {
    PreparedKernel pk = Bootloader::prepare(std::move(kernel), cfg, kKernBase);
    Bootloader::install(pk, hv, core, kBootSp);
    return pk;
  }
  mem::PhysicalMemory pm{8 << 20};
  mem::Mmu mmu;
  hyp::Hypervisor hv;
  cpu::Cpu core;
};

TEST(Bootloader, BootsTinyKernelAndInstallsKeys) {
  BootFixture fx;
  BootConfig cfg;
  cfg.seed = 1234;
  cfg.entry_symbol = "early_boot";
  const auto boot = fx.boot(tiny_kernel(), cfg);
  EXPECT_TRUE(boot.verify.ok()) << boot.verify.describe();
  EXPECT_EQ(boot.key_setter_va, kKernBase);

  fx.core.run(100000);
  EXPECT_EQ(fx.core.halt_code(), 0x42u);
  EXPECT_EQ(fx.core.pac_key(cpu::PacKey::IB), boot.keys.ib);
  EXPECT_EQ(fx.core.x(1), kKernBase + 0x4000) << "sign+auth must round-trip";
  EXPECT_TRUE(fx.hv.locked_down());
}

TEST(Bootloader, KeySetterPageIsXom) {
  BootFixture fx;
  BootConfig cfg;
  cfg.entry_symbol = "early_boot";
  const auto boot = fx.boot(tiny_kernel(), cfg);
  // EL1 reads of the setter page fail; fetch succeeds.
  EXPECT_EQ(fx.mmu.translate(boot.key_setter_va, mem::Access::Read, El::El1)
                .fault,
            mem::FaultKind::Stage2);
  EXPECT_TRUE(
      fx.mmu.translate(boot.key_setter_va, mem::Access::Fetch, El::El1).ok());
}

TEST(Bootloader, KeysNowhereInReadableMemory) {
  // R2 end-to-end: scan all of physical memory for any 64-bit key half.
  // Only the XOM page may contain key material (as MOVZ/MOVK immediates).
  BootFixture fx;
  BootConfig cfg;
  cfg.entry_symbol = "early_boot";
  const auto boot = fx.boot(tiny_kernel(), cfg);
  const auto setter_pa =
      fx.mmu.translate(boot.key_setter_va, mem::Access::Fetch, El::El2);
  ASSERT_TRUE(setter_pa.ok());

  const uint64_t halves[] = {boot.keys.ib.w0, boot.keys.ib.k0,
                             boot.keys.ia.w0, boot.keys.db.k0};
  for (uint64_t pa = 0; pa + 8 <= fx.pm.size(); pa += 2) {
    const uint64_t v = fx.pm.read64(pa);
    for (const uint64_t h : halves) {
      if (v == h) {
        EXPECT_GE(pa, setter_pa.pa);
        EXPECT_LT(pa, setter_pa.pa + 4096);
      }
    }
  }
  // (MOVZ/MOVK immediates split keys into 16-bit chunks, so even inside the
  // setter page no contiguous 64-bit key half should appear.)
}

TEST(Bootloader, MaliciousKernelFailsVerification) {
  obj::Program k = tiny_kernel();
  auto& spy = k.add_function("spy");
  spy.mrs(0, SysReg::APIBKeyLo);
  spy.ret();
  BootConfig cfg;
  cfg.entry_symbol = "early_boot";
  EXPECT_THROW(Bootloader::prepare(std::move(k), cfg, kKernBase), camo::Error);
}

TEST(Bootloader, SctlrWriteOutsideEarlyBootRejected) {
  obj::Program k = tiny_kernel();
  auto& late = k.add_function("late_disable");
  late.mov_imm(0, 0);
  late.msr(SysReg::SCTLR_EL1, 0);
  late.ret();
  BootConfig cfg;
  cfg.entry_symbol = "early_boot";
  EXPECT_THROW(Bootloader::prepare(std::move(k), cfg, kKernBase), camo::Error);
}

TEST(Bootloader, DifferentSeedsDifferentKeys) {
  BootFixture fx1, fx2;
  BootConfig cfg;
  cfg.entry_symbol = "early_boot";
  cfg.seed = 1;
  const auto b1 = fx1.boot(tiny_kernel(), cfg);
  cfg.seed = 2;
  const auto b2 = fx2.boot(tiny_kernel(), cfg);
  EXPECT_FALSE(b1.keys.ib == b2.keys.ib);
}

TEST(Bootloader, CompatBootUsesSingleKey) {
  BootFixture fx;
  BootConfig cfg;
  cfg.entry_symbol = "early_boot";
  cfg.protection.compat_mode = true;
  const auto boot = fx.boot(tiny_kernel(), cfg);
  fx.core.run(100000);
  EXPECT_EQ(fx.core.halt_code(), 0x42u);
  EXPECT_EQ(fx.core.pac_key(cpu::PacKey::IB), boot.keys.ib);
  EXPECT_EQ(fx.core.sysreg(SysReg::APIAKeyLo), 0u) << "compat: only IB set";
}

/// FNV-1a over everything prepare() hands to install() and to the verifier's
/// callers: segments (kind, va, extent, bytes), sorted function sizes and
/// symbols, the setter and entry VAs, both allow-lists and the verify result.
uint64_t prepared_digest(const PreparedKernel& pk) {
  std::string s;
  const auto put = [&s](uint64_t v) {
    s.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const auto& seg : pk.image.segments) {
    put(static_cast<uint64_t>(seg.kind));
    put(seg.va);
    put(seg.size());
    s.append(seg.bytes.begin(), seg.bytes.end());
  }
  for (const auto* table : {&pk.image.function_sizes, &pk.image.symbols}) {
    for (const auto& [name, v] :
         std::map<std::string, uint64_t>(table->begin(), table->end())) {
      s += name;
      put(v);
    }
  }
  put(pk.key_setter_va);
  put(pk.entry_va);
  for (const auto* ranges : {&pk.key_write_ranges, &pk.sctlr_write_ranges}) {
    put(ranges->size());
    for (const auto& r : *ranges) {
      put(r.va);
      put(r.len);
    }
  }
  put(pk.verify.ok());
  return camo::testing::fnv1a(s);
}

TEST(Bootloader, PreparedImagePinned) {
  // The full kernel at seed 7 under each preset, with no task and with the
  // one task every benchmark machine has: the prepared image must not move
  // when the build pipeline is optimised.
  struct Case {
    const char* name;
    compiler::ProtectionConfig prot;
    uint64_t digest[2];  // 0 tasks, 1 task
  };
  compiler::ProtectionConfig compat = compiler::ProtectionConfig::full();
  compat.compat_mode = true;
  const Case cases[] = {
      {"none", compiler::ProtectionConfig::none(),
        {0x8c1a9154f59c08d9ull, 0xefb6345546de9ee3ull}},
      {"backward", compiler::ProtectionConfig::backward_only(),
        {0x4e953b76a8504606ull, 0xf41694ebf1209f70ull}},
      {"full", compiler::ProtectionConfig::full(),
        {0xc949489c87152fadull, 0x759894eee8903087ull}},
      {"full+compat", compat,
        {0x6762880d80c80a02ull, 0x2d97c90101202690ull}},
  };
  for (const Case& c : cases) {
    for (unsigned tasks = 0; tasks < 2; ++tasks) {
      kernel::KernelConfig kcfg;
      kcfg.protection = c.prot;
      kernel::KernelBuilder kb(kcfg);
      if (tasks) {
        kernel::TaskSpec spec;
        spec.user_pc = kernel::kUserBase;
        spec.user_sp = kernel::kUserStackTop;
        spec.space_id = 1;
        kb.add_task(spec);
      }
      BootConfig bcfg;
      bcfg.seed = 7;
      bcfg.protection = c.prot;
      bcfg.entry_symbol = "early_boot";
      bcfg.key_write_symbols = kernel::KernelBuilder::key_write_symbols();
      const PreparedKernel pk =
          Bootloader::prepare(kb.build(), bcfg, kernel::kKernelBase);
      EXPECT_TRUE(pk.verify.ok()) << c.name << ": " << pk.verify.describe();
      EXPECT_EQ(prepared_digest(pk), c.digest[tasks])
          << c.name << " with " << tasks << " task(s): 0x" << std::hex
          << prepared_digest(pk);
    }
  }
}

}  // namespace
}  // namespace camo::core
