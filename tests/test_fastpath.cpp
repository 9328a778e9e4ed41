// Fetch/translate fast-path regression tests (DESIGN.md §3c).
//
// The predecoded instruction cache and the micro-TLB are host-side
// optimisations; these tests pin the two properties that make them safe:
//  * self-modifying code — in-place patches, the bootloader's key-setter
//    immediates, module .text staged over HVC — always executes the new
//    encoding (the write-generation protocol invalidates stale decodes), and
//  * simulated behaviour (cycles, instret, faults, register state) is
//    bit-for-bit identical with the caches on or off.
// Every self-modifying scenario runs parameterized over both settings.
#include <gtest/gtest.h>

#include "compiler/instrument.h"
#include "core/bootloader.h"
#include "core/keys.h"
#include "core/keysetter.h"
#include "harness.h"
#include "hyp/hypervisor.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obj/object.h"

namespace camo {
namespace {

using assembler::FunctionBuilder;
using isa::SysReg;
using mem::El;

/// Fast with the caches on, Reference with them off. This suite exercises
/// the single-step fetch path specifically (its icache/TLB assertions assume
/// one predecode event per fetch), so it stays below the Block tier; the
/// block engine has its own suite in test_superblock.cpp.
cpu::Cpu::Config cfg_with(bool caches) {
  cpu::Cpu::Config c;
  c.engine = caches ? cpu::Engine::Fast : cpu::Engine::Reference;
  return c;
}

class FastPath : public ::testing::TestWithParam<bool> {
 protected:
  bool caches() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(CacheOnOff, FastPath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CacheOn" : "CacheOff";
                         });

// ---------------------------------------------------------------------------
// Execute → patch in place → re-execute.
// ---------------------------------------------------------------------------

TEST_P(FastPath, PatchInPlaceRunsTheNewEncoding) {
  testing::SimHarness sim(cfg_with(caches()));

  FunctionBuilder f("f");
  f.movz(0, 0x111, 0);
  f.hlt(1);
  sim.run(f);
  ASSERT_EQ(sim.core.halt_code(), 1u);
  ASSERT_EQ(sim.core.x(0), 0x111u);

  // Patch the MOVZ immediate in place (same VA, same PA) and run again: the
  // physical write bumps the page generation, so a cached decode of the old
  // word must not survive.
  FunctionBuilder g("f");
  g.movz(0, 0x222, 0);
  g.hlt(1);
  sim.core.clear_halt();
  sim.run(g);
  EXPECT_EQ(sim.core.halt_code(), 1u);
  EXPECT_EQ(sim.core.x(0), 0x222u) << "stale decode executed after patch";

  if (caches())
    EXPECT_GE(sim.core.fast_path_stats().icache_redecodes, 1u)
        << "the patched page must have been re-decoded";
  else
    EXPECT_EQ(sim.core.fast_path_stats().icache_hits +
                  sim.core.fast_path_stats().icache_misses,
              0u)
        << "cache off must not populate the predecode cache";
}

TEST_P(FastPath, SingleWordPatchOnHotPageIsSeen) {
  // Patch one word of a page that stays hot (every other word unchanged) —
  // the whole-page generation must still catch it.
  testing::SimHarness sim(cfg_with(caches()));

  FunctionBuilder f("f");
  f.movz(0, 0xAAA, 0);
  f.movz(1, 0xBBB, 0);
  f.hlt(2);
  sim.run(f);
  ASSERT_EQ(sim.core.x(0), 0xAAAu);
  ASSERT_EQ(sim.core.x(1), 0xBBBu);

  // Overwrite only the second instruction.
  FunctionBuilder patch("patch");
  patch.movz(1, 0xCCC, 0);
  const uint32_t word = patch.assemble().words[0];
  const auto t =
      sim.mmu.translate(testing::kHText + 4, mem::Access::Fetch, El::El2);
  ASSERT_TRUE(t.ok());
  sim.pm.write32(t.pa, word);

  sim.core.clear_halt();
  sim.core.pc = testing::kHText;
  sim.core.run(1000);
  EXPECT_EQ(sim.core.x(0), 0xAAAu);
  EXPECT_EQ(sim.core.x(1), 0xCCCu) << "patched word not picked up";
}

// ---------------------------------------------------------------------------
// Bootloader key-setter immediates: execute, repatch with fresh keys (the
// host/EL2-side write the XOM page permits), re-execute.
// ---------------------------------------------------------------------------

constexpr uint64_t kKernBase = 0xFFFF000000080000ull;
constexpr uint64_t kBootSp = 0xFFFF000000300000ull;

obj::Program setter_kernel() {
  obj::Program k;
  auto& boot = k.add_function("early_boot");
  boot.set_no_instrument();
  boot.mov_imm(0, isa::kSctlrEnIA | isa::kSctlrEnIB | isa::kSctlrEnDA |
                      isa::kSctlrEnDB);
  boot.msr(SysReg::SCTLR_EL1, 0);
  boot.bl_sym(core::kKeySetterSymbol);
  boot.hlt(0x42);
  // Second entry point used to re-run the setter after the repatch.
  auto& again = k.add_function("call_setter");
  again.set_no_instrument();
  again.bl_sym(core::kKeySetterSymbol);
  again.hlt(0x43);
  return k;
}

TEST_P(FastPath, KeySetterRepatchInstallsTheNewKeys) {
  mem::PhysicalMemory pm{8 << 20};
  mem::Mmu mmu(pm, {});
  hyp::Hypervisor hv(pm, mmu);
  cpu::Cpu core(mmu, cfg_with(caches()));
  hv.map_kernel_rw(kBootSp - 0x10000, 0x10000);

  core::BootConfig cfg;
  cfg.seed = 11;
  cfg.entry_symbol = "early_boot";
  const auto boot = core::Bootloader::boot(setter_kernel(), cfg, hv, core,
                                           kKernBase, kBootSp);
  core.run(100000);
  ASSERT_EQ(core.halt_code(), 0x42u);
  ASSERT_EQ(core.pac_key(cpu::PacKey::IB), boot.keys.ib);

  // Re-generate the setter with fresh keys and patch the XOM page in place —
  // exactly what the bootloader's MOVZ/MOVK patching does, via the same
  // host-side physical writes (stage-2 XOM only constrains EL1).
  const auto fresh = core::KernelKeys::generate(4242);
  ASSERT_FALSE(fresh.ib == boot.keys.ib);
  auto setter = core::make_key_setter(fresh, cfg.key_usage);
  const auto words = setter.assemble().words;
  const auto pa =
      mmu.translate(boot.key_setter_va, mem::Access::Fetch, El::El2);
  ASSERT_TRUE(pa.ok());
  for (size_t i = 0; i < words.size(); ++i)
    pm.write32(pa.pa + i * 4, words[i]);

  core.clear_halt();
  core.pc = boot.kernel_image.symbol("call_setter");
  core.run(100000);
  ASSERT_EQ(core.halt_code(), 0x43u);
  EXPECT_EQ(core.pac_key(cpu::PacKey::IB), fresh.ib)
      << "re-executed setter must install the repatched immediates";
  EXPECT_EQ(core.pac_key(cpu::PacKey::IA), fresh.ia);
  EXPECT_EQ(core.pac_key(cpu::PacKey::DB), fresh.db);
}

// ---------------------------------------------------------------------------
// Module .text staged over HVC LoadModule, then executed.
// ---------------------------------------------------------------------------

constexpr uint64_t kVbarBase = 0xFFFF000000060000ull;
constexpr uint64_t kStackTop = 0xFFFF000000200000ull;

TEST_P(FastPath, ModuleTextLoadedViaHvcExecutesFreshCode) {
  mem::PhysicalMemory pm{8 << 20};
  mem::Mmu mmu(pm, {});
  hyp::Hypervisor hv(pm, mmu);
  cpu::Cpu core(mmu, cfg_with(caches()));
  hv.install(core);
  core.set_sysreg(SysReg::SCTLR_EL1, isa::kSctlrEnIA | isa::kSctlrEnIB |
                                         isa::kSctlrEnDA | isa::kSctlrEnDB);
  for (int i = 0; i < 10; ++i)
    core.set_sysreg(static_cast<SysReg>(i),
                    0xABCD0123ull * static_cast<uint64_t>(i + 3));
  obj::Program vec;
  vec.add_function("vec_sync").hlt(0xE1);
  hv.load_image(obj::Linker::link(vec, kVbarBase), hv.kernel_map(), false);
  core.set_sysreg(SysReg::VBAR_EL1, kVbarBase);
  hv.map_kernel_rw(kStackTop - 0x10000, 0x10000);
  core.set_sp_el(El::El1, kStackTop);

  obj::Program k;
  auto& start = k.add_function("_start");
  start.mov_imm(0, 0);  // module id
  start.hvc(static_cast<uint16_t>(hyp::HvcCall::LoadModule));
  start.mov(9, 0);
  start.blr(9);
  start.hlt(0);
  obj::Image img = obj::Linker::link(k, kKernBase);
  hv.load_image(img, hv.kernel_map(), false);
  hv.set_kernel_exports(img.symbols);

  obj::Program mod;
  auto& init = mod.add_function("mod_init");
  init.frame_push();
  init.mov_imm(20, 0x5EED);
  init.frame_pop_ret();
  compiler::instrument(mod, compiler::ProtectionConfig::full());
  ASSERT_EQ(hv.register_module("mod", std::move(mod)), 0);

  // Warm the caches on kernel text before the module pages even exist.
  core.pc = img.symbol("_start");
  core.run(100000);
  EXPECT_EQ(core.halt_code(), 0u);
  EXPECT_EQ(core.x(20), 0x5EEDu)
      << "module init staged by the hypervisor must have executed";
}

// ---------------------------------------------------------------------------
// Behaviour invariance: identical simulated state with caches on and off.
// ---------------------------------------------------------------------------

TEST(FastPathInvariance, FullBootRunsBitForBitIdentical) {
  const auto run_once = [](bool caches) {
    kernel::MachineConfig cfg;
    cfg.kernel.protection = compiler::ProtectionConfig::full();
    cfg.kernel.log_pac_failures = false;
    cfg.cpu.engine = cfg_with(caches).engine;
    kernel::Machine m(cfg);
    m.add_user_program(kernel::workloads::null_syscall(30));
    m.boot();
    EXPECT_TRUE(m.run());
    return std::tuple<uint64_t, uint64_t, uint64_t>(
        m.cpu().cycles(), m.cpu().retired(), m.halt_code());
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(FastPathInvariance, FaultingGuestRunsBitForBitIdentical) {
  // A run that takes fetch faults (EL1 jumping to an unmapped VA) must fault
  // on the same instruction with the same cycle count either way.
  const auto run_once = [](bool caches) {
    testing::SimHarness sim(cfg_with(caches));
    FunctionBuilder f("f");
    f.mov_imm(9, 0xFFFF000000F00000ull);  // canonical but unmapped
    f.blr(9);
    sim.run(f);
    return std::tuple<uint64_t, uint64_t, uint64_t>(
        sim.core.cycles(), sim.core.retired(), sim.core.halt_code());
  };
  const auto off = run_once(false);
  EXPECT_EQ(off, run_once(true));
  EXPECT_EQ(std::get<2>(off), 0xE1u) << "insn abort must vector to sync-EL1";
}

TEST(FastPathInvariance, PacMemoizationIsExact) {
  // The PAC memo cache tags entries with the full key material, so memoized
  // signing/authentication is bit-for-bit the plain cipher — including after
  // a key change, which must miss naturally (no explicit invalidation).
  cpu::PauthUnit plain({});
  cpu::PauthUnit memo({});
  memo.set_fast_path(true);
  const auto k1 = core::KernelKeys::generate(1).ib;
  const auto k2 = core::KernelKeys::generate(2).ib;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 64; ++i) {
      const uint64_t ptr = 0xFFFF000000080000ull + i * 8;
      const uint64_t mod = 0x1000 + i % 4;
      for (const auto& k : {k1, k2}) {
        ASSERT_EQ(memo.add_pac(ptr, mod, k), plain.add_pac(ptr, mod, k));
        const auto a = memo.auth(plain.add_pac(ptr, mod, k), mod, k,
                                 cpu::PacKey::IB);
        EXPECT_TRUE(a.ok);
        ASSERT_EQ(memo.pacga(ptr, mod, k), plain.pacga(ptr, mod, k));
      }
    }
  }
  EXPECT_GT(memo.pac_cache_stats().hits, 0u) << "repeats must be memoized";
  EXPECT_EQ(plain.pac_cache_stats().hits + plain.pac_cache_stats().misses, 0u)
      << "cache off must not populate the memo cache";
}

TEST(FastPathInvariance, CacheStatsOnlyAccumulateWhenEnabled) {
  testing::SimHarness sim(cfg_with(true));
  FunctionBuilder f("f");
  for (int i = 0; i < 16; ++i) f.nop();
  f.hlt(7);
  sim.run(f);
  const auto& fp = sim.core.fast_path_stats();
  EXPECT_GE(fp.icache_misses, 1u);
  EXPECT_GT(fp.icache_hits, 0u);
  EXPECT_GT(sim.mmu.tlb_stats().hits, 0u);
  EXPECT_EQ(fp.icache_hits + fp.icache_misses + fp.icache_redecodes,
            sim.core.retired())
      << "every fetch is exactly one predecode-cache event";
}

}  // namespace
}  // namespace camo
