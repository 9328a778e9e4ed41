// Fetch/translate fast-path regression tests (DESIGN.md §3c).
//
// The micro-TLB and the PAC memo are host-side optimisations; these tests
// pin the two properties that make them safe:
//  * self-modifying code — in-place patches, the bootloader's key-setter
//    immediates, module .text staged over HVC — always executes the new
//    encoding, and
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
/// the single-step fetch path specifically, so it stays below the Block
/// tier; the block engine has its own suite in test_superblock.cpp.
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
  // new word must be the one that executes.
  FunctionBuilder g("f");
  g.movz(0, 0x222, 0);
  g.hlt(1);
  sim.core.clear_halt();
  sim.run(g);
  EXPECT_EQ(sim.core.halt_code(), 1u);
  EXPECT_EQ(sim.core.x(0), 0x222u) << "stale decode executed after patch";
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
  hyp::Hypervisor hv(pm);
  cpu::Cpu core(mmu, cfg_with(caches()));
  hv.install(core);
  hv.map_kernel_rw(kBootSp - 0x10000, 0x10000);

  core::BootConfig cfg;
  cfg.seed = 11;
  cfg.entry_symbol = "early_boot";
  const core::PreparedKernel boot =
      core::Bootloader::prepare(setter_kernel(), cfg, kKernBase);
  core::Bootloader::install(boot, hv, core, kBootSp);
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
  core.pc = boot.image.symbol("call_setter");
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
  hyp::Hypervisor hv(pm);
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
  // The Fast rung's caches are the micro-TLB and the PAC memo: a guest that
  // fetches and signs/authenticates the same pointer repeatedly moves both
  // caches' hit and miss counters at Fast and neither at Reference.
  for (const bool caches : {true, false}) {
    testing::SimHarness sim(cfg_with(caches));
    FunctionBuilder f("f");
    f.mov_imm(8, 0x1234);
    for (int i = 0; i < 16; ++i) {
      f.pacia(8, 4);
      f.autia(8, 4);
    }
    f.hlt(7);
    sim.run(f);
    ASSERT_EQ(sim.core.halt_code(), 7u);
    EXPECT_EQ(sim.core.x(8), 0x1234u);
    const auto& tlb = sim.mmu.tlb_stats();
    const auto& pac = sim.core.pauth().pac_cache_stats();
    if (caches) {
      EXPECT_GT(tlb.hits, 0u);
      EXPECT_GT(tlb.misses, 0u);
      EXPECT_GT(pac.hits, 0u) << "repeated PACIA/AUTIA must be memoized";
      EXPECT_GT(pac.misses, 0u);
    } else {
      EXPECT_EQ(tlb.hits + tlb.misses, 0u)
          << "cache off must not populate the micro-TLB";
      EXPECT_EQ(pac.hits + pac.misses, 0u)
          << "cache off must not populate the PAC memo";
    }
  }
}

TEST(FastPathInvariance, InlineGuestStoreIntoAHotTracePageRunsTheNewCode) {
  // A store that hits a write-way micro-TLB entry holding the page's host
  // backing never reaches PhysicalMemory: it bumps the page generation
  // itself. Patching a hot loop's code that way must still be seen by every
  // tier that caches decodes. One writable+executable page: init at +0x000
  // (its store warms the write way, before anything is hot), the hot site S
  // at +0x400 and the loop controller at +0x800, which rewrites S from
  // `add #1` to `add #2` on its tenth iteration.
  constexpr uint64_t kWx = 0xFFFF000000200000ull;
  const auto words = [](auto gen) {
    FunctionBuilder f("frag");
    gen(f);
    return f.assemble().words;
  };
  const uint64_t site = kWx + 0x400, ctrl = kWx + 0x800;
  const uint64_t patch =
      words([](FunctionBuilder& f) { f.add_i(0, 0, 2); })[0] |
      uint64_t{words([](FunctionBuilder& f) { f.br(13); })[0]} << 32;
  for (const cpu::Engine engine :
       {cpu::Engine::Fast, cpu::Engine::Block, cpu::Engine::Trace}) {
    SCOPED_TRACE(cpu::engine_name(engine));
    cpu::Cpu::Config cfg;
    cfg.engine = engine;
    testing::SimHarness sim(cfg);
    mem::PagePerms wx;
    wx.r_el1 = wx.w_el1 = wx.x_el1 = true;
    sim.kmap.map_range(kWx, 0x50000, 0x1000, wx);
    sim.write_words(kWx, words([&](FunctionBuilder& f) {
      f.mov_imm(0, 0);
      f.mov_imm(19, 20);  // loop count
      f.mov_imm(9, site);
      f.mov_imm(10, patch);
      f.mov_imm(13, ctrl);
      f.mov_imm(14, kWx + 0xFF8);
      f.str(0, 14, 0);  // warm the write way: the page already has backing
      f.br(13);
    }));
    sim.write_words(site, words([](FunctionBuilder& f) {
      f.add_i(0, 0, 1);
      f.br(13);
    }));
    sim.write_words(ctrl, words([](FunctionBuilder& f) {
      const auto done = f.make_label();
      const auto skip = f.make_label();
      f.cbz(19, done);
      f.sub_i(19, 19, 1);
      f.sub_i(11, 19, 10);
      f.cbnz(11, skip);
      f.str(10, 9, 0);  // rewrite S through the warm entry
      f.bind(skip);
      f.br(9);
      f.bind(done);
      f.hlt(0x55);
    }));
    sim.core.pc = kWx;
    sim.core.run(100000);
    ASSERT_EQ(sim.core.halt_code(), 0x55u);
    // Nine iterations add 1; from the patch on, eleven add 2.
    EXPECT_EQ(sim.core.x(0), 9u * 1 + 11u * 2);
    // Nothing else is stored at EL1, so the entry the warm-up installed was
    // still there for the patch, as a probe now shows.
    const uint64_t hits = sim.mmu.tlb_stats().hits;
    EXPECT_TRUE(sim.mmu.translate(site, mem::Access::Write, El::El1).ok());
    EXPECT_EQ(sim.mmu.tlb_stats().hits, hits + 1);
    if (engine == cpu::Engine::Trace) {
      EXPECT_GE(sim.core.superblock_stats().trace_formations, 1u);
      EXPECT_GE(sim.core.superblock_stats().trace_invalidations, 1u);
    }
  }
}

}  // namespace
}  // namespace camo
