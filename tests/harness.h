// Shared test harness: a minimal simulated machine with a kernel-half
// mapping, PAuth keys installed, and halt-vectors, for tests that execute
// guest code outside the full kernel environment.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "assembler/builder.h"
#include "cpu/cpu.h"
#include "mem/mmu.h"
#include "obs/metrics.h"

namespace camo::testing {

constexpr uint64_t kHText = 0xFFFF000000080000ull;
constexpr uint64_t kHData = 0xFFFF000000100000ull;
constexpr uint64_t kHStackTop = 0xFFFF000000140000ull;
constexpr uint64_t kHVbar = 0xFFFF000000060000ull;

class SimHarness {
 public:
  explicit SimHarness(cpu::Cpu::Config cfg = {})
      : mmu(pm, cfg.layout), core(mmu, cfg) {
    kmap.map_range(kHText, 0x10000, 0x10000, mem::PagePerms::kernel_text());
    kmap.map_range(kHData, 0x30000, 0x10000, mem::PagePerms::kernel_rw());
    kmap.map_range(kHStackTop - 0x10000, 0x40000, 0x10000,
                   mem::PagePerms::kernel_rw());
    kmap.map_range(kHVbar, 0x60000, 0x2000, mem::PagePerms::kernel_text());
    mmu.set_kernel_map(&kmap);

    core.set_sysreg(isa::SysReg::SCTLR_EL1,
                    isa::kSctlrEnIA | isa::kSctlrEnIB | isa::kSctlrEnDA |
                        isa::kSctlrEnDB);
    for (int i = 0; i < 10; ++i)
      core.set_sysreg(static_cast<isa::SysReg>(i),
                      0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i + 1));
    core.set_sysreg(isa::SysReg::VBAR_EL1, kHVbar);
    core.set_sp_el(mem::El::El1, kHStackTop);

    install_halt_vector(cpu::Cpu::kVecSyncEl1, 0xE1);
    install_halt_vector(cpu::Cpu::kVecIrqEl1, 0xE2);
    install_halt_vector(cpu::Cpu::kVecSyncEl0, 0xE3);
    install_halt_vector(cpu::Cpu::kVecIrqEl0, 0xE4);
  }

  void install_halt_vector(uint64_t offset, uint16_t code) {
    assembler::FunctionBuilder f("vec");
    f.hlt(code);
    write_words(kHVbar + offset, f.assemble().words);
  }

  void write_words(uint64_t va, const std::vector<uint32_t>& words) {
    for (size_t i = 0; i < words.size(); ++i) {
      const auto t = mmu.translate(va + i * 4, mem::Access::Fetch, mem::El::El2);
      ASSERT_TRUE(t.ok()) << "harness: text not mapped";
      pm.write32(t.pa, words[i]);
    }
  }

  /// Assemble at kHText and run to halt.
  void run(const assembler::FunctionBuilder& f, uint64_t max_steps = 200000) {
    write_words(kHText, f.assemble().words);
    core.pc = kHText;
    core.run(max_steps);
  }

  mem::PhysicalMemory pm{1 << 20};
  mem::Stage1Map kmap;
  mem::Mmu mmu;
  cpu::Cpu core;
};

/// FNV-1a digest of an export, for tests that pin one.
inline uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// metrics_json() minus what is host-side: the host-time gauges and the
/// fastpath.* cache statistics, which differ by tier.
inline std::string guest_metrics_json(const obs::Registry& reg) {
  obs::Registry guest;
  for (const auto& [name, c] : reg.counters())
    if (name.rfind("fastpath.", 0) != 0) guest.counter(name).inc(c.value());
  for (const auto& [name, h] : reg.histograms())
    guest.histogram(name).merge(h);
  return guest.to_json();
}

}  // namespace camo::testing
