// The firmware bootloader (§4.1, §5.1, Figure 1).
//
// Boot protocol:
//   1. generate pseudo-random kernel PAuth keys from the boot seed (like the
//      kASLR seed delivered via the FDT);
//   2. synthesize the XOM key-setter function with the keys embedded as
//      MOVZ/MOVK immediates and splice it into the kernel image (the paper
//      "updates the kernel PAuth key function before the kernel boots");
//   3. run the instrumentation passes and link the kernel;
//   4. statically verify the image (§4.1): no PAuth key reads anywhere, key
//      writes only inside the setter page, SCTLR writes only in early boot;
//   5. load the image through the hypervisor, which write-protects text and
//      rodata at stage 2 and maps the setter page execute-only;
//   6. hand the CPU to the kernel entry point at EL1 with IRQs masked.
//
// The returned keys are the host-side secret: guest state never contains
// them outside the XOM page and (transiently) the key registers.
#pragma once

#include <cstdint>

#include "analysis/verifier.h"
#include "compiler/instrument.h"
#include "core/keys.h"
#include "cpu/cpu.h"
#include "hyp/hypervisor.h"
#include "obj/object.h"

namespace camo::core {

struct BootConfig {
  uint64_t seed = 0xC0FFEE;  ///< FDT-style boot entropy
  compiler::ProtectionConfig protection = compiler::ProtectionConfig::full();
  KeyUsage key_usage = KeyUsage::camouflage_default();
  bool verify_kernel = true;
  /// Name of the function allowed to write SCTLR_EL1 (early boot).
  std::string early_boot_symbol = "early_boot";
  /// Kernel entry symbol.
  std::string entry_symbol = "_start";
  /// Functions (besides the XOM setter) that legitimately write PAuth key
  /// registers — the per-thread user-key restore path.
  std::vector<std::string> key_write_symbols;
};

/// The machine-independent half of boot, precomputed: key setter
/// synthesized and spliced, instrumentation passes run, image linked and
/// statically verified. Nothing here references a Machine, a Hypervisor or
/// a Cpu, so one PreparedKernel is immutable and shared by every machine
/// that boots it, on any number of threads (kernel::ImageCache does exactly
/// that); install() only reads it.
struct PreparedKernel {
  KernelKeys keys;  ///< host-side secret (used by benches/attack oracles)
  obj::Image image;
  uint64_t key_setter_va = 0;
  uint64_t entry_va = 0;
  analysis::VerifyResult verify;
  /// Verifier allow-lists the prepare step used; install() replays them
  /// into the machine's hypervisor so later module loads verify under the
  /// rules the kernel image was verified under.
  struct Range {
    uint64_t va = 0, len = 0;
  };
  std::vector<Range> key_write_ranges;
  std::vector<Range> sctlr_write_ranges;
};

class Bootloader {
 public:
  /// Steps 1-4, everything per-configuration: build + verify + sign once.
  /// `kernel` is the un-instrumented program; `kernel_base` must be
  /// page-aligned. Throws camo::Error when cfg.verify_kernel is set and
  /// verification fails.
  static PreparedKernel prepare(obj::Program kernel, const BootConfig& cfg,
                                uint64_t kernel_base);

  /// Steps 5-6 for one machine: configure the hypervisor's verifier
  /// allow-lists, map the image (stage-2 write protection, XOM key-setter
  /// page), export symbols, and park the CPU at the entry point. The CPU
  /// must already be wired by `hv.install(cpu)`. `boot_sp` must already be
  /// mapped by the caller (or will be before the first push). Reads `pk`
  /// only, so any number of machines can install one.
  static void install(const PreparedKernel& pk, hyp::Hypervisor& hv,
                      cpu::Cpu& cpu, uint64_t boot_sp);
};

}  // namespace camo::core
