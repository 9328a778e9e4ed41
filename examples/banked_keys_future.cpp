// §8 future work, implemented: an ISA extension for layered key management.
//
// The paper closes with: "an extension could support layered key management
// such that the hypervisor can manage the kernel keys without the need for
// XOM". This example runs the same fully protected kernel twice — once with
// the paper's XOM key-setter design, once with an EL2-managed kernel key
// bank that EL1 execution uses automatically — and compares cost and the
// resulting key-confidentiality story.
#include <cstdio>

#include "kernel/machine.h"
#include "kernel/workloads.h"

int main() {
  using namespace camo;  // NOLINT

  std::printf("Future work (§8): EL2-managed banked kernel keys\n");
  std::printf("================================================\n\n");

  for (const bool banked : {false, true}) {
    kernel::MachineConfig cfg;
    cfg.kernel.protection = compiler::ProtectionConfig::full();
    cfg.kernel.log_pac_failures = false;
    cfg.cpu.banked_keys = banked;
    kernel::Machine m(cfg);
    m.add_user_program(kernel::workloads::null_syscall(1000));
    m.boot();
    uint64_t start = 0;
    m.cpu().add_breakpoint(kernel::kUserBase, [&](cpu::Cpu& c) {
      if (start == 0) start = c.cycles();
    });
    m.run();

    std::printf("%s:\n", banked ? "banked kernel keys (ISA extension)"
                                : "XOM key setter (the paper's design)");
    std::printf("  1000 null syscalls: %.1f cycles each\n",
                static_cast<double>(m.cpu().cycles() - start) / 1001);
    if (!banked) {
      std::printf("  key confidentiality: keys hidden as immediates in an "
                  "execute-only page;\n  every kernel entry calls the setter, "
                  "every exit restores user keys;\n  §4.1 verification must "
                  "reject any MRS of a key register.\n\n");
    } else {
      // Demonstrate: even reading the key registers at EL1 reveals nothing.
      const auto& kk = m.kernel().keys;
      bool leak = false;
      for (int r = 0; r < 10; ++r) {
        const uint64_t v = m.cpu().sysreg(static_cast<isa::SysReg>(r));
        leak |= v == kk.ib.k0 || v == kk.ib.w0 || v == kk.db.k0;
      }
      std::printf("  key confidentiality: kernel keys never exist in "
                  "EL1-accessible state;\n  key registers hold only the "
                  "current task's user keys (leak check: %s);\n  no XOM page, "
                  "no setter call, no key-read verification needed.\n",
                  leak ? "LEAKED!" : "clean");
    }
  }
  std::printf("\nSame protection strength (see BankedKeys.RopStillDetected "
              "in the test suite),\nlower cost, simpler key-confidentiality "
              "argument — the ISA change the paper asks for pays off.\n");
  return 0;
}
