// Quickstart: boot a Camouflage-protected kernel on the simulated ARMv8.3
// machine, run a user program, and look at what the protection did.
//
//   $ ./examples/quickstart
//
// Walks through: configuring protection, booting (key generation, XOM
// key-setter synthesis, static verification), running user space, and
// inspecting signed pointers in guest memory.
#include <cstdio>

#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "support/format.h"

int main() {
  using namespace camo;  // NOLINT

  std::printf("Camouflage quickstart\n");
  std::printf("=====================\n\n");

  // 1. Configure: full protection = backward-edge CFI (Camouflage modifier),
  //    forward-edge CFI and data-flow integrity, on an ARMv8.3 core.
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.seed = 0x5EED;
  kernel::Machine m(cfg);

  // 2. Add a user thread: write a few chunks to the ram file, then exit.
  m.add_user_program(
      kernel::workloads::write_file(4, 64, kernel::FileKind::Ram));

  // 3. Boot. The bootloader generates the kernel PAuth keys, embeds them in
  //    the execute-only key-setter page, instruments and links the kernel,
  //    and statically verifies the image. m.kernel() is that one immutable
  //    prepared kernel: image, keys, key-setter address, verify result.
  m.boot();
  const core::PreparedKernel& kernel = m.kernel();
  std::printf("booted kernel at %s\n",
              hex(kernel::kKernelBase).c_str());
  std::printf("  protection:      %s\n",
              cfg.kernel.protection.describe().c_str());
  std::printf("  key setter (XOM): %s (1 page, execute-only)\n",
              hex(kernel.key_setter_va).c_str());
  std::printf("  static verify:    %s\n",
              kernel.verify.describe().c_str());

  // 4. Run to completion.
  m.run();
  std::printf("\nrun finished: halt=0x%llx (0x%x = all tasks exited), "
              "%llu instructions, %llu cycles\n",
              static_cast<unsigned long long>(m.halt_code()),
              kernel::kHaltDone,
              static_cast<unsigned long long>(m.cpu().retired()),
              static_cast<unsigned long long>(m.cpu().cycles()));

  // 5. Inspect protection artifacts in guest memory.
  const uint64_t work_slot = m.kernel_symbol(kernel::kSymStaticWork) + 8;
  const uint64_t signed_ptr = m.read_u64(work_slot);
  const uint64_t raw = m.kernel_symbol("default_work");
  std::printf("\nstatic work item (DECLARE_WORK analogue, §4.6):\n");
  std::printf("  slot value:   %s  <-- PAC in bits 63:48\n",
              hex(signed_ptr).c_str());
  std::printf("  raw function: %s\n", hex(raw).c_str());
  std::printf("  stripped:     %s (matches: %s)\n",
              hex(m.cpu().pauth().strip(signed_ptr)).c_str(),
              m.cpu().pauth().strip(signed_ptr) == raw ? "yes" : "NO");

  const uint64_t fops = m.read_u64(m.file_struct(0) + kernel::file::kFops);
  std::printf("\nconsole file f_ops pointer (Listing 4 pattern, §4.5):\n");
  std::printf("  stored signed: %s\n", hex(fops).c_str());
  std::printf("  ops table:     %s (.rodata, write-protected)\n",
              hex(m.kernel_symbol("con_fops")).c_str());

  // 6. The keys never appear in readable memory; reading the setter page
  //    with a kernel-level read primitive fails.
  const auto r = m.mmu().translate(kernel.key_setter_va, mem::Access::Read,
                                   mem::El::El1);
  std::printf("\nEL1 read of the key-setter page: %s fault (expected: "
              "stage2-permission)\n",
              mem::fault_name(r.fault));
  std::printf("\nOK. Next: examples/rop_attack_demo, "
              "examples/pointer_protection, examples/module_verification.\n");
  return 0;
}
