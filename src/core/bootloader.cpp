#include "core/bootloader.h"

#include "core/keysetter.h"
#include "support/bits.h"
#include "support/error.h"

namespace camo::core {

PreparedKernel Bootloader::prepare(obj::Program kernel, const BootConfig& cfg,
                                   uint64_t kernel_base) {
  if (!is_aligned(kernel_base, mem::VaLayout::kPageSize))
    fail("bootloader: kernel base must be page aligned");

  PreparedKernel pk;
  pk.keys = KernelKeys::generate(cfg.seed);

  // Key usage follows the build flavour: compat builds can only switch the
  // shared IB key (§5.5).
  const KeyUsage usage =
      cfg.protection.compat_mode ? KeyUsage::compat() : cfg.key_usage;

  // Splice the synthesized key setter in front so it occupies the (page
  // aligned) first page of .text.
  kernel.add_function_front(make_key_setter(pk.keys, usage));

  compiler::instrument(kernel, cfg.protection);
  pk.image = obj::Linker::link(kernel, kernel_base);
  pk.key_setter_va = pk.image.symbol(kKeySetterSymbol);
  pk.entry_va = pk.image.symbol(cfg.entry_symbol);

  // §4.1 static verification of the full kernel image, against the same
  // allow-lists install() will arm the machine's hypervisor with.
  pk.key_write_ranges.push_back({pk.key_setter_va, mem::VaLayout::kPageSize});
  for (const auto& sym : cfg.key_write_symbols) {
    if (!pk.image.has_symbol(sym)) continue;
    pk.key_write_ranges.push_back(
        {pk.image.symbol(sym), pk.image.function_sizes.at(sym)});
  }
  if (pk.image.has_symbol(cfg.early_boot_symbol)) {
    const uint64_t eb = pk.image.symbol(cfg.early_boot_symbol);
    const auto it = pk.image.function_sizes.find(cfg.early_boot_symbol);
    const uint64_t len = it == pk.image.function_sizes.end()
                             ? mem::VaLayout::kPageSize
                             : it->second;
    pk.sctlr_write_ranges.push_back({eb, len});
  }
  analysis::Verifier verifier;
  for (const auto& r : pk.key_write_ranges)
    verifier.allow_key_writes(r.va, r.len);
  for (const auto& r : pk.sctlr_write_ranges)
    verifier.allow_sctlr_writes(r.va, r.len);
  pk.verify = verifier.verify_image(pk.image);
  if (cfg.verify_kernel && !pk.verify.ok())
    fail("bootloader: kernel verification failed: " + pk.verify.describe());
  return pk;
}

void Bootloader::install(const PreparedKernel& pk, hyp::Hypervisor& hv,
                         cpu::Cpu& cpu, uint64_t boot_sp) {
  // Replay the prepare-time allow-lists so module loads on this machine
  // verify under identical rules.
  for (const auto& r : pk.key_write_ranges)
    hv.verifier().allow_key_writes(r.va, r.len);
  for (const auto& r : pk.sctlr_write_ranges)
    hv.verifier().allow_sctlr_writes(r.va, r.len);

  // Load and lock down memory; conceal the keys behind XOM.
  hv.load_image(pk.image, hv.kernel_map(), /*user=*/false);
  hv.protect_xom(pk.key_setter_va, mem::VaLayout::kPageSize);
  hv.set_kernel_exports(pk.image.symbols);

  // Hand over to EL1: MMU state is hypervisor-owned, PAuth still disabled in
  // SCTLR (early boot enables it), IRQs masked.
  cpu.pstate.el = mem::El::El1;
  cpu.pstate.irq_masked = true;
  cpu.set_sysreg(isa::SysReg::SCTLR_EL1, 0);
  cpu.set_sp_el(mem::El::El1, boot_sp);
  cpu.pc = pk.entry_va;
}

}  // namespace camo::core
