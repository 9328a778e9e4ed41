// Protection-preset helpers shared by the workloads.
#include <algorithm>

#include "attacks/attacks.h"
#include "common.h"
#include "core/bootloader.h"
#include "kernel/abi.h"
#include "kernel/kernel_builder.h"
#include "kernel/machine.h"

namespace perfbench {

size_t preset_index(const std::string& config) {
  const auto& names = camo::attacks::attack_config_names();
  return static_cast<size_t>(
      std::find(names.begin(), names.end(), config) - names.begin());
}

void prepare_kernel(const camo::compiler::ProtectionConfig& prot,
                    uint64_t seed) {
  namespace ck = camo::kernel;
  Scope s("core.prepare");
  ck::KernelConfig kcfg;
  kcfg.protection = prot;
  ck::KernelBuilder kb(kcfg);
  // One user task, as every benchmark machine has: the task table is part
  // of the image.
  ck::TaskSpec spec;
  spec.user_pc = ck::kUserBase;
  spec.user_sp = ck::kUserStackTop;
  spec.space_id = 1;
  kb.add_task(spec);
  camo::core::BootConfig bcfg;
  bcfg.seed = seed;
  bcfg.protection = prot;
  bcfg.entry_symbol = "early_boot";
  bcfg.key_write_symbols = ck::KernelBuilder::key_write_symbols();
  (void)camo::core::Bootloader::prepare(kb.build(), bcfg, ck::kKernelBase);
}

}  // namespace perfbench
