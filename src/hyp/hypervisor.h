// The EL2 hypervisor.
//
// In the paper the hypervisor is proprietary firmware; here it is host-side
// C++ implementing exactly the properties the design relies on (§3.1, §5.1,
// Appendix A.2):
//
//  * it owns both translation stages — EL1 cannot touch MMU state directly
//    (MSR writes to TTBRx/SCTLR/VBAR trap and are denied after lockdown);
//    the kernel requests address-space switches through HVC;
//  * it enforces execute-only memory via the stage-2 overlay (the key-setter
//    page is fetchable but not readable at EL1);
//  * it write-protects kernel text/rodata at stage 2, realizing the threat
//    model's "adversary cannot modify write-protected memory";
//  * it links, statically verifies (§4.1) and maps loadable kernel modules
//    on behalf of the kernel (HVC LoadModule), rejecting modules that read
//    PAuth key registers or tamper with SCTLR_EL1.
//
// It also provides a console for guest output and the physical-page
// allocator used when loading images.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "compiler/instrument.h"
#include "cpu/cpu.h"
#include "mem/mmu.h"
#include "obj/object.h"

namespace camo::hyp {

/// Guest→hypervisor call numbers (HVC immediate).
enum class HvcCall : uint16_t {
  ConsolePutc = 1,   ///< x0 = character
  ConsoleWrite = 2,  ///< x0 = buffer VA, x1 = length
  SwitchUserSpace = 3,  ///< x0 = address-space id
  LoadModule = 4,    ///< x0 = module id; ret x0 = init fn VA (0 = rejected),
                     ///< x1 = .pauth_init table VA, x2 = entry count
  Lockdown = 5,      ///< lock SCTLR/VBAR for the rest of the run
  SendIpi = 6,       ///< x0 = target core id; rings its IPI doorbell
};

class Hypervisor {
 public:
  explicit Hypervisor(mem::PhysicalMemory& phys);

  // ---- physical memory management ----
  /// Allocate `count` fresh 4 KiB physical pages; returns the base PA.
  uint64_t alloc_pages(uint64_t count);

  // ---- translation ownership ----
  mem::Stage1Map& kernel_map() { return kernel_map_; }
  mem::Stage2Map& stage2() { return stage2_; }
  /// Create an empty user address space; returns its id.
  int create_user_space();
  mem::Stage1Map& user_space(int id);

  /// Map a linked image: allocates physical pages per segment, zero-fills
  /// them (which backs none), copies each segment's bytes (a Bss segment has
  /// none) and installs stage-1 mappings with kind-appropriate permissions
  /// (Text→RX, RoData→RO, Data/Bss→RW). Kernel-half images additionally get
  /// stage-2 write protection on Text and RoData.
  void load_image(const obj::Image& image, mem::Stage1Map& map, bool user);

  /// Map an anonymous zeroed kernel RW region (stacks, heaps).
  void map_kernel_rw(uint64_t va, uint64_t len);
  void map_user_rw(int space, uint64_t va, uint64_t len);

  /// Stage-2 execute-only protection for [va, va+len) of the kernel half
  /// (the key-setter page, §5.1).
  void protect_xom(uint64_t va, uint64_t len);

  // ---- CPU integration ----
  /// Wire a core: point its Mmu at the hypervisor-owned kernel map and
  /// stage-2 overlay (so all cores share one stage-2 physical view by
  /// construction), install the HVC handler and the MSR lockdown filter,
  /// and register it (by cpu_id) as an IPI target for HVC SendIpi. Every
  /// core is wired this one way; its user half stays empty until the guest
  /// switches it by HVC SwitchUserSpace.
  void install(cpu::Cpu& cpu);
  void lockdown() { locked_ = true; }
  bool locked_down() const { return locked_; }
  /// Number of denied EL1 writes to locked MMU registers (attack telemetry).
  uint64_t denied_msr_count() const { return denied_msr_; }

  // ---- modules ----
  /// Register a module (already instrumented). Returns the module id the
  /// guest passes to HVC LoadModule.
  int register_module(std::string name, obj::Program program);
  /// Kernel exports modules may link against.
  void set_kernel_exports(std::unordered_map<std::string, uint64_t> syms) {
    kernel_exports_ = std::move(syms);
  }
  /// The verifier applied to modules (host boot code also uses it for the
  /// kernel image; allow-lists are configured by the bootloader).
  analysis::Verifier& verifier() { return verifier_; }
  /// Result of the most recent module verification (for logs/tests).
  const std::optional<analysis::VerifyResult>& last_module_verify() const {
    return last_verify_;
  }
  /// Loaded-module info (host-side view).
  struct LoadedModule {
    std::string name;
    obj::Image image;
  };
  const std::vector<LoadedModule>& loaded_modules() const { return loaded_; }

  // ---- console ----
  const std::string& console() const { return console_; }

  // ---- observability ----
  /// The collector EL2-side facts are reported to, once each, from the
  /// calling core (HVC calls, module verification, denied MSR writes).
  /// Null disables reporting.
  void set_collector(obs::Collector* c) { obs_ = c; }

 private:
  /// A registered-but-not-yet-loaded module.
  struct PendingModule {
    std::string name;
    obj::Program program;
  };

  void handle_hvc(cpu::Cpu& cpu, uint16_t imm);
  bool filter_msr(cpu::Cpu& cpu, isa::SysReg reg, uint64_t value);
  void do_load_module(cpu::Cpu& cpu);

  mem::PhysicalMemory* phys_;
  mem::Stage1Map kernel_map_;
  mem::Stage2Map stage2_;
  std::vector<std::unique_ptr<mem::Stage1Map>> user_spaces_;
  std::vector<cpu::Cpu*> cpus_;  ///< IPI targets, indexed by cpu_id

  uint64_t next_free_pa_ = 0x100000;  ///< first MiB reserved
  // Module area sits within B/BL range (±32 MiB) of the kernel image, just
  // as Linux keeps its module region near kernel text for direct branches.
  uint64_t next_module_va_ = 0xFFFF000001000000ull;

  bool locked_ = false;
  uint64_t denied_msr_ = 0;

  std::vector<PendingModule> modules_;
  std::vector<LoadedModule> loaded_;
  std::unordered_map<std::string, uint64_t> kernel_exports_;
  analysis::Verifier verifier_;
  std::optional<analysis::VerifyResult> last_verify_;

  std::string console_;
  obs::Collector* obs_ = nullptr;
};

}  // namespace camo::hyp
