// Machine: the full simulated system — physical memory, MMU, hypervisor,
// CPU, booted Camouflage kernel, user programs in their own address spaces,
// and registered loadable modules.
//
// This is the facade examples, benches and the attack framework build on:
// construct, add user programs / modules, boot(), run(), then inspect guest
// state through the kernel symbol table.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bootloader.h"
#include "cpu/cpu.h"
#include "hyp/hypervisor.h"
#include "kernel/abi.h"
#include "kernel/image_cache.h"
#include "kernel/kernel_builder.h"
#include "mem/mmu.h"
#include "obj/object.h"
#include "obs/collector.h"

namespace camo::kernel {

struct MachineConfig {
  KernelConfig kernel;
  cpu::Cpu::Config cpu;
  obs::Options obs;                  ///< observability (off by default)
  uint64_t seed = 0xC0FFEE;          ///< boot entropy (kernel + user keys)
  uint64_t phys_bytes = 64ull << 20;
  uint64_t preempt_timeslice = 20000;  ///< cycles, when kernel.preempt is set
  /// Guest core count. 1 (the default) is the classic uniprocessor machine,
  /// bit-for-bit identical to the pre-SMP implementation. N > 1 instantiates
  /// N cores sharing one physical memory and stage-2 view, each with its own
  /// stage-1 state, key registers/bank, micro-TLB and superblock cache,
  /// driven by a deterministic round-robin quantum interleaver. Kept
  /// coherent with kernel.num_cpus (either setting raises the other).
  unsigned cores = 1;
  /// Interleaver quantum: max instructions one core retires before the next
  /// core runs. Part of the simulated contract (like preempt_timeslice):
  /// results are a pure function of (config, cores, the run() budgets) —
  /// never host timing.
  uint64_t smp_quantum = 10000;
  /// Identity of this machine within a multi-machine process (fleet task
  /// index). Namespaces the per-machine host gauges ("host.throughput.m<id>")
  /// so merged fleet registries keep every machine's reading distinct.
  unsigned machine_id = 0;
  /// Optional shared prepared-kernel cache: when set, boot() reuses the
  /// built + verified + signed kernel image of any earlier machine with an
  /// identical configuration instead of preparing its own (DESIGN.md §3d).
  /// Guest-visible state is identical either way.
  std::shared_ptr<ImageCache> image_cache;
};

/// User stack placement (top of the mapped user stack region).
inline constexpr uint64_t kUserStackTop = 0x0000000080000000ull;
inline constexpr uint64_t kUserStackSize = 0x10000;

class Machine {
 public:
  explicit Machine(MachineConfig cfg = {});

  // ---- pre-boot configuration ----
  /// Add a user thread running `prog` (un-instrumented; the user ABI is
  /// preserved, R5) in its own address space. Returns the pid (1-based).
  /// `entry` is the symbol execution starts at.
  int add_user_program(obj::Program prog, const std::string& entry = "_ustart");
  /// Register a loadable module (instrumented with the kernel's protection
  /// config, §4.1). Returns the module id for Sys::InitModule.
  int register_module(const std::string& name, obj::Program prog);

  /// Build + verify + load + start the kernel. Throws on verification
  /// failure. After boot() the CPU sits at the kernel entry point.
  void boot();

  // ---- execution ----
  /// Run until halt or step budget exhaustion. Returns true if halted.
  /// On more than one core the budget split matters: each call restarts
  /// the interleaver's round at core 0, so run(n) slices can end elsewhere
  /// than one run() (DESIGN.md §3h). At one core any split ends the same.
  /// Host wall-clock spent inside the CPU loop is accumulated for the
  /// throughput gauge (host-side only; simulated state is unaffected).
  bool run(uint64_t max_steps = 200'000'000);

  /// Total host seconds spent in run() so far.
  double host_seconds() const { return host_seconds_; }
  /// Guest instructions retired per host second across all run() calls and
  /// all cores (0 before the first run). Also published as the
  /// "host.throughput" gauge on stats() when observability is enabled.
  double host_throughput() const {
    return host_seconds_ > 0
               ? static_cast<double>(total_retired()) / host_seconds_
               : 0;
  }

  /// Machine-level halt: a single-core machine is halted when its core is;
  /// a multi-core machine is halted when any core halted abnormally (panic
  /// stops the machine) or every core reached its normal HLT.
  bool halted() const;
  /// First abnormal halt code in core order, else core 0's code.
  uint64_t halt_code() const;
  const std::string& console() const { return hv_.console(); }

  // ---- component access ----
  /// Core 0, the one that runs early_boot.
  cpu::Cpu& cpu() { return core(0); }
  const cpu::Cpu& cpu() const { return core(0); }
  /// Number of guest cores (== config().cores after coherence).
  unsigned cores() const { return static_cast<unsigned>(cores_.size()); }
  /// Core `c`; throws camo::Error past the last core.
  cpu::Cpu& core(unsigned c);
  const cpu::Cpu& core(unsigned c) const;
  /// Instructions retired summed over all cores (what fleet stats report).
  uint64_t total_retired() const;
  /// Core 0's stage-1 Mmu (host-side reads and writes translate through it).
  mem::Mmu& mmu() { return cpu().mmu(); }
  hyp::Hypervisor& hyp() { return hv_; }
  /// The booted kernel: image, keys, verify result. Shared with every
  /// machine booted from the same ImageCache entry.
  const core::PreparedKernel& kernel() const { return *kernel_; }
  const MachineConfig& config() const { return cfg_; }

  /// Per-machine observability (event ring, metrics, profiler). Non-null
  /// only when MachineConfig::obs.enabled was set before boot().
  obs::Collector* stats() { return stats_.get(); }
  const obs::Collector* stats() const { return stats_.get(); }

  /// Fill a flight snapshot with the current architectural state (registers,
  /// PSTATE, key banks with provenance, MMU fetch-epoch generations).
  /// Everything read is guest-deterministic; works with observability off.
  /// This is both the flight recorder's state provider and the divergence
  /// bisector's digest source (obs/digest.h).
  void fill_snapshot(obs::FlightSnapshot& s) const;

  // ---- guest state inspection / manipulation (host-side) ----
  uint64_t kernel_symbol(const std::string& name) const;
  uint64_t read_u64(uint64_t va) const;
  void write_u64(uint64_t va, uint64_t value);  ///< the attacker's primitive
  uint64_t read_global(const std::string& sym) const;
  /// Address of the task struct for `pid`.
  uint64_t task_struct(unsigned pid) const;
  /// Address of file_table[fd].
  uint64_t file_struct(unsigned fd) const;
  /// Symbol address within pid's user image (1-based pid).
  uint64_t user_symbol(unsigned pid, const std::string& name) const;
  /// Read a u64 from pid's user address space, whichever space each core
  /// has active. Walks pid's map; no core's translation state changes.
  uint64_t read_user_u64(unsigned pid, uint64_t va);

 private:
  void attach_observability();
  void annotate_coverage_regions();
  /// cpu::publish_retire_counters over every core, into stats().
  void publish_retire_counters();

  /// One guest core: its own stage-1 Mmu (sharing pm_ and the hypervisor's
  /// kernel map + stage-2 overlay) and its own Cpu (key bank, micro-TLB,
  /// superblock cache). Pinned on the heap: the Cpu points at the Mmu and
  /// the hypervisor at the Cpu.
  struct Core {
    Core(mem::PhysicalMemory& pm, const cpu::Cpu::Config& cfg)
        : mmu(pm, cfg.layout), cpu(mmu, cfg) {}
    mem::Mmu mmu;
    cpu::Cpu cpu;
  };

  MachineConfig cfg_;
  mem::PhysicalMemory pm_;
  hyp::Hypervisor hv_;
  std::vector<std::unique_ptr<Core>> cores_;
  /// Core the interleaver ran most recently (snapshot attribution).
  unsigned last_core_ = 0;
  KernelBuilder kb_;
  std::unique_ptr<obs::Collector> stats_;
  std::shared_ptr<const core::PreparedKernel> kernel_;
  std::vector<obj::Image> user_images_;  ///< indexed by pid - 1
  std::vector<int> user_spaces_;
  unsigned next_pid_ = 1;
  double host_seconds_ = 0;
  /// This machine's boot built the shared prepared kernel (image-cache
  /// miss) rather than installing an earlier machine's (hit). Meaningful
  /// only when config().image_cache is set.
  bool imgcache_built_ = false;
};

}  // namespace camo::kernel
