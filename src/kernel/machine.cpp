#include "kernel/machine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "compiler/instrument.h"
#include "support/error.h"
#include "support/format.h"
#include "support/rng.h"

namespace camo::kernel {

Machine::Machine(MachineConfig cfg)
    : cfg_([&] {
        // The §8 banked-keys extension involves both the core and the
        // kernel build; setting either flag enables both sides coherently.
        cfg.kernel.banked_keys |= cfg.cpu.banked_keys;
        cfg.cpu.banked_keys |= cfg.kernel.banked_keys;
        // Core count likewise spans both sides: the machine instantiates
        // `cores` CPUs and the kernel image must be built for that many
        // (swapper slots, scheduler shape). Either setting raises the other.
        const unsigned want = std::max(cfg.cores == 0 ? 1u : cfg.cores,
                                       cfg.kernel.num_cpus == 0
                                           ? 1u
                                           : cfg.kernel.num_cpus);
        cfg.cores = want;
        cfg.kernel.num_cpus = want;
        return cfg;
      }()),
      pm_(cfg.phys_bytes),
      hv_(pm_),
      kb_(cfg.kernel) {
  // Every core the same way: own Mmu and Cpu, wired by the hypervisor to
  // the shared kernel map and stage-2 overlay and registered as an IPI
  // target.
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    cores_.push_back(std::make_unique<Core>(pm_, cfg_.cpu));
    cpu::Cpu& cc = cores_.back()->cpu;
    cc.set_cpu_id(c);
    hv_.install(cc);
  }
}

cpu::Cpu& Machine::core(unsigned c) {
  if (c >= cores_.size()) fail("machine: bad core index");
  return cores_[c]->cpu;
}

const cpu::Cpu& Machine::core(unsigned c) const {
  if (c >= cores_.size()) fail("machine: bad core index");
  return cores_[c]->cpu;
}

uint64_t Machine::total_retired() const {
  uint64_t n = 0;
  for (const auto& k : cores_) n += k->cpu.retired();
  return n;
}

bool Machine::halted() const {
  bool all = true;
  for (unsigned c = 0; c < cores(); ++c) {
    const cpu::Cpu& cc = core(c);
    if (cc.halted() && cc.halt_code() != kHaltDone) return true;
    all = all && cc.halted();
  }
  return all;
}

uint64_t Machine::halt_code() const {
  for (unsigned c = 0; c < cores(); ++c) {
    const cpu::Cpu& cc = core(c);
    if (cc.halted() && cc.halt_code() != kHaltDone) return cc.halt_code();
  }
  return cpu().halt_code();
}

int Machine::add_user_program(obj::Program prog, const std::string& entry) {
  if (kernel_) fail("machine: add programs before boot()");
  // User binaries keep the stock ABI (R5): no kernel instrumentation is
  // applied; they are free to use PAuth with their own EL0 keys.
  compiler::instrument(prog, compiler::ProtectionConfig::none());
  const obj::Image img = obj::Linker::link(prog, kUserBase);

  const int space = hv_.create_user_space();
  hv_.load_image(img, hv_.user_space(space), /*user=*/true);
  hv_.map_user_rw(space, kUserStackTop - kUserStackSize, kUserStackSize);
  user_images_.push_back(img);
  user_spaces_.push_back(space);

  TaskSpec spec;
  spec.user_pc = img.symbol(entry);
  spec.user_sp = kUserStackTop;
  spec.space_id = static_cast<uint64_t>(space);
  // Per-thread EL0 keys, freshly generated like exec() does (§2.2).
  Xoshiro256 rng(cfg_.seed ^ (0x9E37ull * next_pid_));
  for (auto& half : spec.user_keys) half = rng.next();
  kb_.add_task(spec);
  return static_cast<int>(next_pid_++);
}

int Machine::register_module(const std::string& name, obj::Program prog) {
  // LKMs are built with the same compiler configuration as the kernel.
  compiler::instrument(prog, cfg_.kernel.protection);
  return hv_.register_module(name, std::move(prog));
}

void Machine::boot() {
  if (kernel_) fail("machine: already booted");
  // Boot stack for the swapper context (becomes task 0's kernel stack).
  hv_.map_kernel_rw(kBootStackTop - kKernelStackSize, kKernelStackSize);

  core::BootConfig bcfg;
  bcfg.seed = cfg_.seed;
  bcfg.protection = cfg_.kernel.protection;
  bcfg.entry_symbol = "early_boot";
  bcfg.key_write_symbols = KernelBuilder::key_write_symbols();
  const auto prepare = [&] {
    return core::Bootloader::prepare(kb_.build(), bcfg, kKernelBase);
  };
  if (cfg_.image_cache) {
    // Fleet path: build + verify + sign the kernel once per configuration;
    // every later machine with the same key installs the one shared image.
    kernel_ = cfg_.image_cache->get(
        ImageCache::key_for(cfg_.kernel, cfg_.seed, kb_.tasks()), [&] {
          imgcache_built_ = true;
          return prepare();
        });
  } else {
    kernel_ = std::make_shared<const core::PreparedKernel>(prepare());
  }
  core::Bootloader::install(*kernel_, hv_, cpu(), kBootStackTop);

  // Attach before any guest instruction executes so the collector sees the
  // whole run (the bootloader only stages memory and registers; all guest
  // cycles flow through Cpu::step()).
  if (cfg_.obs.enabled) attach_observability();

  if (cfg_.kernel.preempt)
    for (const auto& k : cores_)
      k->cpu.set_timer_period(cfg_.preempt_timeslice);

  // Secondary bring-up: host-side "PSCI firmware" mirroring what core 0 does
  // for itself in early_boot plus what Bootloader::install staged — PAuth
  // enable bits, vectors, kernel keys (the bank is provisioned below), a
  // private boot stack, TPIDR_EL1 at the core's swapper slot, and the pc
  // parked at secondary_idle (which spins until core 0 raises smp_online).
  const core::KernelKeys& keys = kernel_->keys;
  const obj::Image& img = kernel_->image;
  const bool protected_build =
      cfg_.kernel.protection.backward != compiler::BackwardScheme::None ||
      cfg_.kernel.protection.forward_cfi || cfg_.kernel.protection.dfi;
  for (unsigned c = 1; c < cores(); ++c) {
    cpu::Cpu& cc = core(c);
    const uint64_t stack_top = kBootStackTop - c * kKernelStackSize;
    hv_.map_kernel_rw(stack_top - kKernelStackSize, kKernelStackSize);
    cc.pstate.el = mem::El::El1;
    cc.pstate.irq_masked = true;
    cc.set_sysreg(isa::SysReg::SCTLR_EL1,
                  isa::kSctlrEnIA | isa::kSctlrEnIB | isa::kSctlrEnDA |
                      isa::kSctlrEnDB);
    cc.set_sysreg(isa::SysReg::VBAR_EL1, img.symbol("vectors"));
    cc.set_sp_el(mem::El::El1, stack_top);
    // Swapper slot for core c sits just past the user tasks.
    cc.set_sysreg(isa::SysReg::TPIDR_EL1,
                  img.symbol(kSymTaskArray) +
                      (kb_.task_count() + c) * kTaskSize);
    cc.pc = img.symbol(kSymSecondaryIdle);
    if (!cfg_.cpu.banked_keys && protected_build) {
      // Same halves the XOM key setter writes on core 0 (Lo=k0, Hi=w0).
      const auto install = [&cc](isa::SysReg lo, isa::SysReg hi,
                                 const qarma::Key128& k) {
        cc.set_sysreg(lo, k.k0);
        cc.set_sysreg(hi, k.w0);
      };
      install(isa::SysReg::APIAKeyLo, isa::SysReg::APIAKeyHi, keys.ia);
      install(isa::SysReg::APIBKeyLo, isa::SysReg::APIBKeyHi, keys.ib);
      install(isa::SysReg::APDAKeyLo, isa::SysReg::APDAKeyHi, keys.da);
      install(isa::SysReg::APDBKeyLo, isa::SysReg::APDBKeyHi, keys.db);
      install(isa::SysReg::APGAKeyLo, isa::SysReg::APGAKeyHi, keys.ga);
    }
  }

  // §8 extension: the "hypervisor" provisions each core's kernel key bank
  // directly — the keys never exist in EL1-accessible state. Every core's pc
  // is parked by now, so each install is reported at its core's entry.
  if (cfg_.cpu.banked_keys) {
    for (unsigned c = 0; c < cores(); ++c) {
      cpu::Cpu& cc = core(c);
      cc.set_kernel_bank_key(cpu::PacKey::IA, keys.ia);
      cc.set_kernel_bank_key(cpu::PacKey::IB, keys.ib);
      cc.set_kernel_bank_key(cpu::PacKey::DA, keys.da);
      cc.set_kernel_bank_key(cpu::PacKey::DB, keys.db);
      cc.set_kernel_bank_key(cpu::PacKey::GA, keys.ga);
    }
  }
}

void Machine::attach_observability() {
  stats_ = std::make_unique<obs::Collector>(cfg_.obs);
  // Every core feeds the one per-machine collector; obs sinks never cost
  // simulated cycles.
  for (unsigned c = 0; c < cores(); ++c) {
    cpu::Cpu& cc = core(c);
    cc.set_collector(stats_.get());
    cc.set_cycle_attributor(stats_.get());
    if (cfg_.obs.callgraph) cc.set_cf_sink(stats_.get());
    if (cfg_.obs.coverage) cc.set_coverage(&stats_->coverage());
  }
  // The retire counters exist from the start, as zeros (run() publishes
  // their values).
  publish_retire_counters();
  // CPU and hypervisor reports land in the collector's event ring (DESIGN.md
  // §3a, §3f); facts are stamped with this machine's fleet identity so
  // merged streams stay per-machine attributable.
  stats_->set_machine_id(cfg_.machine_id);
  hv_.set_collector(stats_.get());
  // Flight-recorder state provider: fills the machine-state snapshot at
  // capture time. Everything read there is guest-deterministic.
  stats_->flight().set_state_provider(
      [this](obs::FlightSnapshot& s) { fill_snapshot(s); });

  // Execution coverage (DESIGN.md §3g): annotate the PA-keyed map with
  // kernel functions + protected-table rows so report tooling can list
  // never-executed rows (the per-core attach happened above).
  if (cfg_.obs.coverage) annotate_coverage_regions();

  if (cfg_.obs.callgraph) {
    const auto add_region = [&](const std::string& name, uint64_t start,
                                uint64_t end) {
      stats_->callgraph().add_region(name, start, end);
    };
    const obj::Image& img = kernel_->image;
    for (const auto& [name, size] : img.function_sizes) {
      const uint64_t va = img.symbol(name);
      add_region(name, va, va + size);
    }
    // User programs all link at kUserBase in separate address spaces, so
    // their texts overlap in VA; profile them as one aggregate region.
    uint64_t user_end = 0;
    for (const auto& u : user_images_)
      if (u.end_va() > user_end) user_end = u.end_va();
    if (user_end > kUserBase) add_region("[user]", kUserBase, user_end);
  }

  if (kernel_->image.has_symbol(kSymCpuSwitchTo)) {
    obs::Collector* c = stats_.get();
    const uint64_t va = kernel_->image.symbol(kSymCpuSwitchTo);
    for (unsigned i = 0; i < cores(); ++i) {
      core(i).add_breakpoint(va, [c](cpu::Cpu& cc) {
        // x0/x1: the prev and next task structs
        c->context_switch(cc.obs_site(cc.pc), cc.x(0), cc.x(1));
      });
    }
  }
}

void Machine::fill_snapshot(obs::FlightSnapshot& s) const {
  using isa::SysReg;
  // Snapshot the core the interleaver ran last — the one whose retirement
  // (or violation) prompted the capture. Single-core machines always read
  // core 0, exactly the pre-SMP behaviour.
  const cpu::Cpu& cc = core(last_core_);
  for (unsigned i = 0; i < 31; ++i) s.x[i] = cc.x(i);
  s.sp_el0 = cc.sp_el(mem::El::El0);
  s.sp_el1 = cc.sp_el(mem::El::El1);
  s.pc = cc.pc;
  s.el = static_cast<uint8_t>(cc.pstate.el);
  s.banked_keys = cc.config().banked_keys;
  s.elr_el1 = cc.sysreg(SysReg::ELR_EL1);
  s.spsr_el1 = cc.sysreg(SysReg::SPSR_EL1);
  s.esr_el1 = cc.sysreg(SysReg::ESR_EL1);
  s.far_el1 = cc.sysreg(SysReg::FAR_EL1);
  s.vbar_el1 = cc.sysreg(SysReg::VBAR_EL1);
  s.sctlr_el1 = cc.sysreg(SysReg::SCTLR_EL1);
  s.pending_esr = s.esr_el1;  // last syndrome delivered to EL1
  for (unsigned k = 0; k < 5; ++k) {
    const auto key = static_cast<cpu::PacKey>(k);
    s.keys[k].lo = cc.sysreg(static_cast<SysReg>(k * 2));
    s.keys[k].hi = cc.sysreg(static_cast<SysReg>(k * 2 + 1));
    s.keys[k].prov = cc.sysreg_key_provenance(key);
    const qarma::Key128& b = cc.kernel_bank_key(key);
    s.bank[k].lo = b.k0;
    s.bank[k].hi = b.w0;
    s.bank[k].prov = cc.bank_key_provenance(key);
  }
  const mem::Mmu::FetchEpoch ep = cc.mmu().fetch_epoch(cc.pc);
  // Map uids are process-global host identity (ABA bookkeeping), not
  // guest state: only the deterministic generations go into the bundle.
  s.s1_gen = ep.s1_gen;
  s.s2_gen = ep.s2_gen;
  s.cpu = static_cast<uint8_t>(last_core_);
}

void Machine::annotate_coverage_regions() {
  const obj::Image& img = kernel_->image;
  obs::CoverageMap& cov = stats_->coverage();
  // Host-level fetch translation of a kernel text/rodata VA.
  const auto pa_of = [&](uint64_t va, uint64_t* pa) {
    const auto t = cpu().mmu().translate(va, mem::Access::Fetch, mem::El::El2);
    if (t.fault != mem::FaultKind::None) return false;
    *pa = t.pa;
    return true;
  };
  // One region per physically-contiguous chunk of [va, va+size); the map is
  // PA-keyed, so a function split across non-adjacent frames yields several
  // regions under the same label.
  const auto add_fn = [&](const std::string& label, uint64_t va, uint64_t size,
                          const std::string& table, int row) {
    const uint64_t end = va + size;
    while (va < end) {
      uint64_t pa = 0;
      if (!pa_of(va, &pa)) return;
      uint64_t len = std::min<uint64_t>(end - va, 0x1000 - (va & 0xFFF));
      while (va + len < end) {
        uint64_t pn = 0;
        if (!pa_of(va + len, &pn) || pn != pa + len) break;
        len += std::min<uint64_t>(end - (va + len), 0x1000);
      }
      cov.add_region({label, pa, len, table, row});
      va += len;
    }
  };

  // Kernel functions, in name order (deterministic region list regardless
  // of the symbol table's hash order).
  std::vector<std::pair<std::string, uint64_t>> fns(img.function_sizes.begin(),
                                                    img.function_sizes.end());
  std::sort(fns.begin(), fns.end());
  for (const auto& [name, size] : fns) add_fn(name, img.symbol(name), size, "", -1);

  // Protected-table rows: resolve each (unsigned .rodata, §4.4) function
  // pointer back to its owning function so `camo-cov report` can list rows
  // an attack or workload never reached.
  const auto owner_of =
      [&](uint64_t ptr) -> const std::pair<std::string, uint64_t>* {
    for (const auto& f : fns) {
      const uint64_t fva = img.symbol(f.first);
      if (ptr >= fva && ptr < fva + f.second) return &f;
    }
    return nullptr;
  };
  const auto annotate_table = [&](const std::string& table, size_t rows) {
    if (!img.has_symbol(table)) return;
    const uint64_t base = img.symbol(table);
    for (size_t i = 0; i < rows; ++i) {
      const uint64_t ptr = read_u64(base + 8 * i);
      const auto* f = owner_of(ptr);
      if (f == nullptr) continue;
      add_fn(strformat("%s[%zu]:%s", table.c_str(), i, f->first.c_str()),
             img.symbol(f->first), f->second, table, static_cast<int>(i));
    }
  };
  annotate_table("syscall_table", static_cast<size_t>(Sys::kCount));
  annotate_table("hook_registry", 2);
  for (const char* fops : {"null_fops", "ram_fops", "con_fops"})
    annotate_table(fops, 2);
}

bool Machine::run(uint64_t max_steps) {
  const auto t0 = std::chrono::steady_clock::now();
  if (cores() == 1) {
    // Not the loop below at one core: that budgets by retirements, this by
    // steps (an IRQ delivery is a step that retires nothing).
    cpu().run(max_steps);
  } else {
    // Deterministic round-robin quantum interleaver: core order, quantum
    // size and the step budget are all part of the simulated contract, so
    // the interleaving — and therefore every guest-visible outcome — is a
    // pure function of (config, cores, the budgets of the run() calls),
    // bit-identical across hosts, load and fleet --jobs values. One
    // instruction is never split, which is what makes the guest's SWP
    // runqueue lock atomic.
    uint64_t remaining = max_steps;
    while (remaining > 0) {
      bool progress = false;
      bool abnormal = false;
      for (unsigned c = 0; c < cores() && remaining > 0; ++c) {
        cpu::Cpu& cc = core(c);
        if (cc.halted()) {
          // A panic on any core stops the whole machine mid-round.
          if (cc.halt_code() != kHaltDone) abnormal = true;
          if (abnormal) break;
          continue;
        }
        last_core_ = c;
        const uint64_t want = std::min<uint64_t>(cfg_.smp_quantum, remaining);
        const uint64_t ret = cc.run(want);
        if (ret > 0) progress = true;
        // Budget by retirements, but charge a full quantum for a turn that
        // retired nothing (pure IRQ delivery) so the loop always advances.
        remaining -= std::min(remaining, ret > 0 ? ret : want);
        if (cc.halted() && cc.halt_code() != kHaltDone) {
          abnormal = true;
          break;
        }
      }
      if (abnormal || !progress) break;
    }
  }
  host_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (stats_) {
    publish_retire_counters();
    // Fast-path cache statistics are host-side and accumulate inside the
    // CPUs/MMUs; publish them as registry counters by delta so the registry
    // stays monotonic across multiple run() calls. Multi-core machines sum
    // across cores — at cores=1 the sums equal the old single-core values.
    obs::Registry& reg = stats_->metrics();
    const auto sync = [&reg](const char* name, uint64_t total) {
      reg.counter(name).raise_to(total);
    };
    // `name` <- one field of a per-core stats struct, summed over cores.
    const auto sum = [&](const char* name, auto stats, auto field) {
      uint64_t total = 0;
      for (unsigned c = 0; c < cores(); ++c) total += stats(core(c)).*field;
      sync(name, total);
    };
    using Tlb = mem::Mmu::TlbStats;
    using Pac = cpu::PauthUnit::PacCacheStats;
    using Sb = cpu::SuperblockStats;
    const auto tlb = [](cpu::Cpu& c) -> const Tlb& {
      return c.mmu().tlb_stats();
    };
    const auto pac = [](cpu::Cpu& c) -> const Pac& {
      return c.pauth().pac_cache_stats();
    };
    const auto sb = [](cpu::Cpu& c) -> const Sb& {
      return c.superblock_stats();
    };
    sum("fastpath.tlb.hit", tlb, &Tlb::hits);
    sum("fastpath.tlb.miss", tlb, &Tlb::misses);
    sum("fastpath.tlb.flush", tlb, &Tlb::flushes);
    sum("fastpath.pac.hit", pac, &Pac::hits);
    sum("fastpath.pac.miss", pac, &Pac::misses);
    sum("fastpath.sb.blocks", sb, &Sb::blocks);
    sum("fastpath.sb.hits", sb, &Sb::hits);
    sum("fastpath.sb.invalidations", sb, &Sb::invalidations);
    sum("fastpath.sb.chain_hits", sb, &Sb::chain_hits);
    sum("fastpath.trace.formed", sb, &Sb::trace_formations);
    sum("fastpath.trace.hits", sb, &Sb::trace_hits);
    sum("fastpath.trace.guard_exits", sb, &Sb::trace_guard_exits);
    sum("fastpath.trace.invalidations", sb, &Sb::trace_invalidations);
    sum("fastpath.trace.demotions", sb, &Sb::trace_demotions);
    // Image-cache reuse telemetry, cached boots only (uncached machines
    // keep their exact registry shape). Each machine either built the
    // shared prepared kernel (miss) or installed an earlier machine's
    // (hit). Fleet merges sum the per-machine counters, so the totals
    // equal ImageCache::stats() across any obs-enabled sweep.
    if (cfg_.image_cache) {
      sync("imgcache.hits", imgcache_built_ ? 0 : 1);
      sync("imgcache.misses", imgcache_built_ ? 1 : 0);
    }
    // Both the aggregate name (single-machine consumers, this registry's
    // own view) and the machine-id-namespaced name: fleet merges combine
    // many machines' registries in one process, where a shared gauge name
    // would collide last-writer-wins (the merge then recomputes the
    // aggregate from summed instret/host-seconds).
    reg.gauge("host.throughput").set(host_throughput());
    reg.gauge(strformat("host.throughput.m%u", cfg_.machine_id))
        .set(host_throughput());
    // Per-core gauges, multi-core machines only (single-core registries
    // keep their exact pre-SMP shape): host-side informational readings.
    if (cores() > 1) {
      for (unsigned c = 0; c < cores(); ++c) {
        const double tp =
            host_seconds_ > 0
                ? static_cast<double>(core(c).retired()) / host_seconds_
                : 0;
        reg.gauge(strformat("host.throughput.m%u.c%u", cfg_.machine_id, c))
            .set(tp);
      }
    }
  }
  return halted();
}

void Machine::publish_retire_counters() {
  std::vector<const cpu::Cpu*> cpus;
  for (unsigned c = 0; c < cores(); ++c) cpus.push_back(&core(c));
  cpu::publish_retire_counters(stats_->metrics(), cpus);
}

uint64_t Machine::kernel_symbol(const std::string& name) const {
  if (!kernel_) fail("machine: not booted");
  return kernel_->image.symbol(name);
}

uint64_t Machine::read_u64(uint64_t va) const {
  const auto r = cpu().mmu().read64(va, mem::El::El2);
  if (r.fault != mem::FaultKind::None)
    fail("machine: read_u64 fault at " + hex_short(va));
  return r.value;
}

void Machine::write_u64(uint64_t va, uint64_t value) {
  // Host-level write bypassing stage-2 (models the threat-model's kernel
  // R/W primitive against *writable* memory; attacks that must honour
  // write-protection use attacks::Attacker instead).
  const auto t = cpu().mmu().translate(va, mem::Access::Read, mem::El::El2);
  if (!t.ok()) fail("machine: write_u64 fault at " + hex_short(va));
  pm_.write64(t.pa, value);
}

uint64_t Machine::read_global(const std::string& sym) const {
  return read_u64(kernel_symbol(sym));
}

uint64_t Machine::task_struct(unsigned pid) const {
  return kernel_symbol(kSymTaskArray) + pid * kTaskSize;
}

uint64_t Machine::file_struct(unsigned fd) const {
  return kernel_symbol(kSymFileTable) + fd * kFileSize;
}

uint64_t Machine::user_symbol(unsigned pid, const std::string& name) const {
  if (pid == 0 || pid > user_images_.size()) fail("machine: bad pid");
  return user_images_[pid - 1].symbol(name);
}

uint64_t Machine::read_user_u64(unsigned pid, uint64_t va) {
  if (pid == 0 || pid > user_spaces_.size()) fail("machine: bad pid");
  // A host inspection: walk pid's map with EL2 read permissions, as core 0's
  // Mmu would with that map active, and switch no core's user half.
  const mem::PageEntry* e = hv_.user_space(user_spaces_[pid - 1]).lookup(va);
  if (e == nullptr || !e->perms.r_el1)
    fail("machine: read_user_u64 fault at " + hex_short(va));
  return pm_.read64((e->pa_page << mem::VaLayout::kPageShift) |
                    (va & (mem::VaLayout::kPageSize - 1)));
}

}  // namespace camo::kernel
