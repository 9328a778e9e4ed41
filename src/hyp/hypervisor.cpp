#include "hyp/hypervisor.h"

#include <memory>

#include "support/bits.h"
#include "support/error.h"

namespace camo::hyp {

using mem::PagePerms;
using mem::Stage2Map;
using mem::VaLayout;

Hypervisor::Hypervisor(mem::PhysicalMemory& phys) : phys_(&phys) {}

uint64_t Hypervisor::alloc_pages(uint64_t count) {
  const uint64_t pa = next_free_pa_;
  const uint64_t len = count * VaLayout::kPageSize;
  if (pa + len > phys_->size()) fail("hypervisor: out of physical memory");
  next_free_pa_ += len;
  return pa;
}

int Hypervisor::create_user_space() {
  user_spaces_.push_back(std::make_unique<mem::Stage1Map>());
  return static_cast<int>(user_spaces_.size()) - 1;
}

mem::Stage1Map& Hypervisor::user_space(int id) {
  if (id < 0 || static_cast<size_t>(id) >= user_spaces_.size())
    fail("hypervisor: bad address-space id");
  return *user_spaces_[static_cast<size_t>(id)];
}

void Hypervisor::load_image(const obj::Image& image, mem::Stage1Map& map,
                            bool user) {
  for (const auto& seg : image.segments) {
    const uint64_t va = align_down(seg.va, VaLayout::kPageSize);
    const uint64_t len =
        align_up(seg.va + seg.size(), VaLayout::kPageSize) - va;
    const uint64_t pa = alloc_pages(len / VaLayout::kPageSize);
    phys_->fill(pa, 0, len);
    phys_->write_block(pa + (seg.va - va), seg.bytes.data(), seg.bytes.size());

    PagePerms perms;
    switch (seg.kind) {
      case obj::SectionKind::Text:
        perms = user ? PagePerms::user_text() : PagePerms::kernel_text();
        break;
      case obj::SectionKind::RoData:
        perms = user ? PagePerms::user_ro() : PagePerms::kernel_ro();
        break;
      case obj::SectionKind::Data:
      case obj::SectionKind::Bss:
        perms = user ? PagePerms::user_rw() : PagePerms::kernel_rw();
        break;
    }
    map.map_range(va, pa, len, perms);

    // Realize the threat model: kernel text and rodata are write-protected
    // below EL2, so the attacker's write primitive cannot touch them.
    if (!user && (seg.kind == obj::SectionKind::Text ||
                  seg.kind == obj::SectionKind::RoData))
      stage2_.restrict_range(pa, len, Stage2Map::read_only());
  }
}

void Hypervisor::map_kernel_rw(uint64_t va, uint64_t len) {
  len = align_up(len, VaLayout::kPageSize);
  const uint64_t pa = alloc_pages(len / VaLayout::kPageSize);
  phys_->fill(pa, 0, len);
  kernel_map_.map_range(va, pa, len, PagePerms::kernel_rw());
}

void Hypervisor::map_user_rw(int space, uint64_t va, uint64_t len) {
  len = align_up(len, VaLayout::kPageSize);
  const uint64_t pa = alloc_pages(len / VaLayout::kPageSize);
  phys_->fill(pa, 0, len);
  user_space(space).map_range(va, pa, len, PagePerms::user_rw());
}

void Hypervisor::protect_xom(uint64_t va, uint64_t len) {
  for (uint64_t off = 0; off < len; off += VaLayout::kPageSize) {
    // EL1-fetchable: privileged-execute and not EL0-executable (PXN).
    const mem::PageEntry* e = kernel_map_.lookup(va + off);
    if (e == nullptr || !e->perms.x_el1 || e->perms.x_el0)
      fail("protect_xom: page not mapped executable");
    stage2_.restrict_page(e->pa_page << VaLayout::kPageShift,
                          Stage2Map::xom());
  }
}

void Hypervisor::install(cpu::Cpu& cpu) {
  cpu.mmu().set_kernel_map(&kernel_map_);
  cpu.mmu().set_stage2(&stage2_);
  cpu.set_hvc_handler(
      [this](cpu::Cpu& c, uint16_t imm) { handle_hvc(c, imm); });
  cpu.set_msr_filter([this](cpu::Cpu& c, isa::SysReg r, uint64_t v) {
    return filter_msr(c, r, v);
  });
  const unsigned id = cpu.cpu_id();
  if (cpus_.size() <= id) cpus_.resize(id + 1, nullptr);
  cpus_[id] = &cpu;
}

bool Hypervisor::filter_msr(cpu::Cpu& cpu, isa::SysReg reg, uint64_t) {
  using isa::SysReg;
  const auto deny = [&] {
    ++denied_msr_;
    // The CPU has already advanced pc past the MSR; report the MSR itself,
    // as the Undefined exception the denial raises does.
    if (obs_)
      obs_->msr_denied(cpu.obs_site(cpu.pc - 4), static_cast<uint16_t>(reg));
    return false;
  };
  // Translation control is never EL1-writable: the paper's threat model has
  // the hypervisor lock MMU system registers outright.
  if (reg == SysReg::TTBR0_EL1 || reg == SysReg::TTBR1_EL1) return deny();
  // SCTLR/VBAR are writable during early boot only; Lockdown freezes them.
  if (locked_ && (reg == SysReg::SCTLR_EL1 || reg == SysReg::VBAR_EL1))
    return deny();
  return true;
}

void Hypervisor::handle_hvc(cpu::Cpu& cpu, uint16_t imm) {
  if (obs_) obs_->hvc_call(cpu.obs_site(cpu.pc), imm, cpu.x(0), cpu.x(1));
  switch (static_cast<HvcCall>(imm)) {
    case HvcCall::ConsolePutc:
      console_.push_back(static_cast<char>(cpu.x(0)));
      break;
    case HvcCall::ConsoleWrite: {
      // Read through the *calling* core's Mmu: its own stage-1 state.
      const uint64_t va = cpu.x(0);
      const uint64_t len = cpu.x(1);
      for (uint64_t i = 0; i < len && i < 4096; ++i) {
        const auto r = cpu.mmu().read8(va + i, mem::El::El2);
        if (r.fault != mem::FaultKind::None) break;
        console_.push_back(static_cast<char>(r.value));
      }
      break;
    }
    case HvcCall::SwitchUserSpace: {
      // Switch the calling core's user half only — each core runs its own
      // task.
      cpu.mmu().set_user_map(&user_space(static_cast<int>(cpu.x(0))));
      break;
    }
    case HvcCall::LoadModule:
      do_load_module(cpu);
      break;
    case HvcCall::Lockdown:
      lockdown();
      break;
    case HvcCall::SendIpi: {
      // IPI doorbell: latch the source bit on the target core. An invalid
      // target is a deterministic no-op (the guest scheduler never sends
      // one; attack code might probe).
      const uint64_t target = cpu.x(0);
      if (target < cpus_.size() && cpus_[target] != nullptr)
        cpus_[target]->raise_irq(cpu::Cpu::kIrqSrcIpi);
      break;
    }
    default:
      fail("hypervisor: unknown HVC #" + std::to_string(imm));
  }
}

int Hypervisor::register_module(std::string name, obj::Program program) {
  modules_.push_back({std::move(name), std::move(program)});
  return static_cast<int>(modules_.size()) - 1;
}

void Hypervisor::do_load_module(cpu::Cpu& cpu) {
  const auto id = cpu.x(0);
  if (id >= modules_.size()) {
    cpu.set_x(0, 0);
    return;
  }
  auto& mod = modules_[id];

  const uint64_t base = next_module_va_;
  obj::Image image = obj::Linker::link(mod.program, base, kernel_exports_);
  next_module_va_ = align_up(image.end_va(), 0x100000);  // 1 MiB module slots

  // §4.1: scan the module for key reads / SCTLR tampering before mapping.
  last_verify_ = verifier_.verify_image(image);
  const bool ok = last_verify_->ok();

  const std::string init_sym = mod.name + "_init";
  const uint64_t init_va =
      ok && image.has_symbol(init_sym) ? image.symbol(init_sym) : 0;

  if (obs_) obs_->module_verify(cpu.obs_site(cpu.pc), id, init_va, ok);

  if (!ok) {
    cpu.set_x(0, 0);
    return;
  }

  load_image(image, kernel_map_, /*user=*/false);
  loaded_.push_back({mod.name, image});

  cpu.set_x(0, init_va);
  cpu.set_x(1, image.pauth_table_va);
  cpu.set_x(2, image.pauth_table_count);
}

}  // namespace camo::hyp
