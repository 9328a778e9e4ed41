// Guest SMP scaling (DESIGN.md §3h).
//
// One fixed workload mix — yield-heavy, syscall-heavy and file-touching
// tasks, more tasks than cores — runs on machines with 1, 2 and 4 guest
// cores under full protection with preemption. Every simulated series is
// deterministic: the round-robin quantum interleaver makes the multi-core
// schedule a pure function of (config, cores), which this bench re-checks
// by running every configuration twice and requiring bit-identical results.
//
// The second half is the fleet×SMP composition: N independent multi-core
// machines shard across host threads (--jobs) and must merge to the same
// totals as a serial run — guest SMP and host fleet parallelism compose
// without either contaminating the other.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernel/image_cache.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "par/fleet.h"

namespace {

using namespace camo;  // NOLINT

/// The shared workload mix: 5 tasks so every core count under-, exactly-
/// and over-subscribes somewhere in the run.
std::vector<obj::Program> mix(uint64_t scale) {
  std::vector<obj::Program> progs;
  progs.push_back(kernel::workloads::yield_loop(10 * scale));
  progs.push_back(kernel::workloads::null_syscall(20 * scale));
  progs.push_back(kernel::workloads::yield_loop(10 * scale));
  progs.push_back(kernel::workloads::stat_file(5 * scale));
  progs.push_back(kernel::workloads::null_syscall(20 * scale));
  return progs;
}

struct SmpRun {
  uint64_t makespan = 0;       ///< busiest core's clock (guest cycles)
  uint64_t retired = 0;        ///< instructions summed over cores
  uint64_t ipis = 0;           ///< guest ipi_count (delivered doorbells)
  uint64_t off_core0 = 0;      ///< tasks whose last core was not core 0
  uint64_t halt_code = 0;
  std::vector<uint64_t> percpu_insn;  ///< obs "insn.c<k>" counters
};

SmpRun run_mix(unsigned cores, uint64_t scale, uint64_t seed,
              cpu::Engine engine) {
  kernel::MachineConfig cfg;
  cfg.cpu.engine = engine;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.kernel.preempt = true;
  cfg.cores = cores;
  // Short quanta so this workload size actually interleaves; the value is
  // part of the simulated contract and identical for every cores value.
  cfg.smp_quantum = 500;
  cfg.obs.enabled = true;
  cfg.seed = seed;
  kernel::Machine m(cfg);
  for (auto& p : mix(scale)) m.add_user_program(std::move(p));
  m.boot();
  m.run(400'000'000);
  SmpRun r;
  for (unsigned c = 0; c < m.cores(); ++c) {
    r.makespan = std::max(r.makespan, m.core(c).cycles());
    r.retired += m.core(c).retired();
  }
  r.halt_code = m.halted() ? m.halt_code() : ~uint64_t{0};
  if (cores > 1) {
    r.ipis = m.read_global(kernel::kSymIpiCount);
    for (unsigned c = 0; c < m.cores(); ++c)
      r.percpu_insn.push_back(
          m.stats()->metrics().value("insn.c" + std::to_string(c)));
  }
  for (unsigned pid = 1; pid <= 5; ++pid)
    if (m.read_u64(m.task_struct(pid) + kernel::task::kCpu) != 0)
      ++r.off_core0;
  return r;
}

bool same(const SmpRun& a, const SmpRun& b) {
  return a.makespan == b.makespan && a.retired == b.retired &&
         a.ipis == b.ipis && a.off_core0 == b.off_core0 &&
         a.halt_code == b.halt_code && a.percpu_insn == b.percpu_insn;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session s(
      argc, argv, "SMP", "guest SMP scaling (DESIGN.md §3h)",
      "multi-core guests interleave deterministically; per-CPU key banks, "
      "IPIs and the migrating scheduler keep CFI intact across cores");

  const uint64_t seed = s.seed(2024);
  const uint64_t scale = s.iters(20, 2);

  std::printf("workload: 5 tasks (2 yield, 2 syscall, 1 stat) at scale %llu\n",
              static_cast<unsigned long long>(scale));
  std::printf("\n  %6s %14s %14s %6s %10s\n", "cores", "makespan", "instret",
              "ipis", "off-core0");

  const std::vector<unsigned> core_counts = {1, 2, 4};
  // Each (cores, repeat) pair is an independent machine: shard across the
  // --jobs pool, print serially.
  const auto runs = s.fleet(core_counts.size() * 2, [&](size_t i) {
    return run_mix(core_counts[i / 2], scale, seed, s.engine());
  });
  uint64_t uni_makespan = 0;
  for (size_t ci = 0; ci < core_counts.size(); ++ci) {
    const unsigned cores = core_counts[ci];
    const SmpRun& r = runs[ci * 2];
    if (!same(r, runs[ci * 2 + 1])) {
      std::fprintf(stderr,
                   "bench_smp: two identical cores=%u runs diverged — the "
                   "interleaver is not deterministic\n",
                   cores);
      return 1;
    }
    if (r.halt_code != kernel::kHaltDone) {
      std::fprintf(stderr, "bench_smp: cores=%u halted with 0x%llx\n", cores,
                   static_cast<unsigned long long>(r.halt_code));
      return 1;
    }
    std::printf("  %6u %14llu %14llu %6llu %10llu\n", cores,
                static_cast<unsigned long long>(r.makespan),
                static_cast<unsigned long long>(r.retired),
                static_cast<unsigned long long>(r.ipis),
                static_cast<unsigned long long>(r.off_core0));
    const std::string config = "cores=" + std::to_string(cores);
    if (cores == 1) uni_makespan = r.makespan;
    s.add(config, "makespan", static_cast<double>(r.makespan), "cycles",
          uni_makespan > 0
              ? std::optional<double>(static_cast<double>(r.makespan) /
                                      static_cast<double>(uni_makespan))
              : std::nullopt);
    s.add(config, "guest instructions", static_cast<double>(r.retired),
          "insns");
    s.add(config, "ipis delivered", static_cast<double>(r.ipis), "count");
    s.add(config, "tasks finishing off core 0",
          static_cast<double>(r.off_core0), "count");
    for (size_t c = 0; c < r.percpu_insn.size(); ++c)
      s.add(config, "insn.c" + std::to_string(c),
            static_cast<double>(r.percpu_insn[c]), "insns");
  }

  // Fleet×SMP: N independent 2-core machines (or --cores N when given)
  // sharded across the --jobs pool must merge to exactly the serial totals.
  const unsigned fleet_cores = s.cores() > 1 ? s.cores() : 2;
  const size_t machines = s.smoke() ? 4 : 12;
  auto cache = std::make_shared<kernel::ImageCache>();
  const auto factory = [&](size_t i) {
    kernel::MachineConfig cfg;
    cfg.kernel.protection = compiler::ProtectionConfig::full();
    cfg.kernel.log_pac_failures = false;
    cfg.kernel.preempt = true;
    cfg.cpu.engine = s.engine();
    cfg.cores = fleet_cores;
    cfg.smp_quantum = 500;
    cfg.obs.enabled = true;
    cfg.seed = seed;
    cfg.machine_id = static_cast<unsigned>(i);
    cfg.image_cache = cache;
    auto m = std::make_unique<kernel::Machine>(cfg);
    for (auto& p : mix(1 + i % 3)) m->add_user_program(std::move(p));
    return m;
  };
  const auto tenant = [](size_t, kernel::Machine& m) {
    m.boot();
    m.run(400'000'000);
    uint64_t cycles = 0;
    for (unsigned c = 0; c < m.cores(); ++c)
      cycles = std::max(cycles, m.core(c).cycles());
    return std::pair<uint64_t, uint64_t>(cycles, m.total_retired());
  };
  auto fleet = par::run_fleet(s.pool(), machines, factory, tenant);
  par::Pool serial(1);
  auto serial_fleet = par::run_fleet(serial, machines, factory, tenant);
  uint64_t fleet_cycles = 0, fleet_insns = 0;
  bool compose = fleet.results.size() == serial_fleet.results.size();
  for (size_t i = 0; i < fleet.results.size(); ++i) {
    compose = compose && fleet.results[i] == serial_fleet.results[i];
    fleet_cycles += fleet.results[i].first;
    fleet_insns += fleet.results[i].second;
  }
  if (!compose) {
    std::fprintf(stderr,
                 "bench_smp: --jobs %u fleet and serial fleet disagree — "
                 "SMP is not fleet-composable\n",
                 s.jobs());
    return 1;
  }
  std::printf(
      "\nfleet×SMP: %zu machines × %u cores, %u host job(s): "
      "%llu cycles, %llu insns (== serial run)\n",
      machines, fleet_cores, s.jobs(),
      static_cast<unsigned long long>(fleet_cycles),
      static_cast<unsigned long long>(fleet_insns));
  const std::string fconfig = "fleet-cores=" + std::to_string(fleet_cores);
  s.add(fconfig, "guest cycles", static_cast<double>(fleet_cycles), "cycles");
  s.add(fconfig, "guest instructions", static_cast<double>(fleet_insns),
        "insns");
  s.add(fconfig, "fleet.throughput", fleet.stats.throughput(), "insns/s");
  return s.finish();
}
