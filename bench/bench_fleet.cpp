// Multi-tenant fleet execution (DESIGN.md §3d).
//
// N independent tenant machines — three tenant profiles modelled on the
// Figure 4 workload mixes (kernel-heavy download, balanced package build,
// user-heavy image resize) at varying load multipliers — run under full
// protection, sharded across host threads by par::run_fleet, booting from a
// shared kernel::ImageCache.
//
// The simulated results (per-profile guest cycles, instructions, the image
// cache hit/miss split) are bit-identical at any --jobs value and are what
// the perf gate checks. The fleet.* series (steals, imbalance, aggregate
// guest-insns per host-second) are host-scheduling artifacts, published as
// informational only — camo-perfdiff never gates them.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernel/image_cache.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "par/fleet.h"

int main(int argc, char** argv) {
  using namespace camo;  // NOLINT
  bench::Session s(
      argc, argv, "Fleet", "multi-tenant fleet execution (DESIGN.md §3d)",
      "independent guests shard across host threads; simulated results are "
      "bit-identical at any --jobs value, only wall-clock moves");

  const uint64_t seed = s.seed(2024);
  static constexpr const char* kProfiles[] = {"download", "build", "media"};
  static constexpr size_t kNumProfiles = 3;
  const size_t machines = s.smoke() ? 6 : 24;
  const uint64_t chunks = s.iters(200, 40);  // download
  const uint64_t units = s.iters(30, 6);     // package build
  const uint64_t rows = s.iters(40, 8);      // image resize

  // All tenants share the boot seed and kernel configuration, and the user
  // program text is not part of the kernel image (only the task table is),
  // so the whole fleet shares one cache key: the kernel is built, verified
  // and signed exactly once, every other machine installs the shared image.
  auto cache = std::make_shared<kernel::ImageCache>();
  const auto factory = [&](size_t i) {
    kernel::MachineConfig cfg;
    cfg.kernel.protection = compiler::ProtectionConfig::full();
    cfg.kernel.log_pac_failures = false;
    cfg.obs.enabled = true;
    cfg.cpu.engine = s.engine();
    cfg.seed = seed;
    cfg.machine_id = static_cast<unsigned>(i);
    cfg.image_cache = cache;
    auto m = std::make_unique<kernel::Machine>(cfg);
    const uint64_t mult = 1 + (i / kNumProfiles) % 3;  // 1x..3x tenant load
    switch (i % kNumProfiles) {
      case 0:
        m->add_user_program(kernel::workloads::download(chunks * mult));
        break;
      case 1:
        m->add_user_program(kernel::workloads::package_build(units * mult));
        break;
      default:
        m->add_user_program(kernel::workloads::image_resize(rows * mult));
        break;
    }
    return m;
  };

  struct TenantRun {
    uint64_t cycles = 0;
    uint64_t instret = 0;
    bool halted = false;
  };
  auto fleet = par::run_fleet(
      s.pool(), machines, factory, [](size_t, kernel::Machine& m) {
        m.boot();
        m.run(400'000'000);
        TenantRun r;
        r.cycles = m.cpu().cycles();
        r.instret = m.cpu().retired();
        r.halted = m.halted();
        return r;
      });

  std::printf("%zu tenant machines, %u host job(s), shared image cache\n\n",
              machines, s.jobs());
  std::printf("  %8s %10s %6s %14s %14s %8s\n", "tenant", "profile", "load",
              "guest cycles", "instret", "halted");
  uint64_t profile_cycles[kNumProfiles] = {};
  uint64_t profile_instret[kNumProfiles] = {};
  bool all_halted = true;
  for (size_t i = 0; i < machines; ++i) {
    const TenantRun& r = fleet.results[i];
    std::printf("  %8zu %10s %5llux %14llu %14llu %8s\n", i,
                kProfiles[i % kNumProfiles],
                static_cast<unsigned long long>(1 + (i / kNumProfiles) % 3),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instret),
                r.halted ? "yes" : "NO");
    profile_cycles[i % kNumProfiles] += r.cycles;
    profile_instret[i % kNumProfiles] += r.instret;
    all_halted &= r.halted;
  }
  if (!all_halted) {
    std::fprintf(stderr, "bench_fleet: a tenant failed to halt\n");
    return 1;
  }

  std::printf("\nper-profile totals (deterministic, gated):\n");
  for (size_t p = 0; p < kNumProfiles; ++p) {
    std::printf("  %10s %14llu cycles %14llu insns\n", kProfiles[p],
                static_cast<unsigned long long>(profile_cycles[p]),
                static_cast<unsigned long long>(profile_instret[p]));
    s.add(kProfiles[p], "guest cycles",
          static_cast<double>(profile_cycles[p]), "cycles");
    s.add(kProfiles[p], "guest instructions",
          static_cast<double>(profile_instret[p]), "insns");
  }

  // Image-cache reuse from the merged registry: every machine publishes a
  // per-boot imgcache.{hits,misses} counter (kernel/machine.cpp) and the
  // fleet merge sums them, so the totals equal ImageCache::stats() without
  // any side-channel plumbing from the cache object itself. The imgcache.*
  // family is informational to camo-perfdiff, like fleet.*.
  const double img_misses = fleet.metrics.counter("imgcache.misses").value();
  const double img_hits = fleet.metrics.counter("imgcache.hits").value();
  std::printf("\nimage cache: %.0f built, %.0f reused (%zu distinct keys)\n",
              img_misses, img_hits, cache->size());
  s.add("fleet", "imgcache.misses", img_misses, "images");
  s.add("fleet", "imgcache.hits", img_hits, "images");

  // Host-side scheduler telemetry: informational, never gated (fleet.*).
  const par::FleetStats& fs = fleet.stats;
  std::printf(
      "scheduler: steals=%llu imbalance=%.2f aggregate %.2fM guest "
      "insns/host-s\n",
      static_cast<unsigned long long>(fs.steals), fs.imbalance,
      fs.throughput() / 1e6);
  s.add("fleet", "fleet.machines", static_cast<double>(fs.machines),
        "machines");
  s.add("fleet", "fleet.steals", static_cast<double>(fs.steals), "steals");
  s.add("fleet", "fleet.imbalance", fs.imbalance, "ratio");
  s.add("fleet", "fleet.throughput", fs.throughput(), "insns/s");
  // Per-task host duration distribution and the merged (deterministic)
  // guest-side latency histograms (DESIGN.md §3f); informational hist.*
  // series like the rest of the block.
  std::printf("distributions (informational):\n");
  s.add_histogram("fleet", "task", fs.task_us, "us");
  if (const obs::Histogram* h =
          fleet.metrics.find_histogram("pauth.sign_to_auth.cycles"))
    s.add_histogram("fleet", "pauth.sign_to_auth", *h, "cycles");
  if (const obs::Histogram* h =
          fleet.metrics.find_histogram("key.switch.cycles"))
    s.add_histogram("fleet", "key.switch", *h, "cycles");
  std::printf("merged audit stream: %zu events (bit-identical at any "
              "--jobs)\n",
              fleet.audit.size());

  // The merged registry carries every tenant's namespaced throughput gauge
  // plus the recomputed aggregate — the gauge-collision regression this
  // checks is tested in test_obs as well.
  std::printf("merged registry: %zu trace events, aggregate gauge %.0f\n",
              fleet.trace.size(),
              fleet.metrics.gauge("host.throughput").value());
  return s.finish();
}
