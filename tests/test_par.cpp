// camo::par — pool semantics and the fleet determinism contract
// (DESIGN.md §3d).
//
// The load-bearing property is the last suite: run_fleet must produce
// bit-identical results, merged metrics and traces for any jobs value. The
// pool itself only promises completion; determinism comes from the
// write-by-index / merge-in-index-order protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attacks.h"
#include "kernel/image_cache.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "par/fleet.h"
#include "par/pool.h"

namespace camo {
namespace {

// ---------------------------------------------------------------------------
// Pool basics
// ---------------------------------------------------------------------------

TEST(ParPool, EnvJobsParsesAndClamps) {
  const auto with_env = [](const char* v) {
    if (v)
      setenv("CAMO_JOBS", v, 1);
    else
      unsetenv("CAMO_JOBS");
    const unsigned jobs = par::Pool::env_jobs();
    unsetenv("CAMO_JOBS");
    return jobs;
  };
  EXPECT_EQ(with_env(nullptr), 1u);
  EXPECT_EQ(with_env(""), 1u);
  EXPECT_EQ(with_env("4"), 4u);
  EXPECT_EQ(with_env("0"), 1u);      // malformed / zero mean serial
  EXPECT_EQ(with_env("noise"), 1u);
  EXPECT_EQ(with_env("12x"), 1u);
  EXPECT_EQ(with_env("100000"), par::Pool::kMaxJobs);
}

TEST(ParPool, RunsEveryIndexExactlyOnce) {
  for (const unsigned jobs : {1u, 2u, 5u}) {
    par::Pool pool(jobs);
    constexpr size_t kN = 203;
    std::vector<std::atomic<int>> hits(kN);
    pool.for_each_index(kN, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParPool, MapReturnsResultsInIndexOrder) {
  par::Pool pool(4);
  const auto out = pool.map(64, [](size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParPool, NestedSubmitFromInsideATaskDoesNotDeadlock) {
  par::Pool pool(3);
  std::atomic<int> inner_runs{0};
  pool.for_each_index(6, [&](size_t) {
    // The worker helps its own nested batch, so this completes even with
    // every other worker busy in the same outer batch.
    pool.for_each_index(8, [&](size_t) { ++inner_runs; });
  });
  EXPECT_EQ(inner_runs.load(), 6 * 8);
}

TEST(ParPool, FirstExceptionPropagatesAfterTheBatchDrains) {
  for (const unsigned jobs : {1u, 4u}) {
    par::Pool pool(jobs);
    std::atomic<int> ran{0};
    try {
      pool.for_each_index(40, [&](size_t i) {
        ++ran;
        if (i == 17) throw std::runtime_error("task 17 failed");
      });
      FAIL() << "expected the task exception to propagate (jobs=" << jobs
             << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 17 failed");
    }
    // Failure does not cancel the siblings: they are independent machines.
    EXPECT_EQ(ran.load(), 40);
  }
}

TEST(ParPool, StealHeavySkewBalancesAndCountsSteals) {
  par::Pool pool(4);
  // Skewed batch: early indices are long, the tail is instant. The caller
  // pushes all tasks to its own deque and drains LIFO, so spawned workers
  // only make progress by stealing from it.
  pool.for_each_index(64, [](size_t i) {
    if (i < 8) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  const par::Pool::Stats st = pool.stats();
  EXPECT_EQ(st.submitted, 64u);
  uint64_t executed = 0;
  for (const uint64_t e : st.executed) executed += e;
  EXPECT_EQ(executed, 64u);
  EXPECT_GE(st.steals, 1u);
  EXPECT_GE(st.stolen_tasks, st.steals);
  EXPECT_GE(st.imbalance(), 1.0);
}

// ---------------------------------------------------------------------------
// Image cache
// ---------------------------------------------------------------------------

TEST(ImageCache, KeyCoversEveryPrepareInput) {
  kernel::KernelConfig cfg;
  kernel::TaskSpec task;
  task.user_pc = 0x400000;
  task.user_sp = 0x80000000;
  const std::string base = kernel::ImageCache::key_for(cfg, 7, {task});
  EXPECT_EQ(kernel::ImageCache::key_for(cfg, 7, {task}), base);

  EXPECT_NE(kernel::ImageCache::key_for(cfg, 8, {task}), base);  // seed
  kernel::KernelConfig thresh = cfg;
  thresh.pac_failure_threshold = 3;
  EXPECT_NE(kernel::ImageCache::key_for(thresh, 7, {task}), base);
  kernel::KernelConfig prot = cfg;
  prot.protection = compiler::ProtectionConfig::none();
  EXPECT_NE(kernel::ImageCache::key_for(prot, 7, {task}), base);
  kernel::TaskSpec keys = task;
  keys.user_keys[3] ^= 1;  // per-task EL0 keys are baked into kernel data
  EXPECT_NE(kernel::ImageCache::key_for(cfg, 7, {keys}), base);
  EXPECT_NE(kernel::ImageCache::key_for(cfg, 7, {task, task}), base);
}

TEST(ImageCache, BuildsOncePerKeyAndCountsHits) {
  kernel::ImageCache cache;
  int builds = 0;
  // key_for strings aren't needed here: get() is keyed by opaque string.
  const auto build = [&] {
    ++builds;
    kernel::KernelBuilder kb(kernel::KernelConfig{});
    core::BootConfig bcfg;
    bcfg.entry_symbol = "early_boot";
    bcfg.key_write_symbols = kernel::KernelBuilder::key_write_symbols();
    return core::Bootloader::prepare(kb.build(), bcfg, kernel::kKernelBase);
  };
  const auto a = cache.get("k1", build);
  const auto b = cache.get("k1", build);
  const auto c = cache.get("k2", build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(a.get(), b.get());  // literally the same prepared image
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ImageCache, CachedBootMatchesDirectBoot) {
  struct Run {
    uint64_t cycles = 0, halt = 0;
    const core::PreparedKernel* kernel = nullptr;
  };
  const auto run_one = [](std::shared_ptr<kernel::ImageCache> cache) {
    kernel::MachineConfig cfg;
    cfg.kernel.log_pac_failures = false;
    cfg.image_cache = std::move(cache);
    kernel::Machine m(cfg);
    m.add_user_program(kernel::workloads::null_syscall(20));
    m.boot();
    m.run();
    return Run{m.cpu().cycles(), m.halt_code(), &m.kernel()};
  };
  const Run direct = run_one(nullptr);
  const auto cache = std::make_shared<kernel::ImageCache>();
  const Run cold = run_one(cache);  // miss: prepares and installs
  // Two hits at once: both machines install and run the one shared image.
  Run warm[2];
  std::thread other([&] { warm[1] = run_one(cache); });
  warm[0] = run_one(cache);
  other.join();
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 2u);
  for (const Run& r : {cold, warm[0], warm[1]}) {
    EXPECT_EQ(r.cycles, direct.cycles);
    EXPECT_EQ(r.halt, direct.halt);
    EXPECT_EQ(r.kernel, cold.kernel) << "cached machines share one kernel";
  }
}

// ---------------------------------------------------------------------------
// Fleet determinism: bit-identical results for any jobs value
// ---------------------------------------------------------------------------

struct FleetOutcome {
  std::vector<uint64_t> cycles;
  std::vector<uint64_t> halts;
  std::string metrics_text;  ///< deterministic registry view (no gauge values)
  size_t trace_events = 0;
  uint64_t trace_first_pc = 0;
  uint64_t trace_last_cycles = 0;
};

// The bit-identical portion of a merged registry: all counters and
// histograms, plus gauge *names*. Gauge values are host wall-clock
// readings (throughput) and legitimately differ between runs.
std::string deterministic_view(const obs::Registry& reg) {
  std::string out;
  for (const auto& [name, c] : reg.counters())
    out += name + "=" + std::to_string(c.value()) + "\n";
  for (const auto& [name, h] : reg.histograms())
    out += name + ":" + std::to_string(h.count()) + "," +
           std::to_string(h.sum()) + "," + std::to_string(h.min()) + "," +
           std::to_string(h.max()) + "\n";
  for (const auto& [name, g] : reg.gauges()) out += "gauge " + name + "\n";
  return out;
}

// A small mixed fleet: machines 0/1 share a configuration (exercising the
// shared image cache under contention), the rest get distinct seeds.
FleetOutcome run_reference_fleet(unsigned jobs) {
  par::Pool pool(jobs);
  auto cache = std::make_shared<kernel::ImageCache>();
  auto fleet = par::run_fleet(
      pool, 5,
      [&](size_t i) {
        kernel::MachineConfig cfg;
        cfg.kernel.log_pac_failures = false;
        cfg.obs.enabled = true;
        cfg.seed = i < 2 ? 0xFEED : 0xFEED + i;
        cfg.machine_id = static_cast<unsigned>(i);
        cfg.image_cache = cache;
        auto m = std::make_unique<kernel::Machine>(cfg);
        m->add_user_program(kernel::workloads::null_syscall(10 + 5 * i));
        return m;
      },
      [](size_t, kernel::Machine& m) {
        m.boot();
        const bool halted = m.run();
        return std::pair<uint64_t, uint64_t>(
            m.cpu().cycles(), halted ? m.halt_code() : ~uint64_t{0});
      });
  FleetOutcome out;
  for (const auto& [cycles, halt] : fleet.results) {
    out.cycles.push_back(cycles);
    out.halts.push_back(halt);
  }
  out.metrics_text = deterministic_view(fleet.metrics);
  out.trace_events = fleet.trace.size();
  if (!fleet.trace.empty()) {
    out.trace_first_pc = fleet.trace.front().pc;
    out.trace_last_cycles = fleet.trace.back().cycles;
  }
  return out;
}

TEST(ParFleet, BitIdenticalAcrossJobCounts) {
  const FleetOutcome serial = run_reference_fleet(1);
  ASSERT_EQ(serial.cycles.size(), 5u);
  for (const uint64_t h : serial.halts)
    EXPECT_NE(h, ~uint64_t{0}) << "machine must halt";
  EXPECT_GT(serial.trace_events, 0u);
  for (const unsigned jobs : {2u, 7u}) {
    const FleetOutcome par = run_reference_fleet(jobs);
    EXPECT_EQ(par.cycles, serial.cycles) << "jobs=" << jobs;
    EXPECT_EQ(par.halts, serial.halts) << "jobs=" << jobs;
    EXPECT_EQ(par.metrics_text, serial.metrics_text) << "jobs=" << jobs;
    EXPECT_EQ(par.trace_events, serial.trace_events) << "jobs=" << jobs;
    EXPECT_EQ(par.trace_first_pc, serial.trace_first_pc) << "jobs=" << jobs;
    EXPECT_EQ(par.trace_last_cycles, serial.trace_last_cycles)
        << "jobs=" << jobs;
  }
}

TEST(ParFleet, MergedRegistryKeepsPerMachineGauges) {
  par::Pool pool(2);
  auto fleet = par::run_fleet(
      pool, 3,
      [&](size_t i) {
        kernel::MachineConfig cfg;
        cfg.kernel.log_pac_failures = false;
        cfg.obs.enabled = true;
        cfg.machine_id = static_cast<unsigned>(i);
        auto m = std::make_unique<kernel::Machine>(cfg);
        m->add_user_program(kernel::workloads::null_syscall(10));
        return m;
      },
      [](size_t, kernel::Machine& m) {
        m.boot();
        m.run();
        return m.halt_code();
      });
  // One namespaced throughput gauge per machine survives the merge, plus
  // the recomputed fleet aggregate — nothing collides last-writer-wins.
  for (unsigned id = 0; id < 3; ++id) {
    const obs::Gauge* g =
        fleet.metrics.find_gauge("host.throughput.m" + std::to_string(id));
    ASSERT_NE(g, nullptr) << "m" << id;
    EXPECT_GT(g->value(), 0.0) << "m" << id;
  }
  const obs::Gauge* agg = fleet.metrics.find_gauge("host.throughput");
  ASSERT_NE(agg, nullptr);
  EXPECT_DOUBLE_EQ(
      agg->value(),
      fleet.stats.throughput());
}

// A seeded brute-force sweep through the pool's deterministic map — the
// attack harness builds its machines internally, so this is the
// Session::fleet() shape the converted benches use.
TEST(ParFleet, BruteforceSweepMatchesSerial) {
  const unsigned thresholds[] = {2u, 3u, 4u, 5u};
  const auto sweep = [&](unsigned jobs) {
    par::Pool pool(jobs);
    return pool.map(4, [&](size_t i) {
      const auto r = attacks::run_bruteforce(
          compiler::ProtectionConfig::full(), thresholds[i],
          thresholds[i] + 4);
      return std::pair<uint64_t, uint64_t>(r.attempts, r.halt_code);
    });
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(3);
  EXPECT_EQ(serial, parallel);
  for (size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].first, thresholds[i]) << "halts after threshold";
}

}  // namespace
}  // namespace camo
