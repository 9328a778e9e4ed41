// Guest SMP (DESIGN.md §3h): the deterministic round-robin interleaver, the
// cores=1 compatibility gate, fleet composability, IPI-driven migration, the
// cross-core trapframe attack's per-core audit attribution, and the
// collector's per-core derived histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attacks/attacks.h"
#include "harness.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obs/collector.h"
#include "obs/json.h"
#include "par/fleet.h"
#include "support/error.h"

namespace camo {
namespace {

kernel::MachineConfig smp_config(unsigned cores, uint64_t quantum = 50) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.kernel.preempt = true;
  cfg.cores = cores;
  // The default quantum (10000) serializes workloads this small onto core 0;
  // a short quantum makes the interleaver actually interleave.
  cfg.smp_quantum = quantum;
  return cfg;
}

/// Three tasks: on two cores this oversubscribes, so the runqueue always
/// holds a parked Runnable task and cross-core migration windows open.
void add_mix(kernel::Machine& m) {
  m.add_user_program(kernel::workloads::yield_loop(10));
  m.add_user_program(kernel::workloads::null_syscall(20));
  m.add_user_program(kernel::workloads::yield_loop(10));
}

/// Everything guest-deterministic a run produces: per-core clocks and retire
/// counts, IPI count and per-cpu retire counters (SMP only), halt code,
/// console, and the full obs trace. Host wall-clock gauges are deliberately
/// excluded — they vary run to run at cores=1 too.
using Fp = std::tuple<std::vector<uint64_t>, uint64_t, std::string,
                      std::string>;

/// With `slice` > 0 the run goes to halt in run(slice) calls, and
/// `between(m)` runs after each of them.
Fp fingerprint(kernel::MachineConfig cfg, uint64_t slice = 0,
               const std::function<void(kernel::Machine&)>& between = {}) {
  cfg.obs.enabled = true;
  kernel::Machine m(cfg);
  add_mix(m);
  m.boot();
  if (slice == 0) {
    EXPECT_TRUE(m.run());
  } else {
    for (unsigned runs = 0; runs < 10000 && !m.run(slice); ++runs)
      if (between) between(m);
    EXPECT_TRUE(m.halted());
  }
  std::vector<uint64_t> clocks;
  for (unsigned c = 0; c < m.cores(); ++c) {
    clocks.push_back(m.core(c).cycles());
    clocks.push_back(m.core(c).retired());
  }
  if (m.cores() > 1) {
    clocks.push_back(m.read_global(kernel::kSymIpiCount));
    for (unsigned c = 0; c < m.cores(); ++c)
      clocks.push_back(
          m.stats()->metrics().value("insn.c" + std::to_string(c)));
  }
  return {std::move(clocks), m.halted() ? m.halt_code() : ~uint64_t{0},
          m.console(), m.stats()->chrome_trace_json()};
}

TEST(Smp, TwoRunsBitIdentical) {
  for (const unsigned cores : {2u, 4u}) {
    const Fp a = fingerprint(smp_config(cores));
    const Fp b = fingerprint(smp_config(cores));
    EXPECT_EQ(a, b) << "cores=" << cores
                    << ": the interleaver is not deterministic";
    EXPECT_EQ(std::get<1>(a), kernel::kHaltDone) << "cores=" << cores;
  }
}

TEST(Smp, SingleCoreIgnoresSmpKnobs) {
  // cores=1 is the pre-SMP machine: the interleaver quantum must be
  // completely inert, and no per-cpu counters may appear in the registry.
  kernel::MachineConfig pre_smp;  // untouched cores/smp_quantum defaults
  pre_smp.kernel.protection = compiler::ProtectionConfig::full();
  pre_smp.kernel.log_pac_failures = false;
  pre_smp.kernel.preempt = true;
  const Fp deflt = fingerprint(pre_smp);
  EXPECT_EQ(deflt, fingerprint(smp_config(1, 50)));
  EXPECT_EQ(deflt, fingerprint(smp_config(1, 7)));

  kernel::MachineConfig cfg = smp_config(1);
  cfg.obs.enabled = true;
  kernel::Machine m(cfg);
  add_mix(m);
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.cores(), 1u);
  EXPECT_THROW(m.core(m.cores()), camo::Error);
  EXPECT_FALSE(m.stats()->metrics().has_counter("insn.c0"))
      << "uniprocessor registries must not grow per-cpu counters";
}

TEST(Smp, SecondariesExecuteAndTasksMigrate) {
  kernel::MachineConfig cfg = smp_config(2);
  kernel::Machine m(cfg);
  add_mix(m);
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kernel::kHaltDone);
  ASSERT_EQ(m.cores(), 2u);
  EXPECT_THROW(m.core(m.cores()), camo::Error);
  EXPECT_GT(m.core(1).retired(), 0u) << "core 1 never ran";
  EXPECT_GE(m.read_global(kernel::kSymIpiCount), 1u)
      << "an oversubscribed runqueue must kick the peer core";
  unsigned off_core0 = 0;
  for (unsigned pid = 1; pid <= 3; ++pid)
    if (m.read_u64(m.task_struct(pid) + kernel::task::kCpu) != 0)
      ++off_core0;
  EXPECT_GE(off_core0, 1u) << "no task ever migrated off core 0";
}

TEST(Smp, HostUserReadLeavesTheGuestAlone) {
  // A host read of a user address space is an inspection: it must not touch
  // any core's translation state, so the guest runs exactly as it would
  // unobserved. Slices of 333 end turns mid-round, while core 1 runs
  // another task than core 0.
  const auto peek = [](kernel::Machine& m) {
    (void)m.read_user_u64(1, kernel::kUserBase);
  };
  const Fp plain = fingerprint(smp_config(2), 333);
  const Fp peeked = fingerprint(smp_config(2), 333, peek);
  EXPECT_EQ(std::get<0>(plain), std::get<0>(peeked))
      << "per-core clocks and retire counts moved";
  EXPECT_EQ(std::get<1>(plain), kernel::kHaltDone);
  EXPECT_EQ(std::get<1>(plain), std::get<1>(peeked));
  EXPECT_EQ(std::get<2>(plain), std::get<2>(peeked));
  EXPECT_TRUE(std::get<3>(plain) == std::get<3>(peeked))
      << "the Chrome trace moved";
}

TEST(Smp, FleetComposableAcrossJobs) {
  // N independent 2-core machines sharded across 4 host threads must land
  // on exactly the serial results: guest SMP and host fleet parallelism are
  // orthogonal by construction.
  const auto factory = [](size_t i) {
    kernel::MachineConfig cfg = smp_config(2);
    cfg.machine_id = static_cast<unsigned>(i);
    auto m = std::make_unique<kernel::Machine>(cfg);
    m->add_user_program(kernel::workloads::yield_loop(5 + i));
    m->add_user_program(kernel::workloads::null_syscall(10 + i));
    m->add_user_program(kernel::workloads::yield_loop(5));
    return m;
  };
  const auto tenant = [](size_t, kernel::Machine& m) {
    m.boot();
    EXPECT_TRUE(m.run());
    std::vector<uint64_t> r;
    for (unsigned c = 0; c < m.cores(); ++c) {
      r.push_back(m.core(c).cycles());
      r.push_back(m.core(c).retired());
    }
    r.push_back(m.halt_code());
    return r;
  };
  par::Pool serial(1), wide(4);
  const auto a = par::run_fleet(serial, 4, factory, tenant);
  const auto b = par::run_fleet(wide, 4, factory, tenant);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i)
    EXPECT_EQ(a.results[i], b.results[i]) << "machine " << i;
}

TEST(Smp, TrapframeMigrationAttackAttributedToDestinationCore) {
  std::string bundle;
  const auto rep =
      attacks::run_named_attack("trapframe-migration", "full", &bundle);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->outcome, attacks::Outcome::Detected) << rep->detail;
  EXPECT_GE(rep->trace_auth_failures, 1u);

  // The bundle's audit stream must attribute the failure to core 1 — the
  // destination of the migration, where the corrupted trapframe was
  // authenticated — and carry a non-trivial causal chain back to the
  // signing key's install.
  const auto root = obs::json::Value::parse(bundle);
  ASSERT_TRUE(root.has_value());
  const obs::json::Value* audit = root->get("audit");
  ASSERT_NE(audit, nullptr);
  ASSERT_TRUE(audit->is_array());
  const obs::json::Value* fail = nullptr;
  for (size_t i = 0; i < audit->size(); ++i) {
    const obs::json::Value* e = audit->at(i);
    const obs::json::Value* kind = e->get("kind");
    if (kind != nullptr && kind->is_string() &&
        kind->as_string() == "auth-fail")
      fail = e;
  }
  ASSERT_NE(fail, nullptr) << "no AuthFail event in the audit stream";
  const obs::json::Value* cpu = fail->get("cpu");
  ASSERT_NE(cpu, nullptr) << "AuthFail carries no cpu attribution";
  EXPECT_EQ(cpu->as_number(), 1.0)
      << "the failure must land on the migration's destination core";
  const obs::json::Value* chain = root->get("chain");
  ASSERT_NE(chain, nullptr);
  EXPECT_GE(chain->size(), 2u) << "causal chain must reach the key install";
}

TEST(Smp, AttackRegistryListsTrapframeMigrationLast) {
  // Appended at the end so every pre-SMP matrix artifact keeps its row
  // order (bench_security_matrix baselines index by position).
  const auto& names = attacks::attack_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.back(), "trapframe-migration");
}

// ---------------------------------------------------------------------------
// Retire counters: the registry's ops.*, insn.c<k> and cycles.c<k> against
// the CPUs' own counts, on a preempted 2-core guest driven by several run()
// calls (so the counters are published more than once), on every tier.

using testing::fnv1a;
using testing::guest_metrics_json;

TEST(RetireCounters, TwoCoreRegistryPinnedOnEveryTier) {
  for (const cpu::Engine engine : cpu::kEngines) {
    SCOPED_TRACE(cpu::engine_name(engine));
    kernel::MachineConfig cfg = smp_config(2);
    cfg.cpu.engine = engine;
    cfg.obs.enabled = true;
    kernel::Machine m(cfg);
    add_mix(m);
    m.boot();
    unsigned runs = 0;
    while (!m.run(1000)) ASSERT_LT(++runs, 100u);
    EXPECT_GE(runs, 3u);
    ASSERT_EQ(m.halt_code(), kernel::kHaltDone);

    const obs::Registry& reg = m.stats()->metrics();
    constexpr size_t kClasses = static_cast<size_t>(obs::OpClass::kCount);
    std::array<uint64_t, kClasses> derived{};
    for (unsigned c = 0; c < m.cores(); ++c) {
      const cpu::Cpu& core = m.core(c);
      for (size_t op = 0; op < static_cast<size_t>(isa::Op::kCount); ++op) {
        const auto o = static_cast<isa::Op>(op);
        derived[static_cast<size_t>(cpu::Cpu::op_class(o))] +=
            core.op_count(o);
      }
      // An exception step retires nothing but reaches the retire feed as
      // a run of one of class Other.
      derived[static_cast<size_t>(obs::OpClass::Other)] +=
          core.exception_steps();
      EXPECT_GT(core.exception_steps(), 0u);
      const std::string k = std::to_string(c);
      EXPECT_EQ(reg.value("cycles.c" + k), core.cycles());
      EXPECT_EQ(reg.value("insn.c" + k),
                core.retired() + core.exception_steps());
    }
    for (size_t cls = 0; cls < kClasses; ++cls) {
      const auto oc = static_cast<obs::OpClass>(cls);
      EXPECT_EQ(reg.value(std::string("ops.") + obs::op_class_name(oc)),
                derived[cls])
          << obs::op_class_name(oc);
    }
    EXPECT_EQ(fnv1a(guest_metrics_json(reg)), 0x19d182a9356d778cull);
  }
}

// ---------------------------------------------------------------------------
// The collector's derived histograms on SMP: syscall windows, key-switch
// bursts and sign→auth matching each stay on the core that opened them,
// since each core has its own cycle clock.

struct Derived {
  obs::Histogram syscall, key_switch, sign_to_auth;
  uint64_t max_clock = 0;  ///< the largest core cycle counter
};

Derived derived_histograms(unsigned cores, uint64_t quantum) {
  kernel::MachineConfig cfg = smp_config(cores, quantum);
  cfg.obs.enabled = true;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(200));
  m.add_user_program(kernel::workloads::null_syscall(200));
  m.boot();
  EXPECT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kernel::kHaltDone);
  const obs::Registry& reg = m.stats()->metrics();
  Derived d{*reg.find_histogram("syscall.cycles"),
            *reg.find_histogram("key.switch.cycles"),
            *reg.find_histogram("pauth.sign_to_auth.cycles")};
  for (unsigned c = 0; c < m.cores(); ++c)
    d.max_clock = std::max(d.max_clock, m.core(c).cycles());
  return d;
}

TEST(SmpObs, DerivedHistogramsStayPerCore) {
  // One core: every null syscall window lies in [311, 513] cycles and every
  // key-switch burst in [37, 42].
  const Derived one = derived_histograms(1, 10000);
  ASSERT_GE(one.syscall.count(), 400u);
  for (const uint64_t quantum : {50u, 500u, 10000u}) {
    SCOPED_TRACE(quantum);
    const Derived two = derived_histograms(2, quantum);
    // No window closed by another core (whose clock may be behind: the
    // sample wraps) or lost to one (400 SVCs return to EL0).
    EXPECT_GE(two.syscall.count(), 400u);
    EXPECT_GE(two.syscall.min(), one.syscall.min());
    EXPECT_LE(two.syscall.max(), one.syscall.max());
    // No burst merged from two cores' writes.
    EXPECT_GE(two.key_switch.min(), one.key_switch.min());
    EXPECT_LE(two.key_switch.max(), one.key_switch.max());
    // No sign matched to an auth on another core.
    EXPECT_GT(two.sign_to_auth.count(), 0u);
    EXPECT_LE(two.sign_to_auth.max(), two.max_clock);
  }
}

// The flight ring and the call graph on SMP: each core's runs are stamped
// with that core's own clock and walk that core's own shadow stack.

struct SyscallPair {
  std::vector<obs::FlightInsn> ring;
  uint64_t max_clock = 0;  ///< the largest core cycle counter
  size_t deepest = 0;      ///< frames in the deepest folded stack
};

SyscallPair two_syscall_tasks(unsigned cores, uint64_t quantum) {
  kernel::MachineConfig cfg = smp_config(cores, quantum);
  cfg.obs.enabled = true;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(200));
  m.add_user_program(kernel::workloads::null_syscall(200));
  m.boot();
  EXPECT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kernel::kHaltDone);
  SyscallPair out;
  out.ring = m.stats()->flight().live_ring();
  for (unsigned c = 0; c < m.cores(); ++c)
    out.max_clock = std::max(out.max_clock, m.core(c).cycles());
  const std::string folded = m.stats()->folded_profile();
  size_t begin = 0;
  while (begin < folded.size()) {
    const size_t end = folded.find('\n', begin);
    const std::string line = folded.substr(begin, end - begin);
    out.deepest = std::max<size_t>(
        out.deepest, 1 + std::count(line.begin(), line.end(), ';'));
    begin = end + 1;
  }
  return out;
}

TEST(SmpObs, FlightStampsUseTheReportingCoresClock) {
  for (const uint64_t quantum : {50u, 500u, 10000u}) {
    SCOPED_TRACE(quantum);
    const SyscallPair two = two_syscall_tasks(2, quantum);
    ASSERT_FALSE(two.ring.empty());
    // A stamp summed over both cores' runs would be about twice either
    // core's clock.
    EXPECT_LE(two.ring.back().cycles, two.max_clock);
  }
}

TEST(SmpObs, CallGraphKeepsAShadowStackPerCore) {
  const SyscallPair one = two_syscall_tasks(1, 500);
  const SyscallPair two = two_syscall_tasks(2, 500);
  ASSERT_GT(one.deepest, 1u);
  // Interleaved on one stack, the cores' calls and returns nest under each
  // other's frames.
  EXPECT_LE(two.deepest, one.deepest);
}

}  // namespace
}  // namespace camo
