// attack_sweep: every attacks::attack_names() x attack_config_names() pair
// through attacks::run_named_attack, in seeded-order rounds, on one thread,
// each verdict checked against the section 6.2 ground truth below.
//
// Why: every scenario is a fresh 64 MiB machine with a fresh kernel build, a
// boot and a short observed run, so construction and boot dominate and the
// CPU engine barely matters. This is where a cheaper machine (sparse
// memory) shows.
//
// Traced runs also measure the paper's headline figure, sim.overhead_pct,
// in an untimed probe (see AttackSweep::probe).
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attacks/attacks.h"
#include "common.h"
#include "kernel/abi.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"

namespace perfbench {
namespace {

namespace ca = camo::attacks;
using camo::attacks::Outcome;

constexpr Outcome H = Outcome::Hijacked;
constexpr Outcome D = Outcome::Detected;
constexpr Outcome B = Outcome::Blocked;

/// Expected result of one scenario: the verdict, the guest's PAC-failure
/// count (pac_fail_count), the AuthFail events in the trace ring, and the
/// halt code (0 when the scenario stops before the guest halts).
struct Expect {
  Outcome verdict;
  uint64_t pac;
  uint64_t trace_auth;
  uint64_t halt;
};

constexpr uint64_t kDone = camo::kernel::kHaltDone;
constexpr uint64_t kPwned = camo::kernel::kHaltPwned;
constexpr uint64_t kPanic = camo::kernel::kHaltPacPanic;

/// Ground truth for every scenario under the none / backward / full presets.
/// The section 6.2 claims: the unprotected kernel is hijacked by return
/// address injection; backward-edge CFI detects it; forward-edge CFI and DFI
/// (full) detect hook-pointer injection, f_ops redirection and cross-object
/// f_ops reuse; brute force panics at the failure threshold; XOM and stage 2
/// block key extraction and rodata tampering under every preset. The other
/// cells pin the simulator's current behaviour.
///
/// pac and trace_auth agree except in three cells, where the two counters
/// count different events by design: the kernel counts every abort on a
/// non-canonical (PAC-poisoned) address as a PAC failure, so brute force
/// under none/backward counts 8 without a single AUT; and under none the
/// migrated trapframe's 3 AUT failures surface as EL0 faults, which the
/// kernel does not count, so the verdict reads blocked.
const std::map<std::string, std::array<Expect, 3>>& ground_truth() {
  static const std::map<std::string, std::array<Expect, 3>> t = {
      {"rop-injection",
       {{{H, 0, 0, kPwned}, {D, 1, 1, kDone}, {D, 1, 1, kDone}}}},
      {"forward-edge",
       {{{H, 0, 0, kPwned}, {H, 0, 0, kPwned}, {D, 1, 1, kDone}}}},
      {"fops-redirect",
       {{{H, 0, 0, kPwned}, {H, 0, 0, kPwned}, {D, 1, 1, kDone}}}},
      {"fops-cross-object",
       {{{H, 0, 0, kDone}, {H, 0, 0, kDone}, {D, 1, 1, kDone}}}},
      {"bruteforce",
       {{{D, 8, 0, kPanic}, {D, 8, 0, kPanic}, {D, 8, 8, kPanic}}}},
      {"key-extraction", {{{B, 0, 0, 0}, {B, 0, 0, 0}, {B, 0, 0, 0}}}},
      {"rodata-tamper", {{{B, 0, 0, 0}, {B, 0, 0, 0}, {B, 0, 0, 0}}}},
      {"trapframe",
       {{{H, 0, 0, kPwned}, {H, 0, 0, kPwned}, {H, 0, 0, kPwned}}}},
      {"trapframe-protected",
       {{{D, 1, 1, kDone}, {D, 1, 1, kDone}, {D, 1, 1, kDone}}}},
      {"trapframe-migration",
       {{{B, 0, 3, kDone}, {D, 1, 1, kDone}, {D, 1, 1, kDone}}}},
  };
  return t;
}

/// The Figure 3 lmbench rows (null, read, write, stat, open/close, two-task
/// context switch) at `iters` iterations, for the simulated-overhead probe.
constexpr const char* kRows[] = {"null", "read",       "write",
                                 "stat", "open_close", "ctx"};
constexpr size_t kNumRows = std::size(kRows);

std::vector<camo::obj::Program> row_programs(size_t row, uint64_t iters) {
  namespace wl = camo::kernel::workloads;
  using camo::kernel::FileKind;
  std::vector<camo::obj::Program> v;
  switch (row) {
    case 0: v.push_back(wl::null_syscall(iters)); break;
    case 1: v.push_back(wl::read_file(iters, 64, FileKind::Null)); break;
    case 2: v.push_back(wl::write_file(iters, 64, FileKind::Null)); break;
    case 3: v.push_back(wl::stat_file(iters)); break;
    case 4: v.push_back(wl::open_close(iters)); break;
    default:
      v.push_back(wl::yield_loop(iters));
      v.push_back(wl::yield_loop(iters));
      break;
  }
  return v;
}

class AttackSweep : public Workload {
 public:
  explicit AttackSweep(const Options& o)
      : o_(o),
        rounds_(o.tiny ? 1
                       : std::max<uint64_t>(
                             4, static_cast<uint64_t>(o.seconds * 0.7))) {}

  void setup() override {
    Rng rng(o_.seed ^ 0xA77ACCull);
    order_.clear();
    for (uint64_t k = 0; k < rounds_; ++k) {
      std::vector<std::pair<std::string, std::string>> round;
      for (const std::string& a : ca::attack_names())
        for (const std::string& c : ca::attack_config_names())
          round.emplace_back(a, c);
      shuffle(round, rng);
      order_.insert(order_.end(), round.begin(), round.end());
    }
    for (const std::string& c : ca::attack_config_names())
      prepare_kernel(*ca::protection_config_by_name(c), rng.next());
    // A cold machine per preset: the construction and boot every scenario
    // repeats, paid once here so the first timed unit is not also the
    // first-ever machine of the process.
    for (const std::string& c : ca::attack_config_names()) {
      camo::kernel::MachineConfig cfg;
      cfg.kernel.protection = *ca::protection_config_by_name(c);
      cfg.obs.enabled = true;
      std::unique_ptr<camo::kernel::Machine> m;
      {
        Scope s("kernel.construct");
        m = std::make_unique<camo::kernel::Machine>(cfg);
      }
      m->add_user_program(camo::kernel::workloads::null_syscall(1));
      Scope s("kernel.boot_cold");
      m->boot();
    }
  }

  Pass run() override {
    Pass p;
    uint64_t verdicts[3] = {};
    p.begin_s = now_s();
    for (size_t i = 0; i < order_.size(); ++i) {
      const auto& [attack, config] = order_[i];
      ++p.attempted;
      const double t0 = now_s();
      std::optional<ca::AttackReport> r;
      {
        Scope s("attacks.scenario." + attack, static_cast<int64_t>(i));
        r = ca::run_named_attack(attack, config);
      }
      p.unit_ms.push_back((now_s() - t0) * 1e3);
      const auto truth = ground_truth().find(attack);
      if (!r || truth == ground_truth().end()) {
        p.fail(attack + "/" + config + ": unknown scenario");
        continue;
      }
      Expect want = truth->second[preset_index(config)];
      if (o_.break_check == "verdict" && i == 0)
        want.verdict = want.verdict == H ? B : H;
      if (o_.break_check == "halt" && i == 0) want.halt ^= 1;
      ++verdicts[static_cast<size_t>(r->outcome)];
      p.fingerprint.push_back(static_cast<uint64_t>(r->outcome));
      p.fingerprint.push_back(r->pac_failures);
      p.fingerprint.push_back(r->trace_auth_failures);
      p.fingerprint.push_back(r->halt_code);
      const std::string cell = attack + "/" + config + ": ";
      if (r->outcome != want.verdict)
        p.fail(cell + "verdict " + ca::outcome_name(r->outcome) +
               ", expected " + ca::outcome_name(want.verdict));
      else if (r->pac_failures != want.pac ||
               r->trace_auth_failures != want.trace_auth)
        p.fail(cell + "pac_failures " + std::to_string(r->pac_failures) +
               ", trace auth failures " +
               std::to_string(r->trace_auth_failures) + ", expected " +
               std::to_string(want.pac) + " and " +
               std::to_string(want.trace_auth));
      else if (r->halt_code != want.halt)
        p.fail(cell + "halt code " + std::to_string(r->halt_code));
    }
    p.end_s = now_s();
    p.layer["attacks.verdict.hijacked"] = static_cast<double>(verdicts[0]);
    p.layer["attacks.verdict.detected"] = static_cast<double>(verdicts[1]);
    p.layer["attacks.verdict.blocked"] = static_cast<double>(verdicts[2]);
    std::printf("attack_sweep: %llu rounds x %zu scenarios; verdicts "
                "hijacked %llu detected %llu blocked %llu\n",
                static_cast<unsigned long long>(rounds_),
                ca::attack_names().size() * ca::attack_config_names().size(),
                static_cast<unsigned long long>(verdicts[0]),
                static_cast<unsigned long long>(verdicts[1]),
                static_cast<unsigned long long>(verdicts[2]));
    return p;
  }

  /// sim.overhead_pct: geometric mean over the six lmbench rows of the
  /// simulated cycles an operation costs under full protection over the
  /// same under none, minus 1, in percent. Each row's cost is the cycle
  /// difference between runs of 2n and n iterations, so boot and the first
  /// iterations cancel. Simulated, so it repeats exactly.
  void probe(Pass& traced) override {
    constexpr uint64_t kIters = 1000;
    const uint64_t boot_seed = Rng(o_.seed ^ 0x5CA11ull).next();
    double log_sum = 0;
    for (size_t r = 0; r < kNumRows; ++r) {
      double cost[2] = {};
      for (size_t k = 0; k < 2; ++k) {
        const char* preset = k == 0 ? "none" : "full";
        for (uint64_t iters : {kIters, 2 * kIters}) {
          camo::kernel::MachineConfig cfg;
          cfg.kernel.protection = *ca::protection_config_by_name(preset);
          cfg.seed = boot_seed;
          cfg.phys_bytes = 16ull << 20;  // the rows touch a few MiB
          camo::kernel::Machine m(cfg);
          for (const camo::obj::Program& prog : row_programs(r, iters))
            m.add_user_program(prog);
          m.boot();
          m.run();
          ++traced.attempted;
          if (!m.halted() || m.halt_code() != kDone)
            traced.fail(std::string(kRows[r]) + "/" + preset +
                        " (sim.overhead_pct probe): halt code " +
                        std::to_string(m.halt_code()));
          const double cycles = static_cast<double>(m.cpu().cycles());
          cost[k] += iters == kIters ? -cycles : cycles;
        }
      }
      std::printf("  %-10s full/none cycles per operation %.4f\n", kRows[r],
                  cost[1] / cost[0]);
      log_sum += std::log(cost[1] / cost[0]);
    }
    traced.layer["sim.overhead_pct"] =
        (std::exp(log_sum / kNumRows) - 1) * 100;
    std::printf("attack_sweep probe: sim overhead (full vs none, geomean) "
                "%.3f%%\n",
                traced.layer["sim.overhead_pct"]);
  }

 private:
  Options o_;
  uint64_t rounds_;
  std::vector<std::pair<std::string, std::string>> order_;
};

}  // namespace

std::unique_ptr<Workload> make_attack_sweep(const Options& o) {
  return std::make_unique<AttackSweep>(o);
}

}  // namespace perfbench
