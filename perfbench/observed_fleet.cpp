// observed_fleet: Figure 4 tenants under full protection, sharing one
// kernel::ImageCache, run through par::run_fleet on a pool of
// min(nproc - 1, 4) workers (at least one) with observability and coverage
// on. After each fleet the workload exports what a user would: the Chrome
// trace, folded stacks, the merged audit log and the camo-cov/v1 bundle.
//
// The tenants have 16 MiB of guest memory instead of the default 64 MiB.
// Simulated results are identical (the guest touches a few MiB), and it keeps
// the zero-fill of guest memory, memory-bound work that the host's speed
// phases hit hardest, from being a third of every unit.
//
// Why: here the observability sinks, the fleet merge and the exports
// dominate, and the engine runs user loops as well as syscall paths. The
// tenants are download (kernel-heavy), package_build (balanced) and
// image_resize (user-heavy); each profile's load is sized so a tenant costs
// about the same host time whatever its profile, so the unit sample is one
// group and its p90 does not depend on which profile sits at the percentile.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "kernel/abi.h"
#include "kernel/image_cache.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obs/chrome_trace.h"
#include "obs/coverage.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "par/fleet.h"
#include "par/pool.h"

namespace perfbench {
namespace {

namespace ck = camo::kernel;
namespace wl = camo::kernel::workloads;

struct Profile {
  const char* name;
  uint64_t load;  ///< workload argument giving about equal tenant host time
};

constexpr Profile kProfiles[] = {
    {"download", 400}, {"package_build", 106}, {"image_resize", 465}};
constexpr size_t kNumProfiles = 3;
constexpr uint64_t kPhysBytes = 16ull << 20;

camo::obj::Program tenant_program(size_t profile, uint64_t load) {
  switch (profile) {
    case 0: return wl::download(load);
    case 1: return wl::package_build(load);
    default: return wl::image_resize(load);
  }
}

struct Tenant {
  size_t profile = 0;
  uint64_t load = 0;
};

/// What a tenant task hands back (written only to its own slot).
struct TenantResult {
  uint64_t insns = 0;
  uint64_t cycles = 0;
  uint64_t halt_code = 0;
  bool halted = false;
  double run_s = 0;
  EngineTotals engine;
  double start_s = 0;  ///< factory start (construction is part of the unit)
  double end_s = 0;    ///< task end, stamped inside the task
  std::string folded;
};

class ObservedFleet : public Workload {
 public:
  explicit ObservedFleet(const Options& o)
      : o_(o),
        jobs_(std::clamp(std::thread::hardware_concurrency(), 2u, 5u) - 1),
        tenants_per_fleet_(o.tiny ? 3 : 24),
        fleets_(o.tiny ? 1
                       : std::max<uint64_t>(
                             5, static_cast<uint64_t>(o.seconds * 0.5))),
        load_scale_(o.tiny ? 0.1 : 1.0) {}

  void setup() override {
    Rng rng(o_.seed ^ 0xF1EE7ull);
    boot_seed_ = rng.next();
    fleets_plan_.assign(fleets_, {});
    for (auto& fleet : fleets_plan_) {
      for (size_t i = 0; i < tenants_per_fleet_; ++i) {
        Tenant t;
        t.profile = i % kNumProfiles;
        // Seeded load within +-8% of the profile's equal-cost point.
        t.load = std::max<uint64_t>(
            1, static_cast<uint64_t>(kProfiles[t.profile].load * load_scale_ *
                                     (0.92 + 0.16 * rng.unit())));
        fleet.push_back(t);
      }
      shuffle(fleet, rng);
    }
    prepare_kernel(camo::compiler::ProtectionConfig::full(), boot_seed_);
    pool_ = std::make_unique<camo::par::Pool>(jobs_);
    // Fill the shared image cache: the one cold boot of the fleet config.
    cache_ = std::make_shared<ck::ImageCache>();
    auto m = make_machine(fleets_plan_[0][0], 0);
    Scope s("kernel.boot_cold");
    m->boot();
  }

  Pass run() override {
    Pass p;
    uint64_t steals = 0, trace_events = 0, audit_events = 0,
             export_bytes = 0, insns = 0, cycles = 0;
    EngineTotals engine;
    // fleet_s: time inside run_fleet, the window the workers can be busy.
    double busy_s = 0, fleet_s = 0, run_s = 0, imbalance = 0;
    std::vector<double> merge_ms;
    double profile_insns[kNumProfiles] = {}, profile_s[kNumProfiles] = {};
    std::vector<double> profile_ms[kNumProfiles];
    std::string last_bundle;
    int64_t unit = 0;
    p.begin_s = now_s();
    for (size_t f = 0; f < fleets_plan_.size(); ++f) {
      const std::vector<Tenant>& plan = fleets_plan_[f];
      const size_t n = plan.size();
      std::vector<double> start(n, 0);
      const int64_t unit0 = unit;
      unit += static_cast<int64_t>(n);
      const double f0 = now_s();
      auto fleet = [&] {
        Scope rs("par.run_fleet");
        const int fleet_span = rs.id();
        return camo::par::run_fleet(
            *pool_, n,
            [&](size_t i) {
              start[i] = now_s();
              Scope s("kernel.construct", unit0 + static_cast<int64_t>(i),
                      fleet_span);
              return make_machine(plan[i], static_cast<unsigned>(i));
            },
            [&](size_t i, ck::Machine& m) {
              const int64_t u = unit0 + static_cast<int64_t>(i);
              Scope t("tenant", u, fleet_span);
              TenantResult r;
              r.start_s = start[i];
              {
                Scope s("kernel.boot_warm", u);
                m.boot();
              }
              {
                Scope s("cpu.run", u);
                m.run();
              }
              {
                Scope s("obs.export.folded", u);
                r.folded = m.stats()->folded_profile();
              }
              r.insns = m.total_retired();
              r.cycles = m.cpu().cycles();
              r.halted = m.halted();
              r.halt_code = m.halt_code();
              r.run_s = m.host_seconds();
              r.engine.add(m.cpu().superblock_stats());
              r.end_s = now_s();
              return r;
            });
      }();
      const double returned = now_s();
      fleet_s += returned - f0;
      double last_end = 0;
      for (size_t i = 0; i < n; ++i) {
        const TenantResult& r = fleet.results[i];
        ++p.attempted;
        p.unit_ms.push_back((r.end_s - r.start_s) * 1e3);
        profile_ms[plan[i].profile].push_back(p.unit_ms.back());
        busy_s += r.end_s - r.start_s;
        last_end = std::max(last_end, r.end_s);
        p.fingerprint.push_back(r.insns);
        p.fingerprint.push_back(r.cycles);
        insns += r.insns;
        cycles += r.cycles;
        run_s += r.run_s;
        engine.add(r.engine);
        profile_insns[plan[i].profile] += static_cast<double>(r.insns);
        profile_s[plan[i].profile] += r.run_s;
        export_bytes += r.folded.size();
        uint64_t want = ck::kHaltDone;
        if (o_.break_check == "halt" && f == 0 && i == 0) want = ck::kHaltOops;
        if (!r.halted || r.halt_code != want)
          p.fail(std::string(kProfiles[plan[i].profile].name) +
                 ": halt code " + std::to_string(r.halt_code));
      }
      merge_ms.push_back((returned - last_end) * 1e3);
      steals += fleet.stats.steals;
      imbalance += fleet.stats.imbalance;
      trace_events += fleet.trace.size();
      audit_events += fleet.audit.size();
      {
        Scope s("obs.export.chrome_trace");
        export_bytes += camo::obs::chrome_trace_json(fleet.trace).size();
      }
      {
        Scope s("obs.export.audit");
        camo::obs::json::Value arr = camo::obs::json::Value::array();
        for (const camo::obs::AuditEvent& e : fleet.audit)
          arr.push(camo::obs::audit_event_json(e));
        export_bytes += arr.dump().size();
      }
      {
        Scope s("obs.export.coverage");
        last_bundle = camo::obs::cov_bundle_json(fleet.coverage,
                                                 "observed_fleet", n);
        export_bytes += last_bundle.size();
      }
    }
    p.end_s = now_s();

    // The last fleet's coverage bundle must parse and validate.
    ++p.attempted;
    const auto parsed = camo::obs::json::Value::parse(last_bundle);
    const std::string why =
        parsed ? camo::obs::validate_cov_bundle(*parsed) : "unparsable";
    if (!why.empty()) p.fail("camo-cov/v1 bundle: " + why);

    const double nf = static_cast<double>(fleets_plan_.size());
    p.layer["cpu.guest_insns"] = static_cast<double>(insns);
    p.layer["sim.cycles"] = static_cast<double>(cycles);
    p.layer["cpu.guest_mips"] = insns / run_s / 1e6;
    for (size_t k = 0; k < kNumProfiles; ++k)
      p.layer[std::string("cpu.guest_mips.") + kProfiles[k].name] =
          profile_insns[k] / profile_s[k] / 1e6;
    engine.publish(p.layer);
    p.layer["obs.trace_events"] = static_cast<double>(trace_events);
    p.layer["obs.audit_events"] = static_cast<double>(audit_events);
    p.layer["obs.export_bytes"] = static_cast<double>(export_bytes);
    p.layer["par.merge_ms"] = percentile(merge_ms, 0.5);
    p.layer["par.busy_frac"] = busy_s / (jobs_ * fleet_s);
    p.layer["par.steals"] = static_cast<double>(steals);
    p.layer["par.imbalance"] = imbalance / nf;
    std::printf("observed_fleet: %zu fleets x %zu tenants on %u workers; "
                "%.1f M guest insns/s in run\n",
                fleets_plan_.size(), tenants_per_fleet_, jobs_,
                insns / run_s / 1e6);
    for (size_t k = 0; k < kNumProfiles; ++k)
      std::printf("  %-13s %.1f M insns/s, tenant median %.1f ms, "
                  "%.2f M insns per tenant\n",
                  kProfiles[k].name, profile_insns[k] / profile_s[k] / 1e6,
                  percentile(profile_ms[k], 0.5),
                  profile_insns[k] / profile_ms[k].size() / 1e6);
    return p;
  }

  void probe(Pass& traced) override {
    // One tenant of each profile with observability on and then off: the
    // run-time cost of the default sinks plus coverage.
    double on_s = 0, off_s = 0;
    for (size_t k = 0; k < kNumProfiles; ++k) {
      const Tenant t{k, static_cast<uint64_t>(kProfiles[k].load * load_scale_)};
      for (bool observed : {true, false}) {
        auto m = make_machine(t, 0, observed);
        m->boot();
        m->run();
        (observed ? on_s : off_s) += m->host_seconds();
        ++traced.attempted;
        if (!m->halted() || m->halt_code() != ck::kHaltDone)
          traced.fail(std::string(kProfiles[k].name) +
                      " (obs.run_cost_ratio probe): halt code " +
                      std::to_string(m->halt_code()));
      }
    }
    traced.layer["obs.run_cost_ratio"] = on_s / off_s;
  }

 private:
  std::unique_ptr<ck::Machine> make_machine(const Tenant& t, unsigned id,
                                            bool observed = true) {
    ck::MachineConfig cfg;
    cfg.kernel.protection = camo::compiler::ProtectionConfig::full();
    cfg.kernel.log_pac_failures = false;
    cfg.obs.enabled = observed;
    cfg.obs.coverage = observed;
    cfg.seed = boot_seed_;
    cfg.phys_bytes = kPhysBytes;
    cfg.machine_id = id;
    cfg.image_cache = cache_;
    auto m = std::make_unique<ck::Machine>(cfg);
    m->add_user_program(tenant_program(t.profile, t.load));
    return m;
  }

  Options o_;
  unsigned jobs_;
  size_t tenants_per_fleet_;
  uint64_t fleets_;
  double load_scale_;
  uint64_t boot_seed_ = 0;
  std::vector<std::vector<Tenant>> fleets_plan_;
  std::unique_ptr<camo::par::Pool> pool_;
  std::shared_ptr<ck::ImageCache> cache_;
};

}  // namespace

std::unique_ptr<Workload> make_observed_fleet(const Options& o) {
  return std::make_unique<ObservedFleet>(o);
}

}  // namespace perfbench
