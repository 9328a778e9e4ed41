#include "cov_tool.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "kernel/bisect.h"
#include "kernel/workloads.h"
#include "obs/divergence.h"
#include "obs/json.h"

namespace camo::cov_tool {

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "camo-cov: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

unsigned long long ull(uint64_t v) { return static_cast<unsigned long long>(v); }

}  // namespace

bool load_cov_bundle(const std::string& path, obs::CovBundle* out) {
  std::string text;
  if (!read_file(path, &text)) return false;
  const auto doc = obs::json::Value::parse(text);
  if (!doc) {
    std::fprintf(stderr, "camo-cov: %s is not valid JSON\n", path.c_str());
    return false;
  }
  const std::string err = obs::validate_cov_bundle(*doc);
  if (!err.empty()) {
    std::fprintf(stderr, "camo-cov: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  if (!obs::cov_bundle_from_json(*doc, out)) {
    std::fprintf(stderr, "camo-cov: %s: bundle decode failed\n", path.c_str());
    return false;
  }
  return true;
}

int cmd_report(const std::string& bundle_path) {
  obs::CovBundle b;
  if (!load_cov_bundle(bundle_path, &b)) return 1;
  std::printf("camo-cov/v1 bundle: %s\n", bundle_path.c_str());
  std::printf("  label:    %s\n", b.label.c_str());
  std::printf("  machines: %llu\n", ull(b.machines));
  std::printf("  retired:  el0=%llu el1=%llu el2=%llu\n",
              ull(b.map.retired_at(0)), ull(b.map.retired_at(1)),
              ull(b.map.retired_at(2)));
  std::printf("  blocks:   %llu unique\n", ull(b.map.unique_blocks()));
  std::printf("  edges:    %llu unique\n", ull(b.map.unique_edges()));

  // Function regions (table == "") give the whole-kernel view; table rows
  // (table != "") are the CFI-relevant audit — a protected indirect-call
  // target that never executed is untested attack surface.
  uint64_t fn_total = 0, fn_hit = 0;
  uint64_t row_total = 0, row_hit = 0;
  std::vector<const obs::CovRegion*> cold_rows;
  for (const obs::CovRegion& r : b.map.regions()) {
    const bool hit = b.map.any_executed(r.pa, r.len);
    if (r.table.empty()) {
      ++fn_total;
      fn_hit += hit;
    } else {
      ++row_total;
      row_hit += hit;
      if (!hit) cold_rows.push_back(&r);
    }
  }
  if (fn_total)
    std::printf("  functions executed: %llu / %llu\n", ull(fn_hit),
                ull(fn_total));
  if (row_total) {
    std::printf("  protected-table rows executed: %llu / %llu\n", ull(row_hit),
                ull(row_total));
    if (!cold_rows.empty()) {
      std::printf("  never-executed protected-table rows:\n");
      for (const obs::CovRegion* r : cold_rows)
        std::printf("    %-40s pa=0x%llx len=%llu\n", r->name.c_str(),
                    ull(r->pa), ull(r->len));
    }
  } else {
    std::printf("  (no protected-table regions annotated)\n");
  }
  return 0;
}

int cmd_diff(const std::string& a_path, const std::string& b_path) {
  obs::CovBundle a, b;
  if (!load_cov_bundle(a_path, &a) || !load_cov_bundle(b_path, &b)) return 1;
  const obs::CovDiff d = obs::diff_coverage(a.map, b.map);
  std::printf("coverage diff: %s vs %s\n", a.label.c_str(), b.label.c_str());
  std::printf("  common blocks: %llu\n", ull(d.common));
  const auto list = [](const char* side, const std::vector<uint64_t>& pas) {
    std::printf("  only in %s: %zu block(s)\n", side, pas.size());
    const size_t shown = pas.size() < 16 ? pas.size() : 16;
    for (size_t i = 0; i < shown; ++i)
      std::printf("    pa=0x%llx\n", static_cast<unsigned long long>(pas[i]));
    if (shown < pas.size())
      std::printf("    ... %zu more\n", pas.size() - shown);
  };
  list("A", d.only_a);
  list("B", d.only_b);
  return 0;
}

int cmd_merge(const std::string& out_path,
              const std::vector<std::string>& inputs) {
  obs::CoverageMap merged;
  uint64_t machines = 0;
  for (const std::string& path : inputs) {
    obs::CovBundle b;
    if (!load_cov_bundle(path, &b)) return 1;
    merged.merge_from(b.map);
    machines += b.machines;
  }
  const std::string text = obs::cov_bundle_json(merged, "merge", machines);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "camo-cov: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << text << "\n";
  std::printf("merged %zu bundle(s), %llu machine(s) -> %s\n", inputs.size(),
              ull(machines), out_path.c_str());
  return 0;
}

int cmd_bisect(const BisectCliOptions& opts) {
  const auto side = [](const char* label, cpu::Engine engine) {
    kernel::BisectSide s;
    s.label = std::string(label) + " " + cpu::engine_name(engine);
    s.cfg.kernel.protection = compiler::ProtectionConfig::full();
    s.cfg.kernel.log_pac_failures = false;
    s.cfg.kernel.preempt = true;
    s.cfg.cpu.engine = engine;
    s.setup = [](kernel::Machine& m) {
      m.add_user_program(kernel::workloads::null_syscall(25));
      m.add_user_program(kernel::workloads::yield_loop(10));
    };
    return s;
  };
  kernel::BisectSide a = side("A", opts.engine_a);
  kernel::BisectSide b = side("B", opts.engine_b);
  if (!opts.perturb.empty()) {
    b.label += " perturbed:" + opts.perturb;
    // One-shot SP corruption at the first execution of the symbol. SP_EL1
    // is live through the handler and the trapframe restore path reads
    // [SP], so the shift persists — every later digest differs. The flag
    // is per-machine (fresh probe machines each re-arm it), so every probe
    // of side B diverges at the same retirement.
    b.prepare = [sym = opts.perturb](kernel::Machine& m) {
      auto fired = std::make_shared<bool>(false);
      const uint64_t va = m.kernel_symbol(sym);
      m.cpu().add_breakpoint(va, [fired](cpu::Cpu& c) {
        if (*fired) return;
        *fired = true;
        c.set_sp(c.sp() - 16);
      });
    };
  }
  kernel::BisectOptions bo;
  bo.digest_interval = opts.digest_interval;
  const obs::DivergenceReport r = kernel::bisect_divergence(a, b, bo);
  if (r.diverged)
    std::printf("DIVERGED at retirement %llu (%s vs %s)\n",
                ull(r.first_divergent), r.a.label.c_str(), r.b.label.c_str());
  else
    std::printf("converged through %llu retirements (%s vs %s)\n",
                ull(r.compared), r.a.label.c_str(), r.b.label.c_str());
  if (!opts.out_path.empty()) {
    const std::string text = obs::div_bundle_json(r);
    const auto doc = obs::json::Value::parse(text);
    const std::string err = doc ? obs::validate_div_bundle(*doc)
                                : "emitted bundle does not parse";
    if (!err.empty()) {
      std::fprintf(stderr, "camo-cov: emitted div bundle invalid: %s\n",
                   err.c_str());
      return 1;
    }
    std::ofstream out(opts.out_path);
    if (!out) {
      std::fprintf(stderr, "camo-cov: cannot write %s\n",
                   opts.out_path.c_str());
      return 1;
    }
    out << text << "\n";
    std::printf("[divergence bundle -> %s]\n", opts.out_path.c_str());
  }
  // Expectation: a perturbation must be found, engine-only differences must
  // not invent one.
  const bool expect_diverged = !opts.perturb.empty();
  if (r.diverged != expect_diverged) {
    std::fprintf(stderr, "camo-cov: expected %s but runs %s\n",
                 expect_diverged ? "divergence" : "convergence",
                 r.diverged ? "diverged" : "converged");
    return 1;
  }
  return 0;
}

const char* usage() {
  return "usage:\n"
         "  camo-cov report <bundle.json>\n"
         "  camo-cov diff <a.json> <b.json>\n"
         "  camo-cov merge -o <out.json> <in.json>...\n"
         "  camo-cov bisect [--engine-a <tier>] [--engine-b <tier>]\n"
         "                  [--perturb <kernel-symbol>] [--interval <n>]\n"
         "                  [--out <div.json>]\n"
         "  <tier>: reference | fast | block | trace\n";
}

}  // namespace camo::cov_tool
