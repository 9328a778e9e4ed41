// perfbench: the repository benchmark driver.
//
//   perfbench --workload <attack_sweep|observed_fleet>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload, checks its outputs and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, timed with
// tracing off. With --trace 1 the workload runs twice on the same inputs,
// untraced and then traced; the traced pass records spans around every call
// into a layer and the metrics are the per-layer ones. See NOTES.md.
//
// Test-only flags: --tiny (a few units per workload) and
// --break-check <verdict|halt> (corrupts one expectation, so the output
// checks must count a failure).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},
    {"unit_ms.mean", "ms"},    {"unit_ms.p90", "ms"},
    {"peak_rss_mib", "MiB"},
};

// Per-layer metrics, printed by every traced run. A layer the workload does
// not reach through a call the benchmark makes reads 0 (cpu.*, obs.* and
// par.* on attack_sweep; attacks.* and sim.overhead_pct on observed_fleet).
constexpr Metric kPerLayer[] = {
    {"kernel.construct_ms", "ms"},
    {"kernel.boot_cold_ms", "ms"},
    {"kernel.boot_warm_ms", "ms"},
    {"core.prepare_ms", "ms"},
    {"cpu.run_ms", "ms"},
    {"cpu.guest_insns", "count"},
    {"cpu.guest_mips", "Minsn/s"},
    {"cpu.guest_mips.download", "Minsn/s"},
    {"cpu.guest_mips.package_build", "Minsn/s"},
    {"cpu.guest_mips.image_resize", "Minsn/s"},
    {"cpu.sb_hit_ratio", "ratio"},
    {"cpu.trace_hit_ratio", "ratio"},
    {"cpu.trace_guard_exit_ratio", "ratio"},
    {"sim.overhead_pct", "%"},
    {"sim.cycles", "count"},
    {"obs.run_cost_ratio", "ratio"},
    {"obs.export_ms.chrome_trace", "ms"},
    {"obs.export_ms.folded", "ms"},
    {"obs.export_ms.audit", "ms"},
    {"obs.export_ms.coverage", "ms"},
    {"obs.trace_events", "count"},
    {"obs.audit_events", "count"},
    {"obs.export_bytes", "bytes"},
    {"par.fleet_ms", "ms"},
    {"par.merge_ms", "ms"},
    {"par.busy_frac", "ratio"},
    {"par.steals", "count"},
    {"par.imbalance", "ratio"},
    {"attacks.scenario_ms.rop-injection", "ms"},
    {"attacks.scenario_ms.forward-edge", "ms"},
    {"attacks.scenario_ms.fops-redirect", "ms"},
    {"attacks.scenario_ms.fops-cross-object", "ms"},
    {"attacks.scenario_ms.bruteforce", "ms"},
    {"attacks.scenario_ms.key-extraction", "ms"},
    {"attacks.scenario_ms.rodata-tamper", "ms"},
    {"attacks.scenario_ms.trapframe", "ms"},
    {"attacks.scenario_ms.trapframe-protected", "ms"},
    {"attacks.scenario_ms.trapframe-migration", "ms"},
    {"attacks.verdict.hijacked", "count"},
    {"attacks.verdict.detected", "count"},
    {"attacks.verdict.blocked", "count"},
    {"trace.span_coverage", "ratio"},
    {"trace.overhead_s", "s"},
    {"host_ref_ms", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--tiny] "
               "[--break-check <verdict|halt>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have[0] = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
      have[1] = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 3600)
        usage("bad --seconds");
      have[2] = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      o.trace = v == "1";
      have[3] = true;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--break-check") {
      if (v != "verdict" && v != "halt") usage("bad --break-check");
      o.break_check = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  for (bool h : have)
    if (!h) usage("--workload, --seed, --seconds and --trace are required");
  return o;
}

/// Informational host-speed reading: a fixed ALU spin loop. Recorded in
/// every run so a host-phase shift can be told apart from a regression.
double host_ref_ms() {
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(rep);
    for (int i = 0; i < 30'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    t.push_back((now_s() - t0) * 1e3);
    // Using the result keeps the loop from being optimised away; xorshift
    // never reaches 0 from a nonzero state.
    if (x == 0) std::abort();
  }
  return percentile(t, 0.5);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-layer values from the recorded spans (medians per call unless the
/// metric is a total), merged over the values the passes measured directly.
std::map<std::string, double> layer_metrics(const std::vector<Span>& spans,
                                            const Pass& traced) {
  std::map<std::string, double> out = traced.layer;
  const auto times = layer_times(spans);
  const auto median_ms = [&](const std::string& span) {
    auto it = times.find(span);
    return it == times.end() ? 0.0 : percentile(it->second.each_s, 0.5) * 1e3;
  };
  for (const char* s : {"kernel.construct", "kernel.boot_cold",
                        "kernel.boot_warm", "core.prepare"})
    out[std::string(s) + "_ms"] = median_ms(s);
  out["par.fleet_ms"] = median_ms("par.run_fleet");
  for (const char* e : {"chrome_trace", "folded", "audit", "coverage"})
    out[std::string("obs.export_ms.") + e] =
        median_ms(std::string("obs.export.") + e);
  for (const auto& [name, t] : times)
    if (name.rfind("attacks.scenario.", 0) == 0)
      out["attacks.scenario_ms." + name.substr(17)] =
          percentile(t.each_s, 0.5) * 1e3;
  // cpu.run_ms is the traced pass's total time inside Machine::run. The
  // coverage counts top-level spans around calls into a layer only, so the
  // bookkeeping spans (a tenant) cannot cover the pass by construction.
  double run_s = 0;
  std::vector<std::pair<double, double>> top;
  for (const Span& s : spans) {
    if (s.start < traced.begin_s || s.end > traced.end_s) continue;
    if (s.name == "cpu.run") run_s += s.end - s.start;
    if (s.parent < 0 && is_layer_span(s.name))
      top.emplace_back(s.start, s.end);
  }
  out["cpu.run_ms"] = run_s * 1e3;
  out["trace.span_coverage"] =
      covered(top, traced.begin_s, traced.end_s) / traced.wall_s();
  return out;
}

void print_metric(bool& first, const char* name, double v, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, v, unit);
  first = false;
}

int run(const Options& o) {
  std::unique_ptr<Workload> w;
  if (o.workload == "attack_sweep") w = make_attack_sweep(o);
  else if (o.workload == "observed_fleet") w = make_observed_fleet(o);
  else usage(("unknown workload " + o.workload).c_str());

  const double ref_ms = host_ref_ms();
  std::printf("host_ref_ms: %.3f\n", ref_ms);

  // Set up several times and report the median, so a slow first try or a
  // host hiccup does not decide setup_s: at least kMinSetupReps times, and
  // more while the total stays under kSetupBudget seconds. The minimum is
  // sized so that the costliest set-up (attack_sweep, about 0.14 s) still
  // gives a median of 15 or more.
  constexpr size_t kMinSetupReps = 15, kMaxSetupReps = 101;
  constexpr double kSetupBudget = 2.0;
  tracer().enable(o.trace);
  std::vector<double> setup_s;
  double setup_total = 0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total < kSetupBudget && setup_s.size() < kMaxSetupReps)) {
    const double t0 = now_s();
    w->setup();
    setup_s.push_back(now_s() - t0);
    setup_total += setup_s.back();
  }
  tracer().enable(false);

  const Pass plain = w->run();
  Pass traced;
  std::map<std::string, double> layer;
  uint64_t attempted = plain.attempted, failed = plain.failed;
  std::vector<std::string> errors = plain.errors;
  if (o.trace) {
    tracer().enable(true);
    traced = w->run();
    w->probe(traced);
    tracer().enable(false);
    attempted += traced.attempted + 1;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    if (traced.fingerprint != plain.fingerprint) {
      ++failed;
      errors.push_back("traced pass changed the simulated results");
    }
    const std::vector<Span> spans = tracer().spans();
    layer = layer_metrics(spans, traced);
    std::printf("%-40s %7s %12s %12s\n", "span", "calls", "total ms",
                "self ms");
    for (const auto& [name, t] : layer_times(spans))
      std::printf("%-40s %7llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.calls), t.total_s * 1e3,
                  t.self_s * 1e3);
    layer["trace.overhead_s"] = traced.wall_s() - plain.wall_s();
    layer["host_ref_ms"] = ref_ms;
    const std::string path = o.out_dir + "/spans-" + o.workload + ".json";
    if (!write_spans(spans, path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::printf("spans: %zu written to %s; coverage of the traced pass %.4f\n",
                spans.size(), path.c_str(), layer["trace.span_coverage"]);
  }

  for (const std::string& e : errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  std::printf("units %zu: p50 %.3f ms, mean %.3f ms, p90 %.3f ms; "
              "fail_frac %.6f (%llu of %llu checks failed)\n",
              plain.unit_ms.size(), percentile(plain.unit_ms, 0.5),
              mean(plain.unit_ms), percentile(plain.unit_ms, 0.9),
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  if (!o.trace) {
    const double values[] = {plain.wall_s(), percentile(setup_s, 0.5),
                             mean(plain.unit_ms),
                             percentile(plain.unit_ms, 0.9), peak_rss_mib()};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i)
      print_metric(first, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
  } else {
    for (const Metric& m : kPerLayer) {
      auto it = layer.find(m.name);
      print_metric(first, m.name, it == layer.end() ? 0.0 : it->second,
                   m.unit);
    }
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
