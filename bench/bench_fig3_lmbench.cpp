// Figure 3: lmbench-style kernel micro-benchmark latencies, relative to the
// unprotected kernel, under full protection and backward-edge-only CFI.
//
// The paper: "The performance impact at system call level is measurable as
// double-digit percentual overhead ... due to a comparatively high rate of
// function calls to computation" in syscall implementations.
//
// Each row runs the same user workload (null syscall, read, write, stat,
// open/close, context switch) on three kernels that differ only in
// instrumentation, and reports per-operation simulated cycles plus the
// relative latency Figure 3 plots.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "kernel/workloads.h"

namespace {

using namespace camo;  // NOLINT
using kernel::FileKind;
namespace wl = kernel::workloads;

struct Bench {
  const char* name;
  uint64_t ops;  ///< operations per run (for per-op latency)
  std::vector<obj::Program> (*make)();
};

uint64_t kIters = 1500;  // reduced under --smoke

std::vector<obj::Program> make_null() {
  std::vector<obj::Program> v;
  v.push_back(wl::null_syscall(kIters));
  return v;
}
std::vector<obj::Program> make_read() {
  std::vector<obj::Program> v;
  v.push_back(wl::read_file(kIters, 64, FileKind::Null));
  return v;
}
std::vector<obj::Program> make_write() {
  std::vector<obj::Program> v;
  v.push_back(wl::write_file(kIters, 64, FileKind::Null));
  return v;
}
std::vector<obj::Program> make_stat() {
  std::vector<obj::Program> v;
  v.push_back(wl::stat_file(kIters));
  return v;
}
std::vector<obj::Program> make_openclose() {
  std::vector<obj::Program> v;
  v.push_back(wl::open_close(kIters / 2));
  return v;
}
std::vector<obj::Program> make_ctx() {
  std::vector<obj::Program> v;
  v.push_back(wl::yield_loop(kIters / 2));
  v.push_back(wl::yield_loop(kIters / 2));
  return v;
}

/// Observability sink sets of the obs.cost.* series (DESIGN.md §3e).
struct SinkSet {
  const char* name;
  bool enabled;
  bool callgraph;
  bool coverage;
};

/// The throughput rows' read workload under full protection with one sink
/// set attached: best-of-3 guest insns per host second (the CPU loop only,
/// like RunCycles::throughput), or 0 when a run does not complete.
double sink_set_throughput(const bench::RunOptions& opts,
                           const SinkSet& set) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    kernel::MachineConfig cfg =
        opts.machine(compiler::ProtectionConfig::full());
    cfg.obs.enabled = set.enabled;
    cfg.obs.callgraph = set.callgraph;
    cfg.obs.coverage = set.coverage;
    kernel::Machine m(cfg);
    m.add_user_program(wl::read_file(kIters * 8, 64, FileKind::Null));
    m.boot();
    if (!m.run() || m.halt_code() != kernel::kHaltDone) return 0;
    best = std::max(best, m.host_throughput());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session s(
      argc, argv, "Figure 3", "lmbench (relative) latencies",
      "double-digit % syscall-level overhead for full protection; "
      "backward-only in between; high call density explains the cost");
  kIters = s.iters(1500, 100);

  const Bench benches[] = {
      {"null syscall", kIters, make_null},
      {"read /dev/null 64B", kIters, make_read},
      {"write /dev/null 64B", kIters, make_write},
      {"stat", kIters, make_stat},
      {"open/close", kIters / 2, make_openclose},
      {"ctx switch (2 tasks)", kIters, make_ctx},
  };

  std::printf("%-22s | %-24s | %-24s | %-24s\n", "", "none", "backward-edge",
              "full");
  std::printf("%-22s | %10s %12s | %10s %12s | %10s %12s\n", "benchmark",
              "cyc/op", "relative", "cyc/op", "relative", "cyc/op",
              "relative");
  std::printf("%.*s\n", 112,
              "--------------------------------------------------------------"
              "--------------------------------------------------");

  double geo_back = 0, geo_full = 0;
  int n = 0;
  for (const auto& b : benches) {
    double base = 0;
    std::printf("%-22s |", b.name);
    for (const auto& cfgn : bench::figure_configs()) {
      const auto r = bench::run_workload(cfgn.prot, b.make(), s.run_options());
      if (r.halt_code != kernel::kHaltDone) {
        std::printf(" RUN FAILED (halt=0x%llx)",
                    static_cast<unsigned long long>(r.halt_code));
        continue;
      }
      const double per_op = static_cast<double>(r.workload) / b.ops;
      if (base == 0) base = per_op;
      const double rel = per_op / base;
      std::printf(" %10.1f %11.3fx |", per_op, rel);
      s.add(cfgn.name, b.name, per_op, "cycles/op", rel);
      if (std::string(cfgn.name) == "backward") geo_back += std::log(rel);
      if (std::string(cfgn.name) == "full") geo_full += std::log(rel);
    }
    std::printf("\n");
    ++n;
  }
  std::printf("\ngeometric-mean relative latency: backward-edge %.3fx, full "
              "%.3fx (paper Figure 3 shows the same ordering with "
              "double-digit %% overheads)\n",
              std::exp(geo_back / n), std::exp(geo_full / n));

  // Host-throughput comparison (informational, never gated): the same read
  // workload, longer than the latency rows (noise amortisation), under all
  // four host engine modes — no host caches, the fetch/translate fast path
  // alone, the superblock engine on top, and the trace tier on top of that.
  // Simulated cycles must be bit-for-bit identical across all four — every
  // mode is host-side only.
  if (!bench::emit_throughput_series(
          s, "read /dev/null 64B", compiler::ProtectionConfig::full(), [] {
            std::vector<obj::Program> v;
            v.push_back(wl::read_file(kIters * 8, 64, FileKind::Null));
            return v;
          }))
    return 1;

  // Observability sink cost (informational, never gated): the same read
  // workload on the default engine with no collector, with only the event
  // ring and flight recorder (no call graph), with the default sinks, and
  // with coverage on top.
  {
    const SinkSet sets[] = {{"off", false, false, false},
                            {"ring+audit+flight", true, false, false},
                            {"default", true, true, false},
                            {"default+coverage", true, true, true}};
    std::printf("\nobservability sink cost (read /dev/null 64B, full "
                "protection, informational):\n");
    double off = 0;
    for (const SinkSet& set : sets) {
      const double rate = sink_set_throughput(s.run_options(), set);
      if (rate == 0) {
        std::fprintf(stderr, "sink-cost run (%s) failed\n", set.name);
        return 1;
      }
      if (off == 0) off = rate;
      std::printf("  %-18s %8.1f M guest insns/host-s (%.2fx of off)\n",
                  set.name, rate / 1e6, rate / off);
      s.add(set.name, "obs.cost.read /dev/null 64B", rate, "insns/s");
    }
  }

  bench::RunOptions collected = s.run_options();
  collected.collect = true;

  // Latency-distribution histograms (DESIGN.md §3f): one collected read
  // workload under full protection. The hist.* series are informational —
  // distribution shape for trend tracking, never a regression gate. The
  // superblock run-length histogram is host-strategy shape and stays empty
  // (hence unemitted) when the engine is off.
  {
    const auto r = bench::run_workload(compiler::ProtectionConfig::full(),
                                       make_read(), collected);
    if (r.halt_code != kernel::kHaltDone) {
      std::fprintf(stderr, "histogram run failed (halt=0x%llx)\n",
                   static_cast<unsigned long long>(r.halt_code));
      return 1;
    }
    std::printf("\nlatency distributions (full protection, informational):\n");
    s.add_histogram("full", "pauth.sign_to_auth", r.sign_to_auth, "cycles");
    s.add_histogram("full", "key.switch", r.key_switch, "cycles");
    s.add_histogram("full", "sb.run_length", r.sb_run_length, "insns");
    s.add_histogram("full", "trace.len", r.trace_len, "insns");
  }

  // --trace <path> / --folded <path>: rerun one workload with the obs
  // collector attached and dump the Chrome trace_event JSON
  // (chrome://tracing / Perfetto), the flat per-symbol cycle profile, and/or
  // the folded call-stack profile (flamegraph.pl / speedscope input).
  if (!s.trace_path().empty() || !s.folded_path().empty()) {
    const auto r = bench::run_workload(compiler::ProtectionConfig::full(),
                                       make_read(), collected);
    if (r.halt_code != kernel::kHaltDone) {
      std::fprintf(stderr, "trace run failed (halt=0x%llx)\n",
                   static_cast<unsigned long long>(r.halt_code));
      return 1;
    }
    if (r.profile_cycles != r.total) {
      std::fprintf(stderr,
                   "profile does not account for all cycles: %llu != %llu\n",
                   static_cast<unsigned long long>(r.profile_cycles),
                   static_cast<unsigned long long>(r.total));
      return 1;
    }
    if (r.callgraph_cycles != r.total) {
      std::fprintf(
          stderr,
          "call graph does not account for all cycles: %llu != %llu\n",
          static_cast<unsigned long long>(r.callgraph_cycles),
          static_cast<unsigned long long>(r.total));
      return 1;
    }
    if (!s.trace_path().empty()) {
      std::ofstream out(s.trace_path());
      out << r.trace_json << "\n";
      std::printf("\n[chrome trace -> %s]\n", s.trace_path().c_str());
      std::printf(
          "\nflat profile (read syscall workload, full protection):\n%s",
          r.flat_profile.c_str());
    }
    if (!s.folded_path().empty()) {
      std::ofstream out(s.folded_path());
      out << r.folded;
      std::printf("\n[folded stacks -> %s]\n", s.folded_path().c_str());
    }
  }
  return s.finish();
}
