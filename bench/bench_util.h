// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures (see DESIGN.md §4 for the experiment index).
//
// Timing is reported in *simulated cycles* from the CPU's deterministic
// PA-analogue cycle model (§6.1), optionally converted to nanoseconds at the
// Raspberry Pi 3's 1.2 GHz clock the paper measured on. Absolute numbers are
// not comparable with the paper's testbed; the shape (ordering, ratios,
// where overhead concentrates) is what each bench validates.
//
// Every bench binary drives a bench::Session, which
//   * prints the figure header,
//   * parses the shared flags (--json <path>, --smoke, --trace <path>,
//     --folded <path>, --seed <u64>, --jobs <n>, --cores <n>,
//     --engine reference|fast|block|trace, --cov <path>) and compacts them
//     out of argv so
//     binaries with their own flag parsing (bench_qarma) still work; a
//     value-taking flag with a missing or malformed value is a hard error
//     (exit 2), never silently dropped,
//   * collects every reported measurement as a (config, benchmark, value,
//     unit[, relative]) series point, and
//   * on finish() writes the machine-readable BENCH JSON document
//     (schema "camo-bench/v1", see obs/bench_schema.h), re-parses it and
//     validates the schema — a malformed or empty series makes the binary
//     exit non-zero, which is what the ctest bench_smoke targets check.
//     The emitted document records the RNG seed when the bench used one, so
//     a baseline recording (bench/baselines/) is reproducible bit-for-bit.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compiler/instrument.h"
#include "cpu/engine.h"
#include "kernel/machine.h"
#include "obs/bench_schema.h"
#include "obs/coverage.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "par/pool.h"

namespace camo::bench {

inline constexpr double kClockGhz = 1.2;  ///< RPi3 A53 clock used in §6.1

inline double to_ns(double cycles) { return cycles / kClockGhz; }

/// The three configurations of Figures 3 and 4: no protection,
/// backward-edge CFI only, and full protection (backward + forward + DFI).
struct NamedConfig {
  const char* name;
  compiler::ProtectionConfig prot;
};

inline std::vector<NamedConfig> figure_configs() {
  return {
      {"none", compiler::ProtectionConfig::none()},
      {"backward", compiler::ProtectionConfig::backward_only()},
      {"full", compiler::ProtectionConfig::full()},
  };
}

/// Result of one measured guest run.
struct RunCycles {
  uint64_t total = 0;       ///< boot to halt
  uint64_t workload = 0;    ///< first EL0 entry to halt
  uint64_t halt_code = 0;
  uint64_t retired = 0;      ///< guest instructions retired
  double host_seconds = 0;   ///< host wall clock inside the CPU loop
  /// Guest instructions per host second (informational; host-dependent).
  double throughput() const {
    return host_seconds > 0 ? static_cast<double>(retired) / host_seconds : 0;
  }
  // Populated only when run with `collect = true`:
  std::string trace_json;    ///< Chrome trace_event JSON of the run
  std::string flat_profile;  ///< per-symbol cycle profile (text)
  std::string folded;        ///< folded-stack call-graph profile
  uint64_t profile_cycles = 0;    ///< flat-profile sum (== total)
  uint64_t callgraph_cycles = 0;  ///< call-graph total (== total)
  obs::Histogram sign_to_auth;    ///< pauth.sign_to_auth.cycles (guest)
  obs::Histogram key_switch;      ///< key.switch.cycles (guest)
  /// Superblock dispatch run lengths — host execution-strategy shape, empty
  /// when the engine is off (add_histogram skips empty histograms).
  obs::Histogram sb_run_length;
  /// Instructions per formed trace (§3i), sampled at formation time — empty
  /// when the trace tier (or the whole engine) is off.
  obs::Histogram trace_len;
};

/// How run_workload builds and runs its machine. Session::run_options()
/// fills `engine` and `cores` from --engine and --cores; callers override
/// fields per run.
struct RunOptions {
  uint64_t max_steps = 400'000'000;
  /// Attach the obs collector; the result then carries the Chrome trace,
  /// the flat cycle profile and the folded call-graph profile.
  bool collect = false;
  /// Boot entropy (kernel + user PAuth keys): never affects cycle counts,
  /// only the key material.
  uint64_t seed = kernel::MachineConfig{}.seed;
  /// Host engine tier (cpu/engine.h): simulated cycles are identical on
  /// every tier, only host_seconds moves.
  cpu::Engine engine = cpu::Engine::Trace;
  unsigned cores = 1;

  /// The machine these options describe, with `prot` and PAC-failure
  /// logging off.
  kernel::MachineConfig machine(const compiler::ProtectionConfig& prot) const {
    kernel::MachineConfig cfg;
    cfg.kernel.protection = prot;
    cfg.kernel.log_pac_failures = false;
    cfg.obs.enabled = collect;
    cfg.seed = seed;
    cfg.cpu.engine = engine;
    cfg.cores = cores;
    return cfg;
  }
};

/// Build a machine with `prot`, add the given user programs, run to halt and
/// report cycles. The workload window starts when EL0 first executes.
inline RunCycles run_workload(const compiler::ProtectionConfig& prot,
                              std::vector<obj::Program> programs,
                              const RunOptions& opts = {}) {
  kernel::Machine m(opts.machine(prot));
  for (auto& p : programs) m.add_user_program(std::move(p));
  m.boot();
  uint64_t start = 0;
  // Single-core: the workload window opens at the first EL0 entry. On a
  // multi-core guest each core has its own clock, so the window is measured
  // on whichever core first reaches EL0 in interleaver order (deterministic
  // like everything else guest-side).
  for (unsigned c = 0; c < m.cores(); ++c)
    m.core(c).add_breakpoint(kernel::kUserBase, [&](cpu::Cpu& cc) {
      if (start == 0) start = cc.cycles();
    });
  m.run(opts.max_steps);
  RunCycles r;
  // Multi-core "total" is the makespan: the busiest core's clock. At
  // cores=1 both reduce to the classic single-clock readings.
  r.total = m.cpu().cycles();
  for (unsigned c = 1; c < m.cores(); ++c)
    r.total = std::max(r.total, m.core(c).cycles());
  r.workload = start == 0 ? r.total : r.total - start;
  r.halt_code = m.halted() ? m.halt_code() : ~uint64_t{0};
  r.retired = m.total_retired();
  r.host_seconds = m.host_seconds();
  if (obs::Collector* st = m.stats()) {
    r.trace_json = st->chrome_trace_json();
    r.flat_profile = st->flat_profile();
    r.folded = st->folded_profile();
    for (const auto& e : st->callgraph().flat_entries())
      r.profile_cycles += e.cycles;
    r.callgraph_cycles = st->callgraph().total_cycles();
    if (const obs::Histogram* h =
            st->metrics().find_histogram("pauth.sign_to_auth.cycles"))
      r.sign_to_auth = *h;
    if (const obs::Histogram* h =
            st->metrics().find_histogram("key.switch.cycles"))
      r.key_switch = *h;
  }
  r.sb_run_length = m.cpu().superblock_stats().run_length;
  r.trace_len = m.cpu().superblock_stats().trace_len;
  return r;
}

/// One measurement in the emitted series.
using SeriesPoint = obs::BenchSeriesPoint;

/// The four host-engine tiers of the informational throughput series, one
/// row per rung of the ladder under the series names the baselines use.
struct EngineMode {
  const char* name;
  cpu::Engine engine;
};

inline std::vector<EngineMode> engine_modes() {
  return {{"fastpath-off", cpu::Engine::Reference},
          {"sb-off", cpu::Engine::Fast},
          {"sb-on", cpu::Engine::Block},
          {"trace-on", cpu::Engine::Trace}};
}

/// Per-binary bench driver; see the header comment.
class Session {
 public:
  /// The shared flags, parsed out of argv. Split from the Session so the
  /// parsing is unit-testable without a process exit.
  struct Flags {
    std::string json_path;
    std::string trace_path;
    std::string folded_path;
    /// --flight-rec <path>: where a bench that runs attacks writes the
    /// camo-flight/v1 replay bundle of its first captured violation.
    std::string flight_rec_path;
    /// --cov <path>: where a coverage-collecting bench writes its merged
    /// camo-cov/v1 execution-coverage bundle (DESIGN.md §3g).
    std::string cov_path;
    std::optional<uint64_t> seed;
    bool smoke = false;
    /// --engine reference|fast|block|trace: the host engine tier every run
    /// uses unless a bench compares tiers itself (the throughput series).
    cpu::Engine engine = cpu::Engine::Trace;
    /// Host threads for fleet()-sharded sweeps: --jobs N, else the
    /// CAMO_JOBS environment variable, else 1. Never affects simulated
    /// results — only wall-clock (DESIGN.md §3d). Recorded in the emitted
    /// JSON header when != 1 so camo-perfdiff can refuse cross-jobs gating;
    /// omitted at 1 to keep serial output byte-identical to pre-fleet runs.
    unsigned jobs = 1;
    /// Guest cores per machine: --cores N, else 1. Unlike --jobs this IS
    /// part of the simulated contract — a 2-core guest schedules
    /// differently — so it is recorded in the emitted JSON header when != 1
    /// and camo-perfdiff refuses cross-cores comparisons; omitted at 1 to
    /// keep uniprocessor artifacts byte-identical to pre-SMP recordings.
    unsigned cores = 1;
  };

  /// Parse and compact the shared flags out of argv. Returns an empty
  /// string on success, else the error message (argv is left compacted up
  /// to the point of failure; callers should treat it as consumed).
  static std::string parse_flags(int& argc, char** argv, Flags& out) {
    int kept = 1;
    std::string error;
    bool jobs_set = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // --flag <value> or --flag=<value>; empty/missing values are errors.
      const auto take_value = [&](const char* flag, std::string& dst,
                                  bool& matched) -> bool {
        matched = false;
        const std::string eq = std::string(flag) + "=";
        if (arg == flag) {
          matched = true;
          if (i + 1 >= argc) {
            error = std::string(flag) + " requires a value";
            return false;
          }
          dst = argv[++i];
        } else if (arg.rfind(eq, 0) == 0) {
          matched = true;
          dst = arg.substr(eq.size());
        } else {
          return false;
        }
        if (dst.empty()) {
          error = std::string(flag) + " requires a non-empty value";
          return false;
        }
        return true;
      };
      if (arg == "--smoke") {
        out.smoke = true;
        continue;
      }
      bool matched = false;
      std::string seed_text;
      if (take_value("--json", out.json_path, matched)) continue;
      if (matched) break;
      if (take_value("--trace", out.trace_path, matched)) continue;
      if (matched) break;
      if (take_value("--folded", out.folded_path, matched)) continue;
      if (matched) break;
      if (take_value("--flight-rec", out.flight_rec_path, matched)) continue;
      if (matched) break;
      if (take_value("--cov", out.cov_path, matched)) continue;
      if (matched) break;
      if (take_value("--seed", seed_text, matched)) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(seed_text.c_str(), &end, 0);
        if (end == seed_text.c_str() || *end != '\0') {
          error = "--seed wants an unsigned integer, got \"" + seed_text + "\"";
          break;
        }
        out.seed = static_cast<uint64_t>(v);
        continue;
      }
      if (matched) break;
      std::string engine_text;
      if (take_value("--engine", engine_text, matched)) {
        const auto e = cpu::parse_engine(engine_text);
        if (!e) {
          error = "--engine wants reference|fast|block|trace, got \"" +
                  engine_text + "\"";
          break;
        }
        out.engine = *e;
        continue;
      }
      if (matched) break;
      std::string jobs_text;
      if (take_value("--jobs", jobs_text, matched)) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(jobs_text.c_str(), &end, 0);
        // strtoull wraps negative input; reject explicit signs outright.
        if (jobs_text[0] == '-' || jobs_text[0] == '+' ||
            end == jobs_text.c_str() || *end != '\0' || v == 0) {
          error = "--jobs wants a positive integer, got \"" + jobs_text + "\"";
          break;
        }
        out.jobs = static_cast<unsigned>(
            v > par::Pool::kMaxJobs ? par::Pool::kMaxJobs : v);
        jobs_set = true;
        continue;
      }
      if (matched) break;
      std::string cores_text;
      if (take_value("--cores", cores_text, matched)) {
        char* end = nullptr;
        const unsigned long long v =
            std::strtoull(cores_text.c_str(), &end, 0);
        if (cores_text[0] == '-' || cores_text[0] == '+' ||
            end == cores_text.c_str() || *end != '\0' || v == 0) {
          error =
              "--cores wants a positive integer, got \"" + cores_text + "\"";
          break;
        }
        // Guest cores are simulated, not host threads: no environment
        // fallback (the artifact must say what was simulated), modest cap.
        out.cores = static_cast<unsigned>(v > 64 ? 64 : v);
        continue;
      }
      if (matched) break;
      argv[kept++] = argv[i];  // not ours: keep for the binary's own parser
    }
    if (error.empty()) {
      if (!jobs_set) out.jobs = par::Pool::env_jobs();
      argc = kept;
      argv[argc] = nullptr;
    }
    return error;
  }

  Session(int& argc, char** argv, std::string bench_id, std::string title,
          std::string paper_claim)
      : bench_id_(std::move(bench_id)), title_(std::move(title)) {
    const std::string err = parse_flags(argc, argv, flags_);
    if (!err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      std::exit(2);
    }
    std::printf(
        "\n================================================================\n");
    std::printf("%s — %s%s\n", bench_id_.c_str(), title_.c_str(),
                flags_.smoke ? "  [smoke]" : "");
    std::printf("paper: %s\n", paper_claim.c_str());
    std::printf(
        "================================================================\n");
  }

  bool smoke() const { return flags_.smoke; }
  /// Iteration-count helper: the full count normally, the reduced count
  /// under --smoke (ctest wants the schema checked, not the statistics).
  uint64_t iters(uint64_t full, uint64_t reduced) const {
    return flags_.smoke ? reduced : full;
  }
  const std::string& json_path() const { return flags_.json_path; }
  const std::string& trace_path() const { return flags_.trace_path; }
  const std::string& folded_path() const { return flags_.folded_path; }
  const std::string& flight_rec_path() const { return flags_.flight_rec_path; }
  const std::string& cov_path() const { return flags_.cov_path; }
  unsigned jobs() const { return flags_.jobs; }
  unsigned cores() const { return flags_.cores; }
  cpu::Engine engine() const { return flags_.engine; }
  /// run_workload options carrying this session's --engine and --cores.
  RunOptions run_options() const {
    RunOptions o;
    o.engine = flags_.engine;
    o.cores = flags_.cores;
    return o;
  }

  /// The session's work-stealing pool, sized by --jobs / CAMO_JOBS
  /// (constructed on first use; at --jobs 1 fleet() runs inline and the
  /// pool spawns no threads).
  par::Pool& pool() {
    if (!pool_) pool_ = std::make_unique<par::Pool>(flags_.jobs);
    return *pool_;
  }

  /// Shard n independent work items across the pool: out[i] = fn(i),
  /// results in index order regardless of thread count. Benches compute
  /// their sweep through fleet(), then print and add() the results
  /// serially in the original loop order — stdout and the emitted JSON
  /// stay byte-identical to the serial code at every jobs value.
  template <class Fn>
  auto fleet(size_t n, Fn&& fn) -> std::vector<decltype(fn(size_t{0}))> {
    return pool().map(n, std::forward<Fn>(fn));
  }

  /// The RNG seed for this run: the --seed value when given, else
  /// `fallback`. Whichever is returned is recorded in the emitted JSON, so
  /// the artifact says how to reproduce itself.
  uint64_t seed(uint64_t fallback) {
    if (!flags_.seed) flags_.seed = fallback;
    return *flags_.seed;
  }

  void add(std::string config, std::string benchmark, double value,
           std::string unit,
           std::optional<double> relative = std::nullopt) {
    series_.push_back({std::move(config), std::move(benchmark), value,
                       std::move(unit), relative});
  }

  /// Emit a histogram as four series points — hist.<name>.{p50,p95,p99,
  /// count} — and print the summary line. The "hist." benchmark prefix
  /// marks the whole family informational to camo-perfdiff (quantiles are
  /// distribution shape, never a regression gate). Empty histograms are
  /// skipped so registries whose samples depend on the workload do not
  /// change the series shape between recordings.
  void add_histogram(const std::string& config, const std::string& name,
                     const obs::Histogram& h, const std::string& unit) {
    if (h.count() == 0) return;
    std::printf("  %-28s n=%llu p50=%.0f p95=%.0f p99=%.0f %s\n", name.c_str(),
                static_cast<unsigned long long>(h.count()), h.p50(), h.p95(),
                h.p99(), unit.c_str());
    const std::string base = "hist." + name;
    add(config, base + ".p50", h.p50(), unit);
    add(config, base + ".p95", h.p95(), unit);
    add(config, base + ".p99", h.p99(), unit);
    add(config, base + ".count", static_cast<double>(h.count()), "count");
  }

  /// Emit a (flushed) coverage map as cov.* series points — block/edge
  /// counts and per-EL retire counters — and print the summary line. The
  /// "cov." benchmark prefix marks the family informational to
  /// camo-perfdiff: coverage shape is diagnostic signal, not a perf gate,
  /// and the retire counters are already pinned by the determinism tests.
  void add_coverage(const std::string& config, const obs::CoverageMap& cov) {
    const obs::CoverageMap m = cov.snapshot();
    std::printf("  %-12s coverage: %llu blocks, %llu edges, retired "
                "el0=%llu el1=%llu\n",
                config.c_str(),
                static_cast<unsigned long long>(m.unique_blocks()),
                static_cast<unsigned long long>(m.unique_edges()),
                static_cast<unsigned long long>(m.retired_at(0)),
                static_cast<unsigned long long>(m.retired_at(1)));
    add(config, "cov.blocks", static_cast<double>(m.unique_blocks()), "count");
    add(config, "cov.edges", static_cast<double>(m.unique_edges()), "count");
    add(config, "cov.retired.el0", static_cast<double>(m.retired_at(0)),
        "count");
    add(config, "cov.retired.el1", static_cast<double>(m.retired_at(1)),
        "count");
  }

  /// Write a camo-cov/v1 bundle to `path` and re-validate it, mirroring
  /// finish()'s self-check. Returns false (after printing the error) when
  /// the file cannot be written or fails validation.
  static bool write_coverage_bundle(const std::string& path,
                                    const obs::CoverageMap& cov,
                                    const std::string& label,
                                    uint64_t machines) {
    const std::string text = obs::cov_bundle_json(cov, label, machines);
    {
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cov: cannot write %s\n", path.c_str());
        return false;
      }
      out << text << "\n";
    }
    const auto doc = obs::json::Value::parse(text);
    const std::string err = doc ? obs::validate_cov_bundle(*doc)
                                : "emitted bundle does not parse";
    if (!err.empty()) {
      std::fprintf(stderr, "cov: emitted bundle invalid: %s\n", err.c_str());
      return false;
    }
    std::printf("[coverage bundle -> %s]\n", path.c_str());
    return true;
  }

  /// Write the side artifacts and return the process exit code: non-zero if
  /// no measurements were recorded or the emitted JSON fails validation.
  int finish() {
    if (series_.empty()) {
      std::fprintf(stderr, "%s: no measurements recorded\n",
                   bench_id_.c_str());
      return 1;
    }
    if (flags_.json_path.empty()) return 0;

    obs::json::Value doc = obs::json::Value::object();
    doc.set("schema", obs::json::Value(obs::kBenchSchemaId));
    doc.set("bench", obs::json::Value(bench_id_));
    doc.set("title", obs::json::Value(title_));
    doc.set("smoke", obs::json::Value(flags_.smoke));
    if (flags_.seed) doc.set("seed", obs::json::Value(*flags_.seed));
    // Absent means 1: serial artifacts stay byte-identical to pre-fleet
    // recordings, and camo-perfdiff treats "jobs" mismatches as incomparable.
    if (flags_.jobs != 1)
      doc.set("jobs", obs::json::Value(static_cast<uint64_t>(flags_.jobs)));
    // Absent means 1 guest core: uniprocessor artifacts stay byte-identical
    // to pre-SMP recordings. Unlike "jobs", cores changes simulated results,
    // so camo-perfdiff refuses cross-cores comparisons outright.
    if (flags_.cores != 1)
      doc.set("cores", obs::json::Value(static_cast<uint64_t>(flags_.cores)));
    // Always written: host series differ per tier, so camo-perfdiff refuses
    // cross-engine comparisons (legacy documents derive it, bench_schema.h).
    doc.set("engine", obs::json::Value(cpu::engine_name(flags_.engine)));
    obs::json::Value series = obs::json::Value::array();
    for (const SeriesPoint& p : series_) {
      obs::json::Value pt = obs::json::Value::object();
      pt.set("config", obs::json::Value(p.config));
      pt.set("benchmark", obs::json::Value(p.benchmark));
      pt.set("value", obs::json::Value(p.value));
      pt.set("unit", obs::json::Value(p.unit));
      if (p.relative) pt.set("relative", obs::json::Value(*p.relative));
      series.push(std::move(pt));
    }
    doc.set("series", std::move(series));

    {
      std::ofstream out(flags_.json_path);
      if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", bench_id_.c_str(),
                     flags_.json_path.c_str());
        return 1;
      }
      out << doc.dump(2) << "\n";
    }

    // Self-check: re-read the artifact and validate the schema, so a broken
    // writer fails the bench (and the ctest smoke target) immediately.
    std::string err;
    if (!obs::load_bench_file(flags_.json_path, &err)) {
      std::fprintf(stderr, "%s: emitted JSON fails schema check: %s\n",
                   bench_id_.c_str(), err.c_str());
      return 1;
    }
    std::printf("\n[%zu series points -> %s]\n", series_.size(),
                flags_.json_path.c_str());
    return 0;
  }

 private:
  std::string bench_id_, title_;
  Flags flags_;
  std::vector<SeriesPoint> series_;
  std::unique_ptr<par::Pool> pool_;
};

/// Host-side sibling of emit_throughput_series for benches whose measured
/// loop is pure host code (no Machine — e.g. the raw QARMA core): run `body`
/// best-of-3 and report ops per host second as one informational
/// ("host", benchmark) "ops/s" point.
template <class Fn>
void emit_host_throughput_series(Session& s, const std::string& benchmark,
                                 uint64_t ops, Fn&& body) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    const double rate =
        dt.count() > 0 ? static_cast<double>(ops) / dt.count() : 0;
    if (rate > best) best = rate;
  }
  std::printf("\nhost throughput (%s, informational): %.0f ops/s\n",
              benchmark.c_str(), best);
  s.add("host", benchmark, best, "ops/s");
}

/// One engine tier's best-of-3 run in a host-throughput series.
struct TierRun {
  /// Simulated results (cycles, retired count, ...): identical on every
  /// tier, because every tier is host-side only.
  std::vector<uint64_t> simulated;
  double throughput = 0;  ///< guest insns per host second
};

/// Parity-check and report a host-throughput series: `runs` holds one
/// TierRun per engine_modes() entry, in order. Prints the block and adds one
/// (mode, benchmark) "insns/s" point per tier. Returns false after printing
/// the first tier whose simulated results differ from Reference's; callers
/// exit non-zero.
inline bool report_tier_runs(Session& s, const std::string& benchmark,
                             const std::vector<TierRun>& runs) {
  const std::vector<EngineMode> modes = engine_modes();
  for (size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].simulated == runs[0].simulated) continue;
    std::fprintf(stderr, "%s changed simulated behaviour on %s:",
                 modes[i].name, benchmark.c_str());
    for (size_t k = 0; k < runs[i].simulated.size(); ++k)
      std::fprintf(stderr, " %llu vs %llu",
                   static_cast<unsigned long long>(runs[0].simulated[k]),
                   static_cast<unsigned long long>(runs[i].simulated[k]));
    std::fprintf(stderr, "\n");
    return false;
  }
  std::printf("\nhost throughput (%s, informational):\n", benchmark.c_str());
  for (size_t i = 0; i < runs.size(); ++i) {
    std::printf("  %-13s %12.0f guest insns/host-s (%.2fx)\n", modes[i].name,
                runs[i].throughput,
                runs[0].throughput > 0
                    ? runs[i].throughput / runs[0].throughput
                    : 0);
    s.add(modes[i].name, benchmark, runs[i].throughput, "insns/s");
  }
  return true;
}

/// Measure and emit the informational host-throughput series for one
/// workload: best-of-3 on each engine tier (min-of-N wall time == max
/// throughput, stripping host scheduler noise the way perfdiff does), with
/// simulated cycles, workload window, halt code and retired count
/// parity-checked across tiers by report_tier_runs.
template <class MakePrograms>
bool emit_throughput_series(Session& s, const std::string& benchmark,
                            const compiler::ProtectionConfig& prot,
                            MakePrograms&& make,
                            uint64_t max_steps = 400'000'000,
                            uint64_t seed = kernel::MachineConfig{}.seed) {
  RunOptions opts = s.run_options();
  opts.max_steps = max_steps;
  opts.seed = seed;
  std::vector<TierRun> runs;
  for (const EngineMode& mode : engine_modes()) {
    opts.engine = mode.engine;
    RunCycles best;
    for (int rep = 0; rep < 3; ++rep) {
      RunCycles r = run_workload(prot, make(), opts);
      if (rep == 0 || r.throughput() > best.throughput()) best = r;
    }
    runs.push_back({{best.total, best.workload, best.halt_code, best.retired},
                    best.throughput()});
  }
  return report_tier_runs(s, benchmark, runs);
}

}  // namespace camo::bench
