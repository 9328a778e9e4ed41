// camo-perfdiff: the cross-run perf regression gate.
//
// Compares two sets of camo-bench/v1 documents (see obs/bench_schema.h) —
// a checked-in baseline and a fresh run — series by series. The simulator's
// cycle model is deterministic, so for cycle-valued series any drift is a
// real behavioural change; the noise threshold exists for wall-clock series
// and for intentionally-loose gates, not for simulator jitter.
//
// Matching key: (bench, config, benchmark, unit). When the same key appears
// more than once within one side (N recorded repetitions), the *minimum*
// value is used — min-of-N is the standard way to strip scheduling noise
// from benchmark repetitions.
//
// Direction: units that measure cost ("cycles", "cycles/op", "ns", ...)
// regress only when they *increase* beyond the threshold; a decrease is an
// improvement. Every other unit (counts, ratios, "tries") is gated exactly:
// any move beyond the threshold is flagged as CHANGED, because for a
// deterministic simulation an unexplained change in either direction means
// the behaviour changed, which is what the gate exists to catch.
//
// Informational units are the exception to both rules: host-dependent
// measurements (wall-clock "s"/"ns"/"us"/"ms", "insns/s" host throughput,
// and any "*-host" suffixed unit) vary run to run and machine to machine,
// so they are printed in the delta table with the "info" status but never
// counted toward the gate — not as regressions, not as missing, not as new.
// "fleet."-prefixed benchmark names (steal counts, imbalance, aggregate
// throughput — par::run_fleet scheduler telemetry) are informational
// regardless of unit, for the same reason.
//
// Runs record their --jobs value in the document header (absent = 1).
// Documents for the same bench with different jobs values are refused
// outright: simulated series would still match, but wall-clock series mean
// different things, and a gate that silently compared them would hide that.
// The --cores header field (absent = 1) is refused on mismatch for a
// stronger reason: guest core count changes the *simulated* results
// themselves, so nothing in a cross-cores pair is comparable.
// The "engine" header is likewise refused on mismatch: the tiers retire
// identical simulated cycles, but every host-side series measures a
// different implementation, so recordings on different tiers are never
// diffed against each other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/bench_schema.h"

namespace camo::perfdiff {

struct Options {
  double threshold_pct = 5.0;  ///< noise threshold, percent
  bool allow_missing = false;  ///< baseline series absent from current run
  bool allow_new = true;       ///< current series absent from baseline
};

enum class Status : uint8_t {
  Ok,        ///< within the noise threshold
  Improved,  ///< cost unit decreased beyond the threshold
  Regressed, ///< cost unit increased beyond the threshold
  Changed,   ///< exact-gated unit moved beyond the threshold
  Missing,   ///< in the baseline, absent from the current run
  New,       ///< in the current run, absent from the baseline
  Info,      ///< informational unit: reported, never gated
};

const char* status_name(Status s);

/// True for units where smaller is faster ("cycles", "cycles/op", "ns"...).
bool unit_is_cost(const std::string& unit);
/// True for host-dependent units that are report-only ("insns/s", wall-clock
/// "s"/"ns"/"us"/"ms", "*-host"). Takes precedence over unit_is_cost in
/// diff().
bool unit_is_informational(const std::string& unit);
/// True for benchmark names that are report-only regardless of unit:
/// "fleet."-prefixed scheduler telemetry (steals, imbalance, throughput),
/// "hist."-prefixed histogram quantiles (distribution shape — p50/p95/
/// p99 move with workload composition, so they inform, never gate), and
/// "cov."/"div."-prefixed coverage and divergence counters (execution-shape
/// diagnostics, DESIGN.md §3g), "trace."-prefixed trace-tier telemetry
/// (formation/hit/exit counters, §3i — host-side engine behaviour), and
/// "imgcache."-prefixed image-cache telemetry (§3d — host kernel-build
/// reuse, guest-invisible by contract).
bool series_is_informational(const std::string& benchmark);

struct Delta {
  std::string bench, config, benchmark, unit;
  double baseline = 0;  ///< min-of-N on the baseline side
  double current = 0;   ///< min-of-N on the current side
  double pct = 0;       ///< (current - baseline) / baseline * 100
  Status status = Status::Ok;
};

struct Report {
  /// One line per bench in the current set: the run conditions its document
  /// header recorded (--jobs, --cores, --engine). Printed at the top of
  /// markdown() so a report is interpretable without opening the JSON.
  struct RunHeader {
    std::string bench;
    unsigned jobs = 1;
    unsigned cores = 1;
    cpu::Engine engine = cpu::Engine::Trace;
  };
  std::vector<RunHeader> headers;
  std::vector<Delta> deltas;  ///< baseline order, then new series
  int regressed = 0;          ///< Regressed + Changed
  int improved = 0;
  int missing = 0;
  int added = 0;
  bool ok = false;  ///< gate verdict under the Options used for the diff
  /// Non-empty when the two sides are not comparable at all (e.g. the same
  /// bench was recorded with different --jobs values); ok is then false and
  /// deltas is empty.
  std::string error;

  /// Markdown delta table plus a one-line verdict (or the refusal message).
  std::string markdown() const;
};

/// Diff two document sets. Every series in `baseline` is matched against
/// `current`; unmatched current series are appended as New.
Report diff(const std::vector<obs::BenchDoc>& baseline,
            const std::vector<obs::BenchDoc>& current,
            const Options& opts = Options{});

/// Load one camo-bench/v1 file, or every *.json in a directory (sorted).
/// Returns false and sets `error` on the first unreadable/invalid file.
bool load_path(const std::string& path, std::vector<obs::BenchDoc>& out,
               std::string* error);

}  // namespace camo::perfdiff
