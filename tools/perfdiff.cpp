#include "perfdiff.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>

#include "support/format.h"

namespace camo::perfdiff {

const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Improved: return "improved";
    case Status::Regressed: return "REGRESSED";
    case Status::Changed: return "CHANGED";
    case Status::Missing: return "MISSING";
    case Status::New: return "new";
    case Status::Info: return "info";
  }
  return "<bad-status>";
}

bool unit_is_cost(const std::string& unit) {
  // "cycles", "cycles/op", "cycles/call", "cycles/switch", ...
  if (unit.rfind("cycles", 0) == 0) return true;
  return unit == "ns" || unit == "us" || unit == "ms" || unit == "insns" ||
         unit == "instructions" || unit == "bytes";
}

bool unit_is_informational(const std::string& unit) {
  // Host-throughput series and anything explicitly host-suffixed. Wall-clock
  // units are cost-shaped but host-dependent, so they are informational too.
  if (unit == "insns/s" || unit == "ops/s" || unit == "ns/op" || unit == "s" ||
      unit == "seconds" || unit == "ns" || unit == "us" || unit == "ms")
    return true;
  static const std::string kSuffix = "-host";
  return unit.size() >= kSuffix.size() &&
         unit.compare(unit.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
             0;
}

bool series_is_informational(const std::string& benchmark) {
  // par::run_fleet scheduler telemetry: steal counts, imbalance and
  // aggregate throughput depend on host scheduling, never on the simulation.
  // Histogram quantile families (bench::Session::add_histogram) are
  // distribution shape: informational by construction. Coverage and
  // divergence families (bench::Session::add_coverage, DESIGN.md §3g) are
  // diagnostic signal — never a perf gate. Trace-tier telemetry (§3i
  // formation/hit/exit counters) is host-side engine behaviour, not a
  // simulated cost. Image-cache telemetry (§3d — build/reuse counts)
  // describes host kernel-build reuse that is guest-invisible by contract,
  // so it can never gate either.
  return benchmark.rfind("fleet.", 0) == 0 ||
         benchmark.rfind("hist.", 0) == 0 ||
         benchmark.rfind("cov.", 0) == 0 ||
         benchmark.rfind("div.", 0) == 0 ||
         benchmark.rfind("trace.", 0) == 0 ||
         benchmark.rfind("imgcache.", 0) == 0;
}

namespace {

using Key = std::tuple<std::string, std::string, std::string, std::string>;

/// Flatten docs into key -> min value (min-of-N across repeated keys),
/// remembering first-seen order for stable output.
void flatten(const std::vector<obs::BenchDoc>& docs,
             std::map<Key, double>& values, std::vector<Key>& order) {
  for (const obs::BenchDoc& doc : docs) {
    for (const obs::BenchSeriesPoint& p : doc.series) {
      Key k{doc.bench, p.config, p.benchmark, p.unit};
      const auto it = values.find(k);
      if (it == values.end()) {
        values.emplace(k, p.value);
        order.push_back(std::move(k));
      } else {
        it->second = std::min(it->second, p.value);
      }
    }
  }
}

/// Engine a document ran under: the trace tier requires superblocks, so the
/// (sb, trace) pair collapses to three names. Documents predating the trace
/// tier parse as trace=false and so read as plain "sb"/"interp" — which is
/// exactly what they ran.
const char* engine_name(bool sb, bool trace) {
  if (sb && trace) return "trace";
  return sb ? "sb" : "interp";
}

}  // namespace

Report diff(const std::vector<obs::BenchDoc>& baseline,
            const std::vector<obs::BenchDoc>& current, const Options& opts) {
  // Refuse cross-jobs comparisons outright: wall-clock series recorded at
  // different --jobs values measure different things, and a silent compare
  // would launder that into pass/fail noise.
  {
    std::map<std::string, unsigned> base_jobs;
    for (const obs::BenchDoc& doc : baseline) base_jobs[doc.bench] = doc.jobs;
    for (const obs::BenchDoc& doc : current) {
      const auto it = base_jobs.find(doc.bench);
      if (it != base_jobs.end() && it->second != doc.jobs) {
        Report rep;
        rep.error = strformat(
            "bench \"%s\": baseline recorded with --jobs %u, current with "
            "--jobs %u — not comparable; re-record one side",
            doc.bench.c_str(), it->second, doc.jobs);
        rep.ok = false;
        return rep;
      }
    }
  }
  // Refuse cross-cores comparisons for the stronger reason: guest core
  // count is part of the simulated contract — a 2-core guest schedules
  // differently — so even the deterministic cycle series measure different
  // systems.
  {
    std::map<std::string, unsigned> base_cores;
    for (const obs::BenchDoc& doc : baseline)
      base_cores[doc.bench] = doc.cores;
    for (const obs::BenchDoc& doc : current) {
      const auto it = base_cores.find(doc.bench);
      if (it != base_cores.end() && it->second != doc.cores) {
        Report rep;
        rep.error = strformat(
            "bench \"%s\": baseline recorded with --cores %u, current with "
            "--cores %u — not comparable; re-record one side",
            doc.bench.c_str(), it->second, doc.cores);
        rep.ok = false;
        return rep;
      }
    }
  }
  // Refuse cross-engine comparisons (interp vs sb vs trace): the engines
  // retire identical simulated cycles, but every host-side series — wall
  // clock, throughput, fast-path counters — measures a different
  // implementation, so a diff across them is answering the wrong question.
  {
    std::map<std::string, const obs::BenchDoc*> base_engine;
    for (const obs::BenchDoc& doc : baseline) base_engine[doc.bench] = &doc;
    for (const obs::BenchDoc& doc : current) {
      const auto it = base_engine.find(doc.bench);
      if (it != base_engine.end() &&
          (it->second->sb != doc.sb || it->second->trace != doc.trace)) {
        Report rep;
        rep.error = strformat(
            "bench \"%s\": baseline recorded with engine=%s, current with "
            "engine=%s — not comparable; re-record one side",
            doc.bench.c_str(),
            engine_name(it->second->sb, it->second->trace),
            engine_name(doc.sb, doc.trace));
        rep.ok = false;
        return rep;
      }
    }
  }
  std::map<Key, double> base_vals, cur_vals;
  std::vector<Key> base_order, cur_order;
  flatten(baseline, base_vals, base_order);
  flatten(current, cur_vals, cur_order);

  Report rep;
  // Record each current bench's run conditions for the report header
  // (first document wins; the jobs check above already rejected mixes).
  for (const obs::BenchDoc& doc : current) {
    bool seen = false;
    for (const Report::RunHeader& h : rep.headers) seen |= h.bench == doc.bench;
    if (!seen)
      rep.headers.push_back(
          {doc.bench, doc.jobs, doc.cores, doc.sb, doc.trace});
  }
  for (const Key& k : base_order) {
    Delta d;
    std::tie(d.bench, d.config, d.benchmark, d.unit) = k;
    d.baseline = base_vals.at(k);
    const bool info =
        unit_is_informational(d.unit) || series_is_informational(d.benchmark);
    const auto it = cur_vals.find(k);
    if (it == cur_vals.end()) {
      d.current = 0;
      d.pct = 0;
      // Informational series are report-only: their absence is not a
      // gateable event either.
      d.status = info ? Status::Info : Status::Missing;
      if (!info) ++rep.missing;
      rep.deltas.push_back(std::move(d));
      continue;
    }
    d.current = it->second;
    if (d.baseline != 0) {
      d.pct = (d.current - d.baseline) / std::fabs(d.baseline) * 100.0;
    } else {
      d.pct = d.current == 0 ? 0.0 : 100.0;  // 0 -> nonzero: flag it
    }
    if (info) {
      d.status = Status::Info;  // printed with its delta, never gated
      rep.deltas.push_back(std::move(d));
      continue;
    }
    const bool beyond = std::fabs(d.pct) > opts.threshold_pct;
    if (!beyond) {
      d.status = Status::Ok;
    } else if (unit_is_cost(d.unit)) {
      d.status = d.pct > 0 ? Status::Regressed : Status::Improved;
    } else {
      d.status = Status::Changed;
    }
    if (d.status == Status::Regressed || d.status == Status::Changed)
      ++rep.regressed;
    if (d.status == Status::Improved) ++rep.improved;
    rep.deltas.push_back(std::move(d));
  }
  for (const Key& k : cur_order) {
    if (base_vals.count(k)) continue;
    Delta d;
    std::tie(d.bench, d.config, d.benchmark, d.unit) = k;
    d.current = cur_vals.at(k);
    if (unit_is_informational(d.unit) ||
        series_is_informational(d.benchmark)) {
      d.status = Status::Info;  // new informational series never gate
    } else {
      d.status = Status::New;
      ++rep.added;
    }
    rep.deltas.push_back(std::move(d));
  }

  rep.ok = rep.regressed == 0 && (opts.allow_missing || rep.missing == 0) &&
           (opts.allow_new || rep.added == 0);
  return rep;
}

std::string Report::markdown() const {
  if (!error.empty()) return "FAIL: " + error + "\n";
  std::string out;
  for (const RunHeader& h : headers)
    out += strformat("- `%s`: jobs=%u, cores=%u, engine=%s\n",
                     h.bench.c_str(), h.jobs, h.cores,
                     engine_name(h.sb, h.trace));
  if (!headers.empty()) out += "\n";
  out +=
      "| series | unit | baseline | current | delta | status |\n"
      "|---|---|---:|---:|---:|---|\n";
  for (const Delta& d : deltas) {
    const std::string series =
        d.bench + " / " + d.config + " / " + d.benchmark;
    std::string delta_txt;
    if (d.status == Status::Missing || d.status == Status::New ||
        (d.status == Status::Info && d.baseline == 0))
      delta_txt = "-";
    else
      delta_txt = strformat("%+.2f%%", d.pct);
    out += strformat("| %s | %s | %.6g | %.6g | %s | %s |\n", series.c_str(),
                     d.unit.c_str(), d.baseline, d.current, delta_txt.c_str(),
                     status_name(d.status));
  }
  out += strformat(
      "\n%s: %d regressed, %d improved, %d missing, %d new, %zu series\n",
      ok ? "PASS" : "FAIL", regressed, improved, missing, added,
      deltas.size());
  return out;
}

bool load_path(const std::string& path, std::vector<obs::BenchDoc>& out,
               std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.path().extension() == ".json")
        files.push_back(entry.path().string());
    }
    if (ec) {
      if (error) *error = "cannot list " + path + ": " + ec.message();
      return false;
    }
    if (files.empty()) {
      if (error) *error = "no *.json files in " + path;
      return false;
    }
    std::sort(files.begin(), files.end());
    for (const std::string& f : files) {
      auto doc = obs::load_bench_file(f, error);
      if (!doc) return false;
      out.push_back(std::move(*doc));
    }
    return true;
  }
  auto doc = obs::load_bench_file(path, error);
  if (!doc) return false;
  out.push_back(std::move(*doc));
  return true;
}

}  // namespace camo::perfdiff
