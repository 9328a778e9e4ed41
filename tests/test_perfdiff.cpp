// camo-perfdiff tests: schema validation shared with the benches, matching
// and min-of-N semantics, gate direction rules (cost units one-sided,
// everything else exact-gated), and the markdown report.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "obs/bench_schema.h"
#include "obs/json.h"
#include "perfdiff.h"

namespace camo::perfdiff {
namespace {

obs::BenchDoc doc(const std::string& bench,
                  std::vector<obs::BenchSeriesPoint> series) {
  obs::BenchDoc d;
  d.bench = bench;
  d.title = bench;
  d.series = std::move(series);
  return d;
}

obs::BenchSeriesPoint pt(const std::string& config,
                         const std::string& benchmark, double value,
                         const std::string& unit) {
  return {config, benchmark, value, unit, std::nullopt};
}

TEST(PerfDiff, SelfCompareIsCleanPass) {
  const auto base = doc("Figure 3", {pt("none", "null syscall", 100, "cycles/op"),
                                     pt("full", "null syscall", 131, "cycles/op")});
  const auto rep = diff({base}, {base}, {});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.regressed, 0);
  EXPECT_EQ(rep.improved, 0);
  ASSERT_EQ(rep.deltas.size(), 2u);
  for (const auto& d : rep.deltas) EXPECT_EQ(d.status, Status::Ok);
}

TEST(PerfDiff, RegressionBeyondThresholdFailsTheGate) {
  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  const auto cur = doc("Fig", {pt("full", "read", 1100, "cycles/op")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.regressed, 1);
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_EQ(rep.deltas[0].status, Status::Regressed);
  EXPECT_NEAR(rep.deltas[0].pct, 10.0, 1e-9);
}

TEST(PerfDiff, ImprovementPassesAndIsCounted) {
  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  const auto cur = doc("Fig", {pt("full", "read", 850, "cycles/op")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.improved, 1);
  EXPECT_EQ(rep.deltas[0].status, Status::Improved);
}

TEST(PerfDiff, WithinNoiseThresholdIsOk) {
  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  const auto cur = doc("Fig", {pt("full", "read", 1049, "cycles/op")});
  const auto rep = diff({base}, {cur}, {});  // default threshold 5%
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.deltas[0].status, Status::Ok);
  // A tighter threshold flags the same delta.
  Options tight;
  tight.threshold_pct = 1.0;
  EXPECT_FALSE(diff({base}, {cur}, tight).ok);
}

TEST(PerfDiff, NonCostUnitsAreExactGatedInBothDirections) {
  // A ratio that *drops* 50% is not an "improvement" — for a deterministic
  // simulation it means the behaviour changed, and the gate must say so.
  const auto base = doc("Abl", {pt("parts", "collisions", 40, "pairs")});
  const auto cur = doc("Abl", {pt("parts", "collisions", 20, "pairs")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.deltas[0].status, Status::Changed);
}

TEST(PerfDiff, MissingSeriesFailsUnlessAllowed) {
  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                                pt("full", "write", 900, "cycles/op")});
  const auto cur = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.missing, 1);
  Options opts;
  opts.allow_missing = true;
  EXPECT_TRUE(diff({base}, {cur}, opts).ok);
}

TEST(PerfDiff, NewSeriesAllowedByDefaultForbiddenOnRequest) {
  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  const auto cur = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                               pt("full", "stat", 500, "cycles/op")});
  EXPECT_TRUE(diff({base}, {cur}, {}).ok);
  Options opts;
  opts.allow_new = false;
  const auto rep = diff({base}, {cur}, opts);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.added, 1);
  EXPECT_EQ(rep.deltas.back().status, Status::New);
}

TEST(PerfDiff, MinOfNStripsRepetitionNoise) {
  // Three recorded repetitions on each side; only the minima are compared.
  const auto base = doc("Fig", {pt("full", "read", 1030, "cycles/op"),
                                pt("full", "read", 1000, "cycles/op"),
                                pt("full", "read", 1080, "cycles/op")});
  const auto cur = doc("Fig", {pt("full", "read", 1100, "cycles/op"),
                               pt("full", "read", 1010, "cycles/op")});
  const auto rep = diff({base}, {cur}, {});
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.deltas[0].baseline, 1000);
  EXPECT_DOUBLE_EQ(rep.deltas[0].current, 1010);
  EXPECT_TRUE(rep.ok);
}

TEST(PerfDiff, SameBenchmarkNameInDifferentBenchesDoesNotCollide) {
  const auto b1 = doc("Fig3", {pt("full", "read", 100, "cycles/op")});
  const auto b2 = doc("Fig4", {pt("full", "read", 900, "cycles/op")});
  const auto rep = diff({b1, b2}, {b1, b2}, {});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.deltas.size(), 2u);
}

TEST(PerfDiff, ZeroBaselineGoingNonzeroIsFlagged) {
  const auto base = doc("Sec", {pt("full", "auth failures", 0, "count")});
  const auto cur = doc("Sec", {pt("full", "auth failures", 3, "count")});
  EXPECT_FALSE(diff({base}, {cur}, {}).ok);
}

TEST(PerfDiff, UnitCostClassification) {
  EXPECT_TRUE(unit_is_cost("cycles"));
  EXPECT_TRUE(unit_is_cost("cycles/op"));
  EXPECT_TRUE(unit_is_cost("ns"));
  EXPECT_TRUE(unit_is_cost("insns"));
  EXPECT_FALSE(unit_is_cost("ratio"));
  EXPECT_FALSE(unit_is_cost("pairs"));
  EXPECT_FALSE(unit_is_cost("tries"));
}

TEST(PerfDiff, InformationalUnitClassification) {
  EXPECT_TRUE(unit_is_informational("insns/s"));
  EXPECT_TRUE(unit_is_informational("ns"));
  EXPECT_TRUE(unit_is_informational("us"));
  EXPECT_TRUE(unit_is_informational("ms"));
  EXPECT_TRUE(unit_is_informational("seconds-host"));
  EXPECT_FALSE(unit_is_informational("cycles"));
  EXPECT_FALSE(unit_is_informational("cycles/op"));
  EXPECT_FALSE(unit_is_informational("ratio"));
  // "ns" is cost-shaped AND informational; informational wins in diff().
  EXPECT_TRUE(unit_is_cost("ns"));
}

TEST(PerfDiff, InformationalSeriesAreReportedButNeverGated) {
  // Host throughput swings wildly between machines; a 10x move in either
  // direction must not fail the gate, but the delta must still be printed.
  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                                pt("fastpath-on", "read", 4e6, "insns/s")});
  const auto cur = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                               pt("fastpath-on", "read", 4e7, "insns/s")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.regressed, 0);
  EXPECT_EQ(rep.improved, 0);
  ASSERT_EQ(rep.deltas.size(), 2u);
  EXPECT_EQ(rep.deltas[1].status, Status::Info);
  EXPECT_NEAR(rep.deltas[1].pct, 900.0, 1e-9);
  const std::string md = rep.markdown();
  EXPECT_NE(md.find("info"), std::string::npos) << md;
  EXPECT_NE(md.find("+900.00%"), std::string::npos) << md;
}

TEST(PerfDiff, InformationalWallClockDropNeverImproves) {
  // "ns" is a cost unit by shape but host wall clock by nature: a 50% drop
  // is reported as info, not counted as an improvement or regression.
  const auto base = doc("Fig", {pt("full", "read", 200, "ns")});
  const auto cur = doc("Fig", {pt("full", "read", 100, "ns")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.improved, 0);
  EXPECT_EQ(rep.deltas[0].status, Status::Info);
}

TEST(PerfDiff, InformationalSeriesExemptFromMissingAndNewGates) {
  // Baselines recorded before a host-metric existed (or after it was
  // dropped) must keep passing even under the strictest options.
  Options strict;
  strict.allow_missing = false;
  strict.allow_new = false;
  const auto with = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                                pt("fastpath-on", "read", 4e6, "insns/s")});
  const auto without = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  const auto gained = diff({without}, {with}, strict);
  EXPECT_TRUE(gained.ok) << gained.markdown();
  EXPECT_EQ(gained.added, 0);
  EXPECT_EQ(gained.deltas.back().status, Status::Info);
  const auto lost = diff({with}, {without}, strict);
  EXPECT_TRUE(lost.ok) << lost.markdown();
  EXPECT_EQ(lost.missing, 0);
}

TEST(PerfDiff, FleetSeriesAreInformationalRegardlessOfUnit) {
  EXPECT_TRUE(series_is_informational("fleet.steals"));
  EXPECT_TRUE(series_is_informational("fleet.imbalance"));
  EXPECT_TRUE(series_is_informational("fleet.throughput"));
  EXPECT_FALSE(series_is_informational("guest cycles"));
  EXPECT_FALSE(series_is_informational("nonfleet.thing"));
  // Shared kernel-image reuse counts are host-side fleet telemetry too.
  EXPECT_TRUE(series_is_informational("imgcache.hits"));
  EXPECT_TRUE(series_is_informational("imgcache.misses"));
  EXPECT_FALSE(series_is_informational("image.bytes"));
  // Wall-clock seconds are informational by unit, like ns/us/ms.
  EXPECT_TRUE(unit_is_informational("s"));
  EXPECT_TRUE(unit_is_informational("seconds"));

  // A 10x steal-count swing (host scheduling) never gates, even though its
  // unit ("steals") is otherwise exact-gated; the deterministic cycles
  // series in the same doc still does.
  const auto base = doc("Fleet", {pt("download", "guest cycles", 1000, "cycles"),
                                  pt("fleet", "fleet.steals", 2, "steals"),
                                  pt("fleet", "fleet.imbalance", 1.1, "ratio")});
  const auto cur = doc("Fleet", {pt("download", "guest cycles", 1000, "cycles"),
                                 pt("fleet", "fleet.steals", 20, "steals"),
                                 pt("fleet", "fleet.imbalance", 3.9, "ratio")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_TRUE(rep.ok) << rep.markdown();
  ASSERT_EQ(rep.deltas.size(), 3u);
  EXPECT_EQ(rep.deltas[0].status, Status::Ok);
  EXPECT_EQ(rep.deltas[1].status, Status::Info);
  EXPECT_EQ(rep.deltas[2].status, Status::Info);

  // ... but a drifted deterministic series still fails the gate.
  const auto drift = doc("Fleet", {pt("download", "guest cycles", 1200, "cycles"),
                                   pt("fleet", "fleet.steals", 2, "steals"),
                                   pt("fleet", "fleet.imbalance", 1.1, "ratio")});
  EXPECT_FALSE(diff({base}, {drift}, {}).ok);
}

TEST(PerfDiff, HistogramSeriesAreInformationalRegardlessOfUnit) {
  // Quantiles summarize distributions whose exact shape shifts with any
  // instrumentation change; they inform, they never gate.
  EXPECT_TRUE(series_is_informational("hist.pauth.sign_to_auth.p50"));
  EXPECT_TRUE(series_is_informational("hist.key.switch.p99"));
  EXPECT_TRUE(series_is_informational("hist.task.count"));
  EXPECT_FALSE(series_is_informational("histogram.other"));
  EXPECT_TRUE(unit_is_informational("ops/s"));
  EXPECT_TRUE(unit_is_informational("ns/op"));

  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                                pt("full", "hist.sign.p99", 40, "cycles")});
  const auto cur = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                               pt("full", "hist.sign.p99", 400, "cycles")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_TRUE(rep.ok) << rep.markdown();
  ASSERT_EQ(rep.deltas.size(), 2u);
  EXPECT_EQ(rep.deltas[1].status, Status::Info);
}

TEST(PerfDiff, CoverageAndDivergenceSeriesAreInformational) {
  // Coverage counters move whenever the attack mix or kernel layout does;
  // they are diagnostic shape (DESIGN.md §3g), never a perf gate — exactly
  // like fleet.* and hist.*.
  EXPECT_TRUE(series_is_informational("cov.blocks"));
  EXPECT_TRUE(series_is_informational("cov.edges"));
  EXPECT_TRUE(series_is_informational("cov.retired.el0"));
  EXPECT_TRUE(series_is_informational("div.first_divergent"));
  EXPECT_FALSE(series_is_informational("coverage.blocks"));
  EXPECT_FALSE(series_is_informational("divergence.first"));

  // A large swing in cov.* must not gate; the deterministic series beside
  // it still does.
  const auto base = doc("Sec", {pt("full", "read", 1000, "cycles/op"),
                                pt("full", "cov.blocks", 50, "count")});
  const auto cur = doc("Sec", {pt("full", "read", 1000, "cycles/op"),
                               pt("full", "cov.blocks", 500, "count")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_TRUE(rep.ok) << rep.markdown();
  ASSERT_EQ(rep.deltas.size(), 2u);
  EXPECT_EQ(rep.deltas[1].status, Status::Info);
  const auto drift = doc("Sec", {pt("full", "read", 1100, "cycles/op"),
                                 pt("full", "cov.blocks", 50, "count")});
  EXPECT_FALSE(diff({base}, {drift}, {}).ok);

  // Informational exemption also covers missing/new under strict options:
  // baselines recorded before coverage existed keep passing.
  Options strict;
  strict.allow_missing = false;
  strict.allow_new = false;
  const auto without = doc("Sec", {pt("full", "read", 1000, "cycles/op")});
  EXPECT_TRUE(diff({without}, {base}, strict).ok);
  EXPECT_TRUE(diff({base}, {without}, strict).ok);
}

TEST(PerfDiff, MarkdownReportsRunHeaders) {
  // diff() refuses cross-jobs and cross-engine comparisons, so both sides
  // record jobs=8 and the same engine per sub-case.
  auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  base.jobs = 8;
  base.engine = cpu::Engine::Fast;
  const auto rep = diff({base}, {base}, {});
  ASSERT_EQ(rep.headers.size(), 1u);
  EXPECT_EQ(rep.headers[0].bench, "Fig");
  EXPECT_EQ(rep.headers[0].jobs, 8u);
  EXPECT_EQ(rep.headers[0].engine, cpu::Engine::Fast);
  const std::string md = rep.markdown();
  EXPECT_NE(md.find("jobs=8"), std::string::npos) << md;
  EXPECT_NE(md.find("engine=fast"), std::string::npos) << md;

  // Every tier reads as itself in the header.
  auto base2 = base;
  base2.jobs = 2;
  std::string md2;
  for (const cpu::Engine e : cpu::kEngines) {
    base2.engine = e;
    md2 = diff({base2}, {base2}, {}).markdown();
    EXPECT_NE(md2.find("jobs=2"), std::string::npos) << md2;
    EXPECT_NE(md2.find(std::string("engine=") + cpu::engine_name(e)),
              std::string::npos)
        << md2;
  }

  // The guest core count rides in the same header line (absent = 1).
  EXPECT_NE(md2.find("cores=1"), std::string::npos) << md2;
  auto base3 = base;
  base3.cores = 2;
  const auto rep3 = diff({base3}, {base3}, {});
  ASSERT_EQ(rep3.headers.size(), 1u);
  EXPECT_EQ(rep3.headers[0].cores, 2u);
  EXPECT_NE(rep3.markdown().find("cores=2"), std::string::npos)
      << rep3.markdown();
}

/// Parse a camo-bench/v1 document whose header carries `fields` (JSON
/// members, comma-terminated) ahead of a one-point series.
std::optional<obs::BenchDoc> parse_with_header(const std::string& fields,
                                               std::string* err = nullptr) {
  const std::string text = R"({"schema":"camo-bench/v1","bench":"b",)"
                           R"("title":"t","smoke":true,)" +
                           fields +
                           R"("series":[{"config":"c","benchmark":"m",)"
                           R"("value":1,"unit":"cycles"}]})";
  const auto parsed = obs::json::Value::parse(text);
  if (!parsed) return std::nullopt;
  return obs::parse_bench_doc(*parsed, err);
}

TEST(PerfDiff, SbHeaderFieldValidatesAndParses) {
  // Legacy "sb": false recorded a run with the superblock engine gated off
  // and the fast path on: it derives the fast tier.
  const auto d = parse_with_header(R"("jobs":4,"sb":false,)");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->jobs, 4u);
  EXPECT_EQ(d->engine, cpu::Engine::Fast);
  // ... whatever the legacy trace gate said (the tier lived inside the
  // superblock engine).
  const auto d2 = parse_with_header(R"("sb":false,"trace":true,)");
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->engine, cpu::Engine::Fast);

  // A non-bool "sb" is rejected.
  std::string err;
  EXPECT_FALSE(parse_with_header(R"("sb":1,)", &err).has_value());
  EXPECT_NE(err.find("\"sb\""), std::string::npos) << err;
}

TEST(PerfDiff, RefusesCrossJobsComparison) {
  auto base = doc("Fleet", {pt("download", "guest cycles", 1000, "cycles")});
  auto cur = base;
  cur.jobs = 8;  // baseline implicitly jobs = 1
  const auto rep = diff({base}, {cur}, {});
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.deltas.empty());
  EXPECT_NE(rep.error.find("--jobs 1"), std::string::npos) << rep.error;
  EXPECT_NE(rep.error.find("--jobs 8"), std::string::npos) << rep.error;
  EXPECT_NE(rep.markdown().find("FAIL"), std::string::npos);

  // Matching jobs values (even != 1) compare normally, and different bench
  // ids never cross-check jobs.
  base.jobs = 8;
  EXPECT_TRUE(diff({base}, {cur}, {}).ok);
  auto other = doc("Other", {pt("c", "b", 1, "cycles")});
  other.jobs = 4;
  EXPECT_TRUE(diff({base, other}, {cur, other}, {}).ok);
}

TEST(PerfDiff, RefusesCrossCoresComparison) {
  auto base = doc("SMP", {pt("cores=2", "makespan", 1000, "cycles")});
  auto cur = base;
  cur.cores = 2;  // baseline implicitly cores = 1
  const auto rep = diff({base}, {cur}, {});
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.deltas.empty());
  EXPECT_NE(rep.error.find("--cores 1"), std::string::npos) << rep.error;
  EXPECT_NE(rep.error.find("--cores 2"), std::string::npos) << rep.error;
  EXPECT_NE(rep.markdown().find("FAIL"), std::string::npos);

  // Matching cores values compare normally; different bench ids never
  // cross-check cores.
  base.cores = 2;
  EXPECT_TRUE(diff({base}, {cur}, {}).ok);
  auto other = doc("Other", {pt("c", "b", 1, "cycles")});
  other.cores = 4;
  EXPECT_TRUE(diff({base, other}, {cur, other}, {}).ok);
}

TEST(PerfDiff, RefusesCrossEngineComparison) {
  // Each tier measures a different host implementation; a diff across any
  // pair is refused outright, naming both tiers.
  auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  auto cur = base;
  cur.engine = cpu::Engine::Fast;  // baseline implicitly trace
  const auto rep = diff({base}, {cur}, {});
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.deltas.empty());
  EXPECT_NE(rep.error.find("--engine trace"), std::string::npos) << rep.error;
  EXPECT_NE(rep.error.find("--engine fast"), std::string::npos) << rep.error;
  EXPECT_NE(rep.markdown().find("FAIL"), std::string::npos);

  // Block vs trace is a cross-engine pair too.
  auto block = base;
  block.engine = cpu::Engine::Block;
  const auto rep2 = diff({base}, {block}, {});
  EXPECT_FALSE(rep2.ok);
  EXPECT_NE(rep2.error.find("--engine block"), std::string::npos)
      << rep2.error;

  // Matching engines compare normally; different bench ids never
  // cross-check engines.
  EXPECT_TRUE(diff({block}, {block}, {}).ok);
  auto other = doc("Other", {pt("c", "b", 1, "cycles")});
  other.engine = cpu::Engine::Reference;
  EXPECT_TRUE(diff({block, other}, {block, other}, {}).ok);
}

TEST(PerfDiff, TraceSeriesAndHeaderArePerfdiffAware) {
  // fastpath.trace.* telemetry rides under the "trace." prefix:
  // informational regardless of unit, like fleet./hist./cov./div.
  EXPECT_TRUE(series_is_informational("trace.formed"));
  EXPECT_TRUE(series_is_informational("trace.hits"));
  EXPECT_TRUE(series_is_informational("hist.trace.len.p95"));
  EXPECT_FALSE(series_is_informational("tracing.overhead"));

  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                                pt("full", "trace.formed", 4, "count")});
  const auto cur = doc("Fig", {pt("full", "read", 1000, "cycles/op"),
                               pt("full", "trace.formed", 400, "count")});
  const auto rep = diff({base}, {cur}, {});
  EXPECT_TRUE(rep.ok) << rep.markdown();
  ASSERT_EQ(rep.deltas.size(), 2u);
  EXPECT_EQ(rep.deltas[1].status, Status::Info);

  // "engine" names the tier; legacy documents derive it: "trace": true is
  // trace, and no engine field at all is block (recordings predating the
  // trace tier).
  const auto named = parse_with_header(R"("engine":"trace",)");
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(named->engine, cpu::Engine::Trace);
  const auto legacy = parse_with_header(R"("trace":true,)");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->engine, cpu::Engine::Trace);
  const auto absent = parse_with_header("");
  ASSERT_TRUE(absent.has_value());
  EXPECT_EQ(absent->engine, cpu::Engine::Block);

  // A legacy {"trace": true} baseline and a new {"engine": "trace"} run
  // compare without refusal.
  obs::BenchDoc legacy_base = *legacy;
  obs::BenchDoc named_cur = *named;
  const auto cross = diff({legacy_base}, {named_cur}, {});
  EXPECT_TRUE(cross.error.empty()) << cross.error;
  EXPECT_TRUE(cross.ok) << cross.markdown();

  // Unknown tiers and non-string engines are rejected; a non-bool legacy
  // "trace" still is.
  std::string err;
  EXPECT_FALSE(parse_with_header(R"("engine":"warp",)", &err).has_value());
  EXPECT_NE(err.find("\"engine\""), std::string::npos) << err;
  EXPECT_FALSE(parse_with_header(R"("engine":3,)").has_value());
  EXPECT_FALSE(parse_with_header(R"("trace":"yes",)").has_value());
}

TEST(PerfDiff, MarkdownReportNamesTheOffender) {
  const auto base = doc("Fig", {pt("full", "read", 1000, "cycles/op")});
  const auto cur = doc("Fig", {pt("full", "read", 1200, "cycles/op")});
  const std::string md = diff({base}, {cur}, {}).markdown();
  EXPECT_NE(md.find("Fig / full / read"), std::string::npos) << md;
  EXPECT_NE(md.find("REGRESSED"), std::string::npos) << md;
  EXPECT_NE(md.find("+20.00%"), std::string::npos) << md;
  EXPECT_NE(md.find("FAIL"), std::string::npos) << md;
  const std::string ok_md = diff({base}, {base}, {}).markdown();
  EXPECT_NE(ok_md.find("PASS"), std::string::npos) << ok_md;
}

// ---------------------------------------------------------------------------
// Schema plumbing shared with the bench emitters.

TEST(BenchSchema, ParseRoundTripIncludingSeed) {
  const char* text = R"({
    "schema": "camo-bench/v1", "bench": "Fig", "title": "t", "smoke": true,
    "seed": 2024,
    "series": [{"config": "full", "benchmark": "read", "value": 1.5,
                "unit": "cycles/op", "relative": 1.2}]
  })";
  const auto json = obs::json::Value::parse(text);
  ASSERT_TRUE(json.has_value());
  std::string err;
  const auto doc = obs::parse_bench_doc(*json, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->bench, "Fig");
  EXPECT_TRUE(doc->smoke);
  ASSERT_TRUE(doc->seed.has_value());
  EXPECT_EQ(*doc->seed, 2024u);
  ASSERT_EQ(doc->series.size(), 1u);
  EXPECT_EQ(doc->series[0].unit, "cycles/op");
  ASSERT_TRUE(doc->series[0].relative.has_value());
  EXPECT_EQ(doc->jobs, 1u);  // absent means serial

  // Unknown header keys are ignored, so artifacts recorded with the
  // since-removed "snap" field keep parsing.
  const auto old = obs::json::Value::parse(R"({
    "schema": "camo-bench/v1", "bench": "Fig", "title": "t", "smoke": true,
    "snap": true,
    "series": [{"config": "full", "benchmark": "read", "value": 1.5,
                "unit": "cycles/op"}]
  })");
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(obs::validate_bench_json(*old), "");
  const auto old_doc = obs::parse_bench_doc(*old, &err);
  ASSERT_TRUE(old_doc.has_value()) << err;
  EXPECT_EQ(old_doc->series.size(), 1u);
}

TEST(BenchSchema, JobsFieldParsesAndValidates) {
  const char* text = R"({
    "schema": "camo-bench/v1", "bench": "Fleet", "title": "t", "smoke": true,
    "jobs": 8,
    "series": [{"config": "fleet", "benchmark": "fleet.steals", "value": 3,
                "unit": "steals"}]
  })";
  const auto json = obs::json::Value::parse(text);
  ASSERT_TRUE(json.has_value());
  std::string err;
  const auto doc = obs::parse_bench_doc(*json, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->jobs, 8u);

  for (const char* bad : {R"("eight")", "0", "-2"}) {
    const std::string t = std::string(R"({
      "schema": "camo-bench/v1", "bench": "b", "title": "t", "smoke": false,
      "jobs": )") + bad + R"(,
      "series": [{"config": "c", "benchmark": "m", "value": 1, "unit": "u"}]
    })";
    const auto j = obs::json::Value::parse(t);
    ASSERT_TRUE(j.has_value()) << t;
    EXPECT_FALSE(obs::validate_bench_json(*j).empty()) << t;
  }
}

TEST(BenchSchema, CoresFieldParsesAndValidates) {
  const char* text = R"({
    "schema": "camo-bench/v1", "bench": "SMP", "title": "t", "smoke": true,
    "cores": 2,
    "series": [{"config": "cores=2", "benchmark": "makespan", "value": 3,
                "unit": "cycles"}]
  })";
  const auto json = obs::json::Value::parse(text);
  ASSERT_TRUE(json.has_value());
  std::string err;
  const auto doc = obs::parse_bench_doc(*json, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->cores, 2u);

  // Absent means 1 guest core: pre-SMP artifacts parse unchanged.
  const char* absent = R"({
    "schema": "camo-bench/v1", "bench": "b", "title": "t", "smoke": false,
    "series": [{"config": "c", "benchmark": "m", "value": 1, "unit": "u"}]
  })";
  const auto j2 = obs::json::Value::parse(absent);
  ASSERT_TRUE(j2.has_value());
  const auto d2 = obs::parse_bench_doc(*j2, nullptr);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->cores, 1u);

  for (const char* bad : {R"("two")", "0", "-2"}) {
    const std::string t = std::string(R"({
      "schema": "camo-bench/v1", "bench": "b", "title": "t", "smoke": false,
      "cores": )") + bad + R"(,
      "series": [{"config": "c", "benchmark": "m", "value": 1, "unit": "u"}]
    })";
    const auto j = obs::json::Value::parse(t);
    ASSERT_TRUE(j.has_value()) << t;
    EXPECT_FALSE(obs::validate_bench_json(*j).empty()) << t;
  }
}

TEST(BenchSchema, RejectsWrongSchemaAndMalformedSeries) {
  const auto reject = [](const char* text) {
    const auto json = obs::json::Value::parse(text);
    ASSERT_TRUE(json.has_value()) << text;
    EXPECT_FALSE(obs::validate_bench_json(*json).empty()) << text;
  };
  reject(R"({"schema": "camo-bench/v2", "bench": "b", "title": "t",
             "smoke": false, "series": []})");
  reject(R"({"schema": "camo-bench/v1", "bench": "b", "title": "t",
             "smoke": false, "series": []})");  // empty series
  reject(R"({"schema": "camo-bench/v1", "bench": "b", "title": "t",
             "smoke": false,
             "series": [{"config": "c", "benchmark": "m", "unit": "u"}]})");
  reject(R"({"schema": "camo-bench/v1", "bench": "b", "title": "t",
             "smoke": false, "seed": "not-a-number",
             "series": [{"config": "c", "benchmark": "m", "value": 1,
                         "unit": "u"}]})");
}

}  // namespace
}  // namespace camo::perfdiff
