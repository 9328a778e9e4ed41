// obs::CoverageMap unit and determinism tests (DESIGN.md §3g).
//
// The determinism claims are the load-bearing part: a coverage bundle is a
// pure function of the retire stream, so it must be byte-identical across
// every engine tier and across any fleet --jobs value. Both are pinned here.
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <string>

#include "compiler/instrument.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obs/coverage.h"
#include "par/fleet.h"
#include "par/pool.h"

namespace {

using namespace camo;  // NOLINT

// ---------------------------------------------------------------------------
// Map mechanics
// ---------------------------------------------------------------------------

TEST(CoverageMap, StraightLineRunIsOneBlock) {
  obs::CoverageMap m;
  for (uint64_t i = 0; i < 5; ++i)
    m.retire_run(0x1000 + 4 * i, 0x40001000 + 4 * i, 1, 1);
  m.flush();
  ASSERT_EQ(m.unique_blocks(), 1u);
  EXPECT_EQ(m.blocks().at(0x1000).hits, 1u);
  EXPECT_EQ(m.blocks().at(0x1000).max_len, 5u);
  EXPECT_EQ(m.unique_edges(), 0u);
  EXPECT_EQ(m.retired_at(1), 5u);
  EXPECT_EQ(m.retired_total(), 5u);
}

TEST(CoverageMap, BranchSplitsBlocksAndRecordsEdge) {
  obs::CoverageMap m;
  m.retire_run(0x1000, 0x40001000, 1, 1);
  m.retire_run(0x1004, 0x40001004, 1, 1);
  m.retire_run(0x2000, 0x40002000, 1, 1);  // taken branch
  m.retire_run(0x1000, 0x40001000, 1, 1);  // back again
  m.flush();
  ASSERT_EQ(m.unique_blocks(), 2u);
  EXPECT_EQ(m.blocks().at(0x1000).hits, 2u);
  EXPECT_EQ(m.blocks().at(0x1000).max_len, 2u);
  EXPECT_EQ(m.edges().at({0x1000, 0x2000}), 1u);
  EXPECT_EQ(m.edges().at({0x2000, 0x1000}), 1u);
}

TEST(CoverageMap, PaDiscontinuityStartsNewBlockEvenWhenVaIsContiguous) {
  // Page boundary where the next VA page maps to a distant PA: the map is
  // PA-keyed, so the straight-line run must split.
  obs::CoverageMap m;
  m.retire_run(0x1FFC, 0x40001FFC, 1, 1);
  m.retire_run(0x8000, 0x40002000, 1, 1);
  m.flush();
  ASSERT_EQ(m.unique_blocks(), 2u);
  EXPECT_EQ(m.edges().at({0x1FFC, 0x8000}), 1u);
}

TEST(CoverageMap, FlushPreventsSyntheticEdgesAcrossSnapshots) {
  obs::CoverageMap m;
  m.retire_run(0x1000, 0x40001000, 1, 1);
  m.flush();
  m.retire_run(0x2000, 0x40002000, 1, 1);
  m.flush();
  // Two blocks, but no edge: the flush forgot the continuation state.
  EXPECT_EQ(m.unique_blocks(), 2u);
  EXPECT_EQ(m.unique_edges(), 0u);
}

TEST(CoverageMap, SnapshotLeavesLiveMapAccumulating) {
  obs::CoverageMap m;
  m.retire_run(0x1000, 0x40001000, 1, 1);
  const obs::CoverageMap s = m.snapshot();
  EXPECT_EQ(s.blocks().at(0x1000).max_len, 1u);
  m.retire_run(0x1004, 0x40001004, 1, 1);  // still extends the live run
  m.flush();
  EXPECT_EQ(m.blocks().at(0x1000).max_len, 2u);
}

TEST(CoverageMap, MergeAddsHitsMaxesLengthsAndDedupesRegions) {
  obs::CoverageMap a, b;
  a.retire_run(0x1000, 0x40001000, 1, 1);
  a.retire_run(0x1004, 0x40001004, 1, 1);
  b.retire_run(0x1000, 0x40001000, 0, 1);
  b.retire_run(0x2000, 0x40002000, 0, 1);
  a.add_region({"f", 0x1000, 8, "", -1});
  b.add_region({"f", 0x1000, 8, "", -1});
  b.add_region({"g", 0x2000, 4, "t", 0});
  a.merge_from(b.snapshot());
  a.flush();
  EXPECT_EQ(a.blocks().at(0x1000).hits, 2u);
  EXPECT_EQ(a.blocks().at(0x1000).max_len, 2u);
  EXPECT_EQ(a.blocks().at(0x2000).hits, 1u);
  EXPECT_EQ(a.edges().at({0x1000, 0x2000}), 1u);
  EXPECT_EQ(a.retired_at(0), 2u);
  EXPECT_EQ(a.retired_at(1), 2u);
  EXPECT_EQ(a.regions().size(), 2u);
}

TEST(CoverageMap, AnyExecutedSeesRunInteriors) {
  obs::CoverageMap m;
  for (uint64_t i = 0; i < 8; ++i)
    m.retire_run(0x1000 + 4 * i, 0x40001000 + 4 * i, 1, 1);
  m.flush();
  EXPECT_TRUE(m.any_executed(0x1000, 4));
  EXPECT_TRUE(m.any_executed(0x1010, 4));   // interior, not a block start
  EXPECT_TRUE(m.any_executed(0x0FF0, 0x20));  // overlaps the run start
  EXPECT_FALSE(m.any_executed(0x1020, 4));  // one past the run
  EXPECT_FALSE(m.any_executed(0x0F00, 0x100));
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

obs::CoverageMap sample_map() {
  obs::CoverageMap m;
  m.retire_run(0x1000, 0x40001000, 1, 1);
  m.retire_run(0x1004, 0x40001004, 1, 1);
  m.retire_run(0x2000, 0x40002000, 0, 1);
  m.retire_run(0x1000, 0x40001000, 2, 1);
  m.add_region({"sys_write", 0x2000, 64, "syscall_table", 1});
  m.add_region({"helper", 0x1000, 8, "", -1});
  return m;
}

TEST(CoverageCodec, RoundTripIsByteIdentical) {
  const std::string text = obs::cov_bundle_json(sample_map(), "unit", 3);
  const auto doc = obs::json::Value::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(obs::validate_cov_bundle(*doc), "");
  obs::CovBundle b;
  ASSERT_TRUE(obs::cov_bundle_from_json(*doc, &b));
  EXPECT_EQ(b.label, "unit");
  EXPECT_EQ(b.machines, 3u);
  EXPECT_EQ(b.map.retired_at(0), 1u);
  EXPECT_EQ(b.map.retired_at(1), 2u);
  EXPECT_EQ(b.map.retired_at(2), 1u);
  EXPECT_EQ(obs::cov_bundle_json(b.map, b.label, b.machines), text);
}

TEST(CoverageCodec, ValidatorRejectsCorruptBundles) {
  const std::string text = obs::cov_bundle_json(sample_map(), "unit", 1);
  auto doc = obs::json::Value::parse(text);
  ASSERT_TRUE(doc.has_value());
  doc->set("schema", obs::json::Value("camo-cov/v0"));
  EXPECT_NE(obs::validate_cov_bundle(*doc), "");
  auto doc2 = obs::json::Value::parse(text);
  doc2->set("blocks", obs::json::Value("nope"));
  EXPECT_NE(obs::validate_cov_bundle(*doc2), "");
  obs::CovBundle b;
  EXPECT_FALSE(obs::cov_bundle_from_json(*doc, &b));
}

TEST(CoverageCodec, ReaderRejectsMalformedFields) {
  const std::string text = obs::cov_bundle_json(sample_map(), "unit", 1);
  // Values the writer never produces for any of these fields: hex strings
  // strtoull would once have read as UINT64_MAX, octal or 0, and numbers
  // that are negative, fractional or not numbers at all.
  const char* const bad[] = {"\"-1\"", "\"010\"", "\"0xzz\"", "\"0x\"",
                             "\"0x10000000000000000\"", "-1", "1.5",
                             "true", "null"};
  for (const char* field : {"el0", "el1", "el2", "pa", "hits", "from", "to",
                            "len", "row", "machines"}) {
    const std::regex first(std::string("\"") + field +
                           "\": (\"[^\"]*\"|[^,\n}]*)");
    for (const char* value : bad) {
      const std::string mutated = std::regex_replace(
          text, first, std::string("\"") + field + "\": " + value,
          std::regex_constants::format_first_only);
      ASSERT_NE(mutated, text) << field;
      const auto doc = obs::json::Value::parse(mutated);
      ASSERT_TRUE(doc.has_value()) << field << " = " << value;
      EXPECT_NE(obs::validate_cov_bundle(*doc), "") << field << " = " << value;
      obs::CovBundle b;
      EXPECT_FALSE(obs::cov_bundle_from_json(*doc, &b))
          << field << " = " << value;
    }
  }
  // The row is a 32-bit field (0xffffffff = not a table row).
  const std::string big_row = std::regex_replace(
      text, std::regex("\"row\": [0-9]+"), "\"row\": 4294967296",
      std::regex_constants::format_first_only);
  ASSERT_NE(big_row, text);
  const auto doc = obs::json::Value::parse(big_row);
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(obs::validate_cov_bundle(*doc), "");
}

TEST(CoverageCodec, DiffSeparatesBlockSets) {
  obs::CoverageMap a, b;
  a.retire_run(0x1000, 0x40001000, 1, 1);
  a.retire_run(0x3000, 0x40003000, 1, 1);
  b.retire_run(0x1000, 0x40001000, 1, 1);
  b.retire_run(0x4000, 0x40004000, 1, 1);
  const obs::CovDiff d = obs::diff_coverage(a, b);
  EXPECT_EQ(d.common, 1u);
  ASSERT_EQ(d.only_a.size(), 1u);
  EXPECT_EQ(d.only_a[0], 0x3000u);
  ASSERT_EQ(d.only_b.size(), 1u);
  EXPECT_EQ(d.only_b[0], 0x4000u);
}

// ---------------------------------------------------------------------------
// Determinism: engine combos and fleet --jobs
// ---------------------------------------------------------------------------

std::string combo_bundle(cpu::Engine engine) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.kernel.preempt = true;
  cfg.obs.enabled = true;
  cfg.obs.coverage = true;
  cfg.cpu.engine = engine;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(25));
  m.add_user_program(kernel::workloads::yield_loop(10));
  m.boot();
  EXPECT_TRUE(m.run());
  return obs::cov_bundle_json(m.stats()->coverage(), "combo", 1);
}

TEST(CoverageDeterminism, BundleByteIdenticalAcrossAllEngineCombos) {
  const std::string ref = combo_bundle(cpu::Engine::Reference);
  EXPECT_NE(ref.find("\"schema\": \"camo-cov/v1\""), std::string::npos);
  // Regions prove the annotation ran; EL0 retirements prove user coverage.
  EXPECT_NE(ref.find("syscall_table["), std::string::npos);
  for (const cpu::Engine e : cpu::kEngines)
    EXPECT_EQ(ref, combo_bundle(e)) << cpu::engine_name(e);
}

std::string fleet_bundle(unsigned jobs) {
  par::Pool pool(jobs);
  const auto shared_cache = std::make_shared<kernel::ImageCache>();
  auto result = par::run_fleet(
      pool, 6,
      [&](size_t i) {
        kernel::MachineConfig cfg;
        cfg.kernel.protection = compiler::ProtectionConfig::full();
        cfg.kernel.log_pac_failures = false;
        cfg.obs.enabled = true;
        cfg.obs.coverage = true;
        cfg.machine_id = static_cast<unsigned>(i);
        cfg.image_cache = shared_cache;
        auto m = std::make_unique<kernel::Machine>(cfg);
        // Different workloads per task so the merge actually merges
        // distinct maps, not six copies of one.
        m->add_user_program(kernel::workloads::null_syscall(3 + i));
        return m;
      },
      [](size_t, kernel::Machine& m) {
        m.boot();
        EXPECT_TRUE(m.run());
        return m.cpu().retired();
      });
  return obs::cov_bundle_json(result.coverage, "fleet", 6);
}

TEST(CoverageDeterminism, FleetMergedBundleByteIdenticalAcrossJobs) {
  const std::string serial = fleet_bundle(1);
  EXPECT_NE(serial.find("\"schema\": \"camo-cov/v1\""), std::string::npos);
  EXPECT_EQ(serial, fleet_bundle(4));
}

}  // namespace
