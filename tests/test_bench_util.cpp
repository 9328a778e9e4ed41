// bench::Session flag parsing: the shared --json/--trace/--folded/--seed/
// --engine flags must be compacted out of argv for the binary's own parser,
// and a value-taking flag with a missing or malformed value must be a hard
// error rather than a silently dropped artifact path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace camo::bench {
namespace {

using Flags = Session::Flags;

/// argv harness: owns mutable copies of the strings, like a real argv.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& s : storage) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
  char** argv() { return ptrs.data(); }
};

TEST(BenchFlags, ParsesAndCompactsAllSharedFlags) {
  Argv a({"bench", "--smoke", "--json", "out.json", "--positional",
          "--trace", "t.json", "--folded", "f.txt", "--seed", "42",
          "--own-flag"});
  Flags f;
  const std::string err = Session::parse_flags(a.argc, a.argv(), f);
  EXPECT_EQ(err, "");
  EXPECT_TRUE(f.smoke);
  EXPECT_EQ(f.json_path, "out.json");
  EXPECT_EQ(f.trace_path, "t.json");
  EXPECT_EQ(f.folded_path, "f.txt");
  ASSERT_TRUE(f.seed.has_value());
  EXPECT_EQ(*f.seed, 42u);
  // Only the binary's own arguments remain, in order.
  ASSERT_EQ(a.argc, 3);
  EXPECT_STREQ(a.argv()[0], "bench");
  EXPECT_STREQ(a.argv()[1], "--positional");
  EXPECT_STREQ(a.argv()[2], "--own-flag");
  EXPECT_EQ(a.argv()[3], nullptr);
}

TEST(BenchFlags, EngineFlagParsesTheLadderAndRejectsAnythingElse) {
  {
    Argv a({"bench"});
    Flags f;
    EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
    EXPECT_EQ(f.engine, cpu::Engine::Trace) << "the top tier is the default";
  }
  for (const cpu::Engine e : cpu::kEngines) {
    const std::string name = cpu::engine_name(e);
    for (const bool equals_form : {false, true}) {
      Argv a(equals_form
                 ? std::vector<std::string>{"bench", "--engine=" + name,
                                            "--keep"}
                 : std::vector<std::string>{"bench", "--engine", name,
                                            "--keep"});
      Flags f;
      EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "") << name;
      EXPECT_EQ(f.engine, e) << name;
      ASSERT_EQ(a.argc, 2);
      EXPECT_STREQ(a.argv()[1], "--keep");
    }
  }
  {
    Argv a({"bench", "--engine", "on"});
    Flags f;
    const std::string err = Session::parse_flags(a.argc, a.argv(), f);
    EXPECT_NE(err.find("--engine"), std::string::npos) << err;
  }
}

TEST(BenchFlags, BadEngineValueExitsWithUsageError) {
  Argv a({"bench", "--engine", "warp"});
  EXPECT_EXIT(Session(a.argc, a.argv(), "id", "title", "claim"),
              ::testing::ExitedWithCode(2), "--engine");
}

TEST(BenchFlags, TraceFlagTakesOnlyAChromeTracePath) {
  Argv a({"bench", "--trace", "off", "--keep"});
  Flags f;
  EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
  EXPECT_EQ(f.trace_path, "off") << "--trace no longer picks a tier";
  EXPECT_EQ(f.engine, cpu::Engine::Trace);
  ASSERT_EQ(a.argc, 2);
  EXPECT_STREQ(a.argv()[1], "--keep");
}

TEST(BenchFlags, RunOptionsCarryTheSessionEngineAndCores) {
  Argv a({"bench", "--engine", "fast", "--cores", "2"});
  Session s(a.argc, a.argv(), "id", "title", "claim");
  const RunOptions o = s.run_options();
  EXPECT_EQ(o.engine, cpu::Engine::Fast);
  EXPECT_EQ(o.cores, 2u);
  const kernel::MachineConfig m = o.machine(compiler::ProtectionConfig::full());
  EXPECT_EQ(m.cpu.engine, cpu::Engine::Fast);
  EXPECT_EQ(m.cores, 2u);
}

// The throughput rows (fig2's call loop and every emit_throughput_series
// caller) walk the ladder once: four distinct tiers, in order, under the
// series names the committed baselines use.
TEST(BenchEngineModes, FourRowsAreFourDistinctTiers) {
  const std::vector<EngineMode> modes = engine_modes();
  ASSERT_EQ(modes.size(), std::size(cpu::kEngines));
  const char* const names[] = {"fastpath-off", "sb-off", "sb-on", "trace-on"};
  for (size_t i = 0; i < modes.size(); ++i) {
    EXPECT_STREQ(modes[i].name, names[i]);
    EXPECT_EQ(modes[i].engine, cpu::kEngines[i]) << modes[i].name;
  }
}

TEST(BenchFlags, EqualsFormWorks) {
  Argv a({"bench", "--json=out.json", "--seed=0x10"});
  Flags f;
  EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
  EXPECT_EQ(f.json_path, "out.json");
  ASSERT_TRUE(f.seed.has_value());
  EXPECT_EQ(*f.seed, 16u);  // strtoull base 0: hex accepted
}

TEST(BenchFlags, TrailingValueFlagIsAnError) {
  for (const char* flag :
       {"--json", "--trace", "--folded", "--seed", "--engine"}) {
    Argv a({"bench", flag});
    Flags f;
    const std::string err = Session::parse_flags(a.argc, a.argv(), f);
    EXPECT_NE(err, "") << flag;
    EXPECT_NE(err.find(flag), std::string::npos) << err;
  }
}

TEST(BenchFlags, EmptyValueIsAnError) {
  Argv a({"bench", "--json="});
  Flags f;
  EXPECT_NE(Session::parse_flags(a.argc, a.argv(), f), "");
}

TEST(BenchFlags, MalformedSeedIsAnError) {
  for (const char* bad : {"banana", "12x", ""}) {
    Argv a({"bench", "--seed", bad});
    Flags f;
    const std::string err = Session::parse_flags(a.argc, a.argv(), f);
    EXPECT_NE(err, "") << "--seed " << bad;
    EXPECT_FALSE(f.seed.has_value());
  }
}

TEST(BenchFlags, JobsFlagParsesClampsAndFallsBackToEnv) {
  {
    Argv a({"bench", "--jobs", "4"});
    Flags f;
    EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
    EXPECT_EQ(f.jobs, 4u);
  }
  {
    Argv a({"bench", "--jobs=100000"});  // clamp to the pool's ceiling
    Flags f;
    EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
    EXPECT_EQ(f.jobs, par::Pool::kMaxJobs);
  }
  for (const char* bad : {"0", "-3", "many", "2x"}) {
    Argv a({"bench", "--jobs", bad});
    Flags f;
    const std::string err = Session::parse_flags(a.argc, a.argv(), f);
    EXPECT_NE(err, "") << bad;
    EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
  }
  {
    // No flag: the CAMO_JOBS environment variable sizes the pool; an
    // explicit --jobs always beats it.
    setenv("CAMO_JOBS", "3", 1);
    Argv a({"bench"});
    Flags f;
    EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
    EXPECT_EQ(f.jobs, 3u);
    Argv b({"bench", "--jobs", "2"});
    Flags g;
    EXPECT_EQ(Session::parse_flags(b.argc, b.argv(), g), "");
    EXPECT_EQ(g.jobs, 2u);
    unsetenv("CAMO_JOBS");
    Argv c({"bench"});
    Flags h;
    EXPECT_EQ(Session::parse_flags(c.argc, c.argv(), h), "");
    EXPECT_EQ(h.jobs, 1u);
  }
}

TEST(BenchFlags, CoresFlagParsesClampsAndDefaultsToOne) {
  {
    Argv a({"bench", "--cores", "4", "--keep"});
    Flags f;
    EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
    EXPECT_EQ(f.cores, 4u);
    ASSERT_EQ(a.argc, 2);
    EXPECT_STREQ(a.argv()[1], "--keep");
  }
  {
    Argv a({"bench", "--cores=2"});
    Flags f;
    EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
    EXPECT_EQ(f.cores, 2u);
  }
  {
    Argv a({"bench", "--cores=100000"});  // clamp to the supported maximum
    Flags f;
    EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
    EXPECT_EQ(f.cores, 64u);
  }
  for (const char* bad : {"0", "-3", "+2", "many", "2x", ""}) {
    Argv a({"bench", "--cores", bad});
    Flags f;
    const std::string err = Session::parse_flags(a.argc, a.argv(), f);
    EXPECT_NE(err, "") << "--cores " << bad;
    EXPECT_NE(err.find("--cores"), std::string::npos) << err;
  }
  {
    // No flag means one guest core — and deliberately NO environment
    // fallback: the artifact must say what was simulated.
    setenv("CAMO_CORES", "8", 1);
    Argv a({"bench"});
    Flags f;
    EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
    EXPECT_EQ(f.cores, 1u);
    unsetenv("CAMO_CORES");
  }
}

TEST(BenchFlags, NoFlagsLeavesArgvAlone) {
  Argv a({"bench", "pos1", "pos2"});
  Flags f;
  EXPECT_EQ(Session::parse_flags(a.argc, a.argv(), f), "");
  EXPECT_EQ(a.argc, 3);
  EXPECT_FALSE(f.smoke);
  EXPECT_EQ(f.json_path, "");
  EXPECT_FALSE(f.seed.has_value());
}

}  // namespace
}  // namespace camo::bench
