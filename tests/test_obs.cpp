// camo::obs tests: trace ring semantics, metrics monotonicity, JSON
// round-trips, and the two accounting invariants the observability layer
// promises — per-EL cycle counters and the per-symbol profile each sum to
// exactly Cpu::cycles(), and attaching the collector never changes guest
// cycle counts (events are free).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>

#include "attacks/attacks.h"
#include "cpu/cpu.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obs/chrome_trace.h"
#include "obs/collector.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/ring.h"

namespace camo::obs {
namespace {

TraceEvent make_event(EventKind kind, uint64_t cycles) {
  TraceEvent e;
  e.kind = kind;
  e.cycles = cycles;
  return e;
}

TEST(TraceRing, KeepsEventsInOrderBeforeWraparound) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 5; ++i)
    ring.emit(make_event(EventKind::PacSign, i));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(ring.at(i).cycles, i);
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDropped) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 20; ++i)
    ring.emit(make_event(EventKind::PacSign, i));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.total(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  // Oldest retained event is #12, newest #19, still chronological.
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(ring.at(i).cycles, 12 + i);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().cycles, 12u);
  EXPECT_EQ(snap.back().cycles, 19u);
}

TEST(TraceRing, CountKind) {
  TraceRing ring(16);
  for (int i = 0; i < 3; ++i) ring.emit(make_event(EventKind::AuthFail, i));
  for (int i = 0; i < 5; ++i) ring.emit(make_event(EventKind::AuthOk, i));
  EXPECT_EQ(ring.count_kind(EventKind::AuthFail), 3u);
  EXPECT_EQ(ring.count_kind(EventKind::AuthOk), 5u);
  EXPECT_EQ(ring.count_kind(EventKind::KeyWrite), 0u);
}

TEST(Metrics, CountersAreMonotonicAndStable) {
  Registry reg;
  Counter& c = reg.counter("a.b");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(reg.value("a.b"), 42u);
  // Get-or-create returns the same object; references stay valid.
  reg.counter("zzz").inc();  // force rebalancing of the map
  EXPECT_EQ(&reg.counter("a.b"), &c);
  uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    c.inc(static_cast<uint64_t>(i));
    EXPECT_GE(c.value(), prev);
    prev = c.value();
  }
  EXPECT_EQ(reg.value("unknown"), 0u);
  EXPECT_FALSE(reg.has_counter("unknown"));
}

TEST(Metrics, HistogramStats) {
  Registry reg;
  Histogram& h = reg.histogram("lat");
  for (const uint64_t v : {1u, 2u, 3u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 4.0);
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 0u);
  EXPECT_EQ(Histogram::bucket_index(2), 1u);
  EXPECT_EQ(Histogram::bucket_index(3), 1u);
  EXPECT_EQ(Histogram::bucket_index(100), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(6), 1u);
}

TEST(Metrics, GaugesSetAndExport) {
  Registry reg;
  EXPECT_EQ(reg.find_gauge("host.throughput"), nullptr);
  // A registry without gauges must serialize exactly as before they existed.
  EXPECT_EQ(reg.to_json().find("gauges"), std::string::npos);

  Gauge& g = reg.gauge("host.throughput");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(1.25e6);
  EXPECT_DOUBLE_EQ(g.value(), 1.25e6);
  g.set(8e5);  // gauges are settable both directions, unlike counters
  EXPECT_DOUBLE_EQ(g.value(), 8e5);
  ASSERT_NE(reg.find_gauge("host.throughput"), nullptr);
  EXPECT_EQ(&reg.gauge("host.throughput"), &g);

  const auto parsed = json::Value::parse(reg.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(
      parsed->get("gauges")->get("host.throughput")->as_number(), 8e5);
  EXPECT_NE(reg.render_text().find("host.throughput"), std::string::npos);
}

TEST(Json, RoundTrip) {
  json::Value root = json::Value::object();
  root.set("name", json::Value("camo"));
  root.set("count", json::Value(uint64_t{123456789012345ull}));
  root.set("pi", json::Value(3.25));
  root.set("on", json::Value(true));
  json::Value arr = json::Value::array();
  arr.push(json::Value("a\"b\\c\n"));
  arr.push(json::Value(uint64_t{0}));
  root.set("items", std::move(arr));

  const std::string text = root.dump(2);
  const auto parsed = json::Value::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get("name")->as_string(), "camo");
  EXPECT_DOUBLE_EQ(parsed->get("count")->as_number(), 123456789012345.0);
  EXPECT_DOUBLE_EQ(parsed->get("pi")->as_number(), 3.25);
  EXPECT_TRUE(parsed->get("on")->as_bool());
  ASSERT_EQ(parsed->get("items")->size(), 2u);
  EXPECT_EQ(parsed->get("items")->at(0)->as_string(), "a\"b\\c\n");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Value::parse("{").has_value());
  EXPECT_FALSE(json::Value::parse("{\"a\": }").has_value());
  EXPECT_FALSE(json::Value::parse("[1, 2,]").has_value());
  EXPECT_FALSE(json::Value::parse("{} trailing").has_value());
  EXPECT_FALSE(json::Value::parse("nul").has_value());
  EXPECT_TRUE(json::Value::parse("  {\"a\": [1, 2]}  ").has_value());
}

TEST(Json, MetricsExportParses) {
  Registry reg;
  reg.counter("cycles.el1").inc(100);
  reg.histogram("syscall.cycles").record(64);
  const auto parsed = json::Value::parse(reg.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->get("counters")->get("cycles.el1")->as_number(),
                   100.0);
  EXPECT_DOUBLE_EQ(parsed->get("histograms")
                       ->get("syscall.cycles")
                       ->get("count")
                       ->as_number(),
                   1.0);
}

// ---------------------------------------------------------------------------
// Label tables in obs mirror the producer-side enums by declaration order.
// obs cannot include cpu/attacks headers (it sits below them), so these
// tests are the contract that keeps the integer payloads decodable.

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

TEST(ObsLabels, ExcClassMatchesCpuEnum) {
  for (uint8_t i = 0; i <= static_cast<uint8_t>(cpu::ExcClass::Irq); ++i)
    EXPECT_STREQ(exc_class_label(i),
                 cpu::exc_class_name(static_cast<cpu::ExcClass>(i)))
        << "ExcClass " << int(i);
}

TEST(ObsLabels, PacKeyMatchesCpuEnum) {
  for (uint8_t i = 0; i <= static_cast<uint8_t>(cpu::PacKey::GA); ++i)
    EXPECT_EQ(pac_key_label(i),
              lower(cpu::pac_key_name(static_cast<cpu::PacKey>(i))))
        << "PacKey " << int(i);
}

TEST(ObsLabels, OutcomeMatchesAttacksEnum) {
  for (uint8_t i = 0; i <= static_cast<uint8_t>(attacks::Outcome::Blocked);
       ++i)
    EXPECT_EQ(outcome_label(i),
              lower(attacks::outcome_name(static_cast<attacks::Outcome>(i))))
        << "Outcome " << int(i);
}

// ---------------------------------------------------------------------------
// Machine-level invariants.

kernel::MachineConfig observed_config() {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  return cfg;
}

TEST(Observability, ElCycleCountersSumToCpuCycles) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(50));
  m.boot();
  ASSERT_TRUE(m.run());
  ASSERT_NE(m.stats(), nullptr);
  const Registry& reg = m.stats()->metrics();
  const uint64_t total = reg.value("cycles.el0") + reg.value("cycles.el1") +
                         reg.value("cycles.el2");
  EXPECT_EQ(total, m.cpu().cycles());
  const uint64_t insns = reg.value("insn.el0") + reg.value("insn.el1") +
                         reg.value("insn.el2");
  EXPECT_EQ(insns, m.cpu().retired());
}

TEST(Observability, FastPathCountersAndThroughputGaugePublished) {
  kernel::MachineConfig cfg = observed_config();
  // The one-icache-event-per-retire invariant below holds on the
  // single-step path only: superblocks fetch through the block cache.
  cfg.cpu.superblocks = false;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(50));
  m.boot();
  ASSERT_TRUE(m.run());
  const Registry& reg = m.stats()->metrics();
  // Every retired instruction is exactly one predecode-cache event.
  const uint64_t events = reg.value("fastpath.icache.hit") +
                          reg.value("fastpath.icache.miss") +
                          reg.value("fastpath.icache.redecode");
  EXPECT_EQ(events, m.cpu().retired());
  EXPECT_GT(reg.value("fastpath.tlb.hit"), 0u);
  EXPECT_GT(reg.value("fastpath.tlb.miss"), 0u);
  // Full protection signs/authenticates on every call; repeats must memoize.
  EXPECT_GT(reg.value("fastpath.pac.hit"), 0u);
  const Gauge* g = reg.find_gauge("host.throughput");
  ASSERT_NE(g, nullptr);
  EXPECT_GT(g->value(), 0.0) << "guest insns per host second must be set";
  EXPECT_DOUBLE_EQ(g->value(), m.host_throughput());
}

TEST(Metrics, MergeFromAddsCountersMergesHistogramsOverwritesGauges) {
  Registry a, b;
  a.counter("c").inc(3);
  b.counter("c").inc(4);
  b.counter("only_b").inc(1);
  a.histogram("h").record(2);
  b.histogram("h").record(100);
  a.gauge("g").set(1.0);
  b.gauge("g").set(2.0);
  a.merge_from(b);
  EXPECT_EQ(a.value("c"), 7u);
  EXPECT_EQ(a.value("only_b"), 1u);
  const Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), 102u);
  EXPECT_EQ(h->min(), 2u);
  EXPECT_EQ(h->max(), 100u);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 2.0);  // last writer wins
}

// Regression: when several machines share a process (a fleet), each
// machine's throughput must survive a registry merge under its namespaced
// gauge — a single shared "host.throughput" name would collapse to the
// last-merged machine's reading.
TEST(Observability, ThroughputGaugeIsNamespacedPerMachine) {
  Registry merged;
  double expected[2] = {0, 0};
  for (unsigned id = 0; id < 2; ++id) {
    kernel::MachineConfig cfg = observed_config();
    cfg.machine_id = id;
    kernel::Machine m(cfg);
    m.add_user_program(kernel::workloads::null_syscall(30 + 20 * id));
    m.boot();
    ASSERT_TRUE(m.run());
    expected[id] = m.host_throughput();
    merged.merge_from(m.stats()->metrics());
  }
  for (unsigned id = 0; id < 2; ++id) {
    const Gauge* g =
        merged.find_gauge("host.throughput.m" + std::to_string(id));
    ASSERT_NE(g, nullptr) << "machine " << id;
    EXPECT_DOUBLE_EQ(g->value(), expected[id]) << "machine " << id;
  }
  // The un-namespaced name still exists (single-machine consumers), but
  // after a merge it is only the last writer — fleets recompute it.
  ASSERT_NE(merged.find_gauge("host.throughput"), nullptr);
  EXPECT_DOUBLE_EQ(merged.find_gauge("host.throughput")->value(),
                   expected[1]);
}

TEST(Observability, FlatProfileAccountsForEveryCycle) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::read_file(20, 64, kernel::FileKind::Null));
  m.boot();
  ASSERT_TRUE(m.run());
  // The flat view is the call graph's per-region self counts.
  uint64_t cycles = 0, retires = 0, named = 0;
  for (const auto& r : m.stats()->callgraph().flat_entries()) {
    cycles += r.cycles;
    retires += r.retires;
    // The kernel's syscall path must be attributed to real symbols, not the
    // [other] catch-all.
    if (r.name != "[other]") named += r.cycles;
  }
  EXPECT_EQ(cycles, m.cpu().cycles());
  EXPECT_EQ(retires, m.cpu().retired());
  EXPECT_GT(named, m.cpu().cycles() / 2);
}

TEST(Observability, AttachingCollectorDoesNotChangeGuestCycles) {
  const auto run_once = [](bool enabled) {
    kernel::MachineConfig cfg = observed_config();
    cfg.obs.enabled = enabled;
    kernel::Machine m(cfg);
    m.add_user_program(kernel::workloads::null_syscall(30));
    m.boot();
    EXPECT_TRUE(m.run());
    return std::pair<uint64_t, uint64_t>(m.cpu().cycles(), m.cpu().retired());
  };
  const auto off = run_once(false);
  const auto on = run_once(true);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

TEST(Observability, SyscallWindowsAreSynthesized) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(25));
  m.boot();
  ASSERT_TRUE(m.run());
  const Collector& st = *m.stats();
  const uint64_t enters = st.ring().count_kind(EventKind::SyscallEnter);
  const uint64_t exits = st.ring().count_kind(EventKind::SyscallExit);
  // 25 benchmark syscalls plus the final exit; every window that closed did
  // so exactly once.
  EXPECT_GE(enters, 25u);
  EXPECT_LE(exits, enters);
  EXPECT_GE(exits, 25u);
  const Histogram* lat = st.metrics().find_histogram("syscall.cycles");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), exits);
  EXPECT_GT(lat->min(), 0u);
  // The metrics view agrees with the trace view.
  EXPECT_EQ(st.metrics().value("syscall.count"), enters);
}

TEST(Observability, KeySwitchAndSignEventsAppear) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(5));
  m.boot();
  ASSERT_TRUE(m.run());
  const Collector& st = *m.stats();
  // The full-protection entry path switches keys on every kernel entry and
  // the instrumented prologues sign return addresses.
  EXPECT_GT(st.ring().count_kind(EventKind::KeyWrite), 0u);
  EXPECT_GT(st.metrics().value("key.write"), 0u);
  EXPECT_GT(st.metrics().value("pauth.sign"), 0u);
  EXPECT_GT(st.metrics().value("pauth.auth.ok"), 0u);
  EXPECT_EQ(st.metrics().value("pauth.auth.fail"), 0u);
  EXPECT_GT(st.metrics().value("ops.pauth"), 0u);
}

TEST(Observability, ChromeTraceExportIsValidAndBalanced) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(10));
  m.boot();
  ASSERT_TRUE(m.run());
  const std::string text = m.stats()->chrome_trace_json();
  const auto doc = json::Value::parse(text);
  ASSERT_TRUE(doc.has_value()) << "chrome trace is not valid JSON";
  const json::Value* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  uint64_t begins = 0, ends = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = *events->at(i);
    ASSERT_NE(e.get("ph"), nullptr);
    const std::string ph = e.get("ph")->as_string();
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "B" || ph == "E" || ph == "i") {
      ASSERT_NE(e.get("ts"), nullptr);
      ASSERT_NE(e.get("pid"), nullptr);
      ASSERT_NE(e.get("tid"), nullptr);
    }
  }
  EXPECT_EQ(begins, ends) << "unbalanced B/E spans break trace viewers";
}

TEST(Observability, ChromeTraceRoundTripsSyntheticRing) {
  // A hand-built ring snapshot: one syscall window containing a key write,
  // a sign and an auth failure, then an exception window left open (as a
  // wrapped ring would leave it) to exercise the truncation tolerance.
  std::vector<TraceEvent> ring;
  auto push = [&](EventKind k, uint64_t cycles) -> TraceEvent& {
    ring.push_back(make_event(k, cycles));
    return ring.back();
  };
  push(EventKind::SyscallEnter, 100).imm = 1;
  push(EventKind::KeyWrite, 110).imm = 2;
  // Sign events are deliberately not exported (too dense to render); the
  // exporter must skip them without disturbing the span bookkeeping.
  push(EventKind::PacSign, 120).a = 0xFFFF000000081000ull;
  push(EventKind::Stage2Fault, 125).a = 0xFFFF000000090000ull;
  push(EventKind::AuthFail, 130).pc = 0xFFFF000000082000ull;
  push(EventKind::SyscallExit, 140).imm = 1;
  push(EventKind::ExcEnter, 150).k1 = 1;  // still open at the end
  const std::string text = chrome_trace_json(ring);
  const auto doc = json::Value::parse(text);
  ASSERT_TRUE(doc.has_value()) << "synthetic export is not valid JSON";
  const json::Value* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  uint64_t begins = 0, ends = 0, instants = 0;
  double last_ts = -1;
  for (size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = *events->at(i);
    ASSERT_NE(e.get("ph"), nullptr);
    const std::string ph = e.get("ph")->as_string();
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "i") ++instants;
    if (ph == "M") continue;  // metadata rows carry no timestamp ordering
    ASSERT_NE(e.get("ts"), nullptr);
    EXPECT_GE(e.get("ts")->as_number(), last_ts)
        << "events must stay in chronological order";
    last_ts = e.get("ts")->as_number();
  }
  // The open exception window is closed at the last timestamp, so spans
  // balance even for a truncated stream.
  EXPECT_EQ(begins, 2u) << "syscall window + exception window";
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(instants, 3u) << "key write, stage-2 fault, auth failure";
}

TEST(Observability, DisabledMachineHasNoCollector) {
  kernel::MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(3));
  m.boot();
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.stats(), nullptr);
}

}  // namespace
}  // namespace camo::obs
