// camo::obs tests: event ring and view semantics, metrics monotonicity, JSON
// round-trips, and the two accounting invariants the observability layer
// promises — per-EL cycle counters and the per-symbol profile each sum to
// exactly Cpu::cycles(), and attaching the collector never changes guest
// cycle counts (events are free).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "assembler/builder.h"
#include "attacks/attacks.h"
#include "core/keysetter.h"
#include "cpu/cpu.h"
#include "harness.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obs/chrome_trace.h"
#include "obs/collector.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/ring.h"

namespace camo::obs {
namespace {

Event make_event(EventKind kind, uint64_t cycles) {
  Event e;
  e.kind = kind;
  e.cycles = cycles;
  return e;
}

TEST(Ring, KeepsEventsInOrderBeforeWraparound) {
  Ring ring(8);
  for (uint64_t i = 0; i < 5; ++i)
    ring.push(make_event(EventKind::PacSign, i));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(ring.at(i).cycles, i);
}

TEST(Ring, WraparoundKeepsNewestAndCountsDropped) {
  Ring ring(8);
  for (uint64_t i = 0; i < 20; ++i)
    ring.push(make_event(EventKind::PacSign, i));
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

TEST(Ring, CountKind) {
  Ring ring(16);
  for (int i = 0; i < 3; ++i) ring.push(make_event(EventKind::AuthFail, i));
  for (int i = 0; i < 5; ++i) ring.push(make_event(EventKind::AuthOk, i));
  EXPECT_EQ(ring.count_kind(EventKind::AuthFail), 3u);
  EXPECT_EQ(ring.count_kind(EventKind::AuthOk), 5u);
  EXPECT_EQ(ring.count_kind(EventKind::KeyWrite), 0u);
}

// ---- collector retention ---------------------------------------------------
//
// More facts than the ring holds, reported straight to a Collector: the ring
// keeps the newest kEventCapacity facts, the trace view is their expansion,
// the audit view is the newest kAuditWindow audit facts among them, and the
// live counters keep counting what the ring overwrote.

std::vector<Event> trace_view(const std::vector<Event>& facts) {
  std::vector<Event> out;
  for (const Event& f : facts)
    for_each_trace_record(f, [&out](const Event& t) { out.push_back(t); });
  return out;
}

/// Records of kind `k` in the trace view of `c`'s stored facts.
uint64_t trace_count(const Collector& c, EventKind k) {
  const std::vector<Event> view = trace_view(c.events().snapshot());
  return static_cast<uint64_t>(std::count_if(
      view.begin(), view.end(), [k](const Event& e) { return e.kind == k; }));
}

Site site_at(uint64_t cycles, uint8_t el) {
  return {.cycles = cycles, .pc = 0x1000 + 4 * cycles, .el = el};
}

TEST(CollectorRetention, ViewsKeepTheNewestFacts) {
  // Period of five facts, at cycles 1, 2, ...: an SVC entry, a sign, an
  // HVC, an EL2 bank key install and the ERET to EL0 that closes the
  // syscall window; four of the five are audit facts.
  constexpr uint64_t kFacts = 40000;
  constexpr uint64_t kTarget = 0x400000;
  Collector c;
  for (uint64_t j = 0; j < kFacts; ++j) {
    const uint64_t t = j + 1;
    switch (j % 5) {
      case 0:
        c.exc_enter(site_at(t, 0), kExcClassSvc, 0, 0, 0, j & 0xFFFF);
        break;
      case 1: c.pac_sign(site_at(t, 1), 1, t, 0x42, t | (1ull << 60), 3); break;
      case 2: c.hvc_call(site_at(t, 1), 7, t, 0); break;
      case 3: c.key_install(site_at(t, 2), 0, 4, /*bank=*/true); break;
      case 4: c.exc_exit(site_at(t, 1), kTarget, 0); break;
    }
  }
  const std::vector<Event> facts = c.events().snapshot();
  ASSERT_EQ(facts.size(), Collector::kEventCapacity);
  EXPECT_EQ(c.events().total(), kFacts);
  EXPECT_EQ(c.events().dropped(), kFacts - Collector::kEventCapacity);
  const uint64_t first = kFacts - Collector::kEventCapacity;  // fact index

  // The trace view, rebuilt by hand from the fact indices.
  std::vector<std::tuple<EventKind, uint64_t, uint64_t, uint64_t, uint16_t>>
      want, got;  // kind, cycles, pc, ptr, imm
  for (uint64_t j = first; j < kFacts; ++j) {
    const uint64_t t = j + 1, pc = 0x1000 + 4 * t;
    const auto nr = static_cast<uint16_t>((j - 4) & 0xFFFF);
    switch (j % 5) {
      case 0:
        want.emplace_back(EventKind::ExcEnter, t, pc, 0, 0);
        want.emplace_back(EventKind::SyscallEnter, t, pc, 0,
                          static_cast<uint16_t>(j & 0xFFFF));
        break;
      case 1: want.emplace_back(EventKind::PacSign, t, pc, t, 0); break;
      case 2: want.emplace_back(EventKind::HvcCall, t, pc, t, 7); break;
      case 3: break;  // bank installs are audit only
      case 4:
        want.emplace_back(EventKind::ExcExit, t, kTarget, kTarget, 0);
        // The oldest ERET's entry was overwritten; it still closes its
        // window, since the live state saw the entry.
        want.emplace_back(EventKind::SyscallExit, t, kTarget, 4, nr);
        break;
    }
  }
  for (const Event& e : trace_view(facts))
    got.emplace_back(e.kind, e.cycles, e.pc, e.ptr, e.imm);
  EXPECT_EQ(got, want);
  EXPECT_EQ(trace_count(c, EventKind::SyscallExit),
            trace_count(c, EventKind::SyscallEnter) + 1);

  // The audit view: the newest kAuditWindow audit facts, in audit form.
  std::vector<uint64_t> audit_facts;
  for (uint64_t j = 0; j < kFacts; ++j)
    if (j % 5 != 2) audit_facts.push_back(j);
  const std::vector<Event> audit = c.audit_events();
  ASSERT_EQ(audit.size(), Collector::kAuditWindow);
  EXPECT_EQ(c.audit_dropped(), audit_facts.size() - Collector::kAuditWindow);
  for (size_t i = 0; i < audit.size(); ++i) {
    const uint64_t j = audit_facts[audit_facts.size() - audit.size() + i];
    ASSERT_EQ(audit[i].cycles, j + 1) << i;
    const Event& fact = facts[j - first];
    EXPECT_EQ(audit[i].kind, fact.kind) << i;
    EXPECT_EQ(audit[i].pc, fact.pc) << i;
    EXPECT_EQ(audit[i].ptr, fact.ptr) << i;
    EXPECT_EQ(audit[i].bank, j % 5 == 3 ? 1 : 0) << i;
    // The trace-only payloads read as zero.
    EXPECT_EQ(audit[i].fault, 0u) << i;
    EXPECT_EQ(audit[i].syscall, 0u) << i;
    if (j % 5 == 0 || j % 5 == 4) {
      EXPECT_EQ(audit[i].ptr2, 0u) << i;
      EXPECT_EQ(audit[i].imm, 0u) << i;
    } else {
      EXPECT_EQ(audit[i].ptr2, fact.ptr2) << i;
    }
  }

  // Live state counts every fact, overwritten or not.
  EXPECT_EQ(c.metrics().value("syscall.count"), kFacts / 5);
  EXPECT_EQ(c.metrics().value("hvc.call"), kFacts / 5);
  EXPECT_EQ(c.metrics().value("pauth.sign"), kFacts / 5);
  EXPECT_EQ(c.metrics().value("key.write"), 0u) << "bank installs";
  EXPECT_EQ(c.metrics().find_histogram("syscall.cycles")->count(),
            kFacts / 5);
}

TEST(CollectorRetention, SparseAuditFactsAndAnOrphanedSyscallExit) {
  // An SVC entry, then more trace-only HVCs than the ring holds with a
  // sign as every fifth fact (audit facts sparser than 1 in 4), then the
  // ERET that closes the entry's window.
  constexpr uint64_t kFill = 40000;
  Collector c;
  c.exc_enter(site_at(1, 0), kExcClassSvc, 0, 0, 0, 93);
  uint64_t signs = 0;
  for (uint64_t t = 2; t < kFill + 2; ++t) {
    if (t % 5 == 0) {
      c.pac_sign(site_at(t, 1), 0, t, 0, t, 1);
      ++signs;
    } else {
      c.hvc_call(site_at(t, 1), 1, t, 0);
    }
  }
  const uint64_t end = kFill + 2;
  c.exc_exit(site_at(end, 1), 0x400000, 0);

  const std::vector<Event> facts = c.events().snapshot();
  ASSERT_EQ(facts.size(), Collector::kEventCapacity);
  EXPECT_EQ(c.events().dropped(), kFill + 2 - Collector::kEventCapacity);
  // Every audit fact still in the ring is in the view, and no more.
  const std::vector<Event> audit = c.audit_events();
  const auto in_ring = static_cast<size_t>(
      std::count_if(facts.begin(), facts.end(),
                    [](const Event& e) { return is_audit_kind(e.kind); }));
  EXPECT_LT(in_ring, Collector::kAuditWindow);
  ASSERT_EQ(audit.size(), in_ring);
  EXPECT_EQ(audit.front().cycles,
            std::find_if(facts.begin(), facts.end(), [](const Event& e) {
              return is_audit_kind(e.kind);
            })->cycles);
  EXPECT_EQ(audit.back().kind, EventKind::ExcExit);
  EXPECT_EQ(c.audit_dropped(), signs + 2 - in_ring);

  // The window's entry is gone; its exit is still in the trace view.
  EXPECT_EQ(trace_count(c, EventKind::SyscallEnter), 0u);
  ASSERT_EQ(trace_count(c, EventKind::SyscallExit), 1u);
  const Event exit = trace_view(facts).back();
  EXPECT_EQ(exit.kind, EventKind::SyscallExit);
  EXPECT_EQ(exit.ptr, end - 1);
  EXPECT_EQ(exit.imm, 93u);
  EXPECT_EQ(c.metrics().find_histogram("syscall.cycles")->count(), 1u);
  // The Chrome export's depth guard drops the orphaned exit: the bytes are
  // those of the same facts without it.
  std::vector<Event> unmarked = facts;
  unmarked.back().syscall = 0;
  EXPECT_EQ(chrome_trace_json(facts), chrome_trace_json(unmarked));
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
// Byte-exact output. The expected strings were recorded from the original
// tree-walking dump(); every artifact on disk (baselines, canned bundles)
// depends on these bytes staying put.

// Every number rule (integers either side of 2^53, reals, NaN/Inf, -0),
// every escape, raw 0x7f and UTF-8 bytes, empty and nested containers.
json::Value golden_json_tree() {
  using json::Value;
  Value root = Value::object();
  Value ints = Value::array();
  for (const double d :
       {0.0, 7.0, -1.0, -1234567890123.0, 9007199254740991.0,
        9007199254740992.0, 9007199254740994.0, -9007199254740991.0,
        -9007199254740992.0, -9007199254740994.0})
    ints.push(Value(d));
  ints.push(Value(-42));
  ints.push(Value(~uint64_t{0}));
  root.set("ints", std::move(ints));
  Value reals = Value::array();
  for (const double d :
       {3.25, 0.1, -2.5e-300, 1e300, std::nan(""),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -0.0})
    reals.push(Value(d));
  root.set("reals", std::move(reals));
  root.set("str", Value(std::string("q\"b\\s/\b\f\n\r\t") + '\x01' + '\x1f' +
                        '\x7f' + "caf\xc3\xa9 \xe2\x82\xac\xff"));
  root.set("", Value(""));
  root.set(std::string("k\x01") + "\n", Value(true));
  root.set("f", Value(false));
  root.set("n", Value());
  root.set("empty_arr", Value::array());
  root.set("empty_obj", Value::object());
  Value nested = Value::array();
  nested.push(Value::array());
  nested.push(Value::object());
  Value inner = Value::array();
  inner.push(Value::array()).push(Value(1));
  nested.push(std::move(inner));
  Value deep = Value::object();
  deep.set("a", Value::object()).set("b", Value::array());
  nested.push(std::move(deep));
  root.set("nested", std::move(nested));
  return root;
}

TEST(Json, DumpGoldenBytes) {
  const json::Value tree = golden_json_tree();
  EXPECT_EQ(tree.dump(0),
    "{\"ints\":[0,7,-1,-1234567890123,9007199254740991,9007199254740992,"
    "9007199254740994,-9007199254740991,-9007199254740992,"
    "-9007199254740994,-42,1.8446744073709552e+19],\"reals\":[3.25,"
    "0.10000000000000001,-2.5e-300,1.0000000000000001e+300,0,0,0,0],"
    "\"str\":\"q\\\"b\\\\s/\\u0008\\u000c\\n\\r\\t\\u0001\\u001f\177caf"
    "\303\251 \342\202\254\377\","
    "\"\":\"\",\"k\\u0001\\n\":true,\"f\":false,\"n\":null,"
    "\"empty_arr\":[],\"empty_obj\":{},\"nested\":[[],{},[[1]],"
    "{\"a\":{\"b\":[]}}]}");
  EXPECT_EQ(tree.dump(2),
    "{\n"
    "  \"ints\": [\n"
    "    0,\n"
    "    7,\n"
    "    -1,\n"
    "    -1234567890123,\n"
    "    9007199254740991,\n"
    "    9007199254740992,\n"
    "    9007199254740994,\n"
    "    -9007199254740991,\n"
    "    -9007199254740992,\n"
    "    -9007199254740994,\n"
    "    -42,\n"
    "    1.8446744073709552e+19\n"
    "  ],\n"
    "  \"reals\": [\n"
    "    3.25,\n"
    "    0.10000000000000001,\n"
    "    -2.5e-300,\n"
    "    1.0000000000000001e+300,\n"
    "    0,\n"
    "    0,\n"
    "    0,\n"
    "    0\n"
    "  ],\n"
    "  \"str\": \"q\\\"b\\\\s/\\u0008\\u000c\\n\\r\\t\\u0001\\u001f\177caf"
    "\303\251 \342\202\254\377\",\n"
    "  \"\": \"\",\n"
    "  \"k\\u0001\\n\": true,\n"
    "  \"f\": false,\n"
    "  \"n\": null,\n"
    "  \"empty_arr\": [],\n"
    "  \"empty_obj\": {},\n"
    "  \"nested\": [\n"
    "    [],\n"
    "    {},\n"
    "    [\n"
    "      [\n"
    "        1\n"
    "      ]\n"
    "    ],\n"
    "    {\n"
    "      \"a\": {\n"
    "        \"b\": []\n"
    "      }\n"
    "    }\n"
    "  ]\n"
    "}");
}

TEST(Json, DumpOfStringsWhereEveryByteNeedsAnEscape) {
  // Compact output reserves its worst case up front; this is that case, as
  // a key, a member value and an array element.
  std::string s;
  for (char c = 0; c < 0x20; ++c) s += c;
  s += "\"\\";
  json::Value tree = json::Value::object();
  tree.set(s, json::Value(s));
  json::Value arr = json::Value::array();
  arr.push(json::Value(s));
  tree.set("a", std::move(arr));
  const std::string e =
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
      "\\\"\\\\";
  EXPECT_EQ(e.size(), 6 * 29 + 2 * 5);
  EXPECT_EQ(tree.dump(), "{\"" + e + "\":\"" + e + "\",\"a\":[\"" + e + "\"]}");
  EXPECT_EQ(tree.dump(2), "{\n  \"" + e + "\": \"" + e +
                              "\",\n  \"a\": [\n    \"" + e + "\"\n  ]\n}");
}

TEST(Json, WriterStreamsTheSameBytesAsDump) {
  json::Value tree = json::Value::object();
  tree.set("pc", json::Value("0xfedcba9876543210"));
  tree.set("small", json::Value(uint64_t{12345}));
  tree.set("big", json::Value(~uint64_t{0}));
  tree.set("edge", json::Value(uint64_t{1} << 53));
  json::Value list = json::Value::array();
  list.push(json::Value("a\x01\"b"));
  list.push(json::Value::object());
  list.push(json::Value());
  list.push(json::Value(false));
  tree.set("list", std::move(list));
  for (const int indent : {0, 2}) {
    json::Writer w(indent);
    w.begin_object()
        .key("pc").hex(0xfedcba9876543210ull)
        .key("small").number(uint64_t{12345})
        .key("big").number(~uint64_t{0})
        .key("edge").number(uint64_t{1} << 53)
        .key("list").begin_array()
        .string("a\x01\"b").begin_object().end_object().null().boolean(false)
        .end_array()
        .end_object();
    EXPECT_EQ(w.take(), tree.dump(indent));
  }
}

TEST(Json, PushOrSetOnTheWrongKindAsserts) {
  EXPECT_DEBUG_DEATH(
      {
        json::Value v;
        v.push(json::Value(1));
      },
      "push on a non-array");
  EXPECT_DEBUG_DEATH(
      {
        json::Value v = json::Value::array();
        v.set("k", json::Value(1));
      },
      "set on a non-object");
#ifdef NDEBUG
  // Release builds keep what was added visible: the value becomes the
  // container instead of hiding it from dump().
  json::Value v;
  v.push(json::Value(1));
  EXPECT_EQ(v.dump(), "[1]");
  json::Value o(true);
  o.set("k", json::Value(2));
  EXPECT_EQ(o.dump(), "{\"k\":2}");
#endif
}

// A random tree of every kind. Strings and keys draw from all 256 byte
// values, so control bytes, 0x7f and bytes >= 0x80 all appear.
json::Value random_tree(std::mt19937_64& rng, int depth) {
  const auto pick = [&](uint64_t n) { return rng() % n; };
  const auto random_string = [&] {
    std::string s(pick(12), '\0');
    for (char& c : s) c = static_cast<char>(pick(256));
    return s;
  };
  switch (pick(depth > 3 ? 4 : 6)) {
    case 0: return json::Value();
    case 1: return json::Value(pick(2) == 1);
    case 2: {
      switch (pick(4)) {
        case 0: return json::Value(static_cast<int>(pick(2001)) - 1000);
        case 1: return json::Value(rng());
        case 2: {
          double d;  // any bit pattern: NaN, Inf, subnormals, -0
          const uint64_t bits = rng();
          std::memcpy(&d, &bits, sizeof d);
          return json::Value(d);
        }
        default:
          return json::Value(static_cast<double>(
              static_cast<int64_t>(rng()) >> pick(64)));
      }
    }
    case 3: return json::Value(random_string());
    case 4: {
      json::Value a = json::Value::array();
      for (uint64_t i = pick(5); i > 0; --i)
        a.push(random_tree(rng, depth + 1));
      return a;
    }
    default: {
      json::Value o = json::Value::object();
      for (uint64_t i = pick(5); i > 0; --i)
        o.set(random_string(), random_tree(rng, depth + 1));
      return o;
    }
  }
}

TEST(Json, ParseOfDumpRedumpsIdentically) {
  std::mt19937_64 rng(2024);
  for (int t = 0; t < 300; ++t) {
    const json::Value tree = random_tree(rng, 0);
    for (const int indent : {0, 2}) {
      const std::string text = tree.dump(indent);
      const auto parsed = json::Value::parse(text);
      ASSERT_TRUE(parsed.has_value()) << "tree " << t << ": " << text;
      EXPECT_EQ(parsed->dump(indent), text) << "tree " << t;
      EXPECT_EQ(parsed->dump(2 - indent), tree.dump(2 - indent))
          << "tree " << t;
    }
  }
}

// Strings either side of the inline limit (Str::kInline, 22 bytes), as
// values and as keys, with escapes and an embedded NUL: stored, found,
// dumped and parsed back byte for byte.
std::string patterned(size_t n) {
  static constexpr char kBytes[] = {'a', '"', '\\', '\n', '\0', '\x01',
                                    'z', '\xc3', '\xa9', '\x7f', 'q'};
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = kBytes[i % sizeof kBytes];
  return s;
}

TEST(Json, StringsEitherSideOfTheInlineLimit) {
  static_assert(json::Str::kInline == 22);
  for (const size_t n : {0, 15, 22, 23, 200}) {
    SCOPED_TRACE(n);
    const std::string s = patterned(n);
    const json::Value v(s);
    EXPECT_EQ(v.as_string(), s);
    EXPECT_EQ(v.as_string().size(), n);
    EXPECT_EQ(json::Str(s), s);
    EXPECT_EQ(json::Str(json::Str(s)).view(), s);

    json::Value o = json::Value::object();
    o.set(s, json::Value(s));
    o.set("after", json::Value(uint64_t{n}));
    ASSERT_EQ(o.size(), 2u);
    EXPECT_EQ(o.members()[0].first, s);
    ASSERT_NE(o.get(s), nullptr);
    EXPECT_EQ(o.get(s)->as_string(), s);
    EXPECT_EQ(o.get("after")->as_number(), static_cast<double>(n));

    json::Writer w;
    w.begin_object().key(s).string(s).key("after").number(uint64_t{n})
        .end_object();
    const std::string text = o.dump();
    EXPECT_EQ(text, w.take());
    const auto parsed = json::Value::parse(text);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), 2u);
    EXPECT_EQ(parsed->members()[0].first, s);
    EXPECT_EQ(parsed->get(s)->as_string(), s);
    EXPECT_EQ(parsed->dump(2), o.dump(2));
  }
}

json::Value nested_tree() {
  json::Value root = json::Value::object();
  root.set("short", json::Value("0xfedcba9876543210"));
  root.set(patterned(40), json::Value(patterned(200)));
  json::Value list = json::Value::array();
  for (int i = 0; i < 5; ++i) {
    json::Value item = json::Value::object();
    item.set("i", json::Value(i));
    item.set("name", json::Value(patterned(10 * i)));
    item.set("tags", json::Value::array()).push(json::Value(patterned(23)));
    list.push(std::move(item));
  }
  root.set("list", std::move(list));
  return root;
}

TEST(Json, CopyAndMoveOfNestedTrees) {
  const json::Value tree = nested_tree();
  const std::string want = tree.dump();

  json::Value copy = tree;  // deep copy: editing it leaves `tree` alone
  EXPECT_EQ(copy.dump(), want);
  copy.set("short", json::Value(patterned(100)));
  EXPECT_EQ(tree.dump(), want);
  EXPECT_NE(copy.dump(), want);

  json::Value moved = std::move(copy);
  EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.get("short")->as_string(), patterned(100));

  json::Value assigned = json::Value::array();
  assigned = tree;
  EXPECT_EQ(assigned.dump(), want);
  assigned = std::move(moved);
  EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.get("short")->as_string(), patterned(100));

  // Assigning a value its own subtree: the subtree outlives the old value.
  json::Value whole = tree;
  const json::Value& self = whole;
  whole = self;
  EXPECT_EQ(whole.dump(), want);
  whole = *whole.get("list")->at(4);
  EXPECT_EQ(whole.dump(), tree.get("list")->at(4)->dump());
  json::Value outer = json::Value::array();
  json::Value& inner = outer.push(tree);
  outer = std::move(inner);
  EXPECT_EQ(outer.dump(), want);
}

TEST(Json, SetReplacesAnExistingMember) {
  json::Value o = json::Value::object();
  o.set("a", json::Value(1));
  o.set(patterned(30), json::Value("long key"));
  o.set("c", json::Value::array());
  o.set("a", json::Value(patterned(50)));
  o.set(patterned(30), json::Value(false));
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o.get("a")->as_string(), patterned(50));
  EXPECT_FALSE(o.get(patterned(30))->as_bool());
  EXPECT_TRUE(o.get(patterned(30))->is_bool());
  json::Writer w;
  w.begin_object()
      .key("a").string(patterned(50))
      .key(patterned(30)).boolean(false)
      .key("c").begin_array().end_array()
      .end_object();
  EXPECT_EQ(o.dump(), w.take());
}

TEST(Json, ObjectsWithMoreThanSixteenMembers) {
  for (const size_t n : {16, 17, 40}) {
    json::Value o = json::Value::object();
    json::Writer w;
    w.begin_object();
    for (size_t i = 0; i < n; ++i) {
      // Every fourth key is past the inline limit.
      const std::string key =
          (i % 4 == 3 ? patterned(25) : std::string()) + "k" +
          std::to_string(i);
      o.set(key, json::Value(uint64_t{i}));
      w.key(key).number(uint64_t{i});
    }
    w.end_object();
    ASSERT_EQ(o.size(), n);
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(o.members()[i].second.as_number(), static_cast<double>(i));
    const std::string text = o.dump();
    EXPECT_EQ(text, w.take());
    const auto parsed = json::Value::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(2), o.dump(2));
  }
}

TEST(Json, CannedFlightBundleRedumpsToItsOwnBytes) {
  std::ifstream in(CAMO_TESTDATA_DIR "/flight_rop_full.json",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing " CAMO_TESTDATA_DIR "/flight_rop_full.json";
  std::ostringstream file;
  file << in.rdbuf();
  const auto parsed = json::Value::parse(file.str());
  ASSERT_TRUE(parsed.has_value());
  // The recorder writes dump(2) and a final newline.
  EXPECT_EQ(parsed->dump(2) + "\n", file.str());
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
  cfg.cpu.engine = cpu::Engine::Fast;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(50));
  m.boot();
  ASSERT_TRUE(m.run());
  const Registry& reg = m.stats()->metrics();
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
  const uint64_t enters = trace_count(st, EventKind::SyscallEnter);
  const uint64_t exits = trace_count(st, EventKind::SyscallExit);
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
  EXPECT_GT(trace_count(st, EventKind::KeyWrite), 0u);
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
    const std::string_view ph = e.get("ph")->as_string();
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
  std::vector<Event> ring;
  auto push = [&](EventKind k, uint64_t cycles) -> Event& {
    ring.push_back(make_event(k, cycles));
    return ring.back();
  };
  push(EventKind::SyscallEnter, 100).imm = 1;
  push(EventKind::KeyWrite, 110).imm = 2;
  // Sign events are deliberately not exported (too dense to render); the
  // exporter must skip them without disturbing the span bookkeeping.
  push(EventKind::PacSign, 120).ptr = 0xFFFF000000081000ull;
  push(EventKind::Stage2Fault, 125).ptr = 0xFFFF000000090000ull;
  push(EventKind::AuthFail, 130).pc = 0xFFFF000000082000ull;
  push(EventKind::SyscallExit, 140).imm = 1;
  push(EventKind::ExcEnter, 150).aux = 1;  // still open at the end
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
    const std::string_view ph = e.get("ph")->as_string();
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

// Every EventKind once, full-width payloads, exits with no entry, an iss of
// zero and of 0xffff, timestamps past 2^53, and a B window on each lane left
// open at the end.
std::vector<Event> golden_trace_events() {
  constexpr uint64_t kFull = 0xFEDCBA9876543210ull;
  constexpr uint64_t kMax = ~uint64_t{0};
  std::vector<Event> ring;
  auto push = [&](EventKind k, uint64_t cycles) -> Event& {
    Event e;
    e.kind = k;
    e.cycles = cycles;
    ring.push_back(e);
    return ring.back();
  };
  push(EventKind::ExcExit, 5);      // no entry yet: skipped
  push(EventKind::SyscallExit, 6);  // likewise
  push(EventKind::None, 7);
  Event& svc = push(EventKind::ExcEnter, 10);
  svc.aux = 1;
  svc.pc = kFull;
  svc.el = 0;
  Event& abort = push(EventKind::ExcEnter, 11);
  abort.aux = 4;
  abort.pc = kMax;
  abort.el = 1;
  abort.imm = 0xFFFF;
  push(EventKind::ExcExit, 12);
  push(EventKind::SyscallEnter, 13).imm = 0xFFFF;
  push(EventKind::SyscallExit, 14).ptr = kFull;
  push(EventKind::KeyWrite, 15).key = 4;
  Event& sign = push(EventKind::PacSign, 16);
  sign.ptr = kFull;
  sign.modifier = kMax;
  Event& ok = push(EventKind::AuthOk, 17);
  ok.ptr = kFull;
  ok.modifier = kFull;
  Event& fail = push(EventKind::AuthFail, 18);
  fail.key = 1;
  fail.ptr = kMax;
  fail.modifier = kFull;
  fail.pc = kFull;
  Event& bad_key = push(EventKind::AuthFail, 19);
  bad_key.key = 9;
  bad_key.ptr = 0;
  bad_key.modifier = 1;
  push(EventKind::Stage2Fault, 20).ptr = kMax;
  Event& sw = push(EventKind::ContextSwitch, 21);
  sw.ptr = kFull;
  sw.ptr2 = 0x10;
  push(EventKind::HvcCall, 22).imm = 7;
  push(EventKind::ModuleLoad, 23).ptr = 3;
  push(EventKind::MsrDenied, 24).imm = 0xC510;
  push(EventKind::AttackOutcome, 25).aux = 2;
  push(EventKind::AttackOutcome, 26).aux = 200;
  push(EventKind::ExcEnter, (uint64_t{1} << 53) + 2).aux = 7;  // left open
  push(EventKind::SyscallEnter, (uint64_t{1} << 53) - 1).imm = 0;  // open
  push(EventKind::AuthOk, kMax);  // not exported; only moves the last ts
  return ring;
}

TEST(ChromeTrace, GoldenBytes) {
  EXPECT_EQ(chrome_trace_json(golden_trace_events()),
    "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,"
    "\"pid\":1,\"tid\":1,\"args\":{\"name\":\"exceptions\"}},"
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":2,"
    "\"args\":{\"name\":\"syscalls\"}},"
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":3,"
    "\"args\":{\"name\":\"events\"}},"
    "{\"name\":\"svc\",\"ph\":\"B\",\"ts\":10,\"pid\":1,\"tid\":1,"
    "\"args\":{\"pc\":\"0xfedcba9876543210\",\"from_el\":0}},"
    "{\"name\":\"data-abort\",\"ph\":\"B\",\"ts\":11,\"pid\":1,\"tid\":1,"
    "\"args\":{\"pc\":\"0xffffffffffffffff\",\"from_el\":1,"
    "\"iss\":65535}},"
    "{\"name\":\"\",\"ph\":\"E\",\"ts\":12,\"pid\":1,\"tid\":1},"
    "{\"name\":\"syscall 65535\",\"ph\":\"B\",\"ts\":13,\"pid\":1,"
    "\"tid\":2},"
    "{\"name\":\"\",\"ph\":\"E\",\"ts\":14,\"pid\":1,\"tid\":2},"
    "{\"name\":\"key-write ga\",\"ph\":\"i\",\"ts\":15,\"pid\":1,"
    "\"tid\":3,\"s\":\"t\"},"
    "{\"name\":\"auth-fail ib\",\"ph\":\"i\",\"ts\":18,\"pid\":1,"
    "\"tid\":3,\"s\":\"g\",\"args\":{\"ptr\":\"0xffffffffffffffff\","
    "\"modifier\":\"0xfedcba9876543210\"}},"
    "{\"name\":\"auth-fail <bad-key>\",\"ph\":\"i\",\"ts\":19,\"pid\":1,"
    "\"tid\":3,\"s\":\"g\",\"args\":{\"ptr\":\"0x0\","
    "\"modifier\":\"0x1\"}},"
    "{\"name\":\"stage2-fault\",\"ph\":\"i\",\"ts\":20,\"pid\":1,"
    "\"tid\":3,\"s\":\"g\",\"args\":{\"va\":\"0xffffffffffffffff\"}},"
    "{\"name\":\"context-switch\",\"ph\":\"i\",\"ts\":21,\"pid\":1,"
    "\"tid\":3,\"s\":\"g\",\"args\":{\"prev\":\"0xfedcba9876543210\","
    "\"next\":\"0x10\"}},"
    "{\"name\":\"hvc 7\",\"ph\":\"i\",\"ts\":22,\"pid\":1,\"tid\":3,"
    "\"s\":\"t\"},"
    "{\"name\":\"module-load\",\"ph\":\"i\",\"ts\":23,\"pid\":1,"
    "\"tid\":3,\"s\":\"t\"},"
    "{\"name\":\"msr-denied\",\"ph\":\"i\",\"ts\":24,\"pid\":1,\"tid\":3,"
    "\"s\":\"t\"},"
    "{\"name\":\"attack: blocked\",\"ph\":\"i\",\"ts\":25,\"pid\":1,"
    "\"tid\":3,\"s\":\"g\"},"
    "{\"name\":\"attack: <bad-outcome>\",\"ph\":\"i\",\"ts\":26,"
    "\"pid\":1,\"tid\":3,\"s\":\"g\"},"
    "{\"name\":\"irq\",\"ph\":\"B\",\"ts\":9007199254740994,\"pid\":1,"
    "\"tid\":1,\"args\":{\"pc\":\"0x0\",\"from_el\":0}},"
    "{\"name\":\"syscall 0\",\"ph\":\"B\",\"ts\":9007199254740991,"
    "\"pid\":1,\"tid\":2},"
    "{\"name\":\"\",\"ph\":\"E\",\"ts\":1.8446744073709552e+19,\"pid\":1,"
    "\"tid\":1},"
    "{\"name\":\"\",\"ph\":\"E\",\"ts\":1.8446744073709552e+19,\"pid\":1,"
    "\"tid\":1},"
    "{\"name\":\"\",\"ph\":\"E\",\"ts\":1.8446744073709552e+19,\"pid\":1,"
    "\"tid\":2}],\"displayTimeUnit\":\"ns\","
    "\"otherData\":{\"source\":\"camo::obs\","
    "\"time_unit\":\"1 trace us == 1 guest cycle\"}}");
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


// ---- Machine golden: every event kind through the real producers ----------
//
// One guest drives every producer of the trace view, the audit view and the
// registry: SVC windows and key-switch bursts (full protection), sign/auth
// and a corrupted hook's auth failure, HVCs, an accepted and a rejected
// module load, context switches, and last a module whose init writes TTBR0,
// which the hypervisor denies (the kernel then oopses, ending the run). The
// attack verdict is reported the way the attack framework reports it.
// Stage2Fault is the one kind it lacks: the kernel oopses on a
// stage-2 fault as well, so no guest can take both; the next golden pins it.

obj::Program module_with_init(const std::string& name,
                              void (*body)(assembler::FunctionBuilder&)) {
  obj::Program mod;
  auto& init = mod.add_function(name + "_init");
  body(init);
  return mod;
}

/// A user task that yields `yields` times, then asks the kernel to load
/// module `id` and exits.
obj::Program yield_then_load(uint64_t yields, uint64_t id) {
  using kernel::Sys;
  obj::Program p;
  auto& f = p.add_function("_ustart");
  p.add_bss("ubuf", 4096, 16);
  const auto sys = [&f](Sys nr) {
    f.movz(8, static_cast<uint16_t>(nr), 0);
    f.svc(0);
  };
  const assembler::Label loop = f.make_label();
  f.mov_imm(19, yields);
  f.bind(loop);
  sys(Sys::Yield);
  f.sub_i(19, 19, 1);
  f.cbnz(19, loop);
  f.mov_imm(0, id);
  sys(Sys::InitModule);
  sys(Sys::Exit);
  return p;
}

struct GoldenDigests {
  uint64_t trace, audit, registry;
  bool operator==(const GoldenDigests&) const = default;
};

void PrintTo(const GoldenDigests& d, std::ostream* os) {
  *os << std::hex << "{0x" << d.trace << ", 0x" << d.audit << ", 0x"
      << d.registry << "}";
}

GoldenDigests every_kind_digests(unsigned cores, cpu::Engine engine) {
  kernel::MachineConfig cfg;
  cfg.cpu.engine = engine;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.kernel.pac_failure_threshold = 100;
  cfg.kernel.preempt = true;
  cfg.cores = cores;
  cfg.smp_quantum = 500;
  cfg.obs.enabled = true;
  kernel::Machine m(cfg);
  const auto add_module = [&m](const std::string& name,
                               void (*body)(assembler::FunctionBuilder&)) {
    return static_cast<uint64_t>(
        m.register_module(name, module_with_init(name, body)));
  };
  const uint64_t good = add_module("drv", [](auto& f) {
    f.frame_push();
    f.mov_sym(9, kernel::kSymWorkCounter);
    f.mov_imm(10, 1000);
    f.str(10, 9, 0);
    f.frame_pop_ret();
  });
  const uint64_t spy = add_module("spy", [](auto& f) {
    f.mrs(0, isa::SysReg::APIBKeyLo);  // fails verification
    f.ret();
  });
  const uint64_t ttbr = add_module("ttbr", [](auto& f) {
    f.msr(isa::SysReg::TTBR0_EL1, 0);  // passes it; denied at run time
    f.ret();
  });
  m.add_user_program(kernel::workloads::null_syscall(3));
  m.add_user_program(kernel::workloads::load_module(good));
  m.add_user_program(kernel::workloads::load_module(spy));
  m.add_user_program(kernel::workloads::call_hook(2));
  m.add_user_program(yield_then_load(16, ttbr));
  m.boot();
  bool corrupted = false;
  for (unsigned c = 0; c < m.cores(); ++c)
    m.core(c).add_breakpoint(m.kernel_symbol("sys_call_hook"), [&](auto&) {
      if (corrupted) return;
      corrupted = true;
      m.write_u64(m.kernel_symbol(kernel::kSymHookObj),
                  m.kernel_symbol("alt_hook"));
    });
  EXPECT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kernel::kHaltOops) << "the denied MSR oopses";
  Collector& st = *m.stats();
  constexpr uint8_t kDetected = 1;
  st.attack_verdict(0, m.cpu().cycles(), kDetected,
                    m.read_global(kernel::kSymPacFailCount), m.halt_code());

  for (size_t k = 1; k < static_cast<size_t>(EventKind::kCount); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (kind == EventKind::Stage2Fault) continue;
    EXPECT_GT(trace_count(st, kind), 0u)
        << "cores=" << cores << ": no " << event_kind_name(kind);
  }
  const std::vector<AuditEvent> log = st.audit_events();
  for (const auto& [kind, name] : kAuditKinds)
    EXPECT_TRUE(kind == EventKind::None ||
                std::any_of(log.begin(), log.end(), [kind](const Event& e) {
                  return e.kind == kind;
                }))
        << "cores=" << cores << ": no " << name;
  const auto loads = [&log](uint8_t ok) {
    return std::count_if(log.begin(), log.end(), [ok](const Event& e) {
      return e.kind == EventKind::ModuleLoad && e.aux == ok;
    });
  };
  EXPECT_EQ(loads(1), 2) << "the driver and the TTBR writer pass";
  EXPECT_EQ(loads(0), 1) << "the key-reading spy is rejected";
  EXPECT_EQ(st.events().dropped(), 0u);
  EXPECT_EQ(st.audit_dropped(), 0u);

  std::string audit;
  for (const AuditEvent& e : log) audit += audit_event_json(e).dump() + "\n";
  return {testing::fnv1a(st.chrome_trace_json()), testing::fnv1a(audit),
          testing::fnv1a(testing::guest_metrics_json(st.metrics()))};
}

TEST(MachineGolden, EveryEventKindPinnedOnOneAndTwoCores) {
  for (const cpu::Engine engine : cpu::kEngines) {
    SCOPED_TRACE(cpu::engine_name(engine));
    EXPECT_EQ(every_kind_digests(1, engine),
              (GoldenDigests{0x459ba7df4b687e31ull, 0x847930a2ed3ee9d9ull,
                             0xeb95a67f741770d8ull}));
    EXPECT_EQ(every_kind_digests(2, engine),
              (GoldenDigests{0x5936b35b60ee4dd6ull, 0xcbfbad98753c5409ull,
                             0xf7f774abb62b4610ull}));
  }
}

// ---- Machine golden: the stage-2 fault ------------------------------------
//
// The one event kind the guest above cannot take: a module whose init loads
// from the execute-only key setter. The load takes a stage-2 permission
// fault, the kernel oopses, and the flight recorder captures the fault as
// its trigger.

struct Stage2Digests {
  uint64_t trace, audit, registry;
  std::string trigger;
  bool operator==(const Stage2Digests&) const = default;
};

void PrintTo(const Stage2Digests& d, std::ostream* os) {
  *os << std::hex << "{0x" << d.trace << ", 0x" << d.audit << ", 0x"
      << d.registry << ", " << d.trigger << "}";
}

Stage2Digests stage2_digests(unsigned cores, cpu::Engine engine) {
  kernel::MachineConfig cfg;
  cfg.cpu.engine = engine;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.cores = cores;
  cfg.smp_quantum = 500;
  cfg.obs.enabled = true;
  kernel::Machine m(cfg);
  const auto reader = static_cast<uint64_t>(m.register_module(
      "peek", module_with_init("peek", [](auto& f) {
        f.mov_sym(9, core::kKeySetterSymbol);
        f.ldr(0, 9, 0);  // the key setter is execute-only at stage 2
        f.ret();
      })));
  m.add_user_program(kernel::workloads::null_syscall(2));
  m.add_user_program(kernel::workloads::load_module(reader));
  m.boot();
  EXPECT_TRUE(m.run());
  EXPECT_EQ(m.halt_code(), kernel::kHaltOops) << "the stage-2 fault oopses";
  const Collector& st = *m.stats();
  EXPECT_TRUE(st.flight().captured());

  std::string audit;
  for (const AuditEvent& e : st.audit_events())
    audit += audit_event_json(e).dump() + "\n";
  const auto bundle = json::Value::parse(
      flight_bundle_json(st.flight(), {}, "stage2", "full", 0));
  const json::Value* trigger = bundle ? bundle->get("trigger") : nullptr;
  return {testing::fnv1a(st.chrome_trace_json()), testing::fnv1a(audit),
          testing::fnv1a(testing::guest_metrics_json(st.metrics())),
          trigger ? trigger->dump() : "<no trigger>"};
}

TEST(MachineGolden, Stage2FaultPinnedOnOneAndTwoCores) {
  for (const cpu::Engine engine : cpu::kEngines) {
    SCOPED_TRACE(cpu::engine_name(engine));
    EXPECT_EQ(
        stage2_digests(1, engine),
        (Stage2Digests{0x26077cffad4d2125ull, 0x4748b8e96dcb1b15ull,
                       0x56eb918b7b77d24dull,
                       R"({"kind":9,"cycles":"0x7f4","pc":"0xffff000001000010",)"
                       R"("a":"0xffff000000080000","b":"0x0","el":1,"k1":4,)"
                       R"("k2":0,"imm":0})"}));
    EXPECT_EQ(
        stage2_digests(2, engine),
        (Stage2Digests{0x47dd5de99edb1d8dull, 0xce4e9138e663b4bcull,
                       0xad7fa19661434518ull,
                       R"({"kind":9,"cycles":"0x1de","pc":"0xffff000001000010",)"
                       R"("a":"0xffff000000080000","b":"0x0","el":1,"k1":4,)"
                       R"("k2":0,"imm":0})"}));
  }
}

}  // namespace
}  // namespace camo::obs
