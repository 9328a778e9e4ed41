// Security observability (DESIGN.md §3f): audit stream + provenance,
// histogram quantiles, flight recorder and the camo-audit replay contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "assembler/builder.h"
#include "attacks/attacks.h"
#include "audit_tool.h"
#include "harness.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "obs/audit.h"
#include "obs/collector.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "par/fleet.h"
#include "par/pool.h"
#include "support/format.h"

namespace camo {
namespace {

using obs::AuditEvent;
using obs::EventKind;
using obs::ModifierClass;

size_t count_kind(const std::vector<AuditEvent>& log, EventKind k) {
  return static_cast<size_t>(
      std::count_if(log.begin(), log.end(),
                    [k](const AuditEvent& e) { return e.kind == k; }));
}

// ---- histogram quantiles ---------------------------------------------------

TEST(Histogram, QuantilesOfEmptyAndSingleValue) {
  obs::Histogram h;
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
  h.record(37);
  // Clamped to the exact [min,max] envelope: one sample pins every quantile.
  EXPECT_EQ(h.p50(), 37.0);
  EXPECT_EQ(h.p95(), 37.0);
  EXPECT_EQ(h.p99(), 37.0);
}

TEST(Histogram, QuantilesAreOrderedAndBounded) {
  obs::Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 1000u * 1001u / 2);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  const double p50 = h.p50(), p95 = h.p95(), p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Log2 buckets bound the error by one bucket width: p50 of uniform
  // 1..1000 is 500, inside bucket [256,512) — accept that whole envelope.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  EXPECT_GE(p99, 512.0);
}

TEST(Histogram, MergeMatchesSingleHistogram) {
  obs::Histogram a, b, all;
  for (uint64_t v = 0; v < 100; ++v) {
    (v % 2 ? a : b).record(v * 7);
    all.record(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  // Quantiles are bucket-derived, so the merged result is exactly the
  // one-histogram answer (merge-order independence).
  EXPECT_DOUBLE_EQ(a.p50(), all.p50());
  EXPECT_DOUBLE_EQ(a.p95(), all.p95());
  EXPECT_DOUBLE_EQ(a.p99(), all.p99());
}

// ---- modifier classification and labels ------------------------------------

TEST(Audit, ClassifyModifier) {
  EXPECT_EQ(obs::classify_modifier(0), ModifierClass::Zero);
  // Canonical user and kernel addresses.
  EXPECT_EQ(obs::classify_modifier(0x0000'7FFF'1234'5678ull),
            ModifierClass::Address);
  EXPECT_EQ(obs::classify_modifier(0xFFFF'0000'0008'0000ull),
            ModifierClass::Address);
  // SP ‖ function-address composites put payload in the top 16 bits.
  EXPECT_EQ(obs::classify_modifier(0x1234'0000'0008'0000ull),
            ModifierClass::Composite);
  EXPECT_EQ(obs::classify_modifier(0x0001'0000'0000'0000ull),
            ModifierClass::Composite);
}

TEST(Audit, LabelsAreStable) {
  EXPECT_STREQ(obs::audit_kind_name(EventKind::KeyWrite), "key-install");
  EXPECT_STREQ(obs::audit_kind_name(EventKind::PacSign), "sign");
  EXPECT_STREQ(obs::audit_kind_name(EventKind::AuthFail), "auth-fail");
  EXPECT_STREQ(obs::audit_kind_name(EventKind::AttackOutcome),
               "attack-verdict");
  EXPECT_STREQ(obs::modifier_class_name(ModifierClass::Zero), "zero");
  EXPECT_STREQ(obs::modifier_class_name(ModifierClass::Composite),
               "composite");
  // Every audit ordinal names a distinct kind with a real label, and the
  // kinds only the trace view holds have none.
  for (uint8_t k = 0; k < std::size(obs::kAuditKinds); ++k) {
    EXPECT_EQ(obs::audit_ordinal(obs::kAuditKinds[k].kind), k);
    EXPECT_STRNE(obs::audit_kind_name(obs::kAuditKinds[k].kind),
                 "<bad-kind>");
  }
  for (const EventKind k : {EventKind::HvcCall, EventKind::ContextSwitch,
                            EventKind::SyscallEnter, EventKind::Stage2Fault})
    EXPECT_FALSE(obs::is_audit_kind(k));
}

// ---- causal chain ----------------------------------------------------------

std::vector<AuditEvent> chain_fixture() {
  // install(prov 7) → sign(match) → sign(other) → authfail → verdict.
  std::vector<AuditEvent> ev(5);
  ev[0].kind = EventKind::KeyWrite;
  ev[0].prov = 7;
  ev[0].key = 0;
  ev[1].kind = EventKind::PacSign;
  ev[1].key = 0;
  ev[1].prov = 7;
  ev[1].ptr = 0xFFFF000000081000ull;
  ev[1].ptr2 = 0x002A0F0000081000ull;  // signed form (PAC in top bits)
  ev[2].kind = EventKind::PacSign;
  ev[2].key = 0;
  ev[2].prov = 7;
  ev[2].ptr = 0xFFFF000000099000ull;
  ev[2].ptr2 = 0x1BAD0F0000099000ull;
  ev[3].kind = EventKind::AuthFail;
  ev[3].key = 0;
  ev[3].prov = 7;
  ev[3].ptr = ev[1].ptr2;  // replayed signed value, rejected under new ctx
  ev[4].kind = EventKind::AttackOutcome;
  return ev;
}

TEST(CausalChain, LinksInstallSignFailVerdict) {
  const auto ev = chain_fixture();
  const auto chain = obs::causal_chain(ev, 3);
  EXPECT_EQ(chain, (std::vector<size_t>{0, 1, 3, 4}));
}

TEST(CausalChain, StrippedPointerStillMatchesSign) {
  auto ev = chain_fixture();
  // Attacker corrupted the PAC bits but kept the target: low 48 bits of the
  // failing pointer match the *raw* pointer that was signed.
  ev[3].ptr = 0xDEAD000000081000ull;
  const auto chain = obs::causal_chain(ev, 3);
  EXPECT_EQ(chain, (std::vector<size_t>{0, 1, 3, 4}));
}

TEST(CausalChain, ForgedPointerHasNoSignLink) {
  auto ev = chain_fixture();
  ev[3].ptr = 0x0BAD0BAD0BAD0BADull;  // matches no sign event at all
  const auto chain = obs::causal_chain(ev, 3);
  EXPECT_EQ(chain, (std::vector<size_t>{0, 3, 4}));
}

TEST(CausalChain, IgnoresOtherMachinesAndNonFailures) {
  auto ev = chain_fixture();
  ev[0].machine = 1;  // install from another fleet machine: excluded
  ev[4].machine = 2;  // verdict from another machine: excluded
  EXPECT_EQ(obs::causal_chain(ev, 3), (std::vector<size_t>{1, 3}));
  // Non-failure anchor: the chain is just the event itself.
  EXPECT_EQ(obs::causal_chain(ev, 1), (std::vector<size_t>{1}));
  EXPECT_TRUE(obs::causal_chain(ev, 99).empty());
}

TEST(CausalChain, ZeroProvenanceNeverLinksInstalls) {
  auto ev = chain_fixture();
  // Keys installed outside the audited path (host set_sysreg) carry prov 0;
  // a failure under them must not link to unrelated prov-0 installs.
  ev[0].prov = 0;
  ev[1].prov = 0;
  ev[2].prov = 0;
  ev[3].prov = 0;
  EXPECT_EQ(obs::causal_chain(ev, 3), (std::vector<size_t>{1, 3, 4}));
}

// ---- JSON codecs -----------------------------------------------------------

TEST(FlightJson, HexCodecRoundTripsFullWidth) {
  const uint64_t cases[] = {0, 1, 0xFFFF000000080000ull, ~uint64_t{0}};
  for (const uint64_t v : cases) {
    const std::string s = hex_short(v);
    EXPECT_EQ(s.rfind("0x", 0), 0u) << s;
    const auto parsed = obs::json::Value::parse("\"" + s + "\"");
    ASSERT_TRUE(parsed);
    EXPECT_EQ(obs::parse_hex_u64(*parsed), std::optional<uint64_t>(v));
  }
}

TEST(FlightJson, AuditEventRoundTripsEveryField) {
  AuditEvent e;
  e.cycles = 123456789;
  e.pc = 0xFFFF0000000ABCDEull;
  e.ptr = ~uint64_t{0};  // top bit set: would be mangled as a double
  e.ptr2 = 0x8000000000000001ull;
  e.modifier = 0x1234FFFF00080000ull;
  e.lr = 0xFFFF000000099998ull;
  e.prov = 42;
  e.machine = 3;
  e.kind = EventKind::AuthFail;
  e.key = 2;
  e.el = 1;
  e.mclass = static_cast<uint8_t>(ModifierClass::Composite);
  e.bank = 1;
  e.aux = 7;
  e.imm = 0xBEEF;
  AuditEvent out;
  ASSERT_TRUE(obs::audit_event_from_json(obs::audit_event_json(e), &out));
  EXPECT_EQ(out.cycles, e.cycles);
  EXPECT_EQ(out.pc, e.pc);
  EXPECT_EQ(out.ptr, e.ptr);
  EXPECT_EQ(out.ptr2, e.ptr2);
  EXPECT_EQ(out.modifier, e.modifier);
  EXPECT_EQ(out.lr, e.lr);
  EXPECT_EQ(out.prov, e.prov);
  EXPECT_EQ(out.machine, e.machine);
  EXPECT_EQ(out.kind, e.kind);
  EXPECT_EQ(out.key, e.key);
  EXPECT_EQ(out.el, e.el);
  EXPECT_EQ(out.mclass, e.mclass);
  EXPECT_EQ(out.bank, e.bank);
  EXPECT_EQ(out.aux, e.aux);
  EXPECT_EQ(out.imm, e.imm);
}

// Full-width payloads and a nonzero cpu. The expected bytes were recorded
// from the original tree-walking dump(): the audit stream must not move.
AuditEvent golden_audit_event() {
  AuditEvent e;
  e.cycles = ~uint64_t{0};
  e.pc = 0xFEDCBA9876543210ull;
  e.ptr = 0x8000000000000000ull;
  e.ptr2 = 0x0123456789ABCDEFull;
  e.modifier = 0xFFFF000000080000ull;
  e.lr = 1;
  e.prov = ~uint64_t{0};
  e.machine = 0xFFFFFFFFu;
  e.kind = EventKind::AuthFail;
  e.key = 0xFF;
  e.el = 0xFF;
  e.mclass = 0xFF;
  e.bank = 0xFF;
  e.aux = 0xFF;
  e.cpu = 3;
  e.imm = 0xFFFF;
  return e;
}

TEST(FlightJson, AuditEventDumpGolden) {
  EXPECT_EQ(obs::audit_event_json(golden_audit_event()).dump(),
    "{\"kind\":\"auth-fail\",\"k\":4,\"cycles\":\"0xffffffffffffffff\","
    "\"pc\":\"0xfedcba9876543210\",\"ptr\":\"0x8000000000000000\","
    "\"ptr2\":\"0x123456789abcdef\",\"modifier\":\"0xffff000000080000\","
    "\"lr\":\"0x1\",\"prov\":1.8446744073709552e+19,"
    "\"machine\":4294967295,\"key\":255,\"el\":255,\"mclass\":255,"
    "\"bank\":255,\"aux\":255,\"cpu\":3,\"imm\":65535}");
}

TEST(FlightJson, ParseHexAcceptsOnlyWhatTheWriterProduces) {
  using obs::json::Value;
  const auto parse = [](const Value& v) { return obs::parse_hex_u64(v); };
  EXPECT_EQ(parse(Value("0x0")), std::optional<uint64_t>(0));
  EXPECT_EQ(parse(Value("0xffffffffffffffff")),
            std::optional<uint64_t>(~uint64_t{0}));
  EXPECT_EQ(parse(Value("0x0000000000000001")), std::optional<uint64_t>(1));
  EXPECT_EQ(parse(Value("0xABC")), std::optional<uint64_t>(0xABC));
  EXPECT_EQ(parse(Value(uint64_t{42})), std::optional<uint64_t>(42));
  EXPECT_EQ(parse(Value(0.0)), std::optional<uint64_t>(0));
  for (const char* s : {"-1", "010", "8", "0xzz", "0x", "", "0X1f", " 0x1",
                        "0x1 ", "0x-1", "0x+1", "0x1g", "0x00000000000000001"})
    EXPECT_EQ(parse(Value(s)), std::nullopt) << '"' << s << '"';
  for (const double d : {-1.0, 1.5, 18446744073709551616.0, std::nan(""),
                         std::numeric_limits<double>::infinity()})
    EXPECT_EQ(parse(Value(d)), std::nullopt) << d;
  EXPECT_EQ(parse(Value()), std::nullopt);
  EXPECT_EQ(parse(Value(true)), std::nullopt);
  EXPECT_EQ(parse(Value::array()), std::nullopt);
}

TEST(FlightJson, AuditEventReaderRejectsMutatedFields) {
  using obs::json::Value;
  AuditEvent e = golden_audit_event();
  e.prov = 42;  // a JSON number: ~0 would not survive the double
  const Value good = obs::audit_event_json(e);
  AuditEvent out;
  ASSERT_TRUE(obs::audit_event_from_json(good, &out));
  const Value bad[] = {Value("-1"), Value("010"), Value("0xzz"), Value("0x"),
                       Value("0x10000000000000000"), Value(-1.0), Value(1.5),
                       Value(true), Value()};
  for (const auto& member : good.members()) {
    if (member.first == "kind") continue;  // the label; the reader uses "k"
    for (const Value& b : bad) {
      Value mutated = good;
      mutated.set(member.first, b);
      EXPECT_FALSE(obs::audit_event_from_json(mutated, &out))
          << member.first.view() << " = " << b.dump();
    }
  }
  // One past a narrow field's width must not be truncated into it.
  const std::pair<const char*, double> past[] = {
      {"k", 256},     {"machine", 4294967296.0}, {"key", 256},
      {"el", 256},    {"mclass", 256},           {"bank", 256},
      {"aux", 256},   {"cpu", 256},              {"imm", 65536}};
  for (const auto& [name, value] : past) {
    Value mutated = good;
    mutated.set(name, Value(value));
    EXPECT_FALSE(obs::audit_event_from_json(mutated, &out)) << name;
    mutated.set(name, Value(value - 1));
    EXPECT_TRUE(obs::audit_event_from_json(mutated, &out)) << name;
  }
  // Absent fields read as 0 (bundles from before a field existed).
  Value sparse = Value::object();
  sparse.set("k", Value(uint64_t{2}));
  ASSERT_TRUE(obs::audit_event_from_json(sparse, &out));
  EXPECT_EQ(out.pc, 0u);
  EXPECT_EQ(out.cpu, 0u);
}

// ---- key provenance on the CPU ---------------------------------------------

TEST(Provenance, GuestMsrBumpsHostInstallDoesNot) {
  testing::SimHarness h;
  // The harness installs every key via host set_sysreg: outside the audited
  // path, so everything starts at provenance 0.
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(h.core.sysreg_key_provenance(static_cast<cpu::PacKey>(k)), 0u);
    EXPECT_EQ(h.core.bank_key_provenance(static_cast<cpu::PacKey>(k)), 0u);
  }
  obs::Collector col;
  h.core.set_collector(&col);
  assembler::FunctionBuilder f("t");
  f.mov_imm(9, 0x1111);
  f.msr(isa::SysReg::APDAKeyLo, 9);
  f.msr(isa::SysReg::APDAKeyHi, 9);
  f.mov_imm(9, 0x2222);
  f.msr(isa::SysReg::APIAKeyLo, 9);
  f.hlt(1);
  h.run(f);
  // Each MSR of a key half is a distinct install with a fresh id.
  EXPECT_EQ(h.core.sysreg_key_provenance(cpu::PacKey::DA), 2u);
  EXPECT_EQ(h.core.sysreg_key_provenance(cpu::PacKey::IA), 3u);
  EXPECT_EQ(h.core.sysreg_key_provenance(cpu::PacKey::IB), 0u);
  EXPECT_EQ(h.core.key_provenance(cpu::PacKey::DA), 2u);
  const auto snap = col.audit_events();
  EXPECT_EQ(count_kind(snap, EventKind::KeyWrite), 3u);
  uint64_t last_prov = 0;
  for (const AuditEvent& e : snap)
    if (e.kind == EventKind::KeyWrite) {
      EXPECT_GT(e.prov, last_prov) << "provenance must be monotonic";
      last_prov = e.prov;
      EXPECT_EQ(e.bank, 0u);
    }
}

TEST(Provenance, SignAndAuthCarryTheInstallId) {
  testing::SimHarness h;
  obs::Collector col;
  h.core.set_collector(&col);
  assembler::FunctionBuilder f("t");
  f.mov_imm(9, 0x1111);
  f.msr(isa::SysReg::APDAKeyLo, 9);  // prov 1
  f.mov_imm(0, testing::kHData + 0x100);
  f.mov_imm(1, 0x42);
  f.pacda(0, 1);
  f.autda(0, 1);  // accepted
  f.mov_imm(2, 0x43);
  f.pacda(0, 1);
  f.autda(0, 2);  // wrong modifier: rejected
  f.hlt(1);
  h.run(f);
  const auto ev = col.audit_events();
  size_t fail_at = ev.size();
  uint64_t signs = 0, oks = 0;
  for (size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind == EventKind::PacSign) {
      ++signs;
      EXPECT_EQ(ev[i].prov, 1u);
      EXPECT_EQ(ev[i].key, static_cast<uint8_t>(cpu::PacKey::DA));
      // Modifier 0x42 has an all-zero top 16: structurally an address.
      EXPECT_EQ(ev[i].mclass, static_cast<uint8_t>(ModifierClass::Address));
    }
    if (ev[i].kind == EventKind::AuthOk) ++oks;
    if (ev[i].kind == EventKind::AuthFail) fail_at = i;
  }
  EXPECT_EQ(signs, 2u);
  EXPECT_EQ(oks, 1u);
  ASSERT_LT(fail_at, ev.size()) << "wrong-modifier AUT must audit a failure";
  EXPECT_EQ(ev[fail_at].prov, 1u);
  EXPECT_NE(ev[fail_at].pc, 0u);
  // The failure links back through the matching sign to the install.
  const auto chain = obs::causal_chain(ev, fail_at);
  ASSERT_GE(chain.size(), 3u);
  EXPECT_EQ(ev[chain.front()].kind, EventKind::KeyWrite);
  EXPECT_EQ(chain.back(), fail_at);
  bool has_sign = false;
  for (const size_t i : chain) has_sign |= ev[i].kind == EventKind::PacSign;
  EXPECT_TRUE(has_sign);
}

// ---- whole-machine audit stream --------------------------------------------

kernel::MachineConfig observed_config() {
  kernel::MachineConfig cfg;
  cfg.kernel.log_pac_failures = false;
  cfg.obs.enabled = true;
  return cfg;
}

TEST(MachineAudit, SyscallRunEmitsTypedStream) {
  kernel::Machine m(observed_config());
  m.add_user_program(kernel::workloads::null_syscall(5));
  m.boot();
  ASSERT_TRUE(m.run());
  ASSERT_NE(m.stats(), nullptr);
  const auto log = m.stats()->audit_events();
  EXPECT_GT(count_kind(log, EventKind::KeyWrite), 0u);
  EXPECT_GT(count_kind(log, EventKind::PacSign), 0u);
  EXPECT_GT(count_kind(log, EventKind::AuthOk), 0u);
  EXPECT_GT(count_kind(log, EventKind::ExcEnter), 0u);
  EXPECT_GT(count_kind(log, EventKind::ExcExit), 0u);
  EXPECT_EQ(count_kind(log, EventKind::AuthFail), 0u);
  // A clean run never arms the flight recorder.
  EXPECT_FALSE(m.stats()->flight().captured());
  // The sign→auth latency histogram was fed by the collector.
  const obs::Histogram* h =
      m.stats()->metrics().find_histogram("pauth.sign_to_auth.cycles");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
  EXPECT_GT(h->p50(), 0.0);
  // Kernel entry/exit re-keying shows up as key-switch bursts.
  const obs::Histogram* ks =
      m.stats()->metrics().find_histogram("key.switch.cycles");
  ASSERT_NE(ks, nullptr);
  EXPECT_GT(ks->count(), 0u);
}

TEST(MachineAudit, StreamIsDeterministicAcrossRuns) {
  auto run_once = [] {
    kernel::Machine m(observed_config());
    m.add_user_program(kernel::workloads::null_syscall(3));
    m.boot();
    EXPECT_TRUE(m.run());
    std::string out;
    for (const AuditEvent& e : m.stats()->audit_events())
      out += obs::audit_event_json(e).dump() + "\n";
    return out;
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// The export a fleet consumer writes: the whole log as one json::Value
// array dumped at once. Two preempted cores put events with the optional
// "cpu" member (17 members) between the 16-member ones.
TEST(MachineAudit, TreeExportOfATwoCoreLogPinned) {
  kernel::MachineConfig cfg = observed_config();
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.preempt = true;
  cfg.cores = 2;
  cfg.smp_quantum = 500;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(200));
  m.add_user_program(kernel::workloads::null_syscall(200));
  m.boot();
  ASSERT_TRUE(m.run());
  obs::json::Value arr = obs::json::Value::array();
  size_t with_cpu = 0;
  for (const AuditEvent& e : m.stats()->audit_events())
    if (arr.push(obs::audit_event_json(e)).size() == 17) ++with_cpu;
  EXPECT_GT(with_cpu, 0u);
  EXPECT_LT(with_cpu, arr.size());
  EXPECT_EQ(testing::fnv1a(arr.dump()), 0x1305552068cb3f5aull);
  EXPECT_EQ(testing::fnv1a(arr.dump(2)), 0xebc8963c02d7202cull);
}

// ---- flight recorder + named-attack bundles --------------------------------

TEST(Flight, RopInjectionProducesSelfContainedBundle) {
  std::string bundle;
  const auto r = attacks::run_named_attack("rop-injection", "full", &bundle);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->outcome, attacks::Outcome::Detected);
  ASSERT_FALSE(bundle.empty());
  const auto doc = obs::json::Value::parse(bundle);
  ASSERT_TRUE(doc) << "bundle is not valid JSON";
  ASSERT_TRUE(doc->get("schema"));
  EXPECT_EQ(doc->get("schema")->as_string(), "camo-flight/v1");
  ASSERT_TRUE(doc->get("captured"));
  EXPECT_TRUE(doc->get("captured")->as_bool());
  const auto* scen = doc->get("scenario");
  ASSERT_NE(scen, nullptr);
  EXPECT_EQ(scen->get("attack")->as_string(), "rop-injection");
  EXPECT_EQ(scen->get("config")->as_string(), "full");
  // Trigger, ring and state are present and non-trivial.
  const auto* trig = doc->get("trigger");
  ASSERT_NE(trig, nullptr);
  EXPECT_NE(obs::parse_hex_u64(*trig->get("pc")).value_or(0), 0u);
  const auto* ring = doc->get("ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_GT(ring->size(), 0u);
  const auto* state = doc->get("state");
  ASSERT_NE(state, nullptr);
  EXPECT_NE(obs::parse_hex_u64(*state->get("pc")).value_or(0), 0u);
  // The audit stream and the causal chain of the terminal failure.
  const auto* audit = doc->get("audit");
  ASSERT_NE(audit, nullptr);
  EXPECT_GT(audit->size(), 0u);
  const auto* chain = doc->get("chain");
  ASSERT_NE(chain, nullptr);
  EXPECT_GT(chain->size(), 1u) << "failure must link back to sign/install";
}

TEST(Flight, BundleIsBitIdenticalAcrossRuns) {
  // The replay contract: same scenario, same seed → byte-identical bundle.
  std::string a, b;
  ASSERT_TRUE(attacks::run_named_attack("rop-injection", "full", &a));
  ASSERT_TRUE(attacks::run_named_attack("rop-injection", "full", &b));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Flight, RegistryRejectsUnknownNames) {
  EXPECT_FALSE(attacks::run_named_attack("no-such-attack", "full"));
  EXPECT_FALSE(attacks::run_named_attack("rop-injection", "no-such-config"));
  EXPECT_FALSE(attacks::protection_config_by_name("bogus"));
  const auto& names = attacks::attack_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "rop-injection"),
            names.end());
  EXPECT_EQ(attacks::attack_config_names().size(), 3u);
}

TEST(AuditTool, CanonicalBundleIsIdempotentAndStrict) {
  std::string err;
  const std::string canon =
      audit_tool::canonical_bundle("{\"b\": 1, \"a\": [1,2]}", &err);
  ASSERT_FALSE(canon.empty()) << err;
  EXPECT_EQ(audit_tool::canonical_bundle(canon, &err), canon);
  EXPECT_TRUE(audit_tool::canonical_bundle("{not json", &err).empty());
  EXPECT_FALSE(err.empty());
}

// ---- fleet merge -----------------------------------------------------------

std::string merged_audit_dump(unsigned jobs) {
  par::Pool pool(jobs);
  auto fleet = par::run_fleet(
      pool, 5,
      [&](size_t i) {
        kernel::MachineConfig cfg = observed_config();
        cfg.seed = 0xFEED + i;
        cfg.machine_id = static_cast<unsigned>(i);
        auto m = std::make_unique<kernel::Machine>(cfg);
        m->add_user_program(kernel::workloads::null_syscall(3 + 2 * i));
        return m;
      },
      [](size_t, kernel::Machine& m) {
        m.boot();
        m.run();
        return m.halt_code();
      });
  std::string out;
  uint32_t last_machine = 0;
  for (const AuditEvent& e : fleet.audit) {
    // Task-index merge order: machine ids are non-decreasing.
    EXPECT_GE(e.machine, last_machine);
    last_machine = e.machine;
    out += obs::audit_event_json(e).dump() + "\n";
  }
  EXPECT_EQ(last_machine, 4u) << "every machine contributes audit events";
  EXPECT_GT(fleet.stats.task_us.count(), 0u);
  return out;
}

TEST(FleetAudit, MergedStreamBitIdenticalForAnyJobs) {
  const std::string serial = merged_audit_dump(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(merged_audit_dump(4), serial);
}

}  // namespace
}  // namespace camo
