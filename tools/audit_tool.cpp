#include "audit_tool.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <vector>

#include "attacks/attacks.h"
#include "obs/audit.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "support/format.h"

namespace camo::audit_tool {

namespace {

using obs::AuditEvent;
using obs::EventKind;
using obs::json::Value;

bool read_file(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

/// One audit event as a human line; the payload layout follows the kind
/// (see obs/audit.h).
std::string event_line(const AuditEvent& e) {
  // Multi-core machines attribute every event to its emitting core
  // ("m0.c1"); single-core output keeps the classic "m0" prefix.
  std::string s =
      e.cpu != 0 ? strformat("m%u.c%u", e.machine, e.cpu)
                 : strformat("m%u", e.machine);
  s += strformat(" %10llu  %-13s", static_cast<unsigned long long>(e.cycles),
                 obs::audit_kind_name(e.kind));
  const auto hex = [](uint64_t v) { return hex_short(v); };
  switch (e.kind) {
    case EventKind::KeyWrite:
      s += strformat(" key=%s prov=%llu %s (el%u, pc=%s)",
                     obs::pac_key_label(e.key),
                     static_cast<unsigned long long>(e.prov),
                     e.bank ? "el2-bank" : "live", e.el, hex(e.pc).c_str());
      break;
    case EventKind::PacSign:
      s += strformat(" key=%s %s -> %s mod=%s(%s) prov=%llu (el%u)",
                     obs::pac_key_label(e.key), hex(e.ptr).c_str(),
                     hex(e.ptr2).c_str(), hex(e.modifier).c_str(),
                     obs::modifier_class_name(
                         static_cast<obs::ModifierClass>(e.mclass)),
                     static_cast<unsigned long long>(e.prov), e.el);
      break;
    case EventKind::AuthOk:
    case EventKind::AuthFail:
      s += strformat(" key=%s %s -> %s mod=%s(%s) prov=%llu pc=%s lr=%s",
                     obs::pac_key_label(e.key), hex(e.ptr).c_str(),
                     hex(e.ptr2).c_str(), hex(e.modifier).c_str(),
                     obs::modifier_class_name(
                         static_cast<obs::ModifierClass>(e.mclass)),
                     static_cast<unsigned long long>(e.prov),
                     hex(e.pc).c_str(), hex(e.lr).c_str());
      break;
    case EventKind::ExcEnter:
      s += strformat(" el%u -> handler (%s), far=%s, return=%s", e.el,
                     obs::exc_class_label(e.aux), hex(e.ptr).c_str(),
                     hex(e.pc).c_str());
      break;
    case EventKind::ExcExit:
      s += strformat(" -> el%u, target=%s", e.aux, hex(e.ptr).c_str());
      break;
    case EventKind::MsrDenied:
      s += strformat(" el%u MSR sysreg=%u pc=%s", e.el, e.imm,
                     hex(e.pc).c_str());
      break;
    case EventKind::ModuleLoad:
      s += strformat(" module=%llu init=%s %s",
                     static_cast<unsigned long long>(e.ptr),
                     hex(e.ptr2).c_str(), e.aux ? "verified" : "REJECTED");
      break;
    case EventKind::AttackOutcome:
      s += strformat(" %s (pac_failures=%llu, halt=%s)",
                     attacks::outcome_name(
                         static_cast<attacks::Outcome>(e.aux)),
                     static_cast<unsigned long long>(e.ptr),
                     hex(e.ptr2).c_str());
      break;
    default:
      break;
  }
  return s;
}

/// A payload field for display: absent or malformed prints as 0.
uint64_t field(const Value* v) {
  return v ? obs::parse_hex_u64(*v).value_or(0) : 0;
}

}  // namespace

const char* usage() {
  return "usage:\n"
         "  camo-audit print  <bundle.json>\n"
         "  camo-audit record --attack <name> --config <name> -o "
         "<bundle.json>\n"
         "  camo-audit replay <bundle.json>\n"
         "\n"
         "print   pretty-print a camo-flight/v1 bundle and its causal chain\n"
         "record  run a named attack with flight capture and write the "
         "bundle\n"
         "replay  re-execute the bundle's scenario on a fresh machine and\n"
         "        verify it reproduces the violation bit-for-bit\n";
}

std::string canonical_bundle(const std::string& text, std::string* error) {
  const auto parsed = Value::parse(text);
  if (!parsed) {
    if (error) *error = "not valid JSON";
    return "";
  }
  return parsed->dump(2);
}

int cmd_print(const std::string& bundle_path) {
  std::string text, error;
  if (!read_file(bundle_path, &text, &error)) {
    std::fprintf(stderr, "camo-audit: %s\n", error.c_str());
    return 1;
  }
  const auto doc = Value::parse(text);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "camo-audit: %s is not a JSON object\n",
                 bundle_path.c_str());
    return 1;
  }
  const Value* schema = doc->get("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "camo-flight/v1") {
    std::fprintf(stderr, "camo-audit: %s: missing/wrong schema (want "
                         "camo-flight/v1)\n",
                 bundle_path.c_str());
    return 1;
  }

  const Value* scenario = doc->get("scenario");
  std::string attack, config, seed;
  if (scenario && scenario->is_object()) {
    if (const Value* v = scenario->get("attack")) attack = v->as_string();
    if (const Value* v = scenario->get("config")) config = v->as_string();
    if (const Value* v = scenario->get("seed")) seed = v->as_string();
  }
  std::printf("camo-flight/v1 bundle: %s\n", bundle_path.c_str());
  std::printf("scenario: %s under \"%s\" (seed %s)\n", attack.c_str(),
              config.c_str(), seed.c_str());
  const Value* captured = doc->get("captured");
  const Value* triggers = doc->get("triggers");
  std::printf("captured: %s (%llu trigger(s))\n",
              captured && captured->as_bool() ? "yes" : "no",
              static_cast<unsigned long long>(field(triggers)));
  if (const Value* trig = doc->get("trigger")) {
    const Value* kind = trig->get("kind");
    const Value* pc = trig->get("pc");
    const Value* cyc = trig->get("cycles");
    std::printf("trigger: %s at pc=%s, cycle %llu\n",
                obs::event_kind_name(static_cast<EventKind>(field(kind))),
                hex_short(field(pc)).c_str(),
                static_cast<unsigned long long>(field(cyc)));
  }

  // Chain membership for the audit listing below.
  std::set<uint64_t> chain_idx;
  std::vector<uint64_t> chain_order;
  if (const Value* chain = doc->get("chain")) {
    for (size_t i = 0; i < chain->size(); ++i) {
      const uint64_t idx = field(chain->at(i));
      chain_idx.insert(idx);
      chain_order.push_back(idx);
    }
  }

  std::vector<AuditEvent> events;
  if (const Value* audit = doc->get("audit")) {
    for (size_t i = 0; i < audit->size(); ++i) {
      AuditEvent e;
      if (obs::audit_event_from_json(*audit->at(i), &e)) events.push_back(e);
    }
  }
  std::printf("\naudit stream (%zu events; * = causal chain of the terminal "
              "auth failure):\n",
              events.size());
  for (size_t i = 0; i < events.size(); ++i)
    std::printf(" %c[%4zu] %s\n", chain_idx.count(i) ? '*' : ' ', i,
                event_line(events[i]).c_str());
  if (!chain_order.empty()) {
    std::printf("\ncausal chain (%zu links):\n", chain_order.size());
    for (const uint64_t idx : chain_order)
      if (idx < events.size())
        std::printf("  [%4llu] %s\n", static_cast<unsigned long long>(idx),
                    event_line(events[idx]).c_str());
  }

  if (const Value* ring = doc->get("ring")) {
    const size_t n = ring->size();
    const size_t show = n < 16 ? n : 16;
    std::printf("\nflight ring (last %zu of %zu retired instructions):\n",
                show, n);
    for (size_t i = n - show; i < n; ++i) {
      const Value* in = ring->at(i);
      const uint64_t cyc = field(in->get("cycles"));
      const uint64_t pc = field(in->get("pc"));
      const uint64_t op = field(in->get("op"));
      const uint64_t el = field(in->get("el"));
      std::printf("  %10llu  el%llu  %s  %s\n",
                  static_cast<unsigned long long>(cyc),
                  static_cast<unsigned long long>(el),
                  hex_short(pc).c_str(),
                  obs::op_class_name(static_cast<obs::OpClass>(op)));
    }
  }
  if (const Value* state = doc->get("state")) {
    const auto u64 = [&](const char* name) { return field(state->get(name)); };
    std::printf("\nstate at capture: pc=%s el=%llu elr_el1=%s esr_el1=%s "
                "far_el1=%s\n",
                hex_short(u64("pc")).c_str(),
                static_cast<unsigned long long>(u64("el")),
                hex_short(u64("elr_el1")).c_str(),
                hex_short(u64("esr_el1")).c_str(),
                hex_short(u64("far_el1")).c_str());
    if (const Value* keys = state->get("keys")) {
      std::printf("keys:");
      for (size_t k = 0; k < keys->size() && k < 5; ++k) {
        const Value* prov = keys->at(k)->get("prov");
        std::printf(" %s(prov=%llu)", obs::pac_key_label(static_cast<uint8_t>(k)),
                    static_cast<unsigned long long>(field(prov)));
      }
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_record(const std::string& attack, const std::string& config,
               const std::string& out_path) {
  std::string bundle;
  const auto r = attacks::run_named_attack(attack, config, &bundle);
  if (!r) {
    std::fprintf(stderr, "camo-audit: unknown attack or config\n  attacks:");
    for (const auto& n : attacks::attack_names())
      std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n  configs:");
    for (const auto& n : attacks::attack_config_names())
      std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (bundle.empty()) {
    std::fprintf(stderr, "camo-audit: attack ran but produced no bundle "
                         "(observability off?)\n");
    return 1;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "camo-audit: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << bundle << "\n";
  std::printf("recorded %s under \"%s\": %s (%s)\n", attack.c_str(),
              config.c_str(), attacks::outcome_name(r->outcome),
              r->detail.c_str());
  std::printf("[%zu-byte bundle -> %s]\n", bundle.size(), out_path.c_str());
  return 0;
}

int cmd_replay(const std::string& bundle_path) {
  std::string text, error;
  if (!read_file(bundle_path, &text, &error)) {
    std::fprintf(stderr, "camo-audit: %s\n", error.c_str());
    return 1;
  }
  const std::string want = canonical_bundle(text, &error);
  if (want.empty()) {
    std::fprintf(stderr, "camo-audit: %s: %s\n", bundle_path.c_str(),
                 error.c_str());
    return 1;
  }
  const auto doc = Value::parse(text);
  const Value* scenario = doc->get("scenario");
  if (!scenario || !scenario->is_object()) {
    std::fprintf(stderr, "camo-audit: %s has no scenario\n",
                 bundle_path.c_str());
    return 1;
  }
  const Value* attack_v = scenario->get("attack");
  const Value* config_v = scenario->get("config");
  if (!attack_v || !config_v) {
    std::fprintf(stderr, "camo-audit: %s scenario lacks attack/config\n",
                 bundle_path.c_str());
    return 1;
  }
  const std::string attack(attack_v->as_string());
  const std::string config(config_v->as_string());
  std::printf("replaying %s under \"%s\" on a fresh machine...\n",
              attack.c_str(), config.c_str());
  std::string fresh;
  const auto r = attacks::run_named_attack(attack, config, &fresh);
  if (!r) {
    std::fprintf(stderr, "camo-audit: scenario names an unknown attack or "
                         "config\n");
    return 1;
  }
  const std::string got = canonical_bundle(fresh, &error);
  if (got != want) {
    // Locate the first differing line for the diagnostic.
    size_t line = 1, i = 0;
    const size_t n = want.size() < got.size() ? want.size() : got.size();
    while (i < n && want[i] == got[i]) {
      if (want[i] == '\n') ++line;
      ++i;
    }
    std::fprintf(stderr,
                 "REPLAY MISMATCH: fresh bundle diverges at line %zu "
                 "(recorded %zu bytes, replay %zu bytes)\n",
                 line, want.size(), got.size());
    return 1;
  }
  uint64_t pc = 0, cyc = 0;
  if (const Value* trig = doc->get("trigger")) {
    pc = field(trig->get("pc"));
    cyc = field(trig->get("cycles"));
  }
  const Value* chain = doc->get("chain");
  std::printf("replay OK: bit-identical bundle (%zu bytes) — outcome %s, "
              "violation pc=%s at cycle %llu, causal chain %zu links\n",
              want.size(), attacks::outcome_name(r->outcome),
              hex_short(pc).c_str(), static_cast<unsigned long long>(cyc),
              static_cast<size_t>(chain ? chain->size() : 0));
  return 0;
}

}  // namespace camo::audit_tool
