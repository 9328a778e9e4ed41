#include "obs/flight.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <type_traits>

#include "support/format.h"

namespace camo::obs {

void FlightRecorder::retire_run(uint64_t c0, const RetireRun& run) {
  if (run.n == 0) return;
  // Only the last capacity instructions can ever be rebuilt: keep those,
  // stamped from the cost of the ones dropped before them.
  uint32_t skip = run.n > capacity_ ? run.n - static_cast<uint32_t>(capacity_)
                                    : 0;
  const uint32_t n = run.n - skip;
  const RetireSlot* slots = run.slots + skip;
  for (uint32_t i = 0; i < skip; ++i) c0 += run.slots[i].cost;
  Run& r = runs_[head_];
  if (++head_ == capacity_) head_ = 0;
  if (filled_ < capacity_) ++filled_;
  Seg* const ring = segs_.data();
  size_t g = seg_head_;
  uint32_t nsegs = 0;
  run.for_each_seg([&](uint64_t va, uint64_t, uint32_t k) {
    if (skip >= k) {
      skip -= k;
      return;
    }
    ring[g] = {va + 4 * uint64_t{skip}, k - skip};
    if (++g == segs_.size()) g = 0;
    ++nsegs;
    skip = 0;
  });
  seg_head_ = g;
  r = {c0, n, nsegs, run.el};
  // n <= capacity_, half the slot ring: at most one wrap.
  const size_t first = std::min<size_t>(n, slots_.size() - slot_head_);
  std::copy_n(slots, first, slots_.data() + slot_head_);
  std::copy_n(slots + first, n - first, slots_.data());
  slot_head_ += n;
  if (slot_head_ >= slots_.size()) slot_head_ -= slots_.size();
}

std::vector<FlightInsn> FlightRecorder::live_ring() const {
  // Newest records first, until they cover the window: `runs` records
  // holding `insns` instructions over `nsegs` segments, each fewer than
  // 2 * capacity_ (the last one added held at most capacity_), so all of
  // them are still in their rings.
  const auto newest = [&](size_t k) -> const Run& {  // k = 0: the last one
    return runs_[(head_ + capacity_ - 1 - k) % capacity_];
  };
  size_t runs = 0, insns = 0, nsegs = 0;
  while (runs < filled_ && insns < capacity_) {
    insns += newest(runs).n;
    nsegs += newest(runs++).nsegs;
  }
  size_t skip = insns > capacity_ ? insns - capacity_ : 0;
  size_t sp = (slot_head_ + slots_.size() - insns) % slots_.size();
  size_t gp = (seg_head_ + segs_.size() - nsegs) % segs_.size();
  std::vector<FlightInsn> out;
  out.reserve(insns - skip);
  while (runs > 0) {
    const Run& r = newest(--runs);
    uint64_t c = r.c0;
    for (uint32_t g = 0; g < r.nsegs; ++g) {
      const Seg& seg = segs_[gp];
      if (++gp == segs_.size()) gp = 0;
      for (uint64_t i = 0; i < seg.n; ++i) {
        const RetireSlot s = slots_[sp];
        if (++sp == slots_.size()) sp = 0;
        if (skip > 0)
          --skip;
        else
          out.push_back({c, seg.va + 4 * i, s.op_class, r.el});
        c += s.cost;
      }
    }
  }
  return out;
}

std::optional<uint64_t> parse_hex_u64(const json::Value& v) {
  if (v.is_number()) {
    const double d = v.as_number();
    if (!(d >= 0 && d < 18446744073709551616.0) || d != std::floor(d))
      return std::nullopt;
    return static_cast<uint64_t>(d);
  }
  const std::string_view s = v.as_string();
  if (s.size() < 3 || s.size() > kHexShortChars || s[0] != '0' || s[1] != 'x')
    return std::nullopt;
  uint64_t out = 0;
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data() + 2, end, out, 16);
  if (r.ec != std::errc() || r.ptr != end) return std::nullopt;
  return out;
}

json::Value hex_json(uint64_t v) {
  char buf[kHexShortChars];
  return json::Value(std::string_view(buf, hex_short_to(buf, v)));
}

json::Value audit_event_json(const AuditEvent& e) {
  // Built as one exactly reserved member vector: the keys are distinct, so
  // no set() scan, and a 17-member event never regrows.
  json::Value::Object m;
  m.reserve(e.cpu != 0 ? 17 : 16);
  const auto add = [&m](std::string_view key, json::Value v) {
    m.emplace_back(json::Str(key), std::move(v));
  };
  add("kind", json::Value(audit_kind_name(e.kind)));
  add("k", json::Value(static_cast<uint64_t>(audit_ordinal(e.kind))));
  add("cycles", hex_json(e.cycles));
  add("pc", hex_json(e.pc));
  add("ptr", hex_json(e.ptr));
  add("ptr2", hex_json(e.ptr2));
  add("modifier", hex_json(e.modifier));
  add("lr", hex_json(e.lr));
  add("prov", json::Value(e.prov));
  add("machine", json::Value(static_cast<uint64_t>(e.machine)));
  add("key", json::Value(static_cast<uint64_t>(e.key)));
  add("el", json::Value(static_cast<uint64_t>(e.el)));
  add("mclass", json::Value(static_cast<uint64_t>(e.mclass)));
  add("bank", json::Value(static_cast<uint64_t>(e.bank)));
  add("aux", json::Value(static_cast<uint64_t>(e.aux)));
  // Emitted only when nonzero: absent means core 0, which keeps bundles
  // recorded before the SMP refactor byte-identical on replay.
  if (e.cpu != 0) add("cpu", json::Value(static_cast<uint64_t>(e.cpu)));
  add("imm", json::Value(static_cast<uint64_t>(e.imm)));
  return json::Value::object(std::move(m));
}

bool audit_event_from_json(const json::Value& v, AuditEvent* out) {
  if (!v.is_object() || !out) return false;
  const json::Value* k = v.get("k");
  if (!k || !k->is_number()) return false;
  AuditEvent e;
  bool ok = true;
  // An absent field reads as 0; a present one must parse and fit.
  const auto field = [&v, &ok](const char* name, auto& dst) {
    const json::Value* f = v.get(name);
    if (!f) return;
    const std::optional<uint64_t> u = parse_hex_u64(*f);
    using T = std::remove_reference_t<decltype(dst)>;
    if (!u || *u > std::numeric_limits<T>::max()) {
      ok = false;
      return;
    }
    dst = static_cast<T>(*u);
  };
  uint8_t kind = 0;
  field("k", kind);
  if (kind < std::size(kAuditKinds)) e.kind = kAuditKinds[kind].kind;
  field("cycles", e.cycles);
  field("pc", e.pc);
  field("ptr", e.ptr);
  field("ptr2", e.ptr2);
  field("modifier", e.modifier);
  field("lr", e.lr);
  field("prov", e.prov);
  field("machine", e.machine);
  field("key", e.key);
  field("el", e.el);
  field("mclass", e.mclass);
  field("bank", e.bank);
  field("aux", e.aux);
  field("cpu", e.cpu);  // absent = core 0
  field("imm", e.imm);
  if (!ok) return false;
  *out = e;
  return true;
}

namespace {

/// A trace record (for_each_trace_record) in the trace wire format: two
/// 64-bit payloads `a`/`b` and two small ones `k1`/`k2`, assigned per kind.
json::Value trace_event_json(const Event& e) {
  uint64_t a = e.ptr, b = e.ptr2;
  uint8_t k1 = e.aux, k2 = e.fault;
  switch (e.kind) {
    case EventKind::ExcExit: k2 = k1; k1 = 0; break;  // the target EL
    case EventKind::KeyWrite: k1 = e.key; break;
    case EventKind::PacSign:
    case EventKind::AuthOk:
    case EventKind::AuthFail: b = e.modifier; k1 = e.key; break;
    case EventKind::AttackOutcome: a = b = 0; break;
    default: break;
  }
  json::Value o = json::Value::object();
  o.set("kind", json::Value(static_cast<uint64_t>(e.kind)));
  o.set("cycles", hex_json(e.cycles));
  o.set("pc", hex_json(e.pc));
  o.set("a", hex_json(a));
  o.set("b", hex_json(b));
  o.set("el", json::Value(static_cast<uint64_t>(e.el)));
  o.set("k1", json::Value(static_cast<uint64_t>(k1)));
  o.set("k2", json::Value(static_cast<uint64_t>(k2)));
  o.set("imm", json::Value(static_cast<uint64_t>(e.imm)));
  return o;
}

json::Value key_json(const FlightKey& k) {
  json::Value o = json::Value::object();
  o.set("lo", hex_json(k.lo));
  o.set("hi", hex_json(k.hi));
  o.set("prov", json::Value(k.prov));
  return o;
}

}  // namespace

json::Value flight_snapshot_json(const FlightSnapshot& s) {
  json::Value o = json::Value::object();
  json::Value regs = json::Value::array();
  for (uint64_t r : s.x) regs.push(hex_json(r));
  o.set("x", std::move(regs));
  o.set("sp_el0", hex_json(s.sp_el0));
  o.set("sp_el1", hex_json(s.sp_el1));
  o.set("pc", hex_json(s.pc));
  o.set("el", json::Value(static_cast<uint64_t>(s.el)));
  o.set("banked_keys", json::Value(s.banked_keys));
  o.set("elr_el1", hex_json(s.elr_el1));
  o.set("spsr_el1", hex_json(s.spsr_el1));
  o.set("esr_el1", hex_json(s.esr_el1));
  o.set("far_el1", hex_json(s.far_el1));
  o.set("vbar_el1", hex_json(s.vbar_el1));
  o.set("sctlr_el1", hex_json(s.sctlr_el1));
  json::Value keys = json::Value::array();
  for (const FlightKey& k : s.keys) keys.push(key_json(k));
  o.set("keys", std::move(keys));
  json::Value bank = json::Value::array();
  for (const FlightKey& k : s.bank) bank.push(key_json(k));
  o.set("bank", std::move(bank));
  json::Value epoch = json::Value::object();
  epoch.set("s1_gen", json::Value(s.s1_gen));
  epoch.set("s2_gen", json::Value(s.s2_gen));
  o.set("mmu_epoch", std::move(epoch));
  o.set("pending_esr", hex_json(s.pending_esr));
  // Absent = core 0 (pre-SMP bundles stay byte-identical).
  if (s.cpu != 0) o.set("cpu", json::Value(static_cast<uint64_t>(s.cpu)));
  return o;
}

std::string flight_bundle_json(const FlightRecorder& rec,
                               const std::vector<AuditEvent>& audit,
                               const std::string& attack,
                               const std::string& config, uint64_t seed) {
  json::Value root = json::Value::object();
  root.set("schema", json::Value("camo-flight/v1"));
  json::Value scenario = json::Value::object();
  scenario.set("attack", json::Value(attack));
  scenario.set("config", json::Value(config));
  scenario.set("seed", hex_json(seed));
  root.set("scenario", std::move(scenario));
  root.set("captured", json::Value(rec.captured()));
  root.set("triggers", json::Value(rec.triggers()));
  if (rec.captured()) {
    root.set("trigger", trace_event_json(rec.trigger_event()));
    json::Value ring = json::Value::array();
    for (const FlightInsn& in : rec.ring()) {
      json::Value o = json::Value::object();
      o.set("cycles", hex_json(in.cycles));
      o.set("pc", hex_json(in.pc));
      o.set("op", json::Value(static_cast<uint64_t>(in.op)));
      o.set("el", json::Value(static_cast<uint64_t>(in.el)));
      ring.push(std::move(o));
    }
    root.set("ring", std::move(ring));
    root.set("state", flight_snapshot_json(rec.state()));
  }
  json::Value evs = json::Value::array();
  for (const AuditEvent& e : audit) evs.push(audit_event_json(e));
  root.set("audit", std::move(evs));
  // Causal chain of the terminal auth failure, precomputed so consumers
  // (and humans reading the bundle) do not need the matching rules.
  json::Value chain = json::Value::array();
  size_t fail = audit.size();
  for (size_t i = audit.size(); i-- > 0;) {
    if (audit[i].kind == EventKind::AuthFail) {
      fail = i;
      break;
    }
  }
  if (fail < audit.size()) {
    for (size_t idx : causal_chain(audit, fail))
      chain.push(json::Value(static_cast<uint64_t>(idx)));
  }
  root.set("chain", std::move(chain));
  return root.dump(2);
}

}  // namespace camo::obs
