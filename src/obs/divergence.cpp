#include "obs/divergence.h"

#include "support/format.h"

namespace camo::obs {

namespace {

json::Value side_json(const DivergenceSide& s) {
  json::Value o = json::Value::object();
  o.set("label", json::Value(s.label));
  o.set("digest", json::Value(hex_short(s.digest)));
  o.set("cycles", json::Value(hex_short(s.cycles)));
  o.set("retired", json::Value(hex_short(s.retired)));
  o.set("halted", json::Value(s.halted));
  o.set("state", flight_snapshot_json(s.state));
  json::Value ring = json::Value::array();
  for (const FlightInsn& in : s.ring) {
    json::Value e = json::Value::object();
    e.set("cycles", json::Value(hex_short(in.cycles)));
    e.set("pc", json::Value(hex_short(in.pc)));
    e.set("op", json::Value(static_cast<uint64_t>(in.op)));
    e.set("el", json::Value(static_cast<uint64_t>(in.el)));
    ring.push(std::move(e));
  }
  o.set("ring", std::move(ring));
  return o;
}

std::string validate_side(const json::Value* s, const char* name) {
  if (!s || !s->is_object()) return strformat("missing side %s", name);
  for (const char* f : {"label", "digest", "cycles", "retired", "state"})
    if (!s->get(f)) return strformat("side %s missing %s", name, f);
  const json::Value* halted = s->get("halted");
  if (!halted || !halted->is_bool())
    return strformat("side %s missing halted", name);
  const json::Value* ring = s->get("ring");
  if (!ring || !ring->is_array())
    return strformat("side %s missing ring", name);
  const json::Value* state = s->get("state");
  if (!state->is_object() || !state->get("x") || !state->get("pc"))
    return strformat("side %s state malformed", name);
  return "";
}

}  // namespace

std::string div_bundle_json(const DivergenceReport& r) {
  json::Value root = json::Value::object();
  root.set("schema", json::Value("camo-div/v1"));
  root.set("diverged", json::Value(r.diverged));
  root.set("first_divergent", json::Value(hex_short(r.first_divergent)));
  root.set("compared", json::Value(hex_short(r.compared)));
  root.set("digest_interval", json::Value(r.digest_interval));
  root.set("a", side_json(r.a));
  root.set("b", side_json(r.b));
  return root.dump(2);
}

std::string validate_div_bundle(const json::Value& v) {
  if (!v.is_object()) return "bundle is not an object";
  const json::Value* schema = v.get("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "camo-div/v1")
    return "schema is not camo-div/v1";
  const json::Value* diverged = v.get("diverged");
  if (!diverged || !diverged->is_bool()) return "missing diverged";
  for (const char* f : {"first_divergent", "compared", "digest_interval"})
    if (!v.get(f)) return strformat("missing %s", f);
  if (std::string err = validate_side(v.get("a"), "a"); !err.empty())
    return err;
  if (std::string err = validate_side(v.get("b"), "b"); !err.empty())
    return err;
  return "";
}

}  // namespace camo::obs
