#include "obs/coverage.h"

#include <algorithm>

#include "obs/flight.h"
#include "support/format.h"

namespace camo::obs {

void CoverageMap::merge_from(const CoverageMap& o) {
  flush();
  for (const auto& [pa, b] : o.blocks_) {
    BlockCov& dst = blocks_[pa];
    dst.hits += b.hits;
    if (b.max_len > dst.max_len) dst.max_len = b.max_len;
  }
  for (const auto& [edge, hits] : o.edges_) edges_[edge] += hits;
  for (size_t i = 0; i < kEls; ++i) retired_el_[i] += o.retired_el_[i];
  for (const CovRegion& r : o.regions_) {
    bool have = false;
    for (const CovRegion& mine : regions_)
      if (mine.name == r.name && mine.pa == r.pa) {
        have = true;
        break;
      }
    if (!have) regions_.push_back(r);
  }
}

bool CoverageMap::any_executed(uint64_t pa, uint64_t len) const {
  const uint64_t end = pa + len;
  // Blocks whose start is below `end`; walk backwards until a block cannot
  // reach [pa, end) any more. max_len is bounded, so scanning back to the
  // first block with start+4*max_len <= pa would need a global bound; the
  // map is small (report-time only), so scan all candidates below end.
  for (auto it = blocks_.upper_bound(end - 1); it != blocks_.begin();) {
    --it;
    const uint64_t b_end = it->first + 4 * it->second.max_len;
    if (b_end > pa) return true;
  }
  return false;
}

namespace {

std::vector<CovRegion> sorted_regions(const CoverageMap& m) {
  std::vector<CovRegion> rs = m.regions();
  std::sort(rs.begin(), rs.end(), [](const CovRegion& a, const CovRegion& b) {
    if (a.table != b.table) return a.table < b.table;
    if (a.row != b.row) return a.row < b.row;
    if (a.name != b.name) return a.name < b.name;
    return a.pa < b.pa;
  });
  return rs;
}

}  // namespace

std::string cov_bundle_json(const CoverageMap& map, const std::string& label,
                            uint64_t machines) {
  const CoverageMap m = map.snapshot();
  json::Value root = json::Value::object();
  root.set("schema", json::Value("camo-cov/v1"));
  root.set("label", json::Value(label));
  root.set("machines", json::Value(machines));
  json::Value retired = json::Value::object();
  retired.set("el0", hex_json(m.retired_at(0)));
  retired.set("el1", hex_json(m.retired_at(1)));
  retired.set("el2", hex_json(m.retired_at(2)));
  root.set("retired", std::move(retired));
  json::Value blocks = json::Value::array();
  for (const auto& [pa, b] : m.blocks()) {
    json::Value o = json::Value::object();
    o.set("pa", hex_json(pa));
    o.set("hits", hex_json(b.hits));
    o.set("len", json::Value(b.max_len));
    blocks.push(std::move(o));
  }
  root.set("blocks", std::move(blocks));
  json::Value edges = json::Value::array();
  for (const auto& [edge, hits] : m.edges()) {
    json::Value o = json::Value::object();
    o.set("from", hex_json(edge.first));
    o.set("to", hex_json(edge.second));
    o.set("hits", hex_json(hits));
    edges.push(std::move(o));
  }
  root.set("edges", std::move(edges));
  json::Value regions = json::Value::array();
  for (const CovRegion& r : sorted_regions(m)) {
    json::Value o = json::Value::object();
    o.set("name", json::Value(r.name));
    o.set("pa", hex_json(r.pa));
    o.set("len", json::Value(r.len));
    o.set("table", json::Value(r.table));
    o.set("row", json::Value(static_cast<uint64_t>(
                     r.row < 0 ? 0xFFFFFFFFu : static_cast<uint32_t>(r.row))));
    regions.push(std::move(o));
  }
  root.set("regions", std::move(regions));
  return root.dump(2);
}

namespace {

// A hex_short string (or an integral number) for 64-bit fields; a plain
// non-negative integer for the small ones.
bool is_hex(const json::Value* v) { return v && parse_hex_u64(*v); }
bool is_count(const json::Value* v) {
  return v && v->is_number() && parse_hex_u64(*v);
}
bool is_string(const json::Value* v) { return v && v->is_string(); }
uint64_t hex_field(const json::Value& o, const char* name) {
  return *parse_hex_u64(*o.get(name));  // checked by validate_cov_bundle
}

}  // namespace

std::string validate_cov_bundle(const json::Value& v) {
  if (!v.is_object()) return "bundle is not an object";
  const json::Value* schema = v.get("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "camo-cov/v1")
    return "schema is not camo-cov/v1";
  if (!is_string(v.get("label"))) return "missing label";
  if (!is_count(v.get("machines"))) return "missing machines";
  const json::Value* retired = v.get("retired");
  if (!retired || !retired->is_object()) return "missing retired";
  for (const char* el : {"el0", "el1", "el2"})
    if (!is_hex(retired->get(el)))
      return strformat("retired %s missing or malformed", el);
  const json::Value* blocks = v.get("blocks");
  if (!blocks || !blocks->is_array()) return "missing blocks array";
  uint64_t prev_pa = 0;
  bool first = true;
  for (size_t i = 0; i < blocks->size(); ++i) {
    const json::Value& b = *blocks->at(i);
    if (!is_hex(b.get("pa")) || !is_hex(b.get("hits")) ||
        !is_count(b.get("len")))
      return strformat("block %zu malformed", i);
    const uint64_t pa = hex_field(b, "pa");
    if (!first && pa <= prev_pa) return "blocks not sorted by pa";
    prev_pa = pa;
    first = false;
  }
  const json::Value* edges = v.get("edges");
  if (!edges || !edges->is_array()) return "missing edges array";
  for (size_t i = 0; i < edges->size(); ++i) {
    const json::Value& e = *edges->at(i);
    if (!is_hex(e.get("from")) || !is_hex(e.get("to")) ||
        !is_hex(e.get("hits")))
      return strformat("edge %zu malformed", i);
  }
  const json::Value* regions = v.get("regions");
  if (!regions || !regions->is_array()) return "missing regions array";
  for (size_t i = 0; i < regions->size(); ++i) {
    const json::Value& r = *regions->at(i);
    if (!is_string(r.get("name")) || !is_hex(r.get("pa")) ||
        !is_count(r.get("len")) || !is_string(r.get("table")) ||
        !is_count(r.get("row")) || r.get("row")->as_number() > 0xFFFFFFFFu)
      return strformat("region %zu malformed", i);
  }
  return "";
}

bool cov_bundle_from_json(const json::Value& v, CovBundle* out) {
  if (!out || !validate_cov_bundle(v).empty()) return false;
  out->label = v.get("label")->as_string();
  out->machines = static_cast<uint64_t>(v.get("machines")->as_number());
  CoverageMap m;
  const json::Value* retired = v.get("retired");
  m.retired_el_[0] = hex_field(*retired, "el0");
  m.retired_el_[1] = hex_field(*retired, "el1");
  m.retired_el_[2] = hex_field(*retired, "el2");
  const json::Value* blocks = v.get("blocks");
  for (size_t i = 0; i < blocks->size(); ++i) {
    const json::Value& b = *blocks->at(i);
    BlockCov& dst = m.blocks_[hex_field(b, "pa")];
    dst.hits = hex_field(b, "hits");
    dst.max_len = static_cast<uint64_t>(b.get("len")->as_number());
  }
  const json::Value* edges = v.get("edges");
  for (size_t i = 0; i < edges->size(); ++i) {
    const json::Value& e = *edges->at(i);
    m.edges_[{hex_field(e, "from"), hex_field(e, "to")}] =
        hex_field(e, "hits");
  }
  const json::Value* regions = v.get("regions");
  for (size_t i = 0; i < regions->size(); ++i) {
    const json::Value& r = *regions->at(i);
    CovRegion reg;
    reg.name = r.get("name")->as_string();
    reg.pa = hex_field(r, "pa");
    reg.len = static_cast<uint64_t>(r.get("len")->as_number());
    reg.table = r.get("table")->as_string();
    const uint32_t row = static_cast<uint32_t>(r.get("row")->as_number());
    reg.row = row == 0xFFFFFFFFu ? -1 : static_cast<int>(row);
    m.regions_.push_back(std::move(reg));
  }
  out->map = std::move(m);
  return true;
}

CovDiff diff_coverage(const CoverageMap& a, const CoverageMap& b) {
  const CoverageMap sa = a.snapshot();
  const CoverageMap sb = b.snapshot();
  CovDiff d;
  for (const auto& [pa, blk] : sa.blocks()) {
    (void)blk;
    if (sb.blocks().count(pa))
      ++d.common;
    else
      d.only_a.push_back(pa);
  }
  for (const auto& [pa, blk] : sb.blocks()) {
    (void)blk;
    if (!sa.blocks().count(pa)) d.only_b.push_back(pa);
  }
  return d;
}

}  // namespace camo::obs
