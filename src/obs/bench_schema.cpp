#include "obs/bench_schema.h"

#include <fstream>
#include <iterator>

namespace camo::obs {

std::string validate_bench_json(const json::Value& doc) {
  if (!doc.is_object()) return "document is not a JSON object";
  const auto* schema = doc.get("schema");
  if (!schema || !schema->is_string() || schema->as_string() != kBenchSchemaId)
    return std::string("missing or wrong \"schema\" (want \"") +
           kBenchSchemaId + "\")";
  for (const char* key : {"bench", "title"}) {
    const auto* v = doc.get(key);
    if (!v || !v->is_string() || v->as_string().empty())
      return std::string("missing string field \"") + key + "\"";
  }
  const auto* smoke = doc.get("smoke");
  if (!smoke || !smoke->is_bool()) return "missing bool field \"smoke\"";
  const auto* seed = doc.get("seed");
  if (seed && !seed->is_number()) return "\"seed\" is not a number";
  const auto* jobs = doc.get("jobs");
  if (jobs && (!jobs->is_number() || jobs->as_number() < 1))
    return "\"jobs\" is not a number >= 1";
  const auto* cores = doc.get("cores");
  if (cores && (!cores->is_number() || cores->as_number() < 1))
    return "\"cores\" is not a number >= 1";
  const auto* engine = doc.get("engine");
  if (!engine || !engine->is_string() ||
      !cpu::parse_engine(engine->as_string()))
    return "missing \"engine\" or not one of reference|fast|block|trace";
  const auto* series = doc.get("series");
  if (!series || !series->is_array()) return "missing \"series\" array";
  if (series->size() == 0) return "empty series";
  for (size_t i = 0; i < series->size(); ++i) {
    const auto* p = series->at(i);
    const std::string at = "series[" + std::to_string(i) + "]";
    if (!p->is_object()) return at + " is not an object";
    for (const char* key : {"config", "benchmark", "unit"}) {
      const auto* v = p->get(key);
      if (!v || !v->is_string())
        return at + " missing string field \"" + key + "\"";
    }
    const auto* value = p->get("value");
    if (!value || !value->is_number())
      return at + " missing number field \"value\"";
    const auto* rel = p->get("relative");
    if (rel && !rel->is_number()) return at + " \"relative\" is not a number";
  }
  return "";
}

std::optional<BenchDoc> parse_bench_doc(const json::Value& doc,
                                        std::string* error) {
  const std::string err = validate_bench_json(doc);
  if (!err.empty()) {
    if (error) *error = err;
    return std::nullopt;
  }
  BenchDoc out;
  out.bench = doc.get("bench")->as_string();
  out.title = doc.get("title")->as_string();
  out.smoke = doc.get("smoke")->as_bool();
  if (const auto* seed = doc.get("seed"))
    out.seed = static_cast<uint64_t>(seed->as_number());
  if (const auto* jobs = doc.get("jobs"))
    out.jobs = static_cast<unsigned>(jobs->as_number());
  if (const auto* cores = doc.get("cores"))
    out.cores = static_cast<unsigned>(cores->as_number());
  out.engine = *cpu::parse_engine(doc.get("engine")->as_string());
  const json::Value& series = *doc.get("series");
  out.series.reserve(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    const json::Value& p = *series.at(i);
    BenchSeriesPoint pt;
    pt.config = p.get("config")->as_string();
    pt.benchmark = p.get("benchmark")->as_string();
    pt.value = p.get("value")->as_number();
    pt.unit = p.get("unit")->as_string();
    if (const auto* rel = p.get("relative")) pt.relative = rel->as_number();
    out.series.push_back(std::move(pt));
  }
  return out;
}

std::optional<BenchDoc> load_bench_file(const std::string& path,
                                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto parsed = json::Value::parse(text);
  if (!parsed) {
    if (error) *error = path + " is not valid JSON";
    return std::nullopt;
  }
  std::string err;
  auto doc = parse_bench_doc(*parsed, &err);
  if (!doc && error) *error = path + ": " + err;
  return doc;
}

}  // namespace camo::obs
