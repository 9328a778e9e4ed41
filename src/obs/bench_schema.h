// The camo-bench/v1 document schema, shared by the producers (bench::Session
// in bench/bench_util.h) and the consumers (tools/camo-perfdiff, tests).
//
// A document is one bench binary's emitted series:
//   {
//     "schema": "camo-bench/v1",
//     "bench": "Figure 3", "title": "...", "smoke": true,
//     "seed": 12648430,                    // optional, runs that use RNG
//     "jobs": 8,                           // optional, absent means 1:
//                                          // host threads the run sharded
//                                          // across (--jobs); wall-clock
//                                          // series are not comparable
//                                          // across different jobs values
//     "cores": 2,                          // optional, absent means 1:
//                                          // guest cores per machine
//                                          // (--cores); changes simulated
//                                          // results, so documents with
//                                          // different cores are never
//                                          // comparable
//     "engine": "trace",                   // host engine tier the session
//                                          // ran at (--engine: reference,
//                                          // fast, block or trace);
//                                          // host-side only, simulated
//                                          // cycles are tier-independent,
//                                          // but host series are not, so
//                                          // documents with different
//                                          // engines are never compared
//     "series": [ {"config": "full", "benchmark": "null syscall",
//                  "value": 1234.5, "unit": "cycles/op",
//                  "relative": 1.31},  ... ]
//   }
// Documents recorded before "engine" existed carry the legacy booleans
// instead, and parse as the tier they ran: "sb": false (the superblock
// engine was off, absent means on) is fast; otherwise "trace": true is trace
// and an absent "trace" is block, which is what runs predating the trace
// tier executed.
//
// Validation lives here so a bench that emits a malformed document and a
// perfdiff run over a corrupt baseline fail with the same message.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cpu/engine.h"
#include "obs/json.h"

namespace camo::obs {

inline constexpr const char* kBenchSchemaId = "camo-bench/v1";

struct BenchSeriesPoint {
  std::string config;     ///< protection/config axis ("none", "full", ...)
  std::string benchmark;  ///< benchmark axis ("null syscall", ...)
  double value = 0;
  std::string unit;  ///< "cycles", "ns", "cycles/op", "ratio", ...
  std::optional<double> relative;  ///< vs the baseline config, when meaningful
};

struct BenchDoc {
  std::string bench;  ///< bench id ("Figure 3", "Section 5.4", ...)
  std::string title;
  bool smoke = false;
  std::optional<uint64_t> seed;  ///< RNG seed the run used, when recorded
  unsigned jobs = 1;             ///< host threads of the run (absent = 1)
  unsigned cores = 1;            ///< guest cores per machine (absent = 1)
  /// Host engine tier of the run (legacy documents: derived, see above).
  cpu::Engine engine = cpu::Engine::Trace;
  std::vector<BenchSeriesPoint> series;
};

/// Validate a parsed document against the camo-bench/v1 schema. Returns an
/// empty string when valid, else a description of the problem.
std::string validate_bench_json(const json::Value& doc);

/// Validate + destructure. On failure returns nullopt and, when `error` is
/// non-null, stores the validation message.
std::optional<BenchDoc> parse_bench_doc(const json::Value& doc,
                                        std::string* error = nullptr);

/// Read, parse and validate a camo-bench/v1 file.
std::optional<BenchDoc> load_bench_file(const std::string& path,
                                        std::string* error = nullptr);

}  // namespace camo::obs
