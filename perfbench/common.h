// Shared pieces of the benchmark driver: options, the seeded generator,
// the result of one timed pass, and the workload interface.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiler/instrument.h"
#include "cpu/cpu.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test size: a few units per workload, for the benchmark's tests.
  bool tiny = false;
  /// Negative test: corrupt one expectation ("verdict" or "halt") so the
  /// output checks must count a failure.
  std::string break_check;
  /// Directory the traced run writes its spans to.
  std::string out_dir = ".";
};

/// SplitMix64: the same sequence from the same seed on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Arithmetic mean; 0 for an empty sample.
inline double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// What one timed pass of a workload produced.
struct Pass {
  double begin_s = 0;  ///< now_s() at the start of the timed part
  double end_s = 0;
  std::vector<double> unit_ms;  ///< host time per unit
  uint64_t attempted = 0;       ///< units attempted
  uint64_t failed = 0;          ///< units whose output check failed
  std::vector<std::string> errors;  ///< first few failure messages
  /// Simulated outcome of every unit in order (guest instructions, cycles,
  /// verdicts): the traced pass must reproduce it exactly.
  std::vector<uint64_t> fingerprint;
  /// Per-layer values measured directly by the pass (counts, ratios).
  std::map<std::string, double> layer;

  double wall_s() const { return end_s - begin_s; }
  void fail(const std::string& msg) {
    ++failed;
    if (errors.size() < 8) errors.push_back(msg);
  }
};

/// Superblock-engine counters summed over machines (Cpu::superblock_stats()),
/// published as the cpu.* ratio metrics. A dispatch is a cache hit, a chain
/// hit or a block build.
struct EngineTotals {
  uint64_t hits = 0, chain_hits = 0, builds = 0, trace_hits = 0,
           guard_exits = 0;

  void add(const camo::cpu::SuperblockStats& sb) {
    hits += sb.hits;
    chain_hits += sb.chain_hits;
    builds += sb.blocks;
    trace_hits += sb.trace_hits;
    guard_exits += sb.trace_guard_exits;
  }
  void add(const EngineTotals& o) {
    hits += o.hits;
    chain_hits += o.chain_hits;
    builds += o.builds;
    trace_hits += o.trace_hits;
    guard_exits += o.guard_exits;
  }
  void publish(std::map<std::string, double>& layer) const {
    const double dispatches = static_cast<double>(hits + chain_hits + builds);
    layer["cpu.sb_hit_ratio"] = (hits + chain_hits) / dispatches;
    layer["cpu.trace_hit_ratio"] = trace_hits / dispatches;
    layer["cpu.trace_guard_exit_ratio"] =
        trace_hits ? static_cast<double>(guard_exits) / trace_hits : 0;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One repetition of the one-time work before the first timed unit. Each
  /// call replaces the product of the previous one.
  virtual void setup() = 0;
  /// The timed part.
  virtual Pass run() = 0;
  /// Traced runs only, after the timed part: extra per-layer measurements
  /// that need calls the timed part does not make, written to `traced.layer`.
  /// The outputs they check are counted in `traced` like the units'.
  virtual void probe(Pass& traced) { (void)traced; }
};

std::unique_ptr<Workload> make_attack_sweep(const Options& o);
std::unique_ptr<Workload> make_observed_fleet(const Options& o);

/// Index of a protection preset in attacks::attack_config_names() (none,
/// backward, full).
size_t preset_index(const std::string& config);

/// KernelBuilder::build + Bootloader::prepare for one protection preset:
/// the kernel image preparation every cold boot performs, in a
/// "core.prepare" span.
void prepare_kernel(const camo::compiler::ProtectionConfig& prot,
                    uint64_t seed);

}  // namespace perfbench
