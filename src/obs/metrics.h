// Metrics registry: named monotonic counters, cycle histograms, and gauges.
//
// Counters only ever increase (there is deliberately no decrement or reset —
// regression gating depends on monotonicity within a run). Histograms bucket
// values by floor(log2) with exact count/sum/min/max, which is enough to
// track syscall-latency distributions (Fig. 3) without storing samples.
// Gauges are settable point-in-time doubles for host-side measurements that
// are not monotonic in simulated work — e.g. guest-instructions-per-host-
// second throughput; they are informational, never regression-gated.
//
// References returned by Registry::counter()/histogram()/gauge() are stable
// for the registry's lifetime, so hot emission paths can resolve a name once.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace camo::obs {

class Counter {
 public:
  void inc(uint64_t delta = 1) { value_ += delta; }
  /// Publish a running total kept elsewhere: add what it grew by since the
  /// last publish (never lowers the value).
  void raise_to(uint64_t total) {
    if (total > value_) value_ = total;
  }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Histogram {
 public:
  static constexpr unsigned kBuckets = 64;

  void record(uint64_t v) {
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
    ++buckets_[bucket_index(v)];
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }
  /// Samples in [2^i, 2^(i+1)) (bucket 0 also holds v == 0).
  uint64_t bucket(unsigned i) const { return i < kBuckets ? buckets_[i] : 0; }

  static unsigned bucket_index(uint64_t v) {
    unsigned i = 0;
    while (v > 1) {
      v >>= 1;
      ++i;
    }
    return i;
  }

  /// Approximate quantile (q in [0,1]) from the log2 buckets: find the
  /// bucket holding the q-th sample and interpolate linearly inside its
  /// value range ([2^i, 2^(i+1)); bucket 0 covers [0,2)), then clamp to the
  /// exact [min,max] envelope. Error is bounded by the bucket width, which
  /// is what a log-bucketed histogram promises; the result is deterministic
  /// and merge-order independent because the buckets are.
  double quantile(double q) const {
    if (count_ == 0) return 0;
    if (q <= 0) return static_cast<double>(min_);
    if (q >= 1) return static_cast<double>(max_);
    // Rank of the target sample (1-based, "nearest-rank" rounded up).
    const uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5) < 1
            ? 1
            : static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5);
    uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (seen + buckets_[i] < rank) {
        seen += buckets_[i];
        continue;
      }
      const double lo = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << i);
      const double hi = static_cast<double>(
          i >= 63 ? static_cast<double>(uint64_t{1} << 63) * 2.0
                  : static_cast<double>(uint64_t{1} << (i + 1)));
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(buckets_[i]);
      double v = lo + (hi - lo) * frac;
      if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
      if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
      return v;
    }
    return static_cast<double>(max_);
  }
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Fold another histogram in (fleet merge): counts, sums and buckets add;
  /// min/max combine. Merging is commutative, so the result is independent
  /// of worker scheduling — fleets still merge in task-index order for the
  /// gauges' sake.
  void merge(const Histogram& other) {
    if (other.count_ == 0) return;
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
    for (unsigned i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

 private:
  uint64_t count_ = 0, sum_ = 0, min_ = 0, max_ = 0;
  uint64_t buckets_[kBuckets] = {};
};

/// A point-in-time measurement. Unlike Counter it may move in either
/// direction; host wall-clock derived values (throughput) live here.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

class Registry {
 public:
  /// Get-or-create. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }

  /// Query without creating: 0 / empty histogram stats for unknown names.
  uint64_t value(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }
  bool has_counter(const std::string& name) const {
    return counters_.count(name) != 0;
  }
  const Histogram* find_histogram(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }
  const Gauge* find_gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
  }

  /// Name-sorted views (std::map iteration order).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }

  /// Fold another registry in: counters add, histograms merge, gauges are
  /// overwritten last-writer-wins. Fleets merge per-machine registries in
  /// task-index order, so for gauges "last" is a deterministic machine (the
  /// highest-index one publishing that name), never a steal-schedule
  /// artifact; per-machine gauge names ("host.throughput.m<id>") cannot
  /// collide at all.
  void merge_from(const Registry& other);

  /// Human-readable dump (one metric per line).
  std::string render_text() const;
  /// JSON object: {"counters": {...}, "histograms": {name: {count,sum,...}},
  /// "gauges": {...}} — the "gauges" key is omitted when no gauge exists,
  /// keeping pre-gauge consumers byte-compatible.
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Gauge> gauges_;
};

}  // namespace camo::obs
