// In-memory span recorder for the benchmark's traced runs.
//
// A span records name, start, end, parent and unit id around one call into
// a layer of the simulator. Spans are kept in memory and written out when
// the run ends; nothing is recorded while tracing is off, so the untraced
// run pays one branch per would-be span.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a fixed process-wide origin.
inline double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
  int64_t unit = -1;   ///< benchmark unit the span belongs to, -1 if none
};

class Tracer {
 public:
  void enable(bool on) { on_ = on; }

  /// Opens a span on the calling thread; returns its index (-1 when off).
  /// `parent` overrides the thread's current span (spans that a worker
  /// thread opens under a span of the submitting thread).
  int open(std::string name, int64_t unit = -1, int parent = kInherit) {
    if (!on_) return -1;
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start = t;
    s.parent = parent == kInherit ? current_ : parent;
    s.unit = unit;
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = t;
    current_ = spans_[id].parent;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  static constexpr int kInherit = -2;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  static thread_local int current_;
};

inline thread_local int Tracer::current_ = -1;

/// Process-wide tracer used by every workload.
inline Tracer& tracer() {
  static Tracer t;
  return t;
}

/// RAII span.
class Scope {
 public:
  explicit Scope(std::string name, int64_t unit = -1,
                 int parent = Tracer::kInherit)
      : id_(tracer().open(std::move(name), unit, parent)) {}
  ~Scope() { tracer().close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

/// True for a span around a call into a layer of the simulator (its name
/// starts with the layer: kernel., core., cpu., obs., par. or attacks.), as
/// opposed to a span the benchmark opens for its own bookkeeping.
inline bool is_layer_span(const std::string& name) {
  for (const char* layer :
       {"kernel.", "core.", "cpu.", "obs.", "par.", "attacks."})
    if (name.rfind(layer, 0) == 0) return true;
  return false;
}

/// Total length of the union of [start, end) intervals, clipped to [lo, hi).
inline double covered(std::vector<std::pair<double, double>> iv, double lo,
                      double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Per-name totals over a span list: call count, total time, and self time
/// (span time minus the time its child spans cover).
struct LayerTime {
  uint64_t calls = 0;
  double total_s = 0;
  double self_s = 0;
  std::vector<double> each_s;
};

inline std::map<std::string, LayerTime> layer_times(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start, s.end);
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTime& l = out[s.name];
    const double d = s.end - s.start;
    ++l.calls;
    l.total_s += d;
    l.self_s += d - covered(kids[i], s.start, s.end);
    l.each_s.push_back(d);
  }
  return out;
}

/// Writes spans as a JSON array (one object per span) to `path`.
inline bool write_spans(const std::vector<Span>& spans,
                        const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"unit\":%lld}%s\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<long long>(s.unit),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
