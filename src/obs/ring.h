// Fixed-capacity trace ring buffer: the default TraceSink.
//
// Keeps the most recent `capacity` events; older events are overwritten and
// counted in dropped(). Iteration yields events oldest→newest, so a full
// boot-to-panic run reads as a timeline even after wraparound.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/trace.h"

namespace camo::obs {

class TraceRing : public TraceSink {
 public:
  explicit TraceRing(size_t capacity = 1 << 15)
      : capacity_(capacity == 0 ? 1 : capacity) {
    buf_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  }

  void emit(const TraceEvent& e) override {
    ++total_;
    if (buf_.size() < capacity_) {
      buf_.push_back(e);
      return;
    }
    buf_[head_] = e;
    if (++head_ == capacity_) head_ = 0;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  /// Total events ever emitted (including overwritten ones).
  uint64_t total() const { return total_; }
  /// Events lost to wraparound.
  uint64_t dropped() const { return total_ - buf_.size(); }

  /// i-th retained event, oldest first (0 <= i < size()).
  const TraceEvent& at(size_t i) const {
    return buf_[(head_ + i) % buf_.size()];
  }

  /// Snapshot in chronological order.
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(buf_.size());
    for (size_t i = 0; i < buf_.size(); ++i) out.push_back(at(i));
    return out;
  }

  template <typename Pred>
  uint64_t count_if(Pred pred) const {
    uint64_t n = 0;
    for (size_t i = 0; i < buf_.size(); ++i) n += pred(at(i)) ? 1 : 0;
    return n;
  }
  uint64_t count_kind(EventKind k) const {
    return count_if([k](const TraceEvent& e) { return e.kind == k; });
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    total_ = 0;
  }

 private:
  size_t capacity_;
  size_t head_ = 0;  ///< index of the oldest event once full
  uint64_t total_ = 0;
  std::vector<TraceEvent> buf_;
};

}  // namespace camo::obs
