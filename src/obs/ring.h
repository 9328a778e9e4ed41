// Fixed-capacity event rings: the Collector's trace ring and, in
// obs/audit.h, its audit log.
//
// A ring keeps the most recent `capacity` records; older records are
// overwritten and counted in dropped(). Iteration yields records
// oldest→newest, so a full boot-to-panic run reads as a timeline even after
// wraparound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace camo::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
    buf_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  }

  /// Append `e`, overwriting the oldest record once full; returns the
  /// stored copy.
  T& push(const T& e) {
    ++total_;
    if (buf_.size() < capacity_) return buf_.emplace_back(e);
    T& slot = buf_[head_];
    slot = e;
    if (++head_ == capacity_) head_ = 0;
    return slot;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  /// Total records ever pushed (including overwritten ones).
  uint64_t total() const { return total_; }
  /// Records lost to wraparound.
  uint64_t dropped() const { return total_ - buf_.size(); }

  /// i-th retained record, oldest first (0 <= i < size()).
  const T& at(size_t i) const { return buf_[(head_ + i) % buf_.size()]; }

  /// Snapshot in chronological order.
  std::vector<T> snapshot() const {
    std::vector<T> out;
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
  template <typename Kind>
  uint64_t count_kind(Kind k) const {
    return count_if([k](const T& e) { return e.kind == k; });
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    total_ = 0;
  }

 private:
  size_t capacity_;
  size_t head_ = 0;  ///< index of the oldest record once full
  uint64_t total_ = 0;
  std::vector<T> buf_;
};

class TraceRing : public Ring<TraceEvent> {
 public:
  explicit TraceRing(size_t capacity = 1 << 15) : Ring(capacity) {}
};

}  // namespace camo::obs
