// The Collector's event ring: every reported fact, stored once.
//
// The ring keeps the most recent `capacity` facts; older ones are
// overwritten and counted in dropped(). Iteration yields facts
// oldest→newest, so a full boot-to-panic run reads as a timeline even after
// wraparound. The trace and audit views are derived from what it holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace camo::obs {

class Ring {
 public:
  explicit Ring(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
    buf_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  }

  /// Append `e`, overwriting the oldest fact once full.
  void push(const Event& e) {
    ++total_;
    if (buf_.size() < capacity_) {
      buf_.push_back(e);
      return;
    }
    buf_[head_] = e;
    if (++head_ == capacity_) head_ = 0;
  }

  size_t size() const { return buf_.size(); }
  /// Total facts ever pushed (including overwritten ones).
  uint64_t total() const { return total_; }
  /// Facts lost to wraparound.
  uint64_t dropped() const { return total_ - buf_.size(); }

  /// i-th retained fact, oldest first (0 <= i < size()).
  const Event& at(size_t i) const {
    const size_t j = head_ + i;
    return buf_[j < buf_.size() ? j : j - buf_.size()];
  }

  /// Snapshot in chronological order.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(buf_.size());
    out.insert(out.end(), buf_.begin() + head_, buf_.end());
    out.insert(out.end(), buf_.begin(), buf_.begin() + head_);
    return out;
  }

  /// Retained facts of kind `k`.
  uint64_t count_kind(EventKind k) const {
    uint64_t n = 0;
    for (const Event& e : buf_) n += e.kind == k ? 1 : 0;
    return n;
  }

 private:
  size_t capacity_;
  size_t head_ = 0;  ///< index of the oldest fact once full
  uint64_t total_ = 0;
  std::vector<Event> buf_;
};

}  // namespace camo::obs
