// RegionIndex: a sorted map from guest VA ranges to symbol names, used by
// the call-graph profiler (obs/callgraph.h). Regions must not overlap.
// Register every region before profiling starts: add() keeps the vector
// sorted, so a late insertion shifts the indices of the regions sorted after
// it (the profiler keys its counters by index).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace camo::obs {

class RegionIndex {
 public:
  struct Region {
    std::string name;
    uint64_t start = 0;  ///< first VA covered
    uint64_t end = 0;    ///< one past the last VA covered
  };

  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Insert [start, end) under `name`; returns the index it now occupies,
  /// or kNone for an empty range (which is ignored).
  size_t add(std::string name, uint64_t start, uint64_t end) {
    if (end <= start) return kNone;
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), start,
        [](uint64_t v, const Region& r) { return v < r.start; });
    it = regions_.insert(it, Region{std::move(name), start, end});
    return static_cast<size_t>(it - regions_.begin());
  }

  /// Index of the region containing pc, or kNone.
  size_t find(uint64_t pc) const {
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), pc,
        [](uint64_t v, const Region& r) { return v < r.start; });
    if (it == regions_.begin()) return kNone;
    --it;
    return pc < it->end ? static_cast<size_t>(it - regions_.begin()) : kNone;
  }

  const Region& operator[](size_t i) const { return regions_[i]; }
  size_t size() const { return regions_.size(); }

 private:
  std::vector<Region> regions_;  ///< sorted by start
};

}  // namespace camo::obs
