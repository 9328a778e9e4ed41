// Shared immutable kernel-image cache (DESIGN.md §3d).
//
// Booting a Machine spends most of its serial time in Bootloader::prepare():
// emitting the kernel program, synthesizing the XOM key setter, running the
// instrumentation passes, linking and statically verifying the image. In a
// fleet every machine with the same configuration repeats that work on
// byte-identical inputs; this cache does it once per configuration and
// hands every subsequent machine the same immutable core::PreparedKernel,
// which the machine installs from and keeps without copying — which is
// what keeps machine boot off the fleet's serial fraction (Amdahl's law
// does the rest).
//
// Invalidation rules: there is no invalidation — entries are immutable and
// keyed by every input of prepare(): the KernelConfig (protection scheme,
// failure threshold, logging, preemption, trapframe signing, banked keys),
// the boot seed (the PAuth keys are *embedded in the key-setter text*, so
// a different seed is a different image), and the full task table (task
// specs, including per-task EL0 keys, are baked into kernel data). Change
// any of these and the key changes; a stale hit is impossible by
// construction. The cache is thread-safe; get() may build under the lock,
// serializing concurrent first-boots of *different* configurations — that
// cost is one prepare() at fleet start, irrelevant next to the runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bootloader.h"
#include "kernel/kernel_builder.h"

namespace camo::kernel {

class ImageCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// Get-or-build the prepared kernel for `key`. `build` runs at most once
  /// per key for the cache's lifetime. Thread-safe.
  std::shared_ptr<const core::PreparedKernel> get(
      const std::string& key,
      const std::function<core::PreparedKernel()>& build);

  /// Cache key covering every prepare() input that can vary between
  /// machines: kernel configuration, boot seed and the task table.
  static std::string key_for(const KernelConfig& cfg, uint64_t seed,
                             const std::vector<TaskSpec>& tasks);

  Stats stats() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const core::PreparedKernel>>
      entries_;
  Stats stats_;
};

}  // namespace camo::kernel
