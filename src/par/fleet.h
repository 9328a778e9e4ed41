// par::run_fleet — deterministic multi-machine execution (DESIGN.md §3d).
//
// A fleet is n fully independent, single-threaded kernel::Machine runs
// sharded across the pool. Determinism is by construction, not by luck:
//
//  * each task i owns its machine exclusively; machines share nothing
//    mutable (a kernel::ImageCache, if configured, hands out immutable
//    prepared images under its own lock), and every task boots its own
//    machine fresh — paged physical memory (DESIGN.md §3j) makes that cheap,
//    since a 64 MiB guest only backs the pages it writes,
//  * task i writes only slot i — results, registry snapshot, stored facts
//    and audit view, host counters are captured into the slot the moment the
//    task finishes and the machine is destroyed (a guest does not outlive
//    its run),
//  * after the pool drains, slots are merged in task-index order: result
//    vector, registry (counters add, histograms merge, gauges last-writer-
//    wins in index order), and the concatenated facts and audit views.
//
// Consequently FleetResult::results, the facts, and the merged registry's
// counters and histograms are bit-identical for any jobs value and any
// steal schedule. Gauges are the deliberate exception: their *names* are
// deterministic, but they carry host wall-clock readings (throughput), so
// their values vary run to run — like FleetStats (steals, imbalance),
// they are informational only and never regression-gated.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "kernel/machine.h"
#include "obs/audit.h"
#include "obs/coverage.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/pool.h"

namespace camo::par {

/// Host-side fleet telemetry. Everything here is scheduling- or wall-clock-
/// dependent except `machines` and `guest_instret`.
struct FleetStats {
  size_t machines = 0;
  unsigned jobs = 1;
  uint64_t steals = 0;        ///< pool steal operations during this fleet
  double imbalance = 0;       ///< max-over-mean per-worker task counts
  uint64_t guest_instret = 0; ///< total guest instructions (deterministic)
  double host_seconds = 0;    ///< summed per-machine CPU-loop wall clock
  /// Per-task host duration distribution in microseconds (DESIGN.md §3f).
  /// Host wall-clock, so informational like the rest of FleetStats — which
  /// is also why it lives here and not in the merged (deterministic)
  /// registry. Recorded in task-index order after the pool drains.
  obs::Histogram task_us;
  /// Aggregate guest instructions per summed host second (informational).
  double throughput() const {
    return host_seconds > 0
               ? static_cast<double>(guest_instret) / host_seconds
               : 0;
  }
};

template <class R>
struct FleetResult {
  std::vector<R> results;            ///< task-index order
  obs::Registry metrics;             ///< merged in task-index order
  std::vector<obs::Event> trace;  ///< facts concatenated in index order
  /// Audit views concatenated in task-index order; every event carries its
  /// machine id, so the merged stream is bit-identical for any jobs value
  /// while staying per-machine attributable.
  std::vector<obs::AuditEvent> audit;
  /// Per-machine coverage maps merged in task-index order (empty unless
  /// machines were configured with obs.coverage). Bit-identical for any
  /// jobs value: coverage is a pure function of each machine's retire
  /// stream and merge_from is applied in index order.
  obs::CoverageMap coverage;
  FleetStats stats;
};

/// Run an n-machine fleet on `pool`. `factory(i)` builds machine i
/// (configured, user programs added, NOT booted). `task(i, Machine&)` boots,
/// drives and measures it, returning the per-machine result. After the task
/// returns, the machine's registry, facts, audit view and host counters are
/// snapshotted into slot i and the machine is destroyed.
template <class Factory, class Task>
auto run_fleet(Pool& pool, size_t n, Factory&& factory, Task&& task)
    -> FleetResult<decltype(task(size_t{0},
                                 std::declval<kernel::Machine&>()))> {
  using R = decltype(task(size_t{0}, std::declval<kernel::Machine&>()));
  struct Slot {
    R result{};
    obs::Registry reg;
    std::vector<obs::Event> trace;
    std::vector<obs::AuditEvent> audit;
    obs::CoverageMap coverage;
    bool has_coverage = false;
    uint64_t instret = 0;
    double host_seconds = 0;
    double throughput = 0;
    bool observed = false;
  };
  std::vector<Slot> slots(n);
  const Pool::Stats before = pool.stats();

  pool.for_each_index(n, [&](size_t i) {
    std::unique_ptr<kernel::Machine> m = factory(i);
    Slot& s = slots[i];
    s.result = task(i, *m);
    s.instret = m->total_retired();
    s.host_seconds = m->host_seconds();
    s.throughput = m->host_throughput();
    if (const obs::Collector* st = m->stats()) {
      s.reg = st->metrics();
      s.trace = st->events().snapshot();
      s.audit = st->audit_events();
      if (st->options().coverage) {
        s.coverage = st->coverage().snapshot();
        s.has_coverage = true;
      }
      s.observed = true;
    }
  });

  const Pool::Stats after = pool.stats();
  FleetResult<R> out;
  out.results.reserve(n);
  for (Slot& s : slots) {
    out.results.push_back(std::move(s.result));
    if (s.observed) {
      out.metrics.merge_from(s.reg);
      out.trace.insert(out.trace.end(), s.trace.begin(), s.trace.end());
      out.audit.insert(out.audit.end(), s.audit.begin(), s.audit.end());
      if (s.has_coverage) out.coverage.merge_from(s.coverage);
    }
    out.stats.guest_instret += s.instret;
    out.stats.host_seconds += s.host_seconds;
    out.stats.task_us.record(static_cast<uint64_t>(s.host_seconds * 1e6));
  }
  out.stats.machines = n;
  out.stats.jobs = pool.jobs();
  out.stats.steals = after.steals - before.steals;
  Pool::Stats delta = after;  // this fleet's share of the pool counters
  for (size_t w = 0; w < delta.executed.size(); ++w)
    delta.executed[w] -= before.executed[w];
  out.stats.imbalance = delta.imbalance();
  // The fleet-wide aggregate; per-machine gauges keep their namespaced
  // "host.throughput.m<id>" entries from the merge above.
  if (out.stats.host_seconds > 0)
    out.metrics.gauge("host.throughput").set(out.stats.throughput());
  return out;
}

}  // namespace camo::par
