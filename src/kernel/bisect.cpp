#include "kernel/bisect.h"

#include <algorithm>
#include <memory>

#include "obs/digest.h"

namespace camo::kernel {

namespace {

std::unique_ptr<Machine> build(const BisectSide& side,
                               const std::shared_ptr<ImageCache>& cache,
                               size_t ring_capacity) {
  MachineConfig cfg = side.cfg;
  // Observability on: probes need the flight ring for the final report and
  // attaching sinks never changes simulated state. The call-graph profiler
  // (and so the flat profile) is dead weight here, so it stays off
  // regardless of the caller's settings.
  cfg.obs.enabled = true;
  cfg.obs.flight_capacity = ring_capacity;
  cfg.obs.callgraph = false;
  if (!cfg.image_cache) cfg.image_cache = cache;
  auto m = std::make_unique<Machine>(cfg);
  if (side.setup) side.setup(*m);
  m->boot();
  if (side.prepare) side.prepare(*m);
  return m;
}

/// Run until `target` total retirements (or halt). Cpu::run consumes budget
/// on interrupt deliveries without retiring, so a single call can come up
/// short; the loop re-issues the remainder. The split-budget guarantee
/// makes the state at the boundary independent of this slicing.
void run_to(Machine& m, uint64_t target) {
  while (!m.halted() && m.cpu().retired() < target)
    if (m.cpu().run(target - m.cpu().retired()) == 0 && m.halted()) break;
}

/// Architectural identity at a retirement boundary: the snapshot digest
/// plus the halt state (a machine sitting on a halt instruction and one
/// that just executed it can otherwise digest equal).
struct Probe {
  uint64_t digest = 0;
  bool halted = false;
  uint64_t halt_code = 0;
  bool operator==(const Probe& o) const {
    return digest == o.digest && halted == o.halted &&
           halt_code == o.halt_code;
  }
  bool operator!=(const Probe& o) const { return !(*this == o); }
};

Probe probe_of(const Machine& m) {
  obs::FlightSnapshot s;
  m.fill_snapshot(s);
  Probe p;
  p.digest = obs::snapshot_digest(s, m.cpu().cycles(), m.cpu().retired());
  p.halted = m.halted();
  p.halt_code = m.halted() ? m.halt_code() : 0;
  return p;
}

void fill_side(obs::DivergenceSide& out, const Machine& m) {
  obs::FlightSnapshot s;
  m.fill_snapshot(s);
  out.state = s;
  out.digest = obs::snapshot_digest(s, m.cpu().cycles(), m.cpu().retired());
  out.cycles = m.cpu().cycles();
  out.retired = m.cpu().retired();
  out.halted = m.halted();
  if (const obs::Collector* st = m.stats())
    out.ring = st->flight().live_ring();
}

}  // namespace

obs::DivergenceReport bisect_divergence(const BisectSide& a,
                                        const BisectSide& b,
                                        const BisectOptions& opts) {
  const uint64_t interval = opts.digest_interval == 0 ? 1 : opts.digest_interval;
  auto cache = std::make_shared<ImageCache>();

  obs::DivergenceReport rep;
  rep.digest_interval = interval;
  rep.a.label = a.label;
  rep.b.label = b.label;

  // Forward scan with one live pair, windows of `interval` retirements.
  auto ma = build(a, cache, opts.ring_capacity);
  auto mb = build(b, cache, opts.ring_capacity);
  uint64_t lo = 0;  // last verified-equal retirement count
  uint64_t hi = 0;  // first known-divergent checkpoint
  bool diverged = probe_of(*ma) != probe_of(*mb);  // boot-state check
  if (!diverged) {
    uint64_t pos = 0;
    while (pos < opts.max_retired) {
      const uint64_t next = std::min(pos + interval, opts.max_retired);
      run_to(*ma, next);
      run_to(*mb, next);
      if (probe_of(*ma) != probe_of(*mb)) {
        diverged = true;
        hi = next;
        break;
      }
      // Equal digests fold in the retired counters, so both sides sit at
      // the same count here.
      lo = ma->cpu().retired();
      pos = next;
      if (ma->halted() && mb->halted()) break;  // both done, still equal
    }
  }

  if (!diverged) {
    rep.diverged = false;
    rep.compared = lo;
    fill_side(rep.a, *ma);
    fill_side(rep.b, *mb);
    rep.a.label = a.label;
    rep.b.label = b.label;
    return rep;
  }

  // Binary search (lo, hi] with fresh probe pairs: probe(lo) equal,
  // probe(hi) divergent. Each probe re-runs from boot to the midpoint;
  // the image cache makes that install + execute, not rebuild + re-sign.
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    auto pa = build(a, cache, opts.ring_capacity);
    auto pb = build(b, cache, opts.ring_capacity);
    run_to(*pa, mid);
    run_to(*pb, mid);
    if (probe_of(*pa) == probe_of(*pb))
      lo = mid;
    else
      hi = mid;
  }

  // Final capture at the divergence point with a fresh pair.
  auto fa = build(a, cache, opts.ring_capacity);
  auto fb = build(b, cache, opts.ring_capacity);
  run_to(*fa, hi);
  run_to(*fb, hi);
  rep.diverged = true;
  rep.first_divergent = hi;
  rep.compared = lo;
  fill_side(rep.a, *fa);
  fill_side(rep.b, *fb);
  rep.a.label = a.label;
  rep.b.label = b.label;
  return rep;
}

}  // namespace camo::kernel
