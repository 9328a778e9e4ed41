// Crash flight recorder (DESIGN.md §3f).
//
// A black-box for the simulated machine: the last N retired instructions
// (pc, op-class, cycle, EL), always armed while observability is on and kept
// as a ring of retire-run records they are rebuilt from, plus a
// machine-state snapshot (general registers, key banks with provenance, MMU
// fetch epoch, pending-exception syndrome) captured automatically the first
// time a protection violation or attack detection is observed. The capture
// is exportable as a self-contained `camo-flight/v1` JSON bundle that embeds
// the scenario (attack name, protection config, seed), the trigger event,
// the instruction ring, the snapshot, the audit stream and its causal chain
// — everything camo-audit needs to pretty-print the failure and re-execute
// it on a fresh Machine.
//
// Determinism: every field is guest-deterministic (no host clocks), and all
// 64-bit payloads are serialized as hex strings (JSON doubles lose pointer
// precision above 2^53), so re-running the same scenario produces a
// byte-identical bundle — which is exactly the check camo-audit replay does.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace camo::obs {

/// One retired instruction in the flight ring.
struct FlightInsn {
  uint64_t cycles = 0;
  uint64_t pc = 0;
  uint8_t op = 0;  ///< cpu::OpClass ordinal
  uint8_t el = 0;
};

/// One PAC key with its install provenance (see obs/audit.h).
struct FlightKey {
  uint64_t lo = 0, hi = 0;
  uint64_t prov = 0;
};

/// Machine state at capture time, filled by a provider installed by
/// kernel::Machine (the recorder itself has no CPU dependency).
struct FlightSnapshot {
  std::array<uint64_t, 31> x{};
  uint64_t sp_el0 = 0, sp_el1 = 0;
  uint64_t pc = 0;
  uint8_t el = 0;
  bool banked_keys = false;
  uint64_t elr_el1 = 0, spsr_el1 = 0, esr_el1 = 0, far_el1 = 0;
  uint64_t vbar_el1 = 0, sctlr_el1 = 0;
  std::array<FlightKey, 5> keys{};  ///< live key registers (IA IB DA DB GA)
  std::array<FlightKey, 5> bank{};  ///< EL2-held kernel bank (§8)
  /// MMU fetch epoch at pc: per-map modification generations. The maps'
  /// process-unique uids are deliberately NOT captured — they come from a
  /// process-global counter (mem::next_map_uid), so they are host identity,
  /// not guest state, and would break bundle bit-identity within a process.
  uint64_t s1_gen = 0, s2_gen = 0;
  uint64_t pending_esr = 0;  ///< syndrome of an in-flight exception
  /// Core the snapshot was taken from (the last core the interleaver ran).
  /// Serialized only when nonzero so single-core bundles stay byte-identical
  /// to pre-SMP captures, and deliberately excluded from snapshot_digest —
  /// the digest compares architectural state, not machine topology.
  uint8_t cpu = 0;
};

class FlightRecorder {
 public:
  using StateProvider = std::function<void(FlightSnapshot&)>;

  explicit FlightRecorder(size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity),
        runs_(capacity_),
        segs_(2 * capacity_),
        slots_(2 * capacity_) {}

  void set_state_provider(StateProvider p) { provider_ = std::move(p); }

  /// Record a retire record whose first instruction starts at cycle `c0`,
  /// copying its stretches and (at most capacity) slot bytes: trigger()
  /// reads nothing in the code cache, which may drop a trace at any time.
  void retire_run(uint64_t c0, const RetireRun& run);

  /// Capture on the first violation; later triggers only bump the counter
  /// (the first capture is the causal root — cascading faults after it are
  /// consequences, not causes).
  void trigger(const TraceEvent& e) {
    ++triggers_;
    if (captured_) return;
    captured_ = true;
    trigger_ = e;
    ring_ = live_ring();
    if (provider_) provider_(state_);
  }

  bool captured() const { return captured_; }
  uint64_t triggers() const { return triggers_; }
  const TraceEvent& trigger_event() const { return trigger_; }
  const FlightSnapshot& state() const { return state_; }
  /// Instruction ring frozen at capture time, oldest first.
  const std::vector<FlightInsn>& ring() const { return ring_; }

  /// The last `capacity` retired instructions (fewer before the ring
  /// fills), oldest first, rebuilt from the run records. The divergence
  /// bisector uses this to export last-K retirements without a trigger.
  std::vector<FlightInsn> live_ring() const;

  void clear() {
    ring_.clear();
    head_ = 0;
    filled_ = 0;
    seg_head_ = 0;
    slot_head_ = 0;
    triggers_ = 0;
    captured_ = false;
    trigger_ = TraceEvent{};
    state_ = FlightSnapshot{};
  }

 private:
  /// One retire record: n instructions over nsegs entries of segs_, each
  /// retired at c0 plus the slot costs of those before it.
  struct Run {
    uint64_t c0 = 0;
    uint32_t n = 0;  ///< <= capacity_
    uint32_t nsegs = 0;
    uint8_t el = 0;
  };
  struct Seg {
    uint64_t va = 0;
    uint64_t n = 0;
  };

  size_t capacity_;
  bool captured_ = false;
  uint64_t triggers_ = 0;
  TraceEvent trigger_{};
  FlightSnapshot state_{};
  /// The last `capacity` records: enough to cover the last `capacity`
  /// instructions, since every record holds at least one.
  std::vector<Run> runs_;
  size_t head_ = 0;    ///< where the next record goes
  size_t filled_ = 0;  ///< records held, up to capacity_
  /// The records' stretches and slot bytes, back to back: twice the
  /// capacity, so the oldest record still needed keeps all of its own.
  std::vector<Seg> segs_;
  size_t seg_head_ = 0;   ///< where the next record's segments go
  std::vector<RetireSlot> slots_;
  size_t slot_head_ = 0;  ///< where the next record's slots go
  std::vector<FlightInsn> ring_;  ///< frozen copy at capture
  StateProvider provider_;
};

/// Reader for 64-bit payloads. Writers store them as hex_short strings
/// ("0x1a2b..."; JSON numbers are doubles and cannot hold pointers exactly)
/// or, for small fields, as JSON numbers. Accepts exactly "0x" followed by
/// 1-16 hex digits, or a number holding a non-negative integer below 2^64;
/// anything else ("-1", "010", "0xzz", a 17th digit) is std::nullopt.
std::optional<uint64_t> parse_hex_u64(const json::Value& v);
/// The writer's side: hex_short(v) as a JSON string, built on the stack.
json::Value hex_json(uint64_t v);

/// Audit-event JSON codec (hex payloads, kind stored by ordinal + name).
/// The reader rejects an event with a field that does not parse or does not
/// fit its member; an absent field reads as 0.
json::Value audit_event_json(const AuditEvent& e);
bool audit_event_from_json(const json::Value& v, AuditEvent* out);

/// Snapshot codec shared by camo-flight/v1 and camo-div/v1 bundles.
json::Value flight_snapshot_json(const FlightSnapshot& s);

/// Assemble a self-contained camo-flight/v1 replay bundle. `audit` is the
/// full audit snapshot for the run; the causal chain of the capture's
/// terminal auth failure (if any) is precomputed into "chain".
std::string flight_bundle_json(const FlightRecorder& rec,
                               const std::vector<AuditEvent>& audit,
                               const std::string& attack,
                               const std::string& config, uint64_t seed);

}  // namespace camo::obs
