// CallGraphProfiler: hierarchical, call-stack-aware cycle attribution.
//
// A flat profile answers "which symbol is hot"; this one answers "which
// *path* is hot" — the distinction the paper's evaluation lives on (PACIA
// cycles on the syscall path vs. the context-switch path, §6). The flat
// view is kept too, from the same region lookup: per-region self cycles
// and retires, exported by flat_profile(). It maintains
// a shadow call stack from the CPU's retire stream: linking calls (CfKind::
// Call) push a frame named after the callee's region, returns pop one, and
// exception entry/exit bracket handler execution as synthetic "[exc:svc]"-
// style frames. Every retired cycle is attributed to the full stack at the
// time of retirement, accumulated in a prefix-shared call tree.
//
// Accounting contract (pinned by tests):
//   * the sum over all tree nodes equals Cpu::cycles() exactly — every
//     retired cycle lands somewhere, "[other]" / "[truncated]" included —
//     and so does the sum over the flat view's regions;
//   * attaching the profiler never changes simulated cycle counts.
//
// Robustness: the shadow stack is advisory, not trusted. A RET whose shadow
// top is an exception frame is ignored; an ERET with no exception frame on
// the stack (the kernel's first drop to EL0) leaves the stack alone; an
// ERET to the top call frame's return address (a call whose target faulted
// on fetch, and whose handler returned to the caller) pops that frame too;
// a pc outside the top frame's region is self-healed by appending the leaf
// region. Under context switching, attribution is wall-clock, like the
// syscall-latency histogram: the stack follows the *CPU*, not the task. On
// SMP each core keeps its own shadow stack (runs and control-flow events
// carry the reporting core's id); all stacks share one call tree.
//
// Export: folded-stack text ("kernel;syscall;pac_sign 123" per line) directly
// consumable by flamegraph.pl or speedscope, plus a human-readable top-stacks
// table. Lines are sorted, so equal runs produce byte-identical output.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/region.h"
#include "obs/trace.h"

namespace camo::obs {

class CallGraphProfiler : public CycleAttributor, public CfSink {
 public:
  /// Frames nested deeper than this are collapsed into a "[truncated]"
  /// child (accounting stays exact; only the shape is capped).
  static constexpr size_t kMaxDepth = 512;

  /// One row of the flat view: a region's self cycles and retires.
  struct FlatEntry {
    std::string name;
    uint64_t cycles = 0;
    uint64_t retires = 0;  ///< instructions (and exception-only steps)
  };

  /// Register [start, end) under `name`. Regions must not overlap; call
  /// before attaching the profiler to a CPU.
  void add_region(std::string name, uint64_t start, uint64_t end);

  // Producer interfaces -----------------------------------------------------
  /// Control-flow events are buffered until the record that carries their
  /// instruction arrives and applied right after that instruction, so a
  /// call instruction's own cycles are attributed to the caller's stack.
  void control_flow(unsigned cpu, CfKind kind, uint64_t from_pc,
                    uint64_t to_pc, uint8_t info) override;
  /// Attributes each instruction's cycles to the stack as it stands: a
  /// region-cache compare per segment stretch (per instruction for one that
  /// crosses a region boundary) and a node update per region group.
  void retire_run(const RetireRun& run) override;

  // Accounting --------------------------------------------------------------
  uint64_t total_cycles() const { return total_cycles_; }
  uint64_t total_retires() const { return total_retires_; }
  /// Core `cpu`'s shadow stack, bottom to top (collapsed frames excluded):
  /// a call frame's return address, 0 for base and exception frames.
  std::vector<uint64_t> return_addresses(unsigned cpu = 0) const;
  size_t depth(unsigned cpu = 0) const { return return_addresses(cpu).size(); }
  /// Number of distinct stacks (tree nodes) with attributed cycles.
  size_t hot_node_count() const;

  // Export ------------------------------------------------------------------
  /// Folded-stack text: one "frame;frame;leaf <cycles>" line per distinct
  /// stack with attributed cycles, sorted lexicographically.
  std::string folded(char sep = ';') const;
  /// The `n` hottest stacks as a human-readable table (cycles, %, stack).
  std::string top_stacks(size_t n = 10) const;
  /// Flat view: every region with attributed cycles, hottest first, plus
  /// "[other]" when anything fell outside the registered regions.
  std::vector<FlatEntry> flat_entries() const;
  /// Flat view as a table (cycles, %, retires, symbol, then the total).
  std::string flat_profile() const;

  void clear();

 private:
  struct Node {
    int name = -1;    ///< index into names_
    int parent = -1;  ///< node index; -1 for the root
    bool exc = false; ///< synthetic exception frame (only ExcExit pops it)
    uint64_t cycles = 0;
    uint64_t retires = 0;
    /// The last child() answer, checked before the map: a frame's hot
    /// callee (or self-healed leaf) is looked up again and again.
    int memo_name = -1;
    int memo_child = -1;
    std::unordered_map<int, int> children;  ///< name id -> node index
  };

  struct PendingCf {
    CfKind kind;
    uint64_t from_pc;
    uint64_t to_pc;
    uint8_t info;
  };

  /// A shadow-stack entry: its tree node and, for a call frame, the
  /// address its return lands on (call pc + 4; 0 for other frames).
  struct Frame {
    int node;
    uint64_t ret = 0;
  };

  /// A parked core's shadow stack and the control-flow events waiting for
  /// its next retire run.
  struct CoreStack {
    std::vector<Frame> stack;  ///< bottom to top
    uint64_t overflow = 0;     ///< frames collapsed past kMaxDepth
    std::vector<PendingCf> pending;
  };

  struct Counts {
    uint64_t cycles = 0;
    uint64_t retires = 0;
  };

  int intern(const std::string& name);
  /// Index of the region holding pc (RegionIndex::kNone outside them all),
  /// answered from the last hit when pc is still inside it.
  size_t region_of(uint64_t pc) {
    if (pc - hit_start_ < hit_span_) return hit_idx_;
    const size_t idx = index_.find(pc);
    if (idx != RegionIndex::kNone) {
      hit_idx_ = idx;
      hit_start_ = index_[idx].start;
      hit_span_ = index_[idx].end - index_[idx].start;
    }
    return idx;
  }
  int region_name(size_t idx);  ///< name id of a region_of() result
  /// Attribute `cycles` over `retires` instructions at region `idx` to the
  /// flat view and to the stack as it stands.
  void attribute(size_t idx, uint64_t cycles, uint64_t retires);
  /// Find-or-create the child of `node` named `name`.
  int child(int node, int name, bool exc);
  int current() const { return stack_.empty() ? 0 : stack_.back().node; }
  void apply(const PendingCf& cf);
  /// Park the current core's stack and make core `cpu`'s current.
  void switch_core(unsigned cpu);
  void collect_lines(std::vector<std::pair<std::string, uint64_t>>& out,
                     char sep) const;

  RegionIndex index_;
  std::vector<int> region_names_;  ///< parallel to index_: interned name ids
  std::vector<Counts> flat_;       ///< parallel to index_: self counts
  Counts flat_other_;              ///< outside every region
  // Last region hit (region_of); an empty span never matches.
  size_t hit_idx_ = RegionIndex::kNone;
  uint64_t hit_start_ = 0;
  uint64_t hit_span_ = 0;

  std::vector<std::string> names_;
  std::unordered_map<std::string, int> name_ids_;

  std::vector<Node> nodes_;   ///< nodes_[0] is the root (lazily created)
  // The shadow stack of core cpu_, whose runs are arriving. A core reports
  // for a whole SMP quantum, so the other cores' stacks wait in parked_ (by
  // core id) and the hot path pays one compare for SMP.
  std::vector<Frame> stack_;  ///< bottom to top
  uint64_t overflow_ = 0;     ///< frames collapsed past kMaxDepth
  std::vector<PendingCf> pending_;
  unsigned cpu_ = 0;
  std::vector<CoreStack> parked_;

  uint64_t total_cycles_ = 0;
  uint64_t total_retires_ = 0;

  int other_name_ = -1;      ///< "[other]"
  int truncated_name_ = -1;  ///< "[truncated]"
  /// "[exc:<class>]" name id + 1 per ExcEnter info byte (0 = not interned).
  std::array<int, 256> exc_names_{};
};

}  // namespace camo::obs
