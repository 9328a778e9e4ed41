#include "obs/callgraph.h"

#include <algorithm>

#include <cstddef>

#include "support/format.h"

namespace camo::obs {

void CallGraphProfiler::add_region(std::string name, uint64_t start,
                                   uint64_t end) {
  const size_t idx = index_.add(std::move(name), start, end);
  if (idx == RegionIndex::kNone) return;
  // Name ids are interned lazily so unexecuted symbols cost nothing.
  region_names_.insert(region_names_.begin() + static_cast<ptrdiff_t>(idx),
                       -1);
  flat_.insert(flat_.begin() + static_cast<ptrdiff_t>(idx), Counts{});
  hit_span_ = 0;  // indices after idx shifted
}

int CallGraphProfiler::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

int CallGraphProfiler::region_name(size_t idx) {
  if (idx == RegionIndex::kNone) {
    if (other_name_ < 0) other_name_ = intern("[other]");
    return other_name_;
  }
  if (region_names_[idx] < 0) region_names_[idx] = intern(index_[idx].name);
  return region_names_[idx];
}

int CallGraphProfiler::child(int node, int name, bool exc) {
  if (nodes_.empty()) nodes_.push_back(Node{});  // root
  Node& p = nodes_[node];
  if (p.memo_name == name) return p.memo_child;
  int id;
  if (const auto it = p.children.find(name); it != p.children.end()) {
    id = it->second;
  } else {
    id = static_cast<int>(nodes_.size());
    p.children.emplace(name, id);
    Node n;
    n.name = name;
    n.parent = node;
    n.exc = exc;
    nodes_.push_back(std::move(n));  // invalidates p
  }
  nodes_[node].memo_name = name;
  nodes_[node].memo_child = id;
  return id;
}

void CallGraphProfiler::control_flow(unsigned cpu, CfKind kind,
                                     uint64_t from_pc, uint64_t to_pc,
                                     uint8_t info) {
  if (cpu != cpu_) [[unlikely]] switch_core(cpu);
  pending_.push_back(PendingCf{kind, from_pc, to_pc, info});
}

void CallGraphProfiler::switch_core(unsigned cpu) {
  if (parked_.size() <= std::max(cpu, cpu_))
    parked_.resize(std::max(cpu, cpu_) + 1);
  for (const unsigned c : {cpu_, cpu}) {  // park, then unpark
    CoreStack& p = parked_[c];
    std::swap(stack_, p.stack);
    std::swap(overflow_, p.overflow);
    std::swap(pending_, p.pending);
  }
  cpu_ = cpu;
}

size_t CallGraphProfiler::depth(unsigned cpu) const {
  if (cpu == cpu_) return stack_.size();
  return cpu < parked_.size() ? parked_[cpu].stack.size() : 0;
}

void CallGraphProfiler::apply(const PendingCf& cf) {
  switch (cf.kind) {
    case CfKind::Call: {
      if (stack_.size() >= kMaxDepth) {
        ++overflow_;
        break;
      }
      stack_.push_back(
          {child(current(), region_name(region_of(cf.to_pc)), false),
           cf.from_pc + 4});
      break;
    }
    case CfKind::Ret: {
      if (overflow_ > 0) {
        --overflow_;
        break;
      }
      // Only call frames pop on RET; an exception frame on top means the
      // shadow stack and the guest disagree (corrupted or hand-written
      // control flow) — leave it for the matching ERET.
      if (!stack_.empty() && !nodes_[stack_.back().node].exc)
        stack_.pop_back();
      break;
    }
    case CfKind::ExcEnter: {
      if (stack_.size() >= kMaxDepth) {
        ++overflow_;
        break;
      }
      int& id = exc_names_[cf.info];
      if (id == 0)
        id = intern(std::string("[exc:") + exc_class_label(cf.info) + "]") + 1;
      stack_.push_back({child(current(), id - 1, true)});
      break;
    }
    case CfKind::ExcExit: {
      // Unwind through the innermost exception frame. An ERET with no
      // exception frame below it (the boot path's first drop to EL0) leaves
      // the stack alone.
      overflow_ = 0;
      const auto it =
          std::find_if(stack_.rbegin(), stack_.rend(),
                       [&](const Frame& f) { return nodes_[f.node].exc; });
      if (it == stack_.rend()) break;
      stack_.resize(stack_.size() -
                    static_cast<size_t>(it - stack_.rbegin()) - 1);
      // A call whose target took the exception before running (a fetch
      // abort) and whose handler returned to the caller: the callee never
      // ran, so its frame goes too.
      if (!stack_.empty() && stack_.back().ret == cf.to_pc) stack_.pop_back();
      break;
    }
  }
}

void CallGraphProfiler::attribute(size_t idx, uint64_t cycles,
                                  uint64_t retires) {
  Counts& flat = idx == RegionIndex::kNone ? flat_other_ : flat_[idx];
  flat.cycles += cycles;
  flat.retires += retires;
  if (nodes_.empty()) nodes_.push_back(Node{});  // root
  // Attribute to the stack as it stood *before* this step's control-flow
  // events: a BL's cycles belong to the caller.
  int target;
  if (overflow_ > 0) {
    if (truncated_name_ < 0) truncated_name_ = intern("[truncated]");
    target = child(current(), truncated_name_, false);
  } else if (stack_.empty()) {
    // Nothing called this code (boot entry, or every frame returned): the
    // leaf becomes the base frame so subsequent calls nest under it.
    stack_.push_back({child(0, region_name(idx), false)});
    target = stack_.back().node;
  } else {
    const int leaf = region_name(idx);
    const int cur = current();
    // Self-heal: when pc sits outside the top frame's region (tail jumps,
    // mismatched returns), attribute to an appended leaf without pushing.
    target = nodes_[cur].name == leaf ? cur : child(cur, leaf, false);
  }
  nodes_[target].cycles += cycles;
  nodes_[target].retires += retires;
  total_cycles_ += cycles;
  total_retires_ += retires;
}

void CallGraphProfiler::apply_pending() {
  for (const PendingCf& cf : pending_) apply(cf);
  pending_.clear();
}

void CallGraphProfiler::retire_run(const RetireRun& run) {
  if (run.cpu != cpu_) [[unlikely]] switch_core(run.cpu);
  // Within a run the stack only changes when the first record lands on an
  // empty one, after which every instruction of the same region resolves to
  // that same node — so a group of same-region instructions is one update,
  // and a run that starts and ends in one region (regions are contiguous)
  // is one update with no per-instruction walk at all.
  // Control-flow events can only be pending for the run's last instruction
  // (the engines flush before anything that emits one), so they apply after
  // the whole run.
  const size_t first = run.n > 0 ? region_of(run.va) : RegionIndex::kNone;
  if (first != RegionIndex::kNone &&
      run.va + 4 * uint64_t{run.n - 1} - hit_start_ < hit_span_) {
    attribute(first, run.cycles, run.n);
  } else {
    size_t group = RegionIndex::kNone;
    uint64_t cycles = 0, retires = 0;
    run.for_each([&](uint64_t pc, uint8_t /*op_class*/, uint64_t c) {
      const size_t idx = region_of(pc);
      if (retires > 0 && idx != group) {
        attribute(group, cycles, retires);
        cycles = retires = 0;
      }
      group = idx;
      cycles += c;
      ++retires;
    });
    if (retires > 0) attribute(group, cycles, retires);
  }
  apply_pending();
}

size_t CallGraphProfiler::hot_node_count() const {
  size_t n = 0;
  for (const Node& node : nodes_)
    if (node.cycles || node.retires) ++n;
  return n;
}

void CallGraphProfiler::collect_lines(
    std::vector<std::pair<std::string, uint64_t>>& out, char sep) const {
  for (const Node& node : nodes_) {
    if (!node.cycles && !node.retires) continue;
    if (node.name < 0) continue;  // root never holds cycles, but be safe
    // Build the path root→node.
    std::vector<int> path;
    for (const Node* n = &node; n->name >= 0; n = &nodes_[n->parent])
      path.push_back(n->name);
    std::string line;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (!line.empty()) line += sep;
      line += names_[static_cast<size_t>(*it)];
    }
    out.emplace_back(std::move(line), node.cycles);
  }
}

std::string CallGraphProfiler::folded(char sep) const {
  std::vector<std::pair<std::string, uint64_t>> lines;
  collect_lines(lines, sep);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [stack, cycles] : lines)
    out += strformat("%s %llu\n", stack.c_str(),
                     static_cast<unsigned long long>(cycles));
  return out;
}

std::string CallGraphProfiler::top_stacks(size_t n) const {
  std::vector<std::pair<std::string, uint64_t>> lines;
  collect_lines(lines, ';');
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (lines.size() > n) lines.resize(n);
  std::string out = strformat("%12s  %6s  %s\n", "cycles", "%", "stack");
  for (const auto& [stack, cycles] : lines) {
    const double pct = total_cycles_
                           ? 100.0 * static_cast<double>(cycles) /
                                 static_cast<double>(total_cycles_)
                           : 0.0;
    out += strformat("%12llu  %5.1f%%  %s\n",
                     static_cast<unsigned long long>(cycles), pct,
                     stack.c_str());
  }
  return out;
}

std::vector<CallGraphProfiler::FlatEntry> CallGraphProfiler::flat_entries()
    const {
  std::vector<FlatEntry> out;
  out.reserve(index_.size() + 1);
  for (size_t i = 0; i < index_.size(); ++i) {
    if (!flat_[i].cycles && !flat_[i].retires) continue;
    out.push_back(FlatEntry{index_[i].name, flat_[i].cycles, flat_[i].retires});
  }
  if (flat_other_.cycles || flat_other_.retires)
    out.push_back(
        FlatEntry{"[other]", flat_other_.cycles, flat_other_.retires});
  std::sort(out.begin(), out.end(), [](const FlatEntry& a, const FlatEntry& b) {
    return a.cycles > b.cycles;
  });
  return out;
}

std::string CallGraphProfiler::flat_profile() const {
  std::string out = strformat("%12s  %6s  %10s  %s\n", "cycles", "%",
                              "retires", "symbol");
  for (const FlatEntry& r : flat_entries()) {
    const double pct = total_cycles_
                           ? 100.0 * static_cast<double>(r.cycles) /
                                 static_cast<double>(total_cycles_)
                           : 0.0;
    out += strformat("%12llu  %5.1f%%  %10llu  %s\n",
                     static_cast<unsigned long long>(r.cycles), pct,
                     static_cast<unsigned long long>(r.retires),
                     r.name.c_str());
  }
  out += strformat("%12llu  100.0%%  %10llu  (total)\n",
                   static_cast<unsigned long long>(total_cycles_),
                   static_cast<unsigned long long>(total_retires_));
  return out;
}

void CallGraphProfiler::clear() {
  for (Counts& c : flat_) c = Counts{};
  flat_other_ = Counts{};
  nodes_.clear();
  stack_.clear();
  pending_.clear();
  overflow_ = 0;
  cpu_ = 0;
  parked_.clear();
  total_cycles_ = 0;
  total_retires_ = 0;
}

}  // namespace camo::obs
