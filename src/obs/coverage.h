// Execution coverage maps (DESIGN.md §3g).
//
// obs::CoverageMap records PA-keyed basic-block and edge coverage from the
// retire stream, plus per-EL retire counters. Blocks are discovered
// dynamically: a block starts at every discontinuity target (branch target,
// exception entry, run start) and its length is the longest straight-line
// run observed from that start. Keys are physical addresses so the map is
// stable across VA aliasing and directly comparable with the superblock
// cache and the protected-table layout.
//
// Determinism contract: the map is a pure function of the retire stream
// (pa, va, el per retired instruction; a run record stands for its
// instructions one by one, however the stream is cut into runs). The retire
// stream is pinned bit-identical on every engine tier (test_superblock,
// test_coverage, test_retire_feed), so coverage is engine-invariant by
// construction; fleets merge per-machine snapshots in task-index order, so
// it is --jobs-invariant too.
//
// Serialization: camo-cov/v1, a self-validated JSON bundle (all 64-bit
// payloads hex, see obs/flight.h) with blocks/edges sorted by PA so the
// bytes are canonical.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace camo::obs {

/// One discovered basic block, keyed by start PA.
struct BlockCov {
  uint64_t hits = 0;     ///< entries at this start (discontinuity targets)
  uint64_t max_len = 0;  ///< longest straight-line run, in instructions
};

/// An annotated code range (kernel function or protected-table row target)
/// that report tooling checks coverage against.
struct CovRegion {
  std::string name;   ///< label, e.g. "sys_write" or "syscall_table[1]:sys_write"
  uint64_t pa = 0;    ///< start physical address
  uint64_t len = 0;   ///< bytes
  std::string table;  ///< owning protected table symbol ("" = plain function)
  int row = -1;       ///< row index within `table` (-1 = not a table row)
};

struct CovBundle;
class CoverageMap;
bool cov_bundle_from_json(const json::Value& v, CovBundle* out);

class CoverageMap {
 public:
  static constexpr size_t kEls = 3;

  /// A record's instructions, stretch by stretch (see Cpu::set_coverage).
  void retire_run(const RetireRun& r) {
    r.for_each_seg([&](uint64_t va, uint64_t pa, uint32_t k) {
      retire_run(pa, va, r.el, k);
    });
  }

  /// `n` consecutive instructions starting at (pa, va), all retired at `el`
  /// (captured before execution, as in obs::RetireRun): the same map as n
  /// runs of one at pa, pa+4, ...
  void retire_run(uint64_t pa, uint64_t va, uint8_t el, uint64_t n) {
    if (n == 0) return;
    if (el < kEls) retired_el_[el] += n;
    if (open_ && va == last_va_ + 4 && pa == last_pa_ + 4) {
      run_len_ += n;
    } else {
      if (!memo_) memo_.arm();
      BlockCov* next;
      if (open_) {
        close_run();
        Memo::Edge& e = edge(cur_start_, pa);
        ++*e.hits;
        next = e.target;
      } else {
        next = &block(pa);
      }
      ++next->hits;
      memo_->open = next;
      open_ = true;
      cur_start_ = pa;
      run_len_ = n;
    }
    last_va_ = va + 4 * (n - 1);
    last_pa_ = pa + 4 * (n - 1);
  }

  /// Close the open run and forget continuation state; the next run
  /// starts a fresh block with no synthetic edge. Call before reading or
  /// merging the map.
  void flush() {
    close_run();
    last_va_ = 0;
    last_pa_ = 0;
  }

  /// Flushed copy; the live map keeps accumulating.
  CoverageMap snapshot() const {
    CoverageMap c = *this;
    c.flush();
    return c;
  }

  /// Accumulate another (flushed) map: hits/edges/EL counters add,
  /// max_len maxes, regions union by name. Commutative up to region order;
  /// fleets call this in task-index order for canonical bytes.
  void merge_from(const CoverageMap& o);

  void add_region(CovRegion r) { regions_.push_back(std::move(r)); }

  const std::map<uint64_t, BlockCov>& blocks() const { return blocks_; }
  const std::map<std::pair<uint64_t, uint64_t>, uint64_t>& edges() const {
    return edges_;
  }
  const std::vector<CovRegion>& regions() const { return regions_; }
  uint64_t retired_at(size_t el) const {
    return el < kEls ? retired_el_[el] : 0;
  }
  uint64_t retired_total() const {
    return retired_el_[0] + retired_el_[1] + retired_el_[2];
  }
  uint64_t unique_blocks() const { return blocks_.size(); }
  uint64_t unique_edges() const { return edges_.size(); }

  /// True if any retired instruction landed in [pa, pa+len).
  bool any_executed(uint64_t pa, uint64_t len) const;

 private:
  // The JSON codec rebuilds hits/lengths that retire_run() cannot
  // re-express.
  friend bool cov_bundle_from_json(const json::Value& v, CovBundle* out);

  void close_run() {
    if (!open_) return;
    BlockCov& b = memo_ && memo_->open ? *memo_->open : block(cur_start_);
    if (run_len_ > b.max_len) b.max_len = run_len_;
    open_ = false;
    run_len_ = 0;
  }

  /// Direct-mapped memo of map nodes answering the lookups of a
  /// discontinuity without a tree walk on a hit: an edge slot also holds
  /// its target block, and `open` is the block of the run opened since the
  /// memo was armed. std::map nodes
  /// never move, so the pointers stay valid for as long as the map holds
  /// them; nothing erases from the maps.
  struct Memo {
    static constexpr unsigned kBits = 10;
    static constexpr size_t kSlots = size_t{1} << kBits;
    struct Block {
      uint64_t pa = 0;
      BlockCov* node = nullptr;
    };
    struct Edge {
      uint64_t from = 0, to = 0;
      uint64_t* hits = nullptr;
      BlockCov* target = nullptr;
    };
    std::array<Block, kSlots> blocks{};
    std::array<Edge, kSlots> edges{};
    BlockCov* open = nullptr;
  };
  /// Owner of the memo. The first retire_run() arms it; a copy or a move
  /// leaves both maps without one, because its pointers name the source's
  /// nodes.
  class MemoPtr {
   public:
    MemoPtr() = default;
    MemoPtr(const MemoPtr&) {}
    MemoPtr(MemoPtr&& o) noexcept { o.p_.reset(); }
    MemoPtr& operator=(const MemoPtr&) {
      p_.reset();
      return *this;
    }
    MemoPtr& operator=(MemoPtr&& o) noexcept {
      p_.reset();
      o.p_.reset();
      return *this;
    }
    void arm() { p_ = std::make_unique<Memo>(); }
    explicit operator bool() const { return p_ != nullptr; }
    Memo* operator->() const { return p_.get(); }

   private:
    std::unique_ptr<Memo> p_;
  };

  BlockCov& block(uint64_t pa) {
    if (!memo_) return blocks_[pa];
    Memo::Block& m = memo_->blocks[(pa >> 2) & (Memo::kSlots - 1)];
    if (m.node == nullptr || m.pa != pa) m = {pa, &blocks_[pa]};
    return *m.node;
  }
  Memo::Edge& edge(uint64_t from, uint64_t to) {
    constexpr uint64_t kMix = 0x9E3779B97F4A7C15ull;  // Fibonacci hashing
    Memo::Edge& m = memo_->edges[((from ^ (to * kMix)) * kMix) >>
                                 (64 - Memo::kBits)];
    if (m.hits == nullptr || m.from != from || m.to != to)
      m = {from, to, &edges_[{from, to}], &block(to)};
    return m;
  }

  std::map<uint64_t, BlockCov> blocks_;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> edges_;
  std::vector<CovRegion> regions_;
  std::array<uint64_t, kEls> retired_el_{};
  MemoPtr memo_;
  // Open-run state.
  bool open_ = false;
  uint64_t cur_start_ = 0;
  uint64_t last_va_ = 0;
  uint64_t last_pa_ = 0;
  uint64_t run_len_ = 0;
};

/// Parsed camo-cov/v1 bundle.
struct CovBundle {
  std::string label;
  uint64_t machines = 0;
  CoverageMap map;
};

/// Canonical camo-cov/v1 JSON (blocks/edges sorted by PA, regions sorted by
/// (table, row, name)). The map is snapshotted internally; identical retire
/// streams produce byte-identical bundles.
std::string cov_bundle_json(const CoverageMap& map, const std::string& label,
                            uint64_t machines);

/// Structural validation; returns "" when valid, else a message.
std::string validate_cov_bundle(const json::Value& v);

/// Block-level diff between two maps (used by `camo-cov diff`).
struct CovDiff {
  std::vector<uint64_t> only_a;  ///< block start PAs covered only by a
  std::vector<uint64_t> only_b;  ///< block start PAs covered only by b
  uint64_t common = 0;           ///< block starts covered by both
};
CovDiff diff_coverage(const CoverageMap& a, const CoverageMap& b);

}  // namespace camo::obs
