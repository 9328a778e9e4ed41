// The host engine ladder (DESIGN.md §3c, §3e, §3i): which host-side
// execution machinery replays the guest. Every tier includes the one below
// it, and no tier may change a simulated cycle, a retire-stream record or a
// fault: the ladder is a host-speed knob only, and Reference is the oracle
// the others are compared against.
//
// Header-only so the camo-bench/v1 schema (obs/bench_schema.h) can name and
// parse tiers without linking the CPU.
#pragma once

#include <optional>
#include <string_view>

namespace camo::cpu {

enum class Engine {
  Reference,  ///< plain decode + page-table walk + cipher, no host caches
  Fast,       ///< + micro-TLB and §3c PAC memo
  Block,      ///< + superblock engine (§3e)
  Trace,      ///< + trace tier over the superblocks (§3i)
};

inline constexpr Engine kEngines[] = {Engine::Reference, Engine::Fast,
                                      Engine::Block, Engine::Trace};

inline const char* engine_name(Engine e) {
  switch (e) {
    case Engine::Reference: return "reference";
    case Engine::Fast: return "fast";
    case Engine::Block: return "block";
    case Engine::Trace: return "trace";
  }
  return "<bad-engine>";
}

inline std::optional<Engine> parse_engine(std::string_view name) {
  for (const Engine e : kEngines)
    if (name == engine_name(e)) return e;
  return std::nullopt;
}

}  // namespace camo::cpu
