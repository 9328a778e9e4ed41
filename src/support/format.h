// Small formatting helpers used by the disassembler, loggers and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace camo {

/// Format v as a 0x-prefixed lower-case hex string with `digits` digits.
std::string hex(uint64_t v, int digits = 16);

/// Format v as a short hex string without leading zeros (still 0x-prefixed).
/// The one "0x%llx" formatter: log messages, the JSON writer's hex strings
/// and every 64-bit payload in the obs bundles use it.
std::string hex_short(uint64_t v);

/// Longest hex_short output: "0x" and 16 digits.
inline constexpr size_t kHexShortChars = 18;

/// Write hex_short(v) to `out`, which has room for kHexShortChars; returns
/// the end of what was written.
char* hex_short_to(char* out, uint64_t v);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace camo
