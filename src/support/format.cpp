#include "support/format.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <vector>

namespace camo {

std::string hex(uint64_t v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%0*llx", digits,
                static_cast<unsigned long long>(v));
  return buf;
}

char* hex_short_to(char* out, uint64_t v) {
  out[0] = '0';
  out[1] = 'x';
  return std::to_chars(out + 2, out + kHexShortChars, v, 16).ptr;
}

std::string hex_short(uint64_t v) {
  char buf[kHexShortChars];
  return std::string(buf, hex_short_to(buf, v));
}

std::string strformat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    out.assign(buf.data(), static_cast<size_t>(n));
  }
  va_end(ap2);
  return out;
}

}  // namespace camo
