// §5.4 / §6.2.1 brute-force mitigation: PAC guessing probability is
// 2^-pac_size (15 bits in the default kernel configuration, "well within
// practical reach of a brute force attack by an attacker-controlled local
// application"), so consecutive failures must be bounded. This bench sweeps
// the failure threshold and measures when the kernel halts, and tabulates
// expected guessing work across VA configurations.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "attacks/attacks.h"
#include "bench_util.h"
#include "mem/valayout.h"

int main(int argc, char** argv) {
  using namespace camo;  // NOLINT
  bench::Session s(
      argc, argv, "Section 5.4", "PAC brute-force mitigation",
      "success probability 2^-pac_size per guess; kernel halts after a "
      "bounded number of consecutive PAuth failures");

  std::printf("expected guesses vs PAC width (success probability per try):\n");
  std::printf("  %8s %10s %16s %22s\n", "va_bits", "PAC bits", "P(success)",
              "expected tries (2^n-1)");
  for (const unsigned va_bits : {32u, 39u, 48u}) {
    mem::VaLayout l;
    l.va_bits = va_bits;
    const unsigned w = l.pac_width(uint64_t{1} << 55);
    std::printf("  %8u %10u %16.2e %22.0f\n", va_bits, w, std::pow(2.0, -double(w)),
                std::pow(2.0, double(w)) - 1);
    s.add("va" + std::to_string(va_bits), "expected guesses",
          std::pow(2.0, double(w)) - 1, "tries");
  }

  std::printf("\nmeasured: forged-PAC syscall storm against the hook pointer "
              "(one attacking process per guess, full protection):\n");
  std::printf("  %10s %12s %14s %12s\n", "threshold", "attempts", "halt",
              "pac_failures");
  const std::vector<unsigned> thresholds =
      s.smoke() ? std::vector<unsigned>{2u, 4u}
                : std::vector<unsigned>{2u, 4u, 8u, 16u};
  // One independent machine per threshold: compute the sweep through the
  // session fleet, then print in threshold order (byte-identical to the
  // serial loop at any --jobs value).
  const auto reports = s.fleet(thresholds.size(), [&](size_t i) {
    return attacks::run_bruteforce(compiler::ProtectionConfig::full(),
                                   thresholds[i], thresholds[i] + 8);
  });
  for (size_t i = 0; i < thresholds.size(); ++i) {
    const unsigned threshold = thresholds[i];
    const auto& r = reports[i];
    std::printf("  %10u %12llu %14s %12llu\n", threshold,
                static_cast<unsigned long long>(r.attempts),
                r.halt_code == kernel::kHaltPacPanic ? "PANIC (§5.4)"
                                                     : "other",
                static_cast<unsigned long long>(r.pac_failures));
    const std::string cfg = "threshold" + std::to_string(threshold);
    s.add(cfg, "attempts before panic", static_cast<double>(r.attempts),
          "tries");
    s.add(cfg, "pac failures", static_cast<double>(r.pac_failures),
          "failures");
  }
  std::printf("\nshape check: the system always halts after exactly "
              "`threshold` failures — the attacker gets nowhere near the "
              "2^15 guesses a 15-bit PAC would otherwise need on average.\n");
  return s.finish();
}
