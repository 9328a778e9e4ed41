// Figure 4: user-space workload performance with full protection,
// backward-edge-only CFI and no instrumentation:
//   1) JPEG picture resize  — predominantly user computation,
//   2) Debian package build — balanced,
//   3) Network download     — mostly kernel time.
// The paper: "the geometric mean of the overhead drops to less than 4%" for
// user-space workloads, with the kernel-heavy download showing the largest
// overhead and the compute-bound resize the smallest.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernel/workloads.h"

namespace {

using namespace camo;  // NOLINT
namespace wl = kernel::workloads;

struct Workload {
  const char* name;
  obj::Program (*make)();
};

uint64_t g_scale = 1;  // divisor under --smoke

obj::Program make_resize() { return wl::image_resize(60 / g_scale); }
obj::Program make_build() { return wl::package_build(40 / g_scale); }
obj::Program make_download() { return wl::download(60 / g_scale); }

}  // namespace

int main(int argc, char** argv) {
  bench::Session s(
      argc, argv, "Figure 4", "user-space performance (relative run time)",
      "<4% geometric-mean overhead for full protection; JPEG < build < "
      "download");
  g_scale = s.smoke() ? 10 : 1;

  const Workload workloads[] = {
      {"1) JPEG resize (user compute)", make_resize},
      {"2) package build (balanced)", make_build},
      {"3) network download (kernel)", make_download},
  };

  std::printf("%-32s | %12s | %17s | %17s\n", "workload", "none (cyc)",
              "backward", "full");
  std::printf("%.*s\n", 90,
              "--------------------------------------------------------------"
              "--------------------------------------------------");

  double geo_back = 0, geo_full = 0;
  int n = 0;
  for (const auto& w : workloads) {
    double base = 0;
    std::printf("%-32s |", w.name);
    for (const auto& cfgn : bench::figure_configs()) {
      std::vector<obj::Program> progs;
      progs.push_back(w.make());
      const auto r =
          bench::run_workload(cfgn.prot, std::move(progs), s.run_options());
      if (r.halt_code != kernel::kHaltDone) {
        std::printf(" RUN FAILED (halt=0x%llx)",
                    static_cast<unsigned long long>(r.halt_code));
        continue;
      }
      const double cyc = static_cast<double>(r.workload);
      if (base == 0) {
        base = cyc;
        std::printf(" %12.0f |", cyc);
        s.add(cfgn.name, w.name, cyc, "cycles");
        continue;
      }
      const double rel = cyc / base;
      std::printf(" %8.0f %6.3fx |", cyc, rel);
      s.add(cfgn.name, w.name, cyc, "cycles", rel);
      if (std::string(cfgn.name) == "backward") geo_back += std::log(rel);
      if (std::string(cfgn.name) == "full") geo_full += std::log(rel);
    }
    std::printf("\n");
    ++n;
  }
  const double gb = std::exp(geo_back / n), gf = std::exp(geo_full / n);
  std::printf("\ngeometric mean: backward-edge %+.2f%%, full %+.2f%% "
              "(paper: full < 4%%)\n",
              (gb - 1) * 100, (gf - 1) * 100);
  s.add("backward", "geometric mean", gb, "ratio");
  s.add("full", "geometric mean", gf, "ratio");

  // Host throughput under the three host engine modes (informational; JPEG
  // resize is the compute-bound extreme, where the superblock engine's
  // straight-line blocks are longest).
  if (!bench::emit_throughput_series(
          s, "1) JPEG resize (user compute)",
          compiler::ProtectionConfig::full(), [] {
            std::vector<obj::Program> v;
            v.push_back(make_resize());
            return v;
          }))
    return 1;
  return s.finish();
}
