// §6.1.3 explanation, quantified: "The impact is due to a comparatively
// high rate of function calls to computation, as is visible in kernel
// system call implementations."
//
// This bench retires-instruction-profiles each workload under full
// protection and reports (a) the share of PAuth instructions executed and
// (b) the call rate (BL/BLR/BLRAB per 1k instructions) — showing that the
// overheads of Figures 3 and 4 track exactly these densities.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "kernel/workloads.h"

namespace {

using namespace camo;  // NOLINT
namespace wl = kernel::workloads;

uint64_t g_scale = 1;  // divisor under --smoke

struct Row {
  const char* name;
  std::vector<obj::Program> progs;
};

struct Mix {
  double pauth_pct;
  double calls_per_k;
  double rel_overhead;
};

Mix measure(const bench::RunOptions& opts,
            std::vector<obj::Program> progs_full,
            std::vector<obj::Program> progs_none) {
  // Overhead: full vs none.
  const auto none = bench::run_workload(compiler::ProtectionConfig::none(),
                                        std::move(progs_none), opts);
  // Instruction mix under full protection.
  kernel::Machine m(opts.machine(compiler::ProtectionConfig::full()));
  for (auto& p : progs_full) m.add_user_program(std::move(p));
  m.boot();
  m.run();

  const uint64_t total = m.cpu().retired();
  const uint64_t pauth =
      m.cpu().count_ops_if([](isa::Op op) { return isa::is_pauth(op); });
  const uint64_t calls = m.cpu().op_count(isa::Op::BL) +
                         m.cpu().op_count(isa::Op::BLR) +
                         m.cpu().op_count(isa::Op::BLRAA) +
                         m.cpu().op_count(isa::Op::BLRAB);
  Mix mix;
  mix.pauth_pct = 100.0 * static_cast<double>(pauth) / static_cast<double>(total);
  mix.calls_per_k = 1000.0 * static_cast<double>(calls) / static_cast<double>(total);
  mix.rel_overhead =
      static_cast<double>(m.cpu().cycles()) / static_cast<double>(none.total);
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session s(
      argc, argv, "Section 6.1.3", "instruction mix vs overhead",
      "syscall overhead is proportional to function-call density (and hence "
      "to the PAuth instructions instrumentation adds)");
  g_scale = s.smoke() ? 10 : 1;

  struct Work {
    const char* name;
    std::vector<obj::Program> (*make)();
  };
  const Work works[] = {
      {"null-syscall storm",
       [] {
         std::vector<obj::Program> v;
         v.push_back(wl::null_syscall(1000 / g_scale));
         return v;
       }},
      {"read loop (64B)",
       [] {
         std::vector<obj::Program> v;
         v.push_back(wl::read_file(500 / g_scale, 64, kernel::FileKind::Null));
         return v;
       }},
      {"JPEG resize (user compute)",
       [] {
         std::vector<obj::Program> v;
         v.push_back(wl::image_resize(40 / g_scale));
         return v;
       }},
      {"package build (balanced)",
       [] {
         std::vector<obj::Program> v;
         v.push_back(wl::package_build(20 / g_scale));
         return v;
       }},
      {"download (kernel copy)",
       [] {
         std::vector<obj::Program> v;
         v.push_back(wl::download(30 / g_scale));
         return v;
       }},
  };

  std::printf("%-30s %12s %14s %14s\n", "workload", "PAuth insn %",
              "calls / 1k insn", "overhead vs none");
  for (const auto& w : works) {
    const Mix m = measure(s.run_options(), w.make(), w.make());
    std::printf("%-30s %11.2f%% %14.1f %13.3fx\n", w.name, m.pauth_pct,
                m.calls_per_k, m.rel_overhead);
    s.add("full", std::string(w.name) + ": PAuth insn share", m.pauth_pct,
          "%");
    s.add("full", std::string(w.name) + ": call density", m.calls_per_k,
          "calls/1k insn");
    s.add("full", std::string(w.name) + ": overhead", m.rel_overhead,
          "ratio", m.rel_overhead);
  }
  std::printf(
      "\nreading: rows with more calls per 1k instructions carry more PAuth "
      "instrumentation and show proportionally larger overhead — the "
      "paper's explanation for the Figure 3 / Figure 4 gap, measured.\n");

  // Host throughput under the three host engine modes (informational), on
  // the call-densest row — the same series fig3/fig4 emit.
  if (!bench::emit_throughput_series(
          s, "null-syscall storm", compiler::ProtectionConfig::full(), [] {
            std::vector<obj::Program> v;
            v.push_back(wl::null_syscall(8000 / g_scale));
            return v;
          }))
    return 1;
  return s.finish();
}
