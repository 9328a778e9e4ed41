// camo-cov CLI shim; the commands live in cov_tool.cpp so tests can drive
// them in-process. See cov_tool.h for the command reference.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cov_tool.h"

int main(int argc, char** argv) {
  using namespace camo::cov_tool;
  if (argc < 2) {
    std::fputs(usage(), stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "report" && argc == 3) return cmd_report(argv[2]);
  if (cmd == "diff" && argc == 4) return cmd_diff(argv[2], argv[3]);
  if (cmd == "merge") {
    std::string out;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      if ((flag == "-o" || flag == "--out") && i + 1 < argc) {
        out = argv[++i];
      } else {
        inputs.push_back(flag);
      }
    }
    if (out.empty() || inputs.empty()) {
      std::fputs(usage(), stderr);
      return 2;
    }
    return cmd_merge(out, inputs);
  }
  if (cmd == "bisect") {
    BisectCliOptions opts;
    const auto tier = [](const std::string& v, camo::cpu::Engine* dst) {
      const auto e = camo::cpu::parse_engine(v);
      if (e) *dst = *e;
      return e.has_value();
    };
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string val = argv[i + 1];
      bool ok = true;
      if (flag == "--engine-a") ok = tier(val, &opts.engine_a);
      else if (flag == "--engine-b") ok = tier(val, &opts.engine_b);
      else if (flag == "--perturb") opts.perturb = val;
      else if (flag == "--interval") opts.digest_interval =
          std::strtoull(val.c_str(), nullptr, 0);
      else if (flag == "--out" || flag == "-o") opts.out_path = val;
      else ok = false;
      if (!ok) {
        std::fprintf(stderr, "camo-cov: bad flag/value %s %s\n", flag.c_str(),
                     val.c_str());
        return 2;
      }
    }
    if (opts.digest_interval == 0) {
      std::fprintf(stderr, "camo-cov: --interval wants a positive integer\n");
      return 2;
    }
    return cmd_bisect(opts);
  }
  std::fputs(usage(), stderr);
  return 2;
}
