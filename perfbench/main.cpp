// perfbench_load: the benchmark's load generator. perfbench/run.py builds
// it and runs
//
//   perfbench_load --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --cli <systolize binary> --designs <designs dir>
//                  --scratch <private dir>
//   perfbench_load --self-test --designs <designs dir>
//
// and the last line it prints is the benchmark's JSON result.
#include <cstdlib>
#include <iostream>
#include <string>

#include "selftest.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_load: " << why
            << "\nusage: perfbench_load --workload cold_designs|serve_warm|"
               "serve_size_churn --seed N --seconds S --trace 0|1 --cli PATH "
               "--designs DIR --scratch DIR\n       perfbench_load --self-test "
               "--designs DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = v == "1";
    } else if (arg == "--cli") {
      opt.cli = v;
    } else if (arg == "--designs") {
      opt.designs_dir = v;
    } else if (arg == "--scratch") {
      opt.scratch = v;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (opt.designs_dir.empty()) return usage("--designs is required");
  try {
    if (self_test) return perfbench::run_self_test(opt.designs_dir);
    if (opt.cli.empty() || opt.scratch.empty() || !(opt.seconds > 0)) {
      return usage("--cli, --scratch and a positive --seconds are required");
    }
    perfbench::Outcome out;
    if (opt.workload == "cold_designs") {
      out = perfbench::run_cold_designs(opt);
    } else if (opt.workload == "serve_warm") {
      out = perfbench::run_serve_warm(opt);
    } else if (opt.workload == "serve_size_churn") {
      out = perfbench::run_serve_size_churn(opt);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
    perfbench::print_outcome(out, opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_load: run failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
