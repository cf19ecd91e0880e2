// enb_perfbench: the repository benchmark binary. perfbench/run.py builds
// and runs it; see that script for how it is invoked.
//
//   enb_perfbench --workload <fault-nodrop|harden-sweep|serve-mixed>
//                 --seed N --seconds S --trace 0|1 --out record.json
//                 [--scratch DIR] [--commit SHA] [--source-digest SHA]
//
// Prints a readable report and writes the full JSON record to --out.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& message) {
  std::cerr << "enb_perfbench: " << message
            << "\nusage: enb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE [--scratch DIR] [--commit SHA] "
               "[--source-digest SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.scratch = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out") {
        options.out = value;
      } else if (flag == "--scratch") {
        options.scratch = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else if (flag == "--source-digest") {
        options.source_digest = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  // One fixed pool size for every workload; the global pool reads
  // ENB_THREADS when it is first used, which is right here.
  ::setenv("ENB_THREADS", std::to_string(perfbench::pool_workers()).c_str(),
           1);
  (void)enb::exec::ThreadPool::global();

  perfbench::Report report(options);
  try {
    if (options.workload == "fault-nodrop") {
      perfbench::run_fault_nodrop(options, report);
    } else if (options.workload == "harden-sweep") {
      perfbench::run_harden_sweep(options, report);
    } else if (options.workload == "serve-mixed") {
      perfbench::run_serve_mixed(options, report);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "enb_perfbench: " << options.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  return report.finish();
}
