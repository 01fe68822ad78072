// Benchmark binary: runs one workload and prints its result.
//   perfbench --workload <rollout|serve|cluster_serve|train> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
// Prints the machine fingerprint as a JSON line, then the result as the
// last stdout line. A traced run also writes its spans to
// <out>/trace_<workload>_<seed>.json.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <rollout|serve|cluster_serve|"
               "train> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--out") {
        a.out_dir = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  const std::string machine = perfbench::machine_json();
  perfbench::Outcome out;
  try {
    if (args.workload == "rollout") {
      out = perfbench::run_rollout(args);
    } else if (args.workload == "serve") {
      out = perfbench::run_serve(args, /*cluster=*/false);
    } else if (args.workload == "cluster_serve") {
      out = perfbench::run_serve(args, /*cluster=*/true);
    } else if (args.workload == "train") {
      out = perfbench::run_train(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& e : out.errors) {
    std::cerr << "perfbench: check failed: " << e << "\n";
  }
  if (args.trace) {
    perfbench::set_tracing(false);
    const std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                             std::to_string(args.seed) + ".json";
    if (!perfbench::write_trace(path, perfbench::collect_spans(), machine)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "perfbench: spans written to " << path << "\n";
  }
  std::cout << "{\"machine\": " << machine << "}\n"
            << perfbench::result_json(out) << std::endl;
  return 0;
}
