// Machine fingerprint attached to every result: the numbers only compare
// between runs on the same kind of host.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "report.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string machine_json() {
  std::string model = "unknown";
  std::set<std::string> flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key =
        line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string val =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = val;
    if (key == "flags" && flags.empty()) {
      std::istringstream in(val);
      for (std::string f; in >> f;) flags.insert(f);
    }
  }
  std::ostringstream s;
  s << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": \"" << model << "\", \"isa\": {";
  const char* wanted[] = {"avx2", "avx512f", "avx512_bf16", "amx_tile",
                          "amx_bf16"};
  bool first = true;
  for (const char* f : wanted) {
    s << (first ? "" : ", ") << '"' << f << "\": "
      << (flags.count(f) ? "true" : "false");
    first = false;
  }
  s << "}, \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\"}";
  return s.str();
}

}  // namespace perfbench
