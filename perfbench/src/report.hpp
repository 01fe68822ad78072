#pragma once
// Result assembly: named metrics with units, the machine fingerprint, and
// the one-line JSON result the benchmark prints last.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer
  std::vector<std::string> errors;  ///< failed output checks, for stderr
};

/// Records a failed output check on `out` (the run is then not correct).
void fail_check(Outcome& out, const std::string& what);

/// nproc, CPU model, ISA flags, compiler and build type as a JSON object.
std::string machine_json();

/// The `peak_rss_mb` metric: this process's resident set, sampled every
/// 5 ms from a thread of its own while the object lives, reported as the
/// 99.9th percentile of the samples (the size the process exceeds for 0.1%
/// of the time). The process peak (`ru_maxrss`) is one extreme of a
/// timing-dependent series, as freed buffers go back to the OS and are
/// mapped again, and it read 10% apart between runs of the same serving
/// code; the high percentile ignores a single coincidence of frees.
class RssSampler {
 public:
  RssSampler();  ///< starts sampling; throws if the RSS cannot be read
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Drops the samples so far and starts the series again (for the end of
  /// a set-up that runs on other threads).
  void restart() noexcept;
  /// Stops sampling; the 99.9th percentile of the samples in MiB.
  double stop();

 private:
  void loop();

  int fd_ = -1;  ///< /proc/self/statm
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> generation_{0};  ///< bumped by restart()
  std::vector<double> samples_;  ///< written by the sampler until it joins
  std::thread thread_;
};

/// The benchmark's last stdout line.
std::string result_json(const Outcome& out);

}  // namespace perfbench
