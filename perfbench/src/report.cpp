#include "report.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "loadgen.hpp"

namespace perfbench {
namespace {

// Full round-trip precision; JSON has no inf/nan, so those become null and
// the run's correctness already reflects the failure that produced them.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Hands the heap's free pages back to the OS, so a series starts from the
/// memory the process still uses rather than what earlier set-ups left in
/// the allocator's arenas (which arena a thread draws, and so how much of
/// that stays resident, changes from run to run).
void release_free_heap() noexcept {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// The resident set in MiB from an open /proc/self/statm; 0 on failure.
double current_mb(int statm_fd) {
  char buf[128];
  const ssize_t n = ::pread(statm_fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return 0.0;
  buf[n] = '\0';
  char* rest = nullptr;
  std::strtoull(buf, &rest, 10);  // total program size
  const unsigned long long resident = std::strtoull(rest, nullptr, 10);
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace

void fail_check(Outcome& out, const std::string& what) {
  out.correct = false;
  out.errors.push_back(what);
}

RssSampler::RssSampler() {
  fd_ = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd_ < 0 || current_mb(fd_) <= 0.0) {
    if (fd_ >= 0) ::close(fd_);
    throw std::runtime_error("cannot read the resident set (/proc/self/statm)");
  }
  release_free_heap();
  thread_ = std::thread([this] { loop(); });
}

RssSampler::~RssSampler() {
  if (thread_.joinable()) stop();
  ::close(fd_);
}

void RssSampler::restart() noexcept {
  release_free_heap();
  ++generation_;
}

double RssSampler::stop() {
  done_ = true;
  thread_.join();
  // A region shorter than one period may end before the first sample.
  if (samples_.empty()) samples_.push_back(current_mb(fd_));
  return percentile(samples_, 0.999);
}

void RssSampler::loop() {
  constexpr auto kPeriod = std::chrono::milliseconds(5);
  std::uint64_t generation = 0;
  while (!done_) {
    if (generation_ != generation) {
      generation = generation_;
      samples_.clear();
    }
    const double mb = current_mb(fd_);
    if (mb > 0.0) samples_.push_back(mb);
    std::this_thread::sleep_for(kPeriod);
  }
}

std::string result_json(const Outcome& out) {
  std::ostringstream s;
  s << "{\"correct\": " << (out.correct ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    s << (i ? ", " : "") << quoted(m.name) << ": {\"value\": "
      << number(m.value) << ", \"unit\": " << quoted(m.unit) << '}';
  }
  s << "}}";
  return s.str();
}

}  // namespace perfbench
