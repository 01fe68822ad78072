#pragma once
// Shared pieces of the workloads: command-line arguments, the model
// configurations each workload runs, seeded input fields and small
// statistics helpers.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "aeris/core/model.hpp"
#include "aeris/tensor/rng.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set-ups per untraced run; setup_s reports their median. (`rollout`,
/// whose warm-up call alone takes seconds, does fewer.)
inline constexpr int kSetupRepeats = 5;

/// `rollout`: the library-default configuration (32x64, dim 64, depth 4).
inline aeris::core::ModelConfig rollout_config() { return {}; }

/// The 16x16 dim-32 depth-2 model of `serve`, `cluster_serve` and `train`
/// (five state variables, two forcing channels).
inline aeris::core::ModelConfig small_config(std::int64_t h = 16,
                                             std::int64_t w = 16) {
  aeris::core::ModelConfig m;
  m.h = h;
  m.w = w;
  m.in_channels = 12;
  m.out_channels = 5;
  m.dim = 32;
  m.depth = 2;
  m.heads = 4;
  m.ffn_hidden = 64;
  m.win_h = 8;
  m.win_w = 8;
  m.cond_dim = 32;
  return m;
}

/// Forcing channels a configuration expects (Cin = 2 V + F).
inline std::int64_t forcing_channels(const aeris::core::ModelConfig& m) {
  return m.in_channels - 2 * m.out_channels;
}

/// A model whose zero-initialized heads are perturbed, so forecasts are not
/// trivially the input (random weights otherwise; skill is irrelevant to
/// the timings).
aeris::core::AerisModel make_model(const aeris::core::ModelConfig& cfg,
                                   std::uint64_t seed);

/// Standard-normal [h, w, c] field keyed by (seed, key).
aeris::Tensor make_field(std::int64_t h, std::int64_t w, std::int64_t c,
                         std::uint64_t seed, std::uint64_t key);

/// Bitwise equality of two tensors (shape and every bit of every value).
bool same_bits(const aeris::Tensor& a, const aeris::Tensor& b);
bool same_bits(const std::vector<std::vector<aeris::Tensor>>& a,
               const std::vector<std::vector<aeris::Tensor>>& b);

}  // namespace perfbench
