#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

// Category tables; each entry is one unit of weight.
constexpr std::int64_t kMembers[] = {
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 8};
constexpr std::int64_t kSteps[] = {1, 1, 1, 1, 2, 2, 4};
constexpr Route kRoutes[] = {
    Route::kTeacherConsistency, Route::kTeacherConsistency,
    Route::kTeacherConsistency, Route::kTeacherConsistency,
    Route::kTeacherConsistency, Route::kTeacherConsistency,
    Route::kTeacherConsistency, Route::kTeacherConsistency,
    Route::kTeacherConsistency, Route::kPreview,
    Route::kPreview,            Route::kPreview,
    Route::kPreview,            Route::kPreview,
    Route::kPreview,            Route::kPreview,
    Route::kPreview,            Route::kPreview,
    Route::kTeacher,            Route::kTeacherOde};
constexpr std::int64_t kNM = sizeof(kMembers) / sizeof(kMembers[0]);
constexpr std::int64_t kNS = sizeof(kSteps) / sizeof(kSteps[0]);
constexpr std::int64_t kNR = sizeof(kRoutes) / sizeof(kRoutes[0]);

// Uniform double in [0, 1) from the top 53 bits.
double unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<RequestSpec> make_stream(std::uint64_t seed, double rate_per_s,
                                     std::int64_t n) {
  if (n < 0 || !(rate_per_s > 0.0)) {
    throw std::invalid_argument("make_stream: need n >= 0 and rate > 0");
  }
  // Exact-proportion mix: index i enumerates (members, steps, route) in
  // mixed radix, so every full period of kNM * kNS * kNR requests holds
  // each combination once.
  std::vector<RequestSpec> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    RequestSpec& r = out[static_cast<std::size_t>(i)];
    r.members = kMembers[i % kNM];
    r.steps = kSteps[(i / kNM) % kNS];
    r.route = kRoutes[(i / (kNM * kNS)) % kNR];
  }
  // Seeded Fisher-Yates permutation of the mix.
  std::uint64_t state = mix64(seed ^ 0x5EED5EED5EEDull);
  for (std::int64_t i = n - 1; i > 0; --i) {
    state = mix64(state);
    const auto j = static_cast<std::int64_t>(
        unit(state) * static_cast<double>(i + 1));
    std::swap(out[static_cast<std::size_t>(i)],
              out[static_cast<std::size_t>(std::min(j, i))]);
  }
  // Poisson arrivals, conditioned on the count: n exponential gaps (by
  // inversion) rescaled so the last request is due at exactly n / rate.
  // Given n arrivals in [0, T] a Poisson process is exactly this, and every
  // seed then spans the same time.
  double t = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    RequestSpec& r = out[static_cast<std::size_t>(i)];
    state = mix64(state);
    t += -std::log1p(-unit(state));
    r.id = static_cast<std::uint64_t>(i);
    r.due_s = t;
    state = mix64(state);
    r.seed = state;
  }
  const double span_s = static_cast<double>(n) / rate_per_s;
  const double scale = span_s / (t > 0.0 ? t : 1.0);
  for (RequestSpec& r : out) r.due_s *= scale;
  return out;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<std::int64_t>(samples.size());
  auto rank =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  return samples[static_cast<std::size_t>(rank - 1)];
}

}  // namespace perfbench
