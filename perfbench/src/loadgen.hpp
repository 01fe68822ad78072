#pragma once
// Seeded open-loop request stream for the serving workloads, and the
// percentile rule the latency metrics use.
#include <cstdint>
#include <vector>

namespace perfbench {

/// Where a request is routed and which sampler it asks for.
enum class Route : std::uint8_t {
  kTeacher,             ///< default variant, engine-default (ODE) sampler
  kTeacherConsistency,  ///< full-skill class, few-step consistency sampler
  kPreview,             ///< preview class (coarse shared-backbone variant)
  kTeacherOde,          ///< default variant, ODE sampler named explicitly
};

struct RequestSpec {
  std::uint64_t id = 0;     ///< index in the stream (also the trace id)
  double due_s = 0.0;       ///< send time, seconds after the stream starts
  std::int64_t members = 1;
  std::int64_t steps = 1;
  Route route = Route::kTeacher;
  std::uint64_t seed = 0;   ///< ensemble seed of the request
};

/// `n` requests with Poisson arrivals at `rate_per_s`, the last one due at
/// exactly n / rate_per_s seconds. The request mix is
/// stratified: members follow the heavy-tailed weights 32:8:2:1 over
/// {1, 2, 4, 8}, steps the weights 4:2:1 over {1, 2, 4}, and routes the
/// weights 4:4:1:1 over consistency / preview / teacher / explicit-ODE
/// teacher, in exact proportions for a given `n`; the seed
/// permutes their order and draws the arrival gaps and request seeds. So
/// every seed offers the same total work, in a different order and timing.
std::vector<RequestSpec> make_stream(std::uint64_t seed, double rate_per_s,
                                     std::int64_t n);

/// Nearest-rank percentile (q in (0, 1]) of `samples`. A failed or refused
/// request enters as +infinity, so it lands above every real latency.
double percentile(std::vector<double> samples, double q);

/// splitmix64 step: the benchmark's seed-derivation function.
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
