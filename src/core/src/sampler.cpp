#include "aeris/core/sampler.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

/// Noise-key layout. Member key k owns the Philox sample offsets
/// [k * kKeyBlock, (k + 1) * kKeyBlock) of each stream:
///   - kSamplerNoise: TrigFlow start noise at kTrigFlowOffset, EDM start
///     noise at kEdmOffset, consistency evaluation i at
///     kConsistencyOffset + i (i < kMaxConsistencySteps);
///   - kChurn: TrigFlow churn before ODE step i at 1 + i
///     (i + 1 < kMaxTrigFlowSteps).
/// Teacher and student draws are disjoint, and every draw stays in its
/// key's block, so key k + 1 never replays key k's noise.
constexpr std::uint64_t kKeyBlock = 1024;
constexpr std::uint64_t kTrigFlowOffset = 0;
constexpr std::uint64_t kEdmOffset = 512;
constexpr std::uint64_t kConsistencyOffset = 768;
constexpr int kMaxTrigFlowSteps = static_cast<int>(kKeyBlock);
constexpr int kMaxConsistencySteps =
    static_cast<int>(kKeyBlock - kConsistencyOffset);

/// Stacked [E, ...shape] standard normal draws: slab e holds exactly the
/// draws of Philox(members[e].seed) at (stream, members[e].key * kKeyBlock
/// + offset), over the slab's own flat index space from 0. Philox is a
/// stateless seed wrapper, so constructing one per member is free.
Tensor member_noise(const Shape& shape, std::span<const MemberKey> members,
                    std::uint64_t stream, std::uint64_t offset) {
  if (members.empty()) throw std::invalid_argument("sampler: no members");
  Shape stacked;
  stacked.reserve(shape.size() + 1);
  stacked.push_back(static_cast<std::int64_t>(members.size()));
  stacked.insert(stacked.end(), shape.begin(), shape.end());
  Tensor z(stacked);
  const std::int64_t per = z.numel() / stacked[0];
  for (std::size_t e = 0; e < members.size(); ++e) {
    Philox(members[e].seed)
        .fill_normal_range(
            std::span<float>(z.data() + static_cast<std::int64_t>(e) * per,
                             static_cast<std::size_t>(per)),
            stream, members[e].key * kKeyBlock + offset, 0);
  }
  return z;
}

}  // namespace

SamplerKind sampler_kind_from_env() {
  const char* v = std::getenv("AERIS_SAMPLER");
  return (v != nullptr && std::strcmp(v, "consistency") == 0)
             ? SamplerKind::kConsistency
             : SamplerKind::kDpmSolver;
}

std::vector<float> trigflow_schedule(const TrigFlow& tf,
                                     const TrigSamplerConfig& cfg) {
  if (cfg.steps < 1) throw std::invalid_argument("sampler: steps < 1");
  std::vector<float> ts(static_cast<std::size_t>(cfg.steps) + 1);
  const float lmax = std::log(cfg.sigma_max);
  const float lmin = std::log(cfg.sigma_min);
  const float sd = tf.config().sigma_d;
  for (int i = 0; i < cfg.steps; ++i) {
    const float frac = cfg.steps == 1
                           ? 0.0f
                           : static_cast<float>(i) /
                                 static_cast<float>(cfg.steps - 1);
    const float sigma = std::exp(lmax + frac * (lmin - lmax));
    ts[static_cast<std::size_t>(i)] = std::atan(sigma / sd);
  }
  ts[static_cast<std::size_t>(cfg.steps)] = 0.0f;
  return ts;
}

void trigflow_midpoint_step(const DenoiserFn& velocity, Tensor& x, float t,
                            float t_next) {
  const float t_mid = 0.5f * (t + t_next);
  Tensor k1 = velocity(x, t);
  Tensor x_mid = x;
  axpy_(x_mid, t_mid - t, k1);
  Tensor k2 = velocity(x_mid, t_mid);
  axpy_(x, t_next - t, k2);
}

Tensor consistency_estimate(const Tensor& x, const Tensor& v, float t) {
  Tensor x0 = scale(x, std::cos(t));
  axpy_(x0, -std::sin(t), v);
  return x0;
}

Tensor sample_trigflow(const DenoiserFn& velocity, const Shape& shape,
                       const TrigFlow& tf, const TrigSamplerConfig& cfg,
                       std::span<const MemberKey> members) {
  if (cfg.steps > kMaxTrigFlowSteps) {
    throw std::invalid_argument("sampler: TrigFlow steps > 1024 leave the "
                                "member's noise-key block");
  }
  const float sd = tf.config().sigma_d;
  const std::vector<float> ts = trigflow_schedule(tf, cfg);

  // Start from pure noise at t_0: x = sigma_d * z.
  Tensor x =
      member_noise(shape, members, rng_stream::kSamplerNoise, kTrigFlowOffset);
  scale_(x, sd);

  constexpr float kHalfPi = 1.5707963267948966f;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    float t = ts[i];
    const float t_next = ts[i + 1];

    // Trigonometric Langevin-like churn: rotate partially back toward the
    // noise sphere with *fresh* noise, increasing t before the ODE step.
    // The angle depends only on the schedule, so all members share it.
    if (cfg.churn > 0.0f && i + 1 < ts.size() - 1) {
      const float delta =
          std::min(cfg.churn * (t - t_next), kHalfPi - t - 1e-4f);
      if (delta > 0.0f) {
        const Tensor z = member_noise(shape, members, rng_stream::kChurn,
                                      static_cast<std::uint64_t>(i) + 1);
        Tensor xr = scale(x, std::cos(delta));
        axpy_(xr, sd * std::sin(delta), z);
        x = std::move(xr);
        t += delta;
      }
    }
    trigflow_midpoint_step(velocity, x, t, t_next);
  }
  return x;
}

Tensor sample_edm(const DenoiserFn& network, const Shape& shape,
                  const Edm& edm, const EdmSamplerConfig& cfg,
                  std::span<const MemberKey> members) {
  const std::vector<float> sigmas = edm.schedule(cfg.steps);

  Tensor x =
      member_noise(shape, members, rng_stream::kSamplerNoise, kEdmOffset);
  scale_(x, sigmas[0]);

  auto denoise = [&](const Tensor& xx, float sigma) {
    Tensor xin = scale(xx, edm.c_in(sigma));
    Tensor f = network(xin, edm.c_noise(sigma));
    Tensor d = scale(xx, edm.c_skip(sigma));
    axpy_(d, edm.c_out(sigma), f);
    return d;
  };

  for (std::size_t i = 0; i + 1 < sigmas.size(); ++i) {
    const float s = sigmas[i];
    const float s_next = sigmas[i + 1];
    Tensor d0 = denoise(x, s);
    // d = (x - D) / sigma
    Tensor slope = x;
    sub_(slope, d0);
    scale_(slope, 1.0f / s);
    Tensor x_euler = x;
    axpy_(x_euler, s_next - s, slope);
    if (s_next > 0.0f) {
      Tensor d1 = denoise(x_euler, s_next);
      Tensor slope2 = x_euler;
      sub_(slope2, d1);
      scale_(slope2, 1.0f / s_next);
      axpy_(slope, 1.0f, slope2);
      scale_(slope, 0.5f);
      x_euler = x;
      axpy_(x_euler, s_next - s, slope);
    }
    x = std::move(x_euler);
  }
  return x;
}

std::vector<float> consistency_schedule(const TrigFlow& tf,
                                        const ConsistencySamplerConfig& cfg) {
  if (cfg.steps < 1) throw std::invalid_argument("sampler: steps < 1");
  std::vector<float> ts(static_cast<std::size_t>(cfg.steps));
  const float lmax = std::log(cfg.sigma_max);
  const float lmin = std::log(cfg.sigma_min);
  const float sd = tf.config().sigma_d;
  for (int i = 0; i < cfg.steps; ++i) {
    // frac = i / steps (not steps - 1): the last evaluation sits one
    // log-spacing above sigma_min, so multistep refinement re-noises at a
    // useful level instead of collapsing onto the schedule floor.
    const float frac =
        static_cast<float>(i) / static_cast<float>(cfg.steps);
    const float sigma = std::exp(lmax + frac * (lmin - lmax));
    ts[static_cast<std::size_t>(i)] = std::atan(sigma / sd);
  }
  return ts;
}

Tensor sample_consistency(const DenoiserFn& velocity, const Shape& shape,
                          const TrigFlow& tf,
                          const ConsistencySamplerConfig& cfg,
                          std::span<const MemberKey> members) {
  if (cfg.steps > kMaxConsistencySteps) {
    throw std::invalid_argument("sampler: consistency steps > 256 leave the "
                                "member's noise-key block");
  }
  const float sd = tf.config().sigma_d;
  const std::vector<float> ts = consistency_schedule(tf, cfg);

  // Start from pure noise at t_0: x = sigma_d * z.
  Tensor x = member_noise(shape, members, rng_stream::kSamplerNoise,
                          kConsistencyOffset);
  scale_(x, sd);

  Tensor x0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const float t = ts[i];
    if (i > 0) {
      // Re-noise the estimate to t with *fresh* noise:
      // x = cos(t) x0 + sin(t) sigma_d z_i.
      const Tensor z =
          member_noise(shape, members, rng_stream::kSamplerNoise,
                       kConsistencyOffset + static_cast<std::uint64_t>(i));
      x = scale(x0, std::cos(t));
      axpy_(x, sd * std::sin(t), z);
    }
    x0 = consistency_estimate(x, velocity(x, t), t);
  }
  return x0;
}

}  // namespace aeris::core
