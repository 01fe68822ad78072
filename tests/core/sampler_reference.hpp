// Serial reference samplers: one member per call, noise keyed by
// (rng, member) exactly as the library's keyed samplers key a slab with
// MemberKey{rng.seed(), member}. These are the original one-member loops,
// kept verbatim so the stacked samplers have an independent reference to
// be compared against slab by slab (test_sampler_parity.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "aeris/core/sampler.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::core::reference {

/// Consistency noise offset inside a member's 1024-wide key block.
constexpr std::uint64_t kConsistencyNoiseOffset = 768;

inline Tensor sample_trigflow(const DenoiserFn& velocity, const Shape& shape,
                              const TrigFlow& tf, const TrigSamplerConfig& cfg,
                              const Philox& rng, std::uint64_t member) {
  const float sd = tf.config().sigma_d;
  const std::vector<float> ts = trigflow_schedule(tf, cfg);

  // Start from pure noise at t_0: x = sigma_d * z.
  Tensor x(shape);
  rng.fill_normal(x, rng_stream::kSamplerNoise, member * 1024);
  scale_(x, sd);

  constexpr float kHalfPi = 1.5707963267948966f;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    float t = ts[i];
    const float t_next = ts[i + 1];

    // Trigonometric Langevin-like churn: rotate partially back toward the
    // noise sphere with *fresh* noise, increasing t before the ODE step.
    if (cfg.churn > 0.0f && i + 1 < ts.size() - 1) {
      const float delta =
          std::min(cfg.churn * (t - t_next), kHalfPi - t - 1e-4f);
      if (delta > 0.0f) {
        Tensor z(shape);
        rng.fill_normal(z, rng_stream::kChurn,
                        member * 1024 + static_cast<std::uint64_t>(i) + 1);
        Tensor xr = scale(x, std::cos(delta));
        axpy_(xr, sd * std::sin(delta), z);
        x = xr;
        t += delta;
      }
    }

    // Midpoint (two-stage second order) step of dx/dt = v(x, t).
    const float t_mid = 0.5f * (t + t_next);
    Tensor k1 = velocity(x, t);
    Tensor x_mid = x;
    axpy_(x_mid, t_mid - t, k1);
    Tensor k2 = velocity(x_mid, t_mid);
    axpy_(x, t_next - t, k2);
  }
  return x;
}

inline Tensor sample_edm(const DenoiserFn& network, const Shape& shape,
                         const Edm& edm, const EdmSamplerConfig& cfg,
                         const Philox& rng, std::uint64_t member) {
  const std::vector<float> sigmas = edm.schedule(cfg.steps);

  Tensor x(shape);
  rng.fill_normal(x, rng_stream::kSamplerNoise, member * 1024 + 512);
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
    x = x_euler;
  }
  return x;
}

inline Tensor sample_consistency(const DenoiserFn& velocity,
                                 const Shape& shape, const TrigFlow& tf,
                                 const ConsistencySamplerConfig& cfg,
                                 const Philox& rng, std::uint64_t member) {
  const float sd = tf.config().sigma_d;
  const std::vector<float> ts = consistency_schedule(tf, cfg);

  // Start from pure noise at t_0: x = sigma_d * z.
  Tensor x(shape);
  rng.fill_normal(x, rng_stream::kSamplerNoise,
                  member * 1024 + kConsistencyNoiseOffset);
  scale_(x, sd);

  Tensor x0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const float t = ts[i];
    if (i > 0) {
      // Re-noise the estimate to t with *fresh* noise:
      // x = cos(t) x0 + sin(t) sigma_d z_i.
      Tensor z(shape);
      rng.fill_normal(z, rng_stream::kSamplerNoise,
                      member * 1024 + kConsistencyNoiseOffset +
                          static_cast<std::uint64_t>(i));
      x = scale(x0, std::cos(t));
      axpy_(x, sd * std::sin(t), z);
    }
    // Consistency estimate f(x, t) = cos(t) x - sin(t) v(x, t).
    Tensor v = velocity(x, t);
    x0 = scale(x, std::cos(t));
    axpy_(x0, -std::sin(t), v);
  }
  return x0;
}

}  // namespace aeris::core::reference
