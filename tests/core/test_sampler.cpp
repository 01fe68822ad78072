#include "aeris/core/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

/// A one-member solve keyed like a serial forecast: seed of `rng`, key
/// `member`.
std::vector<MemberKey> one_member(const Philox& rng, std::uint64_t member) {
  return {MemberKey{rng.seed(), member}};
}

TEST(TrigSchedule, DecreasingEndsAtZero) {
  TrigFlow tf(TrigFlowConfig{});
  TrigSamplerConfig cfg;
  cfg.steps = 10;
  auto ts = trigflow_schedule(tf, cfg);
  ASSERT_EQ(ts.size(), 11u);
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) EXPECT_GT(ts[i], ts[i + 1]);
  EXPECT_FLOAT_EQ(ts.back(), 0.0f);
  EXPECT_NEAR(ts.front(), std::atan(cfg.sigma_max), 1e-5f);
  EXPECT_THROW(trigflow_schedule(tf, TrigSamplerConfig{.steps = 0}),
               std::invalid_argument);
}

// An exactly-solvable case: if the data distribution is a point mass at
// mu, the optimal velocity is v(x,t) = (cos t * E[z|x] - sin t * mu)...
// For a point mass with sigma_d = 1, the posterior mean of z given x_t is
// (x - cos t * mu) / sin t, so
//   v*(x, t) = cos t (x - cos t mu)/sin t - sin t mu
//            = (cos t x - mu cos^2 t - mu sin^2 t)/sin t = (cos t x - mu)/sin t.
// Integrating the PF-ODE from pure noise must land on mu.
TEST(TrigSampler, RecoversPointMass) {
  TrigFlowConfig tfc;
  TrigFlow tf(tfc);
  const float mu = 1.7f;
  DenoiserFn velocity = [&](const Tensor& x, float t) {
    Tensor v(x.shape());
    const float st = std::max(std::sin(t), 1e-6f);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      v[i] = (std::cos(t) * x[i] - mu) / st;
    }
    return v;
  };
  TrigSamplerConfig cfg;
  cfg.steps = 30;
  Philox rng(1);
  Tensor sample = sample_trigflow(velocity, {64}, tf, cfg, one_member(rng, 0));
  for (std::int64_t i = 0; i < sample.numel(); ++i) {
    EXPECT_NEAR(sample[i], mu, 0.05f) << i;
  }
}

// Gaussian data N(0, sigma_d^2): the optimal velocity is identically 0
// (x_t is stationary under the PF-ODE) — samples should stay ~N(0,1).
TEST(TrigSampler, GaussianDataGivesUnitVarianceSamples) {
  TrigFlow tf(TrigFlowConfig{});
  DenoiserFn velocity = [](const Tensor& x, float) { return Tensor(x.shape()); };
  TrigSamplerConfig cfg;
  cfg.steps = 10;
  Philox rng(2);
  Tensor s = sample_trigflow(velocity, {4096}, tf, cfg, one_member(rng, 0));
  EXPECT_NEAR(mean(s), 0.0f, 0.05f);
  EXPECT_NEAR(mean_sq(s), 1.0f, 0.1f);
}

TEST(TrigSampler, MembersDiffer) {
  TrigFlow tf(TrigFlowConfig{});
  DenoiserFn velocity = [](const Tensor& x, float) { return Tensor(x.shape()); };
  TrigSamplerConfig cfg;
  Philox rng(3);
  Tensor a = sample_trigflow(velocity, {32}, tf, cfg, one_member(rng, 0));
  Tensor b = sample_trigflow(velocity, {32}, tf, cfg, one_member(rng, 1));
  EXPECT_FALSE(a.allclose(b, 1e-3f));
  // Same member is reproducible.
  Tensor a2 = sample_trigflow(velocity, {32}, tf, cfg, one_member(rng, 0));
  EXPECT_TRUE(a.allclose(a2));
}

TEST(TrigSampler, ChurnPreservesPointMassRecovery) {
  TrigFlow tf(TrigFlowConfig{});
  const float mu = -0.8f;
  DenoiserFn velocity = [&](const Tensor& x, float t) {
    Tensor v(x.shape());
    const float st = std::max(std::sin(t), 1e-6f);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      v[i] = (std::cos(t) * x[i] - mu) / st;
    }
    return v;
  };
  TrigSamplerConfig cfg;
  cfg.steps = 30;
  cfg.churn = 0.5f;
  Philox rng(4);
  Tensor s = sample_trigflow(velocity, {32}, tf, cfg, one_member(rng, 0));
  for (std::int64_t i = 0; i < s.numel(); ++i) EXPECT_NEAR(s[i], mu, 0.08f);
}

TEST(TrigSampler, ChurnInjectsFreshNoiseWithoutBiasingDistribution) {
  // Churn temporarily re-noises the trajectory (§VI-B "Inference"). Two
  // invariants: (1) the sample path actually changes, and (2) for data
  // that is exactly N(0, sigma_d^2) — where the optimal velocity is 0 —
  // churned samples remain ~N(0,1): noise is injected and then removed by
  // the flow, not accumulated as bias.
  TrigFlow tf(TrigFlowConfig{});
  DenoiserFn velocity = [](const Tensor& x, float) { return Tensor(x.shape()); };
  TrigSamplerConfig plain;
  plain.steps = 12;
  TrigSamplerConfig churned = plain;
  churned.churn = 0.8f;
  Philox rng(5);
  Tensor a = sample_trigflow(velocity, {4096}, tf, plain, one_member(rng, 0));
  Tensor b = sample_trigflow(velocity, {4096}, tf, churned, one_member(rng, 0));
  EXPECT_FALSE(a.allclose(b, 1e-3f));
  EXPECT_NEAR(mean(b), 0.0f, 0.05f);
  EXPECT_NEAR(mean_sq(b), 1.0f, 0.12f);
}

TEST(EdmSchedule, KarrasShape) {
  Edm edm(EdmConfig{});
  auto s = edm.schedule(10);
  ASSERT_EQ(s.size(), 11u);
  EXPECT_FLOAT_EQ(s[0], 80.0f);
  EXPECT_NEAR(s[9], 0.02f, 1e-4f);
  EXPECT_FLOAT_EQ(s[10], 0.0f);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_GT(s[i], s[i + 1]);
}

TEST(EdmPreconditioners, BoundaryBehaviour) {
  Edm edm(EdmConfig{});
  // Small sigma: c_skip -> 1, c_out -> 0 (network barely matters).
  EXPECT_NEAR(edm.c_skip(1e-3f), 1.0f, 1e-4f);
  EXPECT_NEAR(edm.c_out(1e-3f), 1e-3f, 1e-4f);
  // Large sigma: c_skip -> 0, c_in ~ 1/sigma.
  EXPECT_NEAR(edm.c_skip(100.0f), 0.0f, 1e-3f);
  EXPECT_NEAR(edm.c_in(100.0f) * 100.0f, 1.0f, 1e-3f);
  // Identity: c_skip^2 + (c_out * c_in / sigma_d * sigma)^... preserved
  // variance: c_in^2 (sigma^2 + sigma_d^2) == 1.
  for (float s : {0.1f, 1.0f, 10.0f}) {
    EXPECT_NEAR(edm.c_in(s) * edm.c_in(s) * (s * s + 1.0f), 1.0f, 1e-4f);
  }
}

TEST(EdmSampler, RecoversPointMass) {
  // Optimal denoiser for point mass at mu is D(x;sigma) = mu, so the
  // network must output F = (mu - c_skip x)/c_out.
  EdmConfig ec;
  Edm edm(ec);
  const float mu = 2.5f;
  // We receive x_in = c_in * x and t = c_noise(sigma); recover sigma.
  DenoiserFn network = [&](const Tensor& xin, float t) {
    const float sigma = std::exp(4.0f * t);
    Tensor f(xin.shape());
    const float cin = edm.c_in(sigma), cs = edm.c_skip(sigma),
                co = edm.c_out(sigma);
    for (std::int64_t i = 0; i < xin.numel(); ++i) {
      const float x = xin[i] / cin;
      f[i] = (mu - cs * x) / co;
    }
    return f;
  };
  EdmSamplerConfig cfg;
  cfg.steps = 20;
  Philox rng(6);
  Tensor s = sample_edm(network, {32}, edm, cfg, one_member(rng, 0));
  for (std::int64_t i = 0; i < s.numel(); ++i) EXPECT_NEAR(s[i], mu, 0.05f);
}

TEST(EdmLossWeight, MatchesFormula) {
  Edm edm(EdmConfig{});
  for (float s : {0.1f, 0.5f, 2.0f}) {
    EXPECT_NEAR(edm.loss_weight(s), (s * s + 1.0f) / (s * s), 1e-4f);
  }
}

// --- Degenerate step counts (DegradePolicy can drive overrides to 1). ---

TEST(TrigSchedule, SingleStepIsWellDefined) {
  TrigFlow tf(TrigFlowConfig{});
  for (int steps : {1, 2}) {
    TrigSamplerConfig cfg;
    cfg.steps = steps;
    auto ts = trigflow_schedule(tf, cfg);
    ASSERT_EQ(ts.size(), static_cast<std::size_t>(steps) + 1);
    for (float t : ts) EXPECT_TRUE(std::isfinite(t));
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) EXPECT_GT(ts[i], ts[i + 1]);
    EXPECT_FLOAT_EQ(ts.back(), 0.0f);
    EXPECT_NEAR(ts.front(), std::atan(cfg.sigma_max), 1e-5f);
  }
}

TEST(EdmSchedule, SingleStepIsWellDefined) {
  Edm edm(EdmConfig{});
  auto s1 = edm.schedule(1);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_FLOAT_EQ(s1[0], 80.0f);
  EXPECT_FLOAT_EQ(s1[1], 0.0f);
  auto s2 = edm.schedule(2);
  ASSERT_EQ(s2.size(), 3u);
  for (float s : s2) EXPECT_TRUE(std::isfinite(s));
  EXPECT_FLOAT_EQ(s2[0], 80.0f);
  EXPECT_NEAR(s2[1], 0.02f, 1e-4f);
  EXPECT_FLOAT_EQ(s2[2], 0.0f);
  EXPECT_THROW(edm.schedule(0), std::invalid_argument);
}

TEST(TrigSampler, FewStepSamplesStayWellScaled) {
  // Gaussian data (optimal velocity 0): samples must remain ~N(0,1) even
  // at the degenerate step counts a degraded server runs.
  TrigFlow tf(TrigFlowConfig{});
  DenoiserFn velocity = [](const Tensor& x, float) { return Tensor(x.shape()); };
  for (int steps : {1, 2}) {
    TrigSamplerConfig cfg;
    cfg.steps = steps;
    Philox rng(7);
    Tensor s = sample_trigflow(velocity, {4096}, tf, cfg, one_member(rng, 0));
    for (std::int64_t i = 0; i < s.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(s[i])) << "steps=" << steps;
    }
    EXPECT_NEAR(mean(s), 0.0f, 0.05f) << "steps=" << steps;
    EXPECT_NEAR(mean_sq(s), 1.0f, 0.1f) << "steps=" << steps;
  }
}

TEST(EdmSampler, SingleStepRecoversPointMassExactly) {
  // With the optimal point-mass denoiser D = mu, the single Euler step of
  // the {sigma_max, 0} schedule is x + (0 - sigma)(x - mu)/sigma = mu:
  // steps = 1 must be exact, not just finite.
  Edm edm(EdmConfig{});
  const float mu = -1.25f;
  DenoiserFn network = [&](const Tensor& xin, float t) {
    const float sigma = std::exp(4.0f * t);
    Tensor f(xin.shape());
    const float cin = edm.c_in(sigma), cs = edm.c_skip(sigma),
                co = edm.c_out(sigma);
    for (std::int64_t i = 0; i < xin.numel(); ++i) {
      f[i] = (mu - cs * (xin[i] / cin)) / co;
    }
    return f;
  };
  for (int steps : {1, 2}) {
    EdmSamplerConfig cfg;
    cfg.steps = steps;
    Philox rng(8);
    Tensor s = sample_edm(network, {32}, edm, cfg, one_member(rng, 0));
    for (std::int64_t i = 0; i < s.numel(); ++i) {
      EXPECT_NEAR(s[i], mu, steps == 1 ? 1e-4f : 0.05f) << "steps=" << steps;
    }
  }
}

// --- Few-step consistency sampler. ---

TEST(ConsistencySchedule, ExactlyStepsDecreasingTimes) {
  TrigFlow tf(TrigFlowConfig{});
  for (int steps : {1, 2, 4}) {
    ConsistencySamplerConfig cfg;
    cfg.steps = steps;
    auto ts = consistency_schedule(tf, cfg);
    ASSERT_EQ(ts.size(), static_cast<std::size_t>(steps));
    EXPECT_NEAR(ts.front(), std::atan(cfg.sigma_max), 1e-5f);
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) EXPECT_GT(ts[i], ts[i + 1]);
    // No trailing zero: every entry is a network evaluation time.
    EXPECT_GT(ts.back(), 0.0f);
  }
  EXPECT_THROW(consistency_schedule(tf, ConsistencySamplerConfig{.steps = 0}),
               std::invalid_argument);
}

TEST(ConsistencySampler, PerfectStudentRecoversPointMassAtEveryStepCount) {
  // A perfect consistency function maps any x_t to the data point: for a
  // point mass at mu, f(x,t) = mu requires velocity (cos t x - mu)/sin t.
  // Unlike the ODE solvers this is exact at ANY evaluation count.
  TrigFlow tf(TrigFlowConfig{});
  const float mu = 0.9f;
  DenoiserFn velocity = [&](const Tensor& x, float t) {
    Tensor v(x.shape());
    const float st = std::max(std::sin(t), 1e-6f);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      v[i] = (std::cos(t) * x[i] - mu) / st;
    }
    return v;
  };
  for (int steps : {1, 2, 3, 4}) {
    ConsistencySamplerConfig cfg;
    cfg.steps = steps;
    Philox rng(9);
    Tensor s = sample_consistency(velocity, {32}, tf, cfg, one_member(rng, 0));
    for (std::int64_t i = 0; i < s.numel(); ++i) {
      EXPECT_NEAR(s[i], mu, 2e-4f) << "steps=" << steps;
    }
  }
}

TEST(ConsistencySampler, MembersDifferAndAreReproducible) {
  TrigFlow tf(TrigFlowConfig{});
  // Identity-ish student: f(x,t) = cos(t) x (velocity 0) keeps the member
  // noise visible in the output.
  DenoiserFn velocity = [](const Tensor& x, float) { return Tensor(x.shape()); };
  ConsistencySamplerConfig cfg;
  cfg.steps = 2;
  Philox rng(10);
  Tensor a = sample_consistency(velocity, {32}, tf, cfg, one_member(rng, 0));
  Tensor b = sample_consistency(velocity, {32}, tf, cfg, one_member(rng, 1));
  EXPECT_FALSE(a.allclose(b, 1e-3f));
  Tensor a2 = sample_consistency(velocity, {32}, tf, cfg, one_member(rng, 0));
  EXPECT_TRUE(a.allclose(a2));
}

TEST(ConsistencySampler, NoiseStreamsDisjointFromOdeSamplers) {
  // One seed serves teacher and student side by side in the server; their
  // initial-noise draws must come from different key offsets.
  TrigFlow tf(TrigFlowConfig{});
  DenoiserFn velocity = [](const Tensor& x, float) { return Tensor(x.shape()); };
  Philox rng(11);
  ConsistencySamplerConfig cc;
  cc.steps = 1;
  TrigSamplerConfig tc;
  tc.steps = 1;
  Tensor cons = sample_consistency(velocity, {64}, tf, cc, one_member(rng, 0));
  Tensor trig = sample_trigflow(velocity, {64}, tf, tc, one_member(rng, 0));
  // Zero velocity: trig returns sigma_d * z_trig and cons returns
  // cos(t0) * sigma_d * z_cons — identical draws would make cons equal to
  // cos(t0) * trig exactly.
  const float t0 = std::atan(cc.sigma_max / tf.config().sigma_d);
  Tensor aliased = scale(trig, std::cos(t0));
  EXPECT_FALSE(cons.allclose(aliased, 1e-5f));
}

// --- Noise-key block bounds: draws past a key's 1024-wide block would
// replay the next key's noise. ---

TEST(TrigSampler, RejectsStepsBeyondTheNoiseKeyBlock) {
  TrigFlow tf(TrigFlowConfig{});
  DenoiserFn velocity = [](const Tensor& x, float) { return Tensor(x.shape()); };
  Philox rng(12);
  TrigSamplerConfig cfg;
  cfg.churn = 0.5f;  // churn draws reach offset steps - 1
  cfg.steps = 1025;
  EXPECT_THROW(sample_trigflow(velocity, {4}, tf, cfg, one_member(rng, 0)),
               std::invalid_argument);
  cfg.steps = 1024;
  EXPECT_NO_THROW(sample_trigflow(velocity, {4}, tf, cfg, one_member(rng, 0)));
}

TEST(ConsistencySampler, RejectsStepsBeyondTheNoiseKeyBlock) {
  TrigFlow tf(TrigFlowConfig{});
  DenoiserFn velocity = [](const Tensor& x, float) { return Tensor(x.shape()); };
  Philox rng(13);
  ConsistencySamplerConfig cfg;
  cfg.steps = 257;
  EXPECT_THROW(
      sample_consistency(velocity, {4}, tf, cfg, one_member(rng, 0)),
      std::invalid_argument);
  cfg.steps = 256;
  EXPECT_NO_THROW(
      sample_consistency(velocity, {4}, tf, cfg, one_member(rng, 0)));
}

}  // namespace
}  // namespace aeris::core
