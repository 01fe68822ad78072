#include "aeris/core/forecaster.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "aeris/core/cursor.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

ModelConfig fc_cfg(bool deterministic) {
  ModelConfig c;
  c.h = 8;
  c.w = 8;
  c.out_channels = 2;
  c.in_channels = (deterministic ? 1 : 2) * 2 + 1;
  c.dim = 16;
  c.depth = 2;
  c.heads = 2;
  c.ffn_hidden = 32;
  c.win_h = 4;
  c.win_w = 4;
  c.cond_dim = 16;
  c.time_features = 8;
  return c;
}

ForcingFn const_forcings(std::int64_t h, std::int64_t w) {
  return [h, w](std::int64_t) { return Tensor({h, w, 1}, 0.3f); };
}

TEST(DiffusionForecaster, StepShapeAndFiniteness) {
  AerisModel model(fc_cfg(false), 1);
  DiffusionForecaster fc(model, TrigFlowConfig{}, TrigSamplerConfig{.steps = 4},
                         2);
  Philox rng(1);
  Tensor prev({8, 8, 2});
  rng.fill_normal(prev, 1, 0);
  Tensor next = fc.forecast_step(prev, Tensor({8, 8, 1}, 0.3f), 0, 0);
  EXPECT_EQ(next.shape(), prev.shape());
  for (float v : next.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(DiffusionForecaster, ZeroModelPredictsNoiseResidualAroundPrev) {
  // A zero-output network has velocity 0 everywhere, so the sampled
  // residual equals the initial noise — a sanity anchor for the plumbing.
  AerisModel model(fc_cfg(false), 2);  // zero-init head => F == 0
  DiffusionForecaster fc(model, TrigFlowConfig{}, TrigSamplerConfig{.steps = 4},
                         3);
  Tensor prev({8, 8, 2}, 1.0f);
  Tensor next = fc.forecast_step(prev, Tensor({8, 8, 1}, 0.0f), 0, 0);
  // Residual mean ~ 0, variance ~ sigma_d^2.
  Tensor residual = sub(next, prev);
  EXPECT_NEAR(mean(residual), 0.0f, 0.2f);
  EXPECT_NEAR(mean_sq(residual), 1.0f, 0.4f);
}

TEST(DiffusionForecaster, EnsembleMembersDifferRollsAreReproducible) {
  AerisModel model(fc_cfg(false), 3);
  DiffusionForecaster fc(model, TrigFlowConfig{}, TrigSamplerConfig{.steps = 3},
                         4);
  Philox rng(2);
  Tensor init({8, 8, 2});
  rng.fill_normal(init, 1, 0);
  auto ens = fc.ensemble_rollout(init, const_forcings(8, 8), 2, 2);
  ASSERT_EQ(ens.size(), 2u);
  ASSERT_EQ(ens[0].size(), 2u);
  EXPECT_FALSE(ens[0][0].allclose(ens[1][0], 1e-4f));

  auto again = fc.rollout(init, const_forcings(8, 8), 2, 0);
  EXPECT_TRUE(ens[0][1].allclose(again[1]));
}

TEST(DiffusionForecaster, StepsAreChainedAutoregressively) {
  AerisModel model(fc_cfg(false), 4);
  DiffusionForecaster fc(model, TrigFlowConfig{}, TrigSamplerConfig{.steps = 3},
                         5);
  Philox rng(3);
  Tensor init({8, 8, 2});
  rng.fill_normal(init, 1, 0);
  auto roll = fc.rollout(init, const_forcings(8, 8), 3, 0);
  ASSERT_EQ(roll.size(), 3u);
  // step s recomputed from state s-1 must match the rollout entry.
  Tensor s1 = fc.forecast_step(roll[0], const_forcings(8, 8)(1), 0, 1);
  EXPECT_TRUE(s1.allclose(roll[1]));
}

TEST(DiffusionForecaster, EdmVariantRuns) {
  AerisModel model(fc_cfg(false), 5);
  DiffusionForecaster fc(model, EdmConfig{}, EdmSamplerConfig{.steps = 4}, 6);
  EXPECT_EQ(fc.parameterization(), Parameterization::kEdm);
  Philox rng(4);
  Tensor prev({8, 8, 2});
  rng.fill_normal(prev, 1, 0);
  Tensor next = fc.forecast_step(prev, Tensor({8, 8, 1}, 0.1f), 0, 0);
  EXPECT_EQ(next.shape(), prev.shape());
  for (float v : next.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(DiffusionForecaster, RejectsBatchedPrev) {
  AerisModel model(fc_cfg(false), 6);
  DiffusionForecaster fc(model, TrigFlowConfig{}, TrigSamplerConfig{.steps = 2},
                         7);
  EXPECT_THROW(fc.forecast_step(Tensor({1, 8, 8, 2}), Tensor({8, 8, 1}), 0, 0),
               std::invalid_argument);
}

TEST(DiffusionForecaster, RejectsRolloutsPastTheMemberKeyRange) {
  // Step kStepsPerMember of member m would draw member m+1's step-0 noise.
  AerisModel model(fc_cfg(false), 6);
  DiffusionForecaster fc(model, TrigFlowConfig{}, TrigSamplerConfig{.steps = 2},
                         7);
  const Tensor init({8, 8, 2});
  const std::int64_t too_long = MemberCursor::kStepsPerMember + 1;
  EXPECT_THROW(fc.rollout(init, const_forcings(8, 8), too_long, 0),
               std::invalid_argument);
  EXPECT_THROW(fc.ensemble_rollout(init, const_forcings(8, 8), too_long, 2),
               std::invalid_argument);
}

TEST(DeterministicForecaster, ZeroModelIsPersistence) {
  AerisModel model(fc_cfg(true), 7);
  DeterministicForecaster fc(model);
  Philox rng(5);
  Tensor prev({8, 8, 2});
  rng.fill_normal(prev, 1, 0);
  Tensor next = fc.forecast_step(prev, Tensor({8, 8, 1}, 0.2f));
  EXPECT_TRUE(next.allclose(prev));  // zero-init head => zero residual
}

TEST(DeterministicForecaster, RolloutLengthAndChaining) {
  AerisModel model(fc_cfg(true), 8);
  DeterministicForecaster fc(model);
  Philox rng(6);
  Tensor init({8, 8, 2});
  rng.fill_normal(init, 1, 0);
  auto roll = fc.rollout(init, const_forcings(8, 8), 4);
  ASSERT_EQ(roll.size(), 4u);
  // Deterministic: repeated rollout is identical.
  auto roll2 = fc.rollout(init, const_forcings(8, 8), 4);
  for (std::size_t i = 0; i < roll.size(); ++i) {
    EXPECT_TRUE(roll[i].allclose(roll2[i]));
  }
}

}  // namespace
}  // namespace aeris::core
