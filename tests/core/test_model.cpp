#include "aeris/core/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

ModelConfig tiny_cfg() {
  ModelConfig c;
  c.h = 8;
  c.w = 8;
  c.in_channels = 5;
  c.out_channels = 2;
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

TEST(AerisModel, ForwardShape) {
  AerisModel model(tiny_cfg(), 1);
  Philox rng(1);
  Tensor x({2, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  Tensor y = model.forward(x, Tensor::from({0.3f, 1.0f}));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 2}));
}

TEST(AerisModel, ZeroInitHeadGivesZeroOutput) {
  // The decode head is zero-initialized, so the fresh model predicts a
  // zero residual regardless of input.
  AerisModel model(tiny_cfg(), 2);
  Philox rng(2);
  Tensor x({1, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  Tensor y = model.forward(x, Tensor::from({0.5f}));
  EXPECT_FLOAT_EQ(max_abs(y), 0.0f);
}

TEST(AerisModel, AnalyticParamCountMatchesConstructed) {
  for (std::uint64_t variant = 0; variant < 3; ++variant) {
    ModelConfig c = tiny_cfg();
    c.dim = 16 + 8 * static_cast<std::int64_t>(variant);
    c.depth = 1 + static_cast<std::int64_t>(variant);
    c.ffn_hidden = 2 * c.dim;
    c.cond_dim = c.dim;
    AerisModel model(c, 0);
    EXPECT_EQ(model.param_count(), AerisModel::analytic_param_count(c))
        << "variant " << variant;
  }
}

TEST(AerisModel, DeterministicConstruction) {
  AerisModel a(tiny_cfg(), 7), b(tiny_cfg(), 7), c(tiny_cfg(), 8);
  auto fa = nn::flatten_values(a.params());
  auto fb = nn::flatten_values(b.params());
  auto fc = nn::flatten_values(c.params());
  EXPECT_EQ(fa, fb);
  EXPECT_NE(fa, fc);
}

TEST(AerisModel, ValidatesInputs) {
  AerisModel model(tiny_cfg(), 0);
  EXPECT_THROW(model.forward(Tensor({1, 8, 8, 4}), Tensor({1})),
               std::invalid_argument);
  EXPECT_THROW(model.forward(Tensor({1, 8, 8, 5}), Tensor({2})),
               std::invalid_argument);
  nn::FwdCtx ctx;
  EXPECT_THROW(model.backward(Tensor({1, 8, 8, 2}), ctx), std::logic_error);
}

TEST(AerisModel, RejectsNonTilingWindows) {
  ModelConfig c = tiny_cfg();
  c.win_w = 3;
  EXPECT_THROW(AerisModel(c, 0), std::invalid_argument);
  ModelConfig o = tiny_cfg();
  o.win_h = 5;  // odd: cannot shift by win/2 cleanly (and does not tile 8)
  EXPECT_THROW(AerisModel(o, 0), std::invalid_argument);
}

TEST(AerisModel, ShiftAlternatesAcrossLayers) {
  ModelConfig c = tiny_cfg();
  EXPECT_EQ(c.shift_for_layer(0), 0);
  EXPECT_EQ(c.shift_for_layer(1), c.win_h / 2);
  EXPECT_EQ(c.shift_for_layer(2), 0);
}

// End-to-end gradient check through embed, two Swin layers (one shifted),
// adaLN conditioning, final norm and head.
TEST(AerisModel, GradCheckEndToEnd) {
  ModelConfig c = tiny_cfg();
  c.dim = 8;
  c.ffn_hidden = 16;
  c.cond_dim = 8;
  AerisModel model(c, 3);
  Philox rng(3);
  // Give the zero-init pieces signal so all paths carry gradient.
  for (nn::Param* p : model.params()) {
    if (p->name.find("adaln") != std::string::npos ||
        p->name.find("head") != std::string::npos) {
      rng.fill_normal(p->value, 7, 0);
      scale_(p->value, 0.2f);
    }
  }

  Tensor x({1, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  Tensor t = Tensor::from({0.8f});
  Tensor dy({1, 8, 8, 2});
  rng.fill_normal(dy, 1, 1);

  nn::zero_grads(model.params());
  nn::FwdCtx ctx;
  model.forward(x, t, ctx);
  Tensor dx = model.backward(dy, ctx);

  auto loss_of_x = [&](const Tensor& xx) {
    AerisModel probe(c, 3);
    // Match the perturbed weights.
    nn::unflatten_values(probe.params(), nn::flatten_values(model.params()));
    return dot(probe.forward(xx, t), dy);
  };
  const float eps = 5e-3f;
  for (std::int64_t i = 0; i < x.numel(); i += 37) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float fd = (loss_of_x(xp) - loss_of_x(xm)) / (2 * eps);
    EXPECT_NEAR(dx[i], fd, 3e-2f * std::max(1.0f, std::fabs(fd))) << i;
  }

  // Spot-check a few parameter gradients, including an early-layer weight
  // (exercises the full backward chain).
  nn::ParamList subset;
  for (nn::Param* p : model.params()) {
    if (p->name == "embed.weight" || p->name == "block1.ffn.gate.weight" ||
        p->name == "head.weight" || p->name == "time.shared.weight") {
      subset.push_back(p);
    }
  }
  ASSERT_EQ(subset.size(), 4u);
  for (nn::Param* p : subset) {
    const std::int64_t stride = std::max<std::int64_t>(1, p->numel() / 6);
    for (std::int64_t i = 0; i < p->numel(); i += stride) {
      const float save = p->value[i];
      p->value[i] = save + eps;
      AerisModel probe_p(c, 3);
      nn::unflatten_values(probe_p.params(), nn::flatten_values(model.params()));
      const float lp = dot(probe_p.forward(x, t), dy);
      p->value[i] = save - eps;
      AerisModel probe_m(c, 3);
      nn::unflatten_values(probe_m.params(), nn::flatten_values(model.params()));
      const float lm = dot(probe_m.forward(x, t), dy);
      p->value[i] = save;
      const float fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[i], fd, 3e-2f * std::max(1.0f, std::fabs(fd)))
          << p->name << " " << i;
    }
  }
}

TEST(AerisModel, BatchIndependence) {
  // Outputs for a sample are unaffected by other samples in the batch.
  AerisModel model(tiny_cfg(), 4);
  Philox rng(4);
  for (nn::Param* p : model.params()) {
    if (p->name.find("adaln") != std::string::npos ||
        p->name.find("head") != std::string::npos) {
      rng.fill_normal(p->value, 7, 0);
      scale_(p->value, 0.2f);
    }
  }
  Tensor x({2, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  Tensor t = Tensor::from({0.4f, 1.1f});
  Tensor y2 = model.forward(x, t);

  Tensor x0 = slice(x, 0, 0, 1);
  Tensor y1 = model.forward(x0, Tensor::from({0.4f}));
  // Bitwise: every kernel splits only independent rows, windows or heads.
  const Tensor y2_first = slice(y2, 0, 0, 1);
  ASSERT_EQ(y2_first.shape(), y1.shape());
  EXPECT_EQ(std::memcmp(y2_first.data(), y1.data(),
                        sizeof(float) * static_cast<std::size_t>(y1.numel())),
            0);
}

}  // namespace
}  // namespace aeris::core
