// The inference glue kernels split rows of caller-owned buffers over the
// kernel pool. At stacked-ensemble sizes they must give the bits of the
// layer-by-layer tensor path, and the same bits pooled as inline (the
// sanitizer legs run this file to race the pooled chunks).
#include <gtest/gtest.h>

#include <cstring>

#include "aeris/nn/adaln.hpp"
#include "aeris/nn/attention.hpp"
#include "aeris/nn/rmsnorm.hpp"
#include "aeris/nn/swiglu.hpp"
#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/thread_pool.hpp"

namespace aeris::nn {
namespace {

// Four 32x64 members of 8x8 windows at dim 64: past every glue kernel's
// byte grain, so the passes below really split across the pool.
constexpr std::int64_t kSamples = 4;
constexpr std::int64_t kWindowsPerSample = 32;
constexpr std::int64_t kTokens = 64;
constexpr std::int64_t kDim = 64;
constexpr std::int64_t kRows = kSamples * kWindowsPerSample * kTokens;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

Tensor normal(Shape shape, std::uint64_t key) {
  Tensor t(std::move(shape));
  Philox(31).fill_normal(t, 1, key);
  return t;
}

AdaLNHead::Mod random_mod() {
  AdaLNHead::Mod m;
  m.shift = normal({kSamples, kDim}, 1);
  m.scale = normal({kSamples, kDim}, 2);
  m.gate = normal({kSamples, kDim}, 3);
  return m;
}

TEST(PooledInference, ModulatedNormEqualsNormThenModulate) {
  const Tensor x = normal({kSamples * kWindowsPerSample, kTokens, kDim}, 4);
  const AdaLNHead::Mod mod = random_mod();
  for (bool affine : {false, true}) {
    RMSNorm norm("n", kDim, affine);
    if (affine) Philox(5).fill_normal(norm.gain().value, 1, 0);
    const Tensor want = modulate(norm.apply(x), mod, kWindowsPerSample);
    Tensor got(x.shape());
    norm.apply_into(x.data(), kRows, got.data(), mod.scale.data(),
                    mod.shift.data(), kWindowsPerSample * kTokens);
    EXPECT_TRUE(same_bits(got, want)) << "affine " << affine;
  }
}

TEST(PooledInference, GateInPlaceMatchesSerialReference) {
  const Tensor x = normal({kSamples * kWindowsPerSample, kTokens, kDim}, 6);
  const Tensor y = normal(x.shape(), 7);
  const AdaLNHead::Mod mod = random_mod();
  Tensor want(x.shape());
  const std::int64_t rows_per_sample = kWindowsPerSample * kTokens;
  for (std::int64_t r = 0; r < kRows; ++r) {
    const float* g = mod.gate.data() + (r / rows_per_sample) * kDim;
    for (std::int64_t c = 0; c < kDim; ++c) {
      const std::int64_t i = r * kDim + c;
      want[i] = x[i] + g[c] * y[i];
    }
  }
  Tensor got = x;
  apply_gate_inplace(got.data(), y.data(), kRows, kDim, mod.gate.data(),
                     rows_per_sample);
  EXPECT_TRUE(same_bits(got, want));
  EXPECT_TRUE(same_bits(apply_gate(x, y, mod.gate, kWindowsPerSample), want));
}

TEST(PooledInference, LayersMatchInlineExecution) {
  const Tensor x = normal({kSamples * kWindowsPerSample, kTokens, kDim}, 8);
  const Philox rng(9);
  WindowAttention attn("a", kDim, 4, 8, 8);
  attn.init(rng, 0);
  SwiGLU ffn("f", kDim, 2 * kDim);
  ffn.init(rng, 1);
  RMSNorm norm("n", kDim);
  for (InferPrecision prec : {InferPrecision::kFp32, InferPrecision::kBf16}) {
    auto run = [&] {
      FwdCtx ctx(FwdCtx::Mode::kInference);
      ctx.set_infer_precision(prec);
      return std::vector<Tensor>{attn.forward(x, ctx), ffn.forward(x, ctx),
                                 norm.forward(x, ctx)};
    };
    const std::vector<Tensor> pooled = run();
    std::vector<Tensor> inline_run;
    {
      SerialRegionGuard serial;
      inline_run = run();
    }
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      EXPECT_TRUE(same_bits(pooled[i], inline_run[i]))
          << "layer " << i << " bf16 " << (prec == InferPrecision::kBf16);
    }
  }
}

}  // namespace
}  // namespace aeris::nn
