// Inference-forward goldens: FNV-1a hashes of the output bits of
// AerisModel::forward on the library-default ModelConfig, for one member
// and a stack of four, in fp32 and under the bf16 compute policy.
//
// The ensemble, server and cluster bitwise suites compare two paths
// through the same kernels, so a kernel change that moved bits would pass
// them all; these hashes pin the bits themselves. Any change to the
// inference kernels must leave them unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "aeris/core/model.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

std::uint64_t fnv1a(const Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (float v : t.flat()) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// The default model with its zero-initialized AdaLN and decode heads
// filled, so every block, gate and the head shape the output.
AerisModel golden_model() {
  AerisModel model(ModelConfig{}, 7);
  Philox rng(7);
  std::uint64_t key = 0;
  for (nn::Param* p : model.params()) {
    if (p->name.find("adaln") != std::string::npos ||
        p->name.find("head") != std::string::npos) {
      rng.fill_normal(p->value, 9, key++);
      scale_(p->value, 0.2f);
    }
  }
  return model;
}

std::uint64_t forward_hash(const AerisModel& model, std::int64_t members,
                           nn::InferPrecision prec) {
  const ModelConfig& c = model.config();
  Tensor x({members, c.h, c.w, c.in_channels});
  Philox(11).fill_normal(x, 1, static_cast<std::uint64_t>(members));
  const Tensor t({members}, 0.7f);
  return fnv1a(model.forward(x, t, nullptr, prec));
}

class InferenceGolden : public ::testing::Test {
 protected:
  void SetUp() override {
#if !defined(__AVX512F__) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_ADDRESS__)
    // Reductions inside the kernels (softmax row sums) group by SIMD
    // width, so narrower vector ISAs give other bits, and sanitizer
    // instrumentation changes which loops vectorize.
    GTEST_SKIP() << "goldens are recorded for an uninstrumented AVX-512 "
                    "build";
#endif
  }
};

TEST_F(InferenceGolden, Fp32OneMember) {
  EXPECT_EQ(forward_hash(golden_model(), 1, nn::InferPrecision::kFp32),
            0x158749e9ef64d6ddull);
}

TEST_F(InferenceGolden, Fp32FourMembers) {
  EXPECT_EQ(forward_hash(golden_model(), 4, nn::InferPrecision::kFp32),
            0xdf884aedc513583aull);
}

TEST_F(InferenceGolden, Bf16OneMember) {
  EXPECT_EQ(forward_hash(golden_model(), 1, nn::InferPrecision::kBf16),
            0x207c4bc040d77a35ull);
}

TEST_F(InferenceGolden, Bf16FourMembers) {
  EXPECT_EQ(forward_hash(golden_model(), 4, nn::InferPrecision::kBf16),
            0x354637e3ddd26de1ull);
}

}  // namespace
}  // namespace aeris::core
