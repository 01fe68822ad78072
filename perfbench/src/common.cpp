#include "common.hpp"

#include <cstring>

#include "aeris/tensor/ops.hpp"

namespace perfbench {

aeris::core::AerisModel make_model(const aeris::core::ModelConfig& cfg,
                                   std::uint64_t seed) {
  aeris::core::AerisModel model(cfg, seed);
  aeris::Philox rng(seed + 100);
  for (aeris::nn::Param* p : model.params()) {
    if (p->name.find("head") != std::string::npos ||
        p->name.find("adaln") != std::string::npos) {
      rng.fill_normal(p->value, 7, 0);
      aeris::scale_(p->value, 0.1f);
    }
  }
  return model;
}

aeris::Tensor make_field(std::int64_t h, std::int64_t w, std::int64_t c,
                         std::uint64_t seed, std::uint64_t key) {
  aeris::Tensor t({h, w, c});
  if (t.numel() > 0) aeris::Philox(seed).fill_normal(t, 3, key);
  return t;
}

bool same_bits(const aeris::Tensor& a, const aeris::Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
              0);
}

bool same_bits(const std::vector<std::vector<aeris::Tensor>>& a,
               const std::vector<std::vector<aeris::Tensor>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t m = 0; m < a.size(); ++m) {
    if (a[m].size() != b[m].size()) return false;
    for (std::size_t s = 0; s < a[m].size(); ++s) {
      if (!same_bits(a[m][s], b[m][s])) return false;
    }
  }
  return true;
}

}  // namespace perfbench
