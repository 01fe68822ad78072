#pragma once

#include "aeris/nn/fwd_ctx.hpp"
#include "aeris/nn/param.hpp"
#include "aeris/tensor/tensor.hpp"

namespace aeris::nn {

/// Pre-RMSNorm (paper §V-B: AERIS replaces LayerNorm with RMSNorm as in
/// the Llama-3 family): y = x / rms(x) * g, rms over the last dimension.
///
/// `elementwise_affine = false` gives the plain normalization used inside
/// adaLN blocks where scale/shift come from the conditioning network.
class RMSNorm {
 public:
  RMSNorm(std::string name, std::int64_t dim, bool elementwise_affine = true,
          float eps = 1e-6f);

  Tensor forward(const Tensor& x, FwdCtx& ctx) const;
  Tensor backward(const Tensor& dy, FwdCtx& ctx);
  Tensor apply(const Tensor& x) const;

  /// Inference kernel behind apply(): normalizes `rows` rows of x into y
  /// over the kernel pool. With `scale`/`shift` ([samples, dim]) each
  /// normalized row is modulated in the same pass by its sample's fields,
  /// y = norm(x) * (1 + scale) + shift with sample = row / rows_per_sample
  /// — the same bits as apply() followed by nn::modulate().
  void apply_into(const float* x, std::int64_t rows, float* y,
                  const float* scale = nullptr, const float* shift = nullptr,
                  std::int64_t rows_per_sample = 1) const;

  void collect_params(ParamList& out);
  void collect_params(ConstParamList& out) const;

  Param& gain() { return g_; }

 private:
  std::int64_t dim_ = 0;
  bool affine_ = true;
  float eps_ = 1e-6f;
  Param g_;  // [dim]
  LayerId id_;
};

}  // namespace aeris::nn
