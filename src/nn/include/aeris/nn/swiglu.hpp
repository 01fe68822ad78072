#pragma once

#include "aeris/nn/linear.hpp"

namespace aeris::nn {

/// SiLU activation and its derivative (used by SwiGLU).
float silu(float x);
float silu_grad(float x);

/// SwiGLU feed-forward block (paper §V-B, replacing the single linear of
/// the classic transformer MLP, as in Llama 3):
///   y = W_down( silu(W_gate x) ⊙ (W_up x) )
///
/// `hidden` is the FFN width from Table II (e.g. 9216 for the 1.3B model).
class SwiGLU {
 public:
  SwiGLU(std::string name, std::int64_t dim, std::int64_t hidden);

  void init(const Philox& rng, std::uint64_t index);

  Tensor forward(const Tensor& x, FwdCtx& ctx) const;

  /// Inference forward into caller storage, the same bits as forward():
  /// x [rows, dim] -> y [rows, dim]. `gu` ([rows, 2*hidden]) is scratch:
  /// the gate and up GEMMs write its two halves (row stride 2*hidden), the
  /// activation overwrites the gate half and the down GEMM reads it in
  /// place. `y` may alias `x`.
  void forward_into(const float* x, std::int64_t rows, float* gu, float* y,
                    const FwdCtx& ctx) const;
  Tensor backward(const Tensor& dy, FwdCtx& ctx);

  void collect_params(ParamList& out);
  void collect_params(ConstParamList& out) const;

  std::int64_t dim() const { return gate_.in_features(); }
  std::int64_t hidden() const { return gate_.out_features(); }

 private:
  Linear gate_;
  Linear up_;
  Linear down_;
  LayerId id_;
};

}  // namespace aeris::nn
