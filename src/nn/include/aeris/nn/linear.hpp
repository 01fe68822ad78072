#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "aeris/nn/fwd_ctx.hpp"
#include "aeris/nn/param.hpp"
#include "aeris/tensor/gemm.hpp"
#include "aeris/tensor/tensor.hpp"

namespace aeris::nn {

/// Fully-connected layer y = x W^T + b over the last dimension.
///
/// Input is treated as a flat matrix [rows, in_features] where rows is the
/// product of all leading dims; the output keeps the leading dims with the
/// last replaced by out_features. Forward is const with respect to the
/// weights and retains nothing in the layer: with a training-mode FwdCtx
/// it deposits the input into the ctx for the explicit backward pass;
/// `backward` returns dL/dx and *accumulates* into the weight/bias
/// gradients (accumulation is what gradient-accumulation steps — GAS in
/// the paper's Table II — rely on).
class Linear {
 public:
  Linear(std::string name, std::int64_t in_features, std::int64_t out_features,
         bool bias = true);

  /// Scaled N(0, 1/sqrt(in)) init, deterministic in (rng seed, index).
  void init(const Philox& rng, std::uint64_t index);
  /// Zero-init (used for adaLN modulation heads and output layers that
  /// should start as identity/no-op, the DiT "adaLN-zero" trick).
  void init_zero();

  Tensor forward(const Tensor& x, FwdCtx& ctx) const;
  Tensor backward(const Tensor& dy, FwdCtx& ctx);

  /// Stateless apply (no cache, no grad) for inference-only paths.
  Tensor apply(const Tensor& x) const;

  /// apply() with the bf16 compute policy: the activation is rounded to
  /// bf16 during GEMM packing, the weight side uses the lazily-built
  /// bf16-rounded copy (built once per model under a mutex, then shared
  /// read-only across engine threads), accumulation and the bias add stay
  /// fp32.
  Tensor apply_bf16(const Tensor& x) const;

  /// Inference forward into caller storage, the same bits as forward():
  /// y = x W^T + b over `rows` rows, x with row stride `ldx`, y with row
  /// stride `ldy`. Honors the ctx's bf16 policy; retains nothing.
  void forward_into(const float* x, std::int64_t ldx, std::int64_t rows,
                    float* y, std::int64_t ldy, const FwdCtx& ctx) const;

  /// Drops the bf16 weight copy; called automatically by init/init_zero/
  /// backward. Owners that poke `weight().value` directly without a
  /// backward (tests, custom loaders) must call this before the next bf16
  /// forward.
  void invalidate_bf16_weights() const;

  /// Excludes this layer from the bf16 compute path (conditioning layers
  /// — adaLN heads, the time trunk — stay fp32 per the precision policy).
  void set_bf16_eligible(bool eligible) { bf16_eligible_ = eligible; }
  bool bf16_eligible() const { return bf16_eligible_; }

  void collect_params(ParamList& out);
  void collect_params(ConstParamList& out) const;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Param& weight() { return w_; }
  Param& bias() { return b_; }
  bool has_bias() const { return has_bias_; }

 private:
  // One-time bf16 rounding of w_ with double-checked publication. Held by
  // shared_ptr so Linear stays movable; copies of a Linear (the SWiPe
  // runtime clones layers) get a *fresh* pack via the custom copy ops so
  // diverging weight copies can never alias one rounded image.
  struct Bf16Pack {
    std::mutex mu;
    std::atomic<bool> ready{false};
    Tensor rounded;  // [out, in], every value a bf16-representable float
  };

  const Tensor& bf16_weights() const;
  void check_input(const Tensor& x) const;
  // The one GEMM + bias kernel behind apply, apply_bf16 and forward_into.
  void gemm_into(const float* x, std::int64_t ldx, std::int64_t rows, float* y,
                 std::int64_t ldy, bool bf16) const;

  std::int64_t in_ = 0;
  std::int64_t out_ = 0;
  bool has_bias_ = true;
  Param w_;  // [out, in]
  Param b_;  // [out]
  LayerId id_;
  bool bf16_eligible_ = true;
  std::shared_ptr<Bf16Pack> bf16_;

 public:
  Linear(const Linear& other);
  Linear& operator=(const Linear& other);
  Linear(Linear&&) = default;
  Linear& operator=(Linear&&) = default;
};

}  // namespace aeris::nn
