#pragma once

#include <algorithm>

#include "aeris/nn/adaln.hpp"
#include "aeris/nn/attention.hpp"
#include "aeris/nn/rmsnorm.hpp"
#include "aeris/nn/swiglu.hpp"

namespace aeris::core {

/// One AERIS transformer block (paper §V-B, Fig. 3):
///
///   mod_a, mod_f = AdaLN heads(cond)                    [per-layer linears]
///   h  = x + gate_a ⊙ Attn( modulate(RMSNorm(x), mod_a) )
///   y  = h + gate_f ⊙ SwiGLU( modulate(RMSNorm(h), mod_f) )
///
/// pre-RMSNorm replaces LayerNorm, SwiGLU replaces the single-linear MLP,
/// q/k carry axial 2D RoPE (inside WindowAttention), and the diffusion
/// time conditioning enters through adaptive-layer-norm modulation.
///
/// The block operates on *already partitioned* windows [B_win, T, C]; the
/// owning model (or pipeline stage) performs the partition/shift. This is
/// the factorization that Window Parallelism exploits: a block never needs
/// to see windows other than its own.
class SwinBlock {
 public:
  struct Config {
    std::int64_t dim = 64;
    std::int64_t heads = 4;
    std::int64_t ffn_hidden = 128;
    std::int64_t win_h = 4;
    std::int64_t win_w = 4;
    std::int64_t cond_dim = 32;
  };

  SwinBlock(std::string name, const Config& cfg);

  void init(const Philox& rng, std::uint64_t index);

  /// x: [B_win, T, C]; cond: [B_samples, cond_dim] with
  /// B_win = B_samples * windows_per_sample.
  Tensor forward(const Tensor& x, const Tensor& cond,
                 std::int64_t windows_per_sample, nn::FwdCtx& ctx) const;

  /// Inference scratch, allocated by the caller and shared by consecutive
  /// blocks of one forward: `act` holds [rows, dim] floats, `wide`
  /// [rows, workspace_width()].
  struct Workspace {
    float* act = nullptr;
    float* wide = nullptr;
  };
  std::int64_t workspace_width() const {
    return std::max(3 * cfg_.dim, 2 * cfg_.ffn_hidden);
  }

  /// Inference forward in place, the same bits as forward(): `x` holds
  /// `rows` = B_win * T window tokens of dim floats and receives the
  /// block's output. Each sublayer's normalization and modulation is one
  /// pass into ws.act, and its gated residual is added into x in place.
  void forward_into(float* x, std::int64_t rows, const Tensor& cond,
                    std::int64_t windows_per_sample, const Workspace& ws,
                    nn::FwdCtx& ctx) const;

  /// Returns dx; accumulates parameter grads and adds this block's
  /// conditioning gradient into `dcond`.
  Tensor backward(const Tensor& dy, Tensor& dcond, nn::FwdCtx& ctx);

  void collect_params(nn::ParamList& out);
  void collect_params(nn::ConstParamList& out) const;

  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  nn::AdaLNHead adaln_attn_;
  nn::AdaLNHead adaln_ffn_;
  nn::RMSNorm norm1_;
  nn::RMSNorm norm2_;
  nn::WindowAttention attn_;
  nn::SwiGLU ffn_;
  nn::LayerId id_;
};

}  // namespace aeris::core
