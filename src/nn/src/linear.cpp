#include "aeris/nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "aeris/tensor/bf16.hpp"
#include "aeris/tensor/thread_pool.hpp"

namespace aeris::nn {
namespace {

Shape with_last(const Shape& s, std::int64_t last) {
  Shape out = s;
  out.back() = last;
  return out;
}

// Ctx slot: the forward input, the only activation backward needs.
struct LinearCache {
  Tensor x;
};

}  // namespace

Linear::Linear(std::string name, std::int64_t in_features,
               std::int64_t out_features, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      w_(name + ".weight", {out_features, in_features}),
      b_(bias ? Param(name + ".bias", {out_features}) : Param()),
      bf16_(std::make_shared<Bf16Pack>()) {}

Linear::Linear(const Linear& other)
    : in_(other.in_),
      out_(other.out_),
      has_bias_(other.has_bias_),
      w_(other.w_),
      b_(other.b_),
      id_(other.id_),
      bf16_eligible_(other.bf16_eligible_),
      bf16_(std::make_shared<Bf16Pack>()) {}

Linear& Linear::operator=(const Linear& other) {
  if (this == &other) return *this;
  in_ = other.in_;
  out_ = other.out_;
  has_bias_ = other.has_bias_;
  w_ = other.w_;
  b_ = other.b_;
  id_ = other.id_;
  bf16_eligible_ = other.bf16_eligible_;
  bf16_ = std::make_shared<Bf16Pack>();
  return *this;
}

void Linear::init(const Philox& rng, std::uint64_t index) {
  init_normal(w_, rng, index, 1.0f / std::sqrt(static_cast<float>(in_)));
  if (has_bias_) b_.value.fill(0.0f);
  invalidate_bf16_weights();
}

void Linear::init_zero() {
  w_.value.fill(0.0f);
  if (has_bias_) b_.value.fill(0.0f);
  invalidate_bf16_weights();
}

void Linear::invalidate_bf16_weights() const {
  Bf16Pack& p = *bf16_;
  std::lock_guard<std::mutex> lock(p.mu);
  p.ready.store(false, std::memory_order_release);
  p.rounded = Tensor();
}

const Tensor& Linear::bf16_weights() const {
  Bf16Pack& p = *bf16_;
  if (!p.ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(p.mu);
    if (!p.ready.load(std::memory_order_relaxed)) {
      Tensor r(w_.value.shape());
      const float* src = w_.value.data();
      float* dst = r.data();
      const std::int64_t n = r.numel();
      for (std::int64_t i = 0; i < n; ++i) dst[i] = bf16_round(src[i]);
      p.rounded = std::move(r);
      p.ready.store(true, std::memory_order_release);
    }
  }
  return p.rounded;
}

void Linear::check_input(const Tensor& x) const {
  if (x.dim(-1) != in_) {
    throw std::invalid_argument(w_.name + ": expected last dim " +
                                std::to_string(in_) + ", got " +
                                shape_to_string(x.shape()));
  }
}

void Linear::gemm_into(const float* x, std::int64_t ldx, std::int64_t rows,
                       float* y, std::int64_t ldy, bool bf16) const {
  // y = x @ W^T. Under bf16 (kBF16A) the activation is rounded during
  // packing; the weight copy was rounded once at build time and must not
  // be rounded again.
  if (bf16) {
    gemm(false, true, rows, out_, in_, 1.0f, x, ldx, bf16_weights().data(),
         in_, 0.0f, y, ldy, GemmPrecision::kBF16A);
  } else {
    gemm(false, true, rows, out_, in_, 1.0f, x, ldx, w_.value.data(), in_,
         0.0f, y, ldy, default_gemm_precision());
  }
  if (!has_bias_) return;
  const float* pb = b_.value.data();
  parallel_for(
      rows,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          float* py = y + r * ldy;
          for (std::int64_t c = 0; c < out_; ++c) py[c] += pb[c];
        }
      },
      grain_for_bytes(2 * out_ * static_cast<std::int64_t>(sizeof(float))));
}

Tensor Linear::apply(const Tensor& x) const {
  check_input(x);
  const std::int64_t rows = x.numel() / in_;
  Tensor y(with_last(x.shape(), out_));
  gemm_into(x.data(), in_, rows, y.data(), out_, /*bf16=*/false);
  return y;
}

Tensor Linear::apply_bf16(const Tensor& x) const {
  check_input(x);
  const std::int64_t rows = x.numel() / in_;
  Tensor y(with_last(x.shape(), out_));
  gemm_into(x.data(), in_, rows, y.data(), out_, /*bf16=*/true);
  return y;
}

void Linear::forward_into(const float* x, std::int64_t ldx, std::int64_t rows,
                          float* y, std::int64_t ldy,
                          const FwdCtx& ctx) const {
  if (!ctx.inference()) {
    throw std::logic_error(w_.name + ": forward_into is inference-only");
  }
  gemm_into(x, ldx, rows, y, ldy, bf16_eligible_ && ctx.bf16_compute());
}

Tensor Linear::forward(const Tensor& x, FwdCtx& ctx) const {
  // In inference mode the input is only needed for this call; skipping the
  // deposit keeps sampling rollouts free of backward-only retention.
  if (ctx.training()) ctx.slot<LinearCache>(id_).x = x;
  if (bf16_eligible_ && ctx.bf16_compute()) return apply_bf16(x);
  return apply(x);
}

Tensor Linear::backward(const Tensor& dy, FwdCtx& ctx) {
  LinearCache* cache = ctx.find<LinearCache>(id_);
  if (cache == nullptr || cache->x.empty()) {
    throw std::logic_error(w_.name + ": backward before forward");
  }
  const Tensor& x = cache->x;
  const std::int64_t rows = x.numel() / in_;
  if (dy.numel() != rows * out_) {
    throw std::invalid_argument(w_.name + ": backward shape mismatch");
  }
  // dW += dY^T @ X   (FP32 accumulation into master grads)
  gemm(true, false, out_, in_, rows, 1.0f, dy.data(), out_, x.data(), in_,
       1.0f, w_.grad.data(), in_, default_gemm_precision());
  if (has_bias_) {
    const float* pdy = dy.data();
    float* pdb = b_.grad.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < out_; ++c) pdb[c] += pdy[r * out_ + c];
    }
  }
  // dX = dY @ W
  Tensor dx(x.shape());
  gemm(false, false, rows, in_, out_, 1.0f, dy.data(), out_, w_.value.data(),
       in_, 0.0f, dx.data(), in_, default_gemm_precision());
  // The weights are about to change (optimizer step follows backward), so
  // any bf16 rounding of them is stale.
  invalidate_bf16_weights();
  return dx;
}

void Linear::collect_params(ParamList& out) {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
}

void Linear::collect_params(ConstParamList& out) const {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
}

}  // namespace aeris::nn
