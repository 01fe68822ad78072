#include "aeris/nn/rmsnorm.hpp"

#include <cmath>
#include <stdexcept>

#include "aeris/tensor/thread_pool.hpp"

namespace aeris::nn {
namespace {

// Ctx slot: the input plus the per-row inverse RMS factors.
struct RMSNormCache {
  Tensor x;
  Tensor inv_rms;  // [rows]
};

}  // namespace

RMSNorm::RMSNorm(std::string name, std::int64_t dim, bool elementwise_affine,
                 float eps)
    : dim_(dim),
      affine_(elementwise_affine),
      eps_(eps),
      g_(affine_ ? Param(name + ".gain", {dim}) : Param()) {
  if (affine_) g_.value.fill(1.0f);
}

Tensor RMSNorm::apply(const Tensor& x) const {
  if (x.dim(-1) != dim_) throw std::invalid_argument("RMSNorm: bad last dim");
  Tensor y(x.shape());
  apply_into(x.data(), x.numel() / dim_, y.data());
  return y;
}

void RMSNorm::apply_into(const float* x, std::int64_t rows, float* y,
                         const float* scale, const float* shift,
                         std::int64_t rows_per_sample) const {
  parallel_for(
      rows,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* px = x + r * dim_;
          float* py = y + r * dim_;
          double ss = 0.0;
          for (std::int64_t c = 0; c < dim_; ++c) {
            ss += static_cast<double>(px[c]) * px[c];
          }
          const float inv =
              1.0f / std::sqrt(static_cast<float>(ss / dim_) + eps_);
          if (scale == nullptr) {
            for (std::int64_t c = 0; c < dim_; ++c) {
              py[c] = px[c] * inv * (affine_ ? g_.value[c] : 1.0f);
            }
            continue;
          }
          const std::int64_t s = r / rows_per_sample;
          const float* psc = scale + s * dim_;
          const float* psh = shift + s * dim_;
          for (std::int64_t c = 0; c < dim_; ++c) {
            const float n = px[c] * inv * (affine_ ? g_.value[c] : 1.0f);
            py[c] = n * (1.0f + psc[c]) + psh[c];
          }
        }
      },
      grain_for_bytes(2 * dim_ * static_cast<std::int64_t>(sizeof(float))));
}

Tensor RMSNorm::forward(const Tensor& x, FwdCtx& ctx) const {
  if (ctx.inference()) return apply(x);
  if (x.dim(-1) != dim_) throw std::invalid_argument("RMSNorm: bad last dim");
  const std::int64_t rows = x.numel() / dim_;
  RMSNormCache& cache = ctx.slot<RMSNormCache>(id_);
  cache.x = x;
  cache.inv_rms = Tensor({rows});
  Tensor y(x.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* px = x.data() + r * dim_;
    float* py = y.data() + r * dim_;
    double ss = 0.0;
    for (std::int64_t c = 0; c < dim_; ++c) ss += static_cast<double>(px[c]) * px[c];
    const float inv = 1.0f / std::sqrt(static_cast<float>(ss / dim_) + eps_);
    cache.inv_rms[r] = inv;
    for (std::int64_t c = 0; c < dim_; ++c) {
      py[c] = px[c] * inv * (affine_ ? g_.value[c] : 1.0f);
    }
  }
  return y;
}

Tensor RMSNorm::backward(const Tensor& dy, FwdCtx& ctx) {
  RMSNormCache* cache = ctx.find<RMSNormCache>(id_);
  if (cache == nullptr || cache->x.empty()) {
    throw std::logic_error("RMSNorm: backward before forward");
  }
  const std::int64_t rows = cache->x.numel() / dim_;
  Tensor dx(cache->x.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* px = cache->x.data() + r * dim_;
    const float* pdy = dy.data() + r * dim_;
    float* pdx = dx.data() + r * dim_;
    const float inv = cache->inv_rms[r];
    // With u = x * inv_rms and y = u * g:
    //   dL/du_c = dy_c * g_c
    //   dL/dx  = inv * (du - u * mean(du ⊙ u))
    double du_dot_u = 0.0;
    for (std::int64_t c = 0; c < dim_; ++c) {
      const float du = pdy[c] * (affine_ ? g_.value[c] : 1.0f);
      du_dot_u += static_cast<double>(du) * (px[c] * inv);
    }
    const float mean_du_u = static_cast<float>(du_dot_u / dim_);
    for (std::int64_t c = 0; c < dim_; ++c) {
      const float du = pdy[c] * (affine_ ? g_.value[c] : 1.0f);
      const float u = px[c] * inv;
      pdx[c] = inv * (du - u * mean_du_u);
      if (affine_) g_.grad[c] += pdy[c] * u;
    }
  }
  return dx;
}

void RMSNorm::collect_params(ParamList& out) {
  if (affine_) out.push_back(&g_);
}

void RMSNorm::collect_params(ConstParamList& out) const {
  if (affine_) out.push_back(&g_);
}

}  // namespace aeris::nn
