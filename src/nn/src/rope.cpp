#include "aeris/nn/rope.hpp"

#include <cmath>
#include <stdexcept>

namespace aeris::nn {

AxialRope::AxialRope(std::int64_t head_dim, float base) : head_dim_(head_dim) {
  if (head_dim % 4 != 0) {
    throw std::invalid_argument("AxialRope: head_dim must be divisible by 4");
  }
  const std::int64_t nf = head_dim / 4;  // freqs per axis
  freqs_.resize(static_cast<std::size_t>(nf));
  for (std::int64_t i = 0; i < nf; ++i) {
    freqs_[static_cast<std::size_t>(i)] =
        std::pow(base, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim / 2));
  }
}

std::vector<float> AxialRope::table(const Tensor& coords, bool inverse) const {
  if (coords.ndim() != 2 || coords.dim(1) != 2) {
    throw std::invalid_argument("AxialRope: coords must be [T,2]");
  }
  const std::int64_t t = coords.dim(0);
  const std::int64_t nf = head_dim_ / 4;
  const float sign = inverse ? -1.0f : 1.0f;
  std::vector<float> cs(static_cast<std::size_t>(t * nf * 4));
  for (std::int64_t tok = 0; tok < t; ++tok) {
    const float row = coords.at2(tok, 0);
    const float col = coords.at2(tok, 1);
    float* p = cs.data() + tok * nf * 4;
    for (std::int64_t i = 0; i < nf; ++i) {
      const float ar = sign * row * freqs_[static_cast<std::size_t>(i)];
      const float ac = sign * col * freqs_[static_cast<std::size_t>(i)];
      p[i * 4 + 0] = std::cos(ar);
      p[i * 4 + 1] = std::sin(ar);
      p[i * 4 + 2] = std::cos(ac);
      p[i * 4 + 3] = std::sin(ac);
    }
  }
  return cs;
}

void AxialRope::rotate(float* x, std::int64_t t, std::int64_t row_stride,
                       const float* table) const {
  const std::int64_t nf = head_dim_ / 4;
  for (std::int64_t tok = 0; tok < t; ++tok) {
    float* hp = x + tok * row_stride;
    const float* p = table + tok * nf * 4;
    // First half: row rotations; second half: column rotations.
    for (std::int64_t i = 0; i < nf; ++i) {
      const float cr = p[i * 4 + 0], sr = p[i * 4 + 1];
      float& a0 = hp[2 * i];
      float& a1 = hp[2 * i + 1];
      const float r0 = a0 * cr - a1 * sr;
      const float r1 = a0 * sr + a1 * cr;
      a0 = r0;
      a1 = r1;
    }
    float* hp2 = hp + head_dim_ / 2;
    for (std::int64_t i = 0; i < nf; ++i) {
      const float cc = p[i * 4 + 2], sc = p[i * 4 + 3];
      float& a0 = hp2[2 * i];
      float& a1 = hp2[2 * i + 1];
      const float r0 = a0 * cc - a1 * sc;
      const float r1 = a0 * sc + a1 * cc;
      a0 = r0;
      a1 = r1;
    }
  }
}

void AxialRope::apply(Tensor& x, std::int64_t num_heads, const Tensor& coords,
                      bool inverse) const {
  if (x.ndim() != 3) throw std::invalid_argument("AxialRope: x must be [B,T,C]");
  const std::int64_t b = x.dim(0), t = x.dim(1), c = x.dim(2);
  if (c != num_heads * head_dim_) {
    throw std::invalid_argument("AxialRope: channel dim != heads*head_dim");
  }
  if (coords.ndim() != 2 || coords.dim(0) != t || coords.dim(1) != 2) {
    throw std::invalid_argument("AxialRope: coords must be [T,2]");
  }
  const std::vector<float> cs = table(coords, inverse);
  for (std::int64_t bb = 0; bb < b; ++bb) {
    for (std::int64_t h = 0; h < num_heads; ++h) {
      rotate(x.data() + bb * t * c + h * head_dim_, t, c, cs.data());
    }
  }
}

Tensor window_coords(std::int64_t row0, std::int64_t col0, std::int64_t win_h,
                     std::int64_t win_w, std::int64_t grid_h,
                     std::int64_t grid_w) {
  Tensor coords({win_h * win_w, 2});
  for (std::int64_t r = 0; r < win_h; ++r) {
    for (std::int64_t cc = 0; cc < win_w; ++cc) {
      const std::int64_t tok = r * win_w + cc;
      coords.at2(tok, 0) =
          static_cast<float>(((row0 + r) % grid_h + grid_h) % grid_h);
      coords.at2(tok, 1) =
          static_cast<float>(((col0 + cc) % grid_w + grid_w) % grid_w);
    }
  }
  return coords;
}

}  // namespace aeris::nn
