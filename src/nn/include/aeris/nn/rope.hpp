#pragma once

#include <vector>

#include "aeris/tensor/tensor.hpp"

namespace aeris::nn {

/// Axial-frequency 2D rotary positional embedding (paper §V-B, replacing
/// SwinV2's relative positional biases; ref. Heo et al., ECCV 2024).
///
/// Each attention head of dimension `head_dim` is split into two halves:
/// the first half is rotated by frequencies of the *row* coordinate, the
/// second by the *column* coordinate. Within a half, consecutive pairs
/// (2i, 2i+1) rotate by angle pos * base^(-2i / (head_dim/2)).
///
/// Coordinates are the *global* pixel positions of each token, so shifted
/// windows automatically see consistent relative geometry — this is what
/// lets window parallelism assign any window to any rank without
/// re-deriving positional state.
class AxialRope {
 public:
  explicit AxialRope(std::int64_t head_dim, float base = 10000.0f);

  std::int64_t head_dim() const { return head_dim_; }

  /// Rotates q/k in place. `x` is [B, T, H*head_dim]; `coords` is [T, 2]
  /// holding (row, col) per token. `inverse` applies the transpose
  /// rotation (exactly the gradient of the forward rotation).
  void apply(Tensor& x, std::int64_t num_heads, const Tensor& coords,
             bool inverse = false) const;

  /// The cos/sin table apply() uses for `coords` [T, 2]: per token and
  /// axial frequency, (cos row, sin row, cos col, sin col). `inverse`
  /// negates the angles. Callers with fixed coordinates build it once.
  std::vector<float> table(const Tensor& coords, bool inverse = false) const;

  /// Rotates one head in place: `t` tokens of head_dim floats, each
  /// `row_stride` floats after the previous, by the rows of `table`.
  void rotate(float* x, std::int64_t t, std::int64_t row_stride,
              const float* table) const;

 private:
  std::int64_t head_dim_;
  std::vector<float> freqs_;  // head_dim/4 axial frequencies
};

/// Builds [T, 2] (row, col) coordinates for a window whose top-left token
/// sits at (row0, col0) in the global grid, tokens in row-major order.
/// Coordinates wrap modulo the global grid extent (the longitude axis is
/// periodic; shifted windows that wrap get their true positions).
Tensor window_coords(std::int64_t row0, std::int64_t col0, std::int64_t win_h,
                     std::int64_t win_w, std::int64_t grid_h,
                     std::int64_t grid_w);

}  // namespace aeris::nn
