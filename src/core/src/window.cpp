#include "aeris/core/window.hpp"

#include <algorithm>
#include <stdexcept>

#include "aeris/tensor/thread_pool.hpp"

namespace aeris::core {

Tensor roll2d(const Tensor& x, std::int64_t dy, std::int64_t dx) {
  if (x.ndim() != 3) throw std::invalid_argument("roll2d: expected [H,W,C]");
  const std::int64_t h = x.dim(0), w = x.dim(1), c = x.dim(2);
  const std::int64_t sy = ((dy % h) + h) % h;
  const std::int64_t sx = ((dx % w) + w) % w;
  if (sy == 0 && sx == 0) return x;
  Tensor out(x.shape());
  for (std::int64_t r = 0; r < h; ++r) {
    const std::int64_t src_r = (r - sy + h) % h;
    for (std::int64_t cc = 0; cc < w; ++cc) {
      const std::int64_t src_c = (cc - sx + w) % w;
      std::copy_n(x.data() + (src_r * w + src_c) * c, c,
                  out.data() + (r * w + cc) * c);
    }
  }
  return out;
}

std::int64_t window_count(std::int64_t h, std::int64_t w, std::int64_t win_h,
                          std::int64_t win_w) {
  if (win_h <= 0 || win_w <= 0 || h % win_h != 0 || w % win_w != 0) {
    throw std::invalid_argument("window grid must divide the token grid");
  }
  return (h / win_h) * (w / win_w);
}

Tensor window_partition(const Tensor& x, std::int64_t win_h,
                        std::int64_t win_w, std::int64_t shift) {
  if (x.ndim() != 3) throw std::invalid_argument("window_partition: [H,W,C]");
  const std::int64_t h = x.dim(0), w = x.dim(1), c = x.dim(2);
  const std::int64_t nwin = window_count(h, w, win_h, win_w);
  const Tensor rolled = shift != 0 ? roll2d(x, -shift, -shift) : x;
  Tensor out({nwin, win_h * win_w, c});
  const std::int64_t wy = h / win_h;
  (void)wy;
  const std::int64_t wx = w / win_w;
  for (std::int64_t win = 0; win < nwin; ++win) {
    const std::int64_t wr = win / wx;
    const std::int64_t wc = win % wx;
    for (std::int64_t r = 0; r < win_h; ++r) {
      const std::int64_t gr = wr * win_h + r;
      std::copy_n(rolled.data() + (gr * w + wc * win_w) * c, win_w * c,
                  out.data() + (win * win_h * win_w + r * win_w) * c);
    }
  }
  return out;
}

Tensor window_reverse(const Tensor& windows, std::int64_t h, std::int64_t w,
                      std::int64_t win_h, std::int64_t win_w,
                      std::int64_t shift) {
  const std::int64_t nwin = window_count(h, w, win_h, win_w);
  if (windows.ndim() != 3 || windows.dim(0) != nwin ||
      windows.dim(1) != win_h * win_w) {
    throw std::invalid_argument("window_reverse: bad windows shape " +
                                shape_to_string(windows.shape()));
  }
  const std::int64_t c = windows.dim(2);
  Tensor out({h, w, c});
  const std::int64_t wx = w / win_w;
  for (std::int64_t win = 0; win < nwin; ++win) {
    const std::int64_t wr = win / wx;
    const std::int64_t wc = win % wx;
    for (std::int64_t r = 0; r < win_h; ++r) {
      const std::int64_t gr = wr * win_h + r;
      std::copy_n(windows.data() + (win * win_h * win_w + r * win_w) * c,
                  win_w * c, out.data() + (gr * w + wc * win_w) * c);
    }
  }
  return shift != 0 ? roll2d(out, shift, shift) : out;
}

void reorder_tokens(const float* src, TokenOrder from, float* dst,
                    TokenOrder to, std::int64_t batch, std::int64_t h,
                    std::int64_t w, std::int64_t c) {
  const std::int64_t hw = h * w;
  const bool dst_windows = to.win_h > 0;
  const bool src_windows = from.win_h > 0;
  // window_count validates that the windows tile the grid.
  if (dst_windows) window_count(h, w, to.win_h, to.win_w);
  if (src_windows) window_count(h, w, from.win_h, from.win_w);
  const std::int64_t to_wx = dst_windows ? w / to.win_w : 0;
  const std::int64_t from_wx = src_windows ? w / from.win_w : 0;
  const std::int64_t from_t = from.win_h * from.win_w;
  // Work unit: a run of dst rows whose tokens share a grid row and sit at
  // consecutive columns (mod W) — one window row, or one raster row.
  const std::int64_t run = dst_windows ? to.win_w : w;
  const std::int64_t runs_per_map = hw / run;
  parallel_for(
      batch * runs_per_map,
      [&](std::int64_t k0, std::int64_t k1) {
        for (std::int64_t k = k0; k < k1; ++k) {
          const std::int64_t b = k / runs_per_map;
          const std::int64_t j = k % runs_per_map;
          float* out = dst + (b * hw + j * run) * c;
          // Grid position of the run's first token.
          std::int64_t y = j, x = 0;
          if (dst_windows) {
            const std::int64_t win = j / to.win_h, r = j % to.win_h;
            y = ((win / to_wx) * to.win_h + r + to.shift) % h;
            x = ((win % to_wx) * to.win_w + to.shift) % w;
          }
          if (!src_windows) {
            const float* row = src + (b * hw + y * w) * c;
            for (std::int64_t i = 0; i < run; ++i) {
              std::copy_n(row + x * c, c, out + i * c);
              if (++x == w) x = 0;
            }
            continue;
          }
          // Undo the source shift, then walk its windows along the row.
          const std::int64_t gr = ((y - from.shift) % h + h) % h;
          const std::int64_t gc = ((x - from.shift) % w + w) % w;
          const std::int64_t row0 = b * hw +
                                    (gr / from.win_h) * from_wx * from_t +
                                    (gr % from.win_h) * from.win_w;
          const float* row = src + row0 * c;
          std::int64_t wcol = gc / from.win_w, cc = gc % from.win_w;
          for (std::int64_t i = 0; i < run; ++i) {
            std::copy_n(row + (wcol * from_t + cc) * c, c, out + i * c);
            if (++cc == from.win_w) {
              cc = 0;
              if (++wcol == from_wx) wcol = 0;
            }
          }
        }
      },
      grain_for_bytes(2 * run * c * static_cast<std::int64_t>(sizeof(float))));
}

Tensor field_to_tokens(const Tensor& field) {
  if (field.ndim() != 3) throw std::invalid_argument("field_to_tokens: [V,H,W]");
  const std::int64_t v = field.dim(0), h = field.dim(1), w = field.dim(2);
  Tensor out({h, w, v});
  for (std::int64_t vv = 0; vv < v; ++vv) {
    const float* src = field.data() + vv * h * w;
    for (std::int64_t r = 0; r < h; ++r) {
      for (std::int64_t cc = 0; cc < w; ++cc) {
        out[(r * w + cc) * v + vv] = src[r * w + cc];
      }
    }
  }
  return out;
}

Tensor tokens_to_field(const Tensor& tokens) {
  if (tokens.ndim() != 3) throw std::invalid_argument("tokens_to_field: [H,W,V]");
  const std::int64_t h = tokens.dim(0), w = tokens.dim(1), v = tokens.dim(2);
  Tensor out({v, h, w});
  for (std::int64_t r = 0; r < h; ++r) {
    for (std::int64_t cc = 0; cc < w; ++cc) {
      const float* src = tokens.data() + (r * w + cc) * v;
      for (std::int64_t vv = 0; vv < v; ++vv) {
        out[vv * h * w + r * w + cc] = src[vv];
      }
    }
  }
  return out;
}

}  // namespace aeris::core
