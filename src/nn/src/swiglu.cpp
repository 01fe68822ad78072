#include "aeris/nn/swiglu.hpp"

#include <cmath>

#include "aeris/tensor/arena.hpp"
#include "aeris/tensor/fastmath.hpp"
#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/thread_pool.hpp"

#include <stdexcept>

namespace aeris::nn {
namespace {

// Ctx slot: the two pre-activation branches of the gated FFN.
struct SwiGLUCache {
  Tensor gate_pre;  // W_gate x
  Tensor up;        // W_up x
};

}  // namespace

float silu(float x) { return x / (1.0f + std::exp(-x)); }

float silu_grad(float x) {
  const float s = 1.0f / (1.0f + std::exp(-x));
  return s * (1.0f + x * (1.0f - s));
}

SwiGLU::SwiGLU(std::string name, std::int64_t dim, std::int64_t hidden)
    : gate_(name + ".gate", dim, hidden, /*bias=*/false),
      up_(name + ".up", dim, hidden, /*bias=*/false),
      down_(name + ".down", hidden, dim, /*bias=*/false) {}

void SwiGLU::init(const Philox& rng, std::uint64_t index) {
  gate_.init(rng, index * 4 + 0);
  up_.init(rng, index * 4 + 1);
  down_.init(rng, index * 4 + 2);
}

Tensor SwiGLU::forward(const Tensor& x, FwdCtx& ctx) const {
  if (ctx.inference()) {
    if (x.dim(-1) != dim()) {
      throw std::invalid_argument("SwiGLU: expected last dim " +
                                  std::to_string(dim()) + ", got " +
                                  shape_to_string(x.shape()));
    }
    const std::int64_t rows = x.numel() / dim();
    ScratchArena& arena = ScratchArena::for_current_thread();
    ScratchArena::Scope scope(arena);
    float* gu = arena.alloc_floats(rows * 2 * hidden());
    Tensor y(x.shape());
    forward_into(x.data(), rows, gu, y.data(), ctx);
    return y;
  }
  Tensor gate_pre = gate_.forward(x, ctx);
  Tensor up = up_.forward(x, ctx);
  Tensor h(gate_pre.shape());
  const std::int64_t n = h.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    h[i] = silu(gate_pre[i]) * up[i];
  }
  if (ctx.training()) {
    SwiGLUCache& cache = ctx.slot<SwiGLUCache>(id_);
    cache.gate_pre = std::move(gate_pre);
    cache.up = std::move(up);
  }
  return down_.forward(h, ctx);
}

void SwiGLU::forward_into(const float* x, std::int64_t rows, float* gu,
                          float* y, const FwdCtx& ctx) const {
  const std::int64_t d = dim(), hid = hidden();
  // Both branches land in one [rows, 2*hidden] buffer: gate | up.
  gate_.forward_into(x, d, rows, gu, 2 * hid, ctx);
  up_.forward_into(x, d, rows, gu + hid, 2 * hid, ctx);
  // silu(gate) * up overwrites the gate half in place. Inference-only
  // activation: polynomial exp, vectorizable. Training keeps the std::exp
  // silu — its bit-exact goldens must not move.
  parallel_for(
      rows,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          float* pg = gu + r * 2 * hid;
          const float* pu = pg + hid;
#pragma omp simd
          for (std::int64_t i = 0; i < hid; ++i) {
            pg[i] = fast_siluf(pg[i]) * pu[i];
          }
        }
      },
      grain_for_bytes(3 * hid * static_cast<std::int64_t>(sizeof(float))));
  down_.forward_into(gu, 2 * hid, rows, y, d, ctx);
}

Tensor SwiGLU::backward(const Tensor& dy, FwdCtx& ctx) {
  SwiGLUCache* cache = ctx.find<SwiGLUCache>(id_);
  if (cache == nullptr || cache->gate_pre.empty()) {
    throw std::logic_error("SwiGLU: backward before forward");
  }
  Tensor dh = down_.backward(dy, ctx);
  Tensor dgate(cache->gate_pre.shape());
  Tensor dup(cache->up.shape());
  const std::int64_t n = dh.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    dgate[i] = dh[i] * cache->up[i] * silu_grad(cache->gate_pre[i]);
    dup[i] = dh[i] * silu(cache->gate_pre[i]);
  }
  Tensor dx = gate_.backward(dgate, ctx);
  add_(dx, up_.backward(dup, ctx));
  return dx;
}

void SwiGLU::collect_params(ParamList& out) {
  gate_.collect_params(out);
  up_.collect_params(out);
  down_.collect_params(out);
}

void SwiGLU::collect_params(ConstParamList& out) const {
  gate_.collect_params(out);
  up_.collect_params(out);
  down_.collect_params(out);
}

}  // namespace aeris::nn
