#include "aeris/core/forecaster.hpp"

#include <stdexcept>

#include "aeris/core/cursor.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

Tensor squeeze_batch(Tensor x) {
  return std::move(x).reshaped({x.dim(1), x.dim(2), x.dim(3)});
}

}  // namespace

Tensor build_input(const Tensor& state, const Tensor& prev,
                   const Tensor& forcings) {
  const Tensor* parts[] = {&state, &prev, &forcings};
  Tensor cat = concat(std::span<const Tensor* const>(parts, 3), 2);
  return std::move(cat).reshaped({1, cat.dim(0), cat.dim(1), cat.dim(2)});
}

DiffusionForecaster::DiffusionForecaster(const AerisModel& model,
                                         const TrigFlowConfig& tf,
                                         const TrigSamplerConfig& sampler,
                                         std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kTrigFlow),
      trigflow_(tf),
      trig_sampler_(sampler),
      rng_(seed) {}

DiffusionForecaster::DiffusionForecaster(const AerisModel& model,
                                         const EdmConfig& edm,
                                         const EdmSamplerConfig& sampler,
                                         std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kEdm),
      edm_(edm),
      edm_sampler_(sampler),
      rng_(seed) {}

DiffusionForecaster::DiffusionForecaster(const AerisModel& model,
                                         const TrigFlowConfig& tf,
                                         const ConsistencySamplerConfig& sampler,
                                         std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kTrigFlow),
      kind_(SamplerKind::kConsistency),
      trigflow_(tf),
      cons_sampler_(sampler),
      rng_(seed) {}

Tensor DiffusionForecaster::forecast_step(const Tensor& prev,
                                          const Tensor& forcings,
                                          std::uint64_t member,
                                          std::int64_t step) const {
  // One-shot call: own a step-local cache (reused across the solver stages
  // of this step — EDM's Heun overlap and TrigFlow re-visits both hit).
  nn::CondCache cache;
  return forecast_step(prev, forcings, member, step,
                       nn::cond_cache_enabled() ? &cache : nullptr);
}

Tensor DiffusionForecaster::forecast_step(const Tensor& prev,
                                          const Tensor& forcings,
                                          std::uint64_t member,
                                          std::int64_t step,
                                          nn::CondCache* cache) const {
  if (prev.ndim() != 3) {
    throw std::invalid_argument("forecast_step: prev must be [H,W,V]");
  }
  const MemberKey key =
      MemberCursor{.seed = rng_.seed(),
                   .member = static_cast<std::int64_t>(member),
                   .step = step}
          .noise_key();
  const std::span<const MemberKey> keys(&key, 1);
  // Sampling never needs backward: the const model overload runs with an
  // inference-mode ctx, so attention streams (no [B,H,T,T] probs) and no
  // layer retains activations. The samplers hand the closures a one-member
  // stack [1, H, W, V], which is exactly the model's batch-1 layout.
  Tensor residual;
  if (param_ == Parameterization::kTrigFlow) {
    const float sd = trigflow_.config().sigma_d;
    DenoiserFn velocity = [&](const Tensor& x, float t) {
      // F takes x_t / sigma_d.
      Tensor input = build_input(scale(x, 1.0f / sd).reshaped(prev.shape()),
                                 prev, forcings);
      Tensor v = model_.forward(input, Tensor({1}, t), cache, precision_);
      scale_(v, sd);  // velocity = sigma_d * F
      return v;
    };
    residual = kind_ == SamplerKind::kConsistency
                   ? sample_consistency(velocity, prev.shape(), trigflow_,
                                        cons_sampler_, keys)
                   : sample_trigflow(velocity, prev.shape(), trigflow_,
                                     trig_sampler_, keys);
  } else {
    DenoiserFn network = [&](const Tensor& xin, float t) {
      Tensor input = build_input(xin.reshaped(prev.shape()), prev, forcings);
      return model_.forward(input, Tensor({1}, t), cache, precision_);
    };
    residual = sample_edm(network, prev.shape(), edm_, edm_sampler_, keys);
  }
  return add(prev, std::move(residual).reshaped(prev.shape()));
}

std::vector<Tensor> DiffusionForecaster::rollout(const Tensor& init,
                                                 const ForcingFn& forcings_at,
                                                 std::int64_t n_steps,
                                                 std::uint64_t member) const {
  MemberCursor::check_steps(n_steps, "rollout");
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(n_steps));
  // One cache spans the whole trajectory: every forecast step replays the
  // same solver schedule, so stages after the first step's are all hits.
  nn::CondCache cache;
  nn::CondCache* cp = nn::cond_cache_enabled() ? &cache : nullptr;
  Tensor state = init;
  for (std::int64_t s = 0; s < n_steps; ++s) {
    state = forecast_step(state, forcings_at(s), member, s, cp);
    out.push_back(state);
  }
  return out;
}

std::vector<std::vector<Tensor>> DiffusionForecaster::ensemble_rollout(
    const Tensor& init, const ForcingFn& forcings_at, std::int64_t n_steps,
    std::int64_t members) const {
  MemberCursor::check_steps(n_steps, "ensemble_rollout");
  std::vector<std::vector<Tensor>> out;
  out.reserve(static_cast<std::size_t>(members));
  for (std::int64_t m = 0; m < members; ++m) {
    out.push_back(rollout(init, forcings_at, n_steps,
                          static_cast<std::uint64_t>(m)));
  }
  return out;
}

Tensor DeterministicForecaster::forecast_step(const Tensor& prev,
                                              const Tensor& forcings) const {
  Tensor cat = concat(prev, forcings, 2);
  Tensor input =
      std::move(cat).reshaped({1, cat.dim(0), cat.dim(1), cat.dim(2)});
  Tensor f = model_.forward(input, Tensor({1}, 0.0f));
  Tensor residual = squeeze_batch(std::move(f));
  return add(prev, residual);
}

std::vector<Tensor> DeterministicForecaster::rollout(
    const Tensor& init, const ForcingFn& forcings_at,
    std::int64_t n_steps) const {
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(n_steps));
  Tensor state = init;
  for (std::int64_t s = 0; s < n_steps; ++s) {
    state = forecast_step(state, forcings_at(s));
    out.push_back(state);
  }
  return out;
}

}  // namespace aeris::core
