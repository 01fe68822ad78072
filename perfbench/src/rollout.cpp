// `rollout`: a closed loop of ParallelEnsembleEngine::ensemble_rollout on
// the library-default model with the default EnsembleOptions and the
// paper's 10-step TrigFlow DPM-Solver++(2S) sampler.
#include <memory>

#include "aeris/core/forecaster.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using aeris::Tensor;

namespace {

// One call advances a full stack (EnsembleOptions::batch) one step.
constexpr std::int64_t kMembers = 4;
constexpr std::int64_t kSteps = 1;
// Each set-up ends with one full warm-up call.
constexpr int kSetups = 3;

struct RolloutStack {
  aeris::core::ModelConfig cfg = rollout_config();
  aeris::core::AerisModel model;
  aeris::core::TrigFlowConfig tf{};
  aeris::core::TrigSamplerConfig sampler{};  // 10 steps, no churn
  aeris::core::ParallelEnsembleEngine engine;

  explicit RolloutStack(std::uint64_t seed)
      : model(make_model(cfg, 3)), engine(model, tf, sampler, mix64(seed)) {}

  Tensor init(std::uint64_t seed, std::uint64_t call) const {
    return make_field(cfg.h, cfg.w, cfg.out_channels, seed, call);
  }
  aeris::core::ForcingFn forcing(std::uint64_t seed,
                                 ForcingCounters* counters) const {
    return make_forcing(cfg.h, cfg.w, forcing_channels(cfg), seed, 0,
                        counters);
  }
};

struct RolloutPhase {
  std::vector<double> setup_s;
  std::vector<double> call_ms;
  /// Output of the checked call (the seeded one among the first four, or
  /// the last call if the loop stopped earlier); only it is kept, so memory
  /// does not grow with the number of calls.
  std::uint64_t checked_call = 0;
  std::vector<std::vector<Tensor>> checked;
  std::unique_ptr<RolloutStack> stack;
  double rss_mb = 0.0;  ///< over the timed loop (RssSampler)
};

RolloutPhase rollout_phase(const Args& args, int setups,
                           ForcingCounters* counters) {
  RolloutPhase p;
  for (int i = 0; i < setups; ++i) {
    p.stack.reset();
    const auto t0 = Clock::now();
    {
      Scope span("core.build_engine");
      p.stack = std::make_unique<RolloutStack>(args.seed);
    }
    Scope span("core.ensemble_rollout");
    p.stack->engine.ensemble_rollout(p.stack->init(args.seed, 1ull << 40),
                                     p.stack->forcing(args.seed, counters),
                                     kSteps, kMembers);
    p.setup_s.push_back(seconds_since(t0));
  }
  counters->calls = 0;
  counters->ns = 0;
  const RolloutStack& s = *p.stack;
  const aeris::core::ForcingFn forcing = s.forcing(args.seed, counters);
  const std::uint64_t check_call = mix64(args.seed ^ 0x7011) % 4;
  RssSampler rss;
  const auto start = Clock::now();
  for (std::uint64_t call = 0; seconds_since(start) < args.seconds; ++call) {
    const Tensor init = s.init(args.seed, call);
    const auto t0 = Clock::now();
    std::vector<std::vector<Tensor>> members;
    {
      Scope span("core.ensemble_rollout", call + 1);
      members = s.engine.ensemble_rollout(init, forcing, kSteps, kMembers);
    }
    p.call_ms.push_back(ms_between(t0, Clock::now()));
    if (call <= check_call) {
      p.checked_call = call;
      p.checked = std::move(members);
    }
  }
  p.rss_mb = rss.stop();
  return p;
}

/// The seeded sample call must match the serial DiffusionForecaster.
std::int64_t check_rollout(const Args& args, const RolloutPhase& p,
                           Outcome& out) {
  if (p.call_ms.empty()) {
    fail_check(out, "no rollout call completed");
    return 0;
  }
  const std::uint64_t call = p.checked_call;
  const RolloutStack& s = *p.stack;
  aeris::core::DiffusionForecaster serial(s.model, s.tf, s.sampler,
                                          mix64(args.seed));
  const auto ref = serial.ensemble_rollout(
      s.init(args.seed, call), s.forcing(args.seed, nullptr), kSteps, kMembers);
  if (!same_bits(p.checked, ref)) {
    fail_check(out, "rollout call " + std::to_string(call) +
                        " differs from the serial DiffusionForecaster");
    return 1;
  }
  return 0;
}

double member_steps_per_s(const RolloutPhase& p) {
  return static_cast<double>(kMembers * kSteps) / (median(p.call_ms) * 1e-3);
}

}  // namespace

Outcome run_rollout(const Args& args) {
  ForcingCounters counters;
  Outcome out;
  if (!args.trace) {
    set_tracing(false);
    RolloutPhase p = rollout_phase(args, kSetups, &counters);
    out.attempted = static_cast<std::int64_t>(p.call_ms.size());
    out.failed = check_rollout(args, p, out);
    const double msps = member_steps_per_s(p);
    out.metrics = {
        {"setup_s", median(p.setup_s), "s"},
        {"peak_rss_mb", p.rss_mb, "MiB"},
        {"member_steps_per_s", msps, "1/s"},
        // Closed loop: each call is due when the previous one returns.
        {"latency_p50_ms", percentile(p.call_ms, 0.50), "ms"},
        {"latency_p99_ms", percentile(p.call_ms, 0.99), "ms"},
        {"train_samples_per_s", msps, "1/s"},
    };
    return out;
  }

  RolloutPhase plain = rollout_phase(args, 1, &counters);
  const double plain_rate = member_steps_per_s(plain);
  plain = RolloutPhase{};
  set_tracing(true);
  RolloutPhase traced = rollout_phase(args, 1, &counters);
  out.attempted = static_cast<std::int64_t>(traced.call_ms.size());
  out.failed = check_rollout(args, traced, out);
  std::vector<Metric>& m = out.metrics;
  const aeris::core::ParallelEnsembleEngine& engine = traced.stack->engine;
  probe_model_layers(engine, kMembers, m);
  double lag_p99 = 0.0;
  probe_serving(engine, args.seed, m, &lag_p99);
  probe_wire(engine, kMembers, m);
  probe_swipe(args.seed, 0.0, nullptr, m);
  harness_metrics(plain_rate, member_steps_per_s(traced),
                  /*higher_is_better=*/true, lag_p99, m);
  return out;
}

}  // namespace perfbench
