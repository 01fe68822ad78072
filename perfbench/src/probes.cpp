// Per-layer probes of the traced run: each layer's calls timed on their
// own at the workload's model shapes, plus counters read from the layers'
// public surfaces.
#include <algorithm>
#include <string>

#include "aeris/core/window.hpp"
#include "aeris/nn/adaln.hpp"
#include "aeris/nn/attention.hpp"
#include "aeris/nn/embedding.hpp"
#include "aeris/nn/rmsnorm.hpp"
#include "aeris/nn/swiglu.hpp"
#include "aeris/perf/arch.hpp"
#include "aeris/serving/server.hpp"
#include "aeris/serving/wire.hpp"
#include "aeris/tensor/gemm.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using aeris::Tensor;
using aeris::core::MemberSlot;
using aeris::core::ModelConfig;
using aeris::nn::FwdCtx;

namespace {

/// Median wall time (ms) of `fn` over at least `min_reps` calls and about
/// `budget_ms` of calls, after one untimed warm-up call.
template <typename Fn>
double median_ms(const char* span_name, Fn fn, int min_reps = 5,
                 double budget_ms = 40.0) {
  fn();
  std::vector<double> ms;
  double total = 0.0;
  while (static_cast<int>(ms.size()) < min_reps || total < budget_ms) {
    const auto t0 = Clock::now();
    {
      Scope span(span_name);
      fn();
    }
    ms.push_back(ms_between(t0, Clock::now()));
    total += ms.back();
    if (ms.size() >= 1000) break;
  }
  return median(ms);
}

Tensor normal(aeris::Shape shape, std::uint64_t key) {
  Tensor t(std::move(shape));
  aeris::Philox(99).fill_normal(t, 5, key);
  return t;
}

aeris::perf::ArchShape arch_of(const ModelConfig& c) {
  aeris::perf::ArchShape a;
  a.dim = c.dim;
  a.heads = c.heads;
  a.ffn = c.ffn_hidden;
  a.swin_layers = c.depth;
  a.blocks_per_layer = 1;
  a.h = c.h;
  a.w = c.w;
  a.window = c.win_h;  // square windows
  a.in_channels = c.in_channels;
  a.out_channels = c.out_channels;
  a.cond_dim = c.cond_dim;
  return a;
}

/// GFLOP/s of one y = x W^T GEMM of shape [m, k] x [n, k]^T.
double gemm_gflops(std::int64_t m, std::int64_t n, std::int64_t k,
                   double* ms_out) {
  const Tensor a = normal({m, k}, 1);
  const Tensor b = normal({n, k}, 2);
  Tensor c({m, n});
  const double ms = median_ms("tensor.gemm", [&] {
    aeris::gemm(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
                c.data(), n);
  });
  *ms_out = ms;
  return 2.0 * static_cast<double>(m * n * k) / (ms * 1e6);
}

/// A pack of `e` slots over one shared state and forcing field.
struct Pack {
  Tensor prev, forcings;
  std::vector<MemberSlot> slots;
  Pack(const ModelConfig& c, std::int64_t e)
      : prev(make_field(c.h, c.w, c.out_channels, 17, 1)),
        forcings(make_field(c.h, c.w, forcing_channels(c), 17, 2)),
        slots(static_cast<std::size_t>(e)) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].prev = &prev;
      slots[i].forcings = &forcings;
      slots[i].noise = {17, i * 4096};
    }
  }
};

}  // namespace

void probe_model_layers(const aeris::core::ParallelEnsembleEngine& engine,
                        std::int64_t batch, std::vector<Metric>& out) {
  const aeris::core::AerisModel& model = engine.model();
  const ModelConfig& c = model.config();
  const std::int64_t tokens = batch * c.h * c.w;

  // tensor: the model's GEMM shapes, FLOP-weighted, against a large square.
  struct Shape {
    std::int64_t n, k, count;
  };
  const Shape shapes[] = {
      {c.dim, c.in_channels, 1},           {3 * c.dim, c.dim, c.depth},
      {c.dim, c.dim, c.depth},             {c.ffn_hidden, c.dim, 2 * c.depth},
      {c.dim, c.ffn_hidden, c.depth},      {c.out_channels, c.dim, 1},
  };
  double flops = 0.0, ms = 0.0;
  for (const Shape& s : shapes) {
    double one_ms = 0.0;
    const double gf = gemm_gflops(tokens, s.n, s.k, &one_ms);
    flops += gf * one_ms * 1e6 * static_cast<double>(s.count);
    ms += one_ms * static_cast<double>(s.count);
  }
  const double model_gflops = flops / (ms * 1e6);
  double peak_ms = 0.0;
  const double peak = gemm_gflops(768, 768, 768, &peak_ms);
  out.push_back({"tensor.gemm_gflops", model_gflops, "GFLOP/s"});
  out.push_back({"tensor.gemm_peak_gflops", peak, "GFLOP/s"});
  out.push_back({"tensor.gemm_roofline_frac", model_gflops / peak, "ratio"});

  // nn: one call per layer at the stacked-batch shapes, inference mode.
  const std::int64_t windows = batch * c.windows();
  const Tensor x = normal({windows, c.tokens_per_window(), c.dim}, 3);
  const Tensor cond = normal({batch, c.cond_dim}, 4);
  const Tensor t({batch}, 0.7f);
  const aeris::Philox rng(23);
  aeris::nn::WindowAttention attn("probe.attn", c.dim, c.heads, c.win_h,
                                  c.win_w);
  attn.init(rng, 0);
  aeris::nn::SwiGLU ffn("probe.ffn", c.dim, c.ffn_hidden);
  ffn.init(rng, 1);
  aeris::nn::Linear qkv("probe.qkv", c.dim, 3 * c.dim);
  qkv.init(rng, 2);
  aeris::nn::AdaLNHead adaln("probe.adaln", c.cond_dim, c.dim);
  aeris::nn::RMSNorm norm("probe.norm", c.dim);
  aeris::nn::TimeEmbedding temb("probe.time", c.time_features, c.cond_dim);
  temb.init(rng, 3);
  const Tensor field = normal({c.h, c.w, c.dim}, 5);
  // Metric "<span>_ms": median time of one inference-mode call.
  auto layer_ms = [&](const char* span, auto call) {
    const double ms = median_ms(span, [&] {
      FwdCtx ctx(FwdCtx::Mode::kInference);
      call(ctx);
    });
    out.push_back({std::string(span) + "_ms", ms, "ms"});
  };
  layer_ms("nn.attention", [&](FwdCtx& ctx) { attn.forward(x, ctx); });
  layer_ms("nn.swiglu", [&](FwdCtx& ctx) { ffn.forward(x, ctx); });
  layer_ms("nn.linear", [&](FwdCtx& ctx) { qkv.forward(x, ctx); });
  layer_ms("nn.adaln", [&](FwdCtx& ctx) { adaln.forward(cond, ctx); });
  layer_ms("nn.rmsnorm", [&](FwdCtx& ctx) { norm.forward(x, ctx); });
  layer_ms("nn.time_embed", [&](FwdCtx& ctx) { temb.forward(t, ctx); });
  layer_ms("core.window_partition", [&](FwdCtx&) {
    aeris::core::window_partition(field, c.win_h, c.win_w, c.win_h / 2);
  });

  // core: whole forwards and solver steps, one member against a full stack.
  const aeris::nn::InferPrecision prec = engine.infer_precision();
  const Tensor x1 = normal({1, c.h, c.w, c.in_channels}, 6);
  const Tensor xb = normal({batch, c.h, c.w, c.in_channels}, 7);
  const Tensor t1({1}, 0.7f);
  const double fwd1 = median_ms(
      "core.forward", [&] { model.forward(x1, t1, nullptr, prec); }, 3, 100.0);
  const double fwdb = median_ms(
      "core.forward", [&] { model.forward(xb, t, nullptr, prec); }, 3, 100.0);
  out.push_back({"core.forward_ms.e1", fwd1, "ms"});
  out.push_back({"core.forward_ms.pack", fwdb, "ms"});
  out.push_back({"core.forward_gflops",
                 aeris::perf::forward_flops_per_sample(arch_of(c)) *
                     static_cast<double>(batch) / (fwdb * 1e6),
                 "GFLOP/s"});
  const Pack one(c, 1), full(c, batch);
  const double step1 = median_ms(
      "core.step_pack", [&] { engine.step_pack(one.slots); }, 2, 200.0);
  const double stepb =
      median_ms("core.step_pack", [&] { engine.step_pack(full.slots); }, 2,
                200.0) /
      static_cast<double>(batch);
  out.push_back({"core.member_step_ms.e1", step1, "ms"});
  out.push_back({"core.member_step_ms.pack", stepb, "ms"});
  out.push_back({"core.stack_gain", step1 / stepb, "x"});

  // Network evaluations per member-step, counted through the conditioning
  // cache: one forward makes a fixed number of lookups.
  aeris::nn::CondCache per_forward;
  model.forward(x1, t1, &per_forward, prec);
  const double lookups =
      static_cast<double>(per_forward.hits() + per_forward.misses());
  aeris::nn::CondCache across_packs;  // one worker's cache over three packs
  for (int i = 0; i < 3; ++i) engine.step_pack(full.slots, 0, &across_packs);
  const double pack_lookups =
      static_cast<double>(across_packs.hits() + across_packs.misses());
  out.push_back({"nn.cond_cache_hit_frac",
                 static_cast<double>(across_packs.hits()) / pack_lookups,
                 "ratio"});
  out.push_back({"core.evals_per_member_step", pack_lookups / 3.0 / lookups,
                 "count"});
}

void probe_wire(const aeris::core::ParallelEnsembleEngine& engine,
                std::int64_t batch, std::vector<Metric>& out) {
  namespace wire = aeris::serving::wire;
  const ModelConfig& c = engine.model().config();
  const Pack pack(c, batch);
  const std::int64_t f = forcing_channels(c);
  std::vector<float> pack_msg, result_msg;
  const double enc = median_ms("serving.wire_encode", [&] {
    pack_msg = wire::encode_pack(1, 0, aeris::core::SamplerKind::kDpmSolver, 0,
                                 pack.slots, c.h, c.w, c.out_channels, f);
  });
  const double dec =
      median_ms("serving.wire_decode", [&] { wire::decode_pack(pack_msg); });
  const std::vector<Tensor> next(static_cast<std::size_t>(batch), pack.prev);
  const double renc = median_ms("serving.wire_encode", [&] {
    result_msg = wire::encode_result(1, next);
  });
  const double rdec = median_ms(
      "serving.wire_decode", [&] { wire::decode_result(result_msg); });
  out.push_back({"serving.wire_encode_us", (enc + renc) * 1e3, "us"});
  out.push_back({"serving.wire_decode_us", (dec + rdec) * 1e3, "us"});
  const std::size_t bytes =
      (pack_msg.size() + result_msg.size()) * sizeof(float);
  out.push_back({"serving.wire_bytes_per_member_step",
                 static_cast<double>(bytes) / static_cast<double>(batch), "B"});
}

void serving_metrics(const GenRun& run, const aeris::serving::ServerStats& s,
                     std::int64_t batch, const ForcingCounters& forcing,
                     std::vector<Metric>& out) {
  std::vector<double> wait, service;
  double member_steps = 0.0;
  for (const Sent& x : run.sent) {
    wait.push_back(x.queue_wait_ms);
    service.push_back(x.service_ms);
    member_steps += static_cast<double>(x.member_steps);
  }
  const double calls = static_cast<double>(forcing.calls.load());
  const double packs = static_cast<double>(std::max<std::int64_t>(1, s.packs));
  auto count = [&](const char* name, std::int64_t v) {
    out.push_back({name, static_cast<double>(v), "count"});
  };
  out.push_back({"serving.queue_wait_p50_ms", percentile(wait, 0.50), "ms"});
  out.push_back({"serving.queue_wait_p99_ms", percentile(wait, 0.99), "ms"});
  out.push_back({"serving.service_p50_ms", percentile(service, 0.50), "ms"});
  out.push_back({"serving.pack_fill",
                 static_cast<double>(s.member_steps) /
                     (packs * static_cast<double>(batch)),
                 "ratio"});
  out.push_back({"serving.forcing_us",
                 calls > 0 ? static_cast<double>(forcing.ns) * 1e-3 / calls
                           : 0.0,
                 "us"});
  out.push_back({"serving.forcing_calls_per_member_step",
                 member_steps > 0 ? calls / member_steps : 0.0, "ratio"});
  count("serving.rejected", s.rejected);
  count("serving.deadline_expired", s.deadline_expired);
  count("serving.retries", s.transient_retries);
  count("serving.quarantined", s.quarantined_members);
  count("serving.requeued_member_steps", s.requeued_member_steps);
}

void probe_serving(const aeris::core::ParallelEnsembleEngine& engine,
                   std::uint64_t seed, std::vector<Metric>& out,
                   double* gen_lag_p99_ms) {
  // A burst (every request due at once) of small requests on the default
  // path of a one-variant server.
  constexpr std::int64_t kRequests = 6;
  std::vector<RequestSpec> stream = make_stream(seed, 1e9, kRequests);
  for (RequestSpec& r : stream) {
    r.members = std::min<std::int64_t>(r.members, 2);
    r.steps = 1;
  }
  const ModelConfig& c = engine.model().config();
  const aeris::serving::ServerOptions opts{};
  ForcingCounters counters;
  aeris::serving::ForecastServer server(engine, opts);
  const GenRun run = drive(
      stream,
      [&](const RequestSpec& spec) {
        aeris::serving::ForecastRequest req;
        req.init = make_field(c.h, c.w, c.out_channels, spec.seed, 1ull << 40);
        req.forcings_at = make_forcing(c.h, c.w, forcing_channels(c), spec.seed,
                                       spec.id + 1, &counters);
        req.members = spec.members;
        req.steps = spec.steps;
        req.seed = spec.seed;
        return req;
      },
      [&](const aeris::serving::ForecastRequest& r) {
        return server.forecast(r);
      },
      kSenderThreads, {});
  serving_metrics(run, server.stats(), opts.batch, counters, out);
  std::vector<double> lags;
  for (const Sent& s : run.sent) lags.push_back(s.lag_ms);
  *gen_lag_p99_ms = percentile(lags, 0.99);
}

void harness_metrics(double untraced, double traced, bool higher_is_better,
                     double gen_lag_p99_ms, std::vector<Metric>& out) {
  const double overhead = higher_is_better ? untraced / traced - 1.0
                                           : traced / untraced - 1.0;
  out.push_back({"bench.trace_overhead_frac", overhead, "ratio"});
  out.push_back({"bench.gen_lag_p99_ms", gen_lag_p99_ms, "ms"});
}

}  // namespace perfbench
