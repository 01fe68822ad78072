// `serve` and `cluster_serve`: an open-loop request stream through the
// in-process ForecastServer or the 3-rank ClusterForecastServer, over a
// registry holding a 16x16 teacher (with a consistency student attached)
// and an 8x8 shared-backbone preview variant.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "aeris/core/forecaster.hpp"
#include "aeris/serving/cluster.hpp"
#include "aeris/serving/registry.hpp"
#include "aeris/serving/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using aeris::Tensor;
using aeris::core::SamplerKind;
using aeris::serving::ForecastRequest;
using aeris::serving::ForecastResult;
using aeris::serving::QualityClass;
using aeris::serving::ServerStats;

namespace {

// Offered rates (requests/s), fixed below each server's capacity on the
// reference host (README.md: "Rates").
constexpr double kServeRate = 60.0;
constexpr double kClusterRate = 120.0;
// p99 needs ten samples beyond it.
constexpr std::int64_t kMinRequests = 1000;
// Serving sampler settings: a 4-step ODE teacher and its 2-step student.
constexpr int kTeacherOdeSteps = 4;
constexpr int kStudentSteps = 2;

/// Models outlive engines outlive the registry; heap-held so the zoo is
/// built fresh on every setup.
struct Zoo {
  aeris::core::ModelConfig fine = small_config(16, 16);
  aeris::core::ModelConfig coarse = small_config(8, 8);
  aeris::core::AerisModel teacher = make_model(fine, 11);
  aeris::core::AerisModel student = make_model(fine, 12);
  aeris::core::AerisModel preview{coarse, teacher};  // shared backbone
  aeris::core::TrigFlowConfig tf{};
  aeris::core::TrigSamplerConfig ode = [] {
    aeris::core::TrigSamplerConfig s;
    s.steps = kTeacherOdeSteps;
    return s;
  }();
  aeris::core::ConsistencySamplerConfig cons = [] {
    aeris::core::ConsistencySamplerConfig c;
    c.steps = kStudentSteps;
    return c;
  }();
  aeris::core::ParallelEnsembleEngine teacher_eng{teacher, tf, ode, 0};
  aeris::core::ParallelEnsembleEngine preview_eng{preview, tf, ode, 0};
  aeris::serving::ModelRegistry registry;

  Zoo() {
    teacher_eng.set_consistency(&student, cons);
    registry.add("teacher", teacher_eng, /*skill_tier=*/1);
    registry.add("preview", preview_eng, /*skill_tier=*/0);
  }

  const aeris::core::ModelConfig& grid(Route r) const {
    return r == Route::kPreview ? coarse : fine;
  }

  ForecastRequest request(const RequestSpec& spec,
                          ForcingCounters* counters) const {
    const aeris::core::ModelConfig& g = grid(spec.route);
    ForecastRequest req;
    req.init = make_field(g.h, g.w, g.out_channels, spec.seed, 1ull << 40);
    req.forcings_at = make_forcing(g.h, g.w, forcing_channels(g), spec.seed,
                                   spec.id + 1, counters);
    req.members = spec.members;
    req.steps = spec.steps;
    req.seed = spec.seed;
    switch (spec.route) {
      case Route::kTeacher:
        break;
      case Route::kTeacherConsistency:
        req.quality = QualityClass::kFullSkill;
        req.sampler = SamplerKind::kConsistency;
        break;
      case Route::kPreview:
        req.quality = QualityClass::kPreview;
        break;
      case Route::kTeacherOde:
        req.model = "teacher";
        req.sampler = SamplerKind::kDpmSolver;
        break;
    }
    return req;
  }

  /// The serial DiffusionForecaster reference of a request's variant and
  /// sampler.
  std::vector<std::vector<Tensor>> reference(const RequestSpec& spec,
                                             const ForecastRequest& req) const {
    std::optional<aeris::core::DiffusionForecaster> f;
    if (spec.route == Route::kTeacherConsistency) {
      f.emplace(student, tf, cons, spec.seed);
    } else {
      f.emplace(spec.route == Route::kPreview ? preview : teacher, tf, ode,
                spec.seed);
    }
    return f->ensemble_rollout(req.init, req.forcings_at, spec.steps,
                               spec.members);
  }
};

/// One server of either kind behind a uniform forecast/stats surface.
struct AnyServer {
  std::unique_ptr<aeris::serving::ForecastServer> local;
  std::unique_ptr<aeris::serving::ClusterForecastServer> cluster;

  ForecastResult forecast(const ForecastRequest& r) {
    return local ? local->forecast(r) : cluster->forecast(r);
  }
  ServerStats stats() const {
    return local ? local->stats() : cluster->stats();
  }
};

/// Zoo + server + warm-up: everything before the first timed request.
struct Stack {
  std::unique_ptr<Zoo> zoo;
  AnyServer server;
  std::vector<aeris::serving::RequestStatus> warm_status;
  std::int64_t ok_member_steps = 0;  ///< warm-up member-steps served kOk
};

std::unique_ptr<Stack> build_stack(bool cluster, ForcingCounters* counters) {
  auto s = std::make_unique<Stack>();
  {
    Scope span("core.build_models");
    s->zoo = std::make_unique<Zoo>();
  }
  {
    Scope span("serving.start");
    if (cluster) {
      s->server.cluster =
          std::make_unique<aeris::serving::ClusterForecastServer>(
              s->zoo->registry, aeris::serving::ClusterOptions{});
    } else {
      s->server.local = std::make_unique<aeris::serving::ForecastServer>(
          s->zoo->registry, aeris::serving::ServerOptions{});
    }
  }
  // Warm-up: one request per route, so every variant and sampler path has
  // run (lazy bf16 packs, caches, thread start-up) before timing.
  const Route routes[] = {Route::kTeacher, Route::kTeacherConsistency,
                          Route::kPreview, Route::kTeacherOde};
  std::uint64_t k = 0;
  for (Route r : routes) {
    RequestSpec spec;
    spec.members = 2;
    spec.steps = 1;
    spec.route = r;
    spec.seed = mix64(0xA11CE + k++);
    const ForecastResult res =
        s->server.forecast(s->zoo->request(spec, counters));
    s->warm_status.push_back(res.status);
    if (res.ok()) s->ok_member_steps += res.members_served * spec.steps;
  }
  return s;
}

/// Stream ids whose results are checked against the serial reference: the
/// first request of each route at or after a seeded offset, plus two more.
std::set<std::uint64_t> pick_checked(const std::vector<RequestSpec>& stream,
                                     std::uint64_t seed) {
  std::set<std::uint64_t> ids;
  const std::size_t n = stream.size();
  if (n == 0) return ids;
  const std::size_t start = mix64(seed ^ 0xC4EC) % n;
  bool seen[4] = {false, false, false, false};
  for (std::size_t i = 0; i < n; ++i) {
    const RequestSpec& r = stream[(start + i) % n];
    const auto route = static_cast<std::size_t>(r.route);
    if (!seen[route]) {
      seen[route] = true;
      ids.insert(r.id);
    }
  }
  ids.insert(stream[mix64(seed ^ 0xC4ED) % n].id);
  ids.insert(stream[mix64(seed ^ 0xC4EE) % n].id);
  return ids;
}

struct ServePhase {
  std::vector<double> setup_s;
  GenRun run;
  ServerStats stats;
  double rss_mb = 0.0;  ///< over the timed stream (RssSampler)
  /// Server stopped; the zoo stays for the reference checks and probes.
  std::unique_ptr<Stack> stack;
};

ServePhase serve_phase(bool cluster, int setups,
                       const std::vector<RequestSpec>& stream,
                       const std::set<std::uint64_t>& keep,
                       ForcingCounters* counters) {
  ServePhase p;
  // The timed stack is set up first, so the stream's threads draw fresh heap
  // arenas rather than ones that earlier set-ups left free memory in.
  auto t0 = Clock::now();
  std::unique_ptr<Stack> stack = build_stack(cluster, counters);
  p.setup_s.push_back(seconds_since(t0));
  // Counters cover the timed stream only.
  counters->calls = 0;
  counters->ns = 0;
  Zoo& zoo = *stack->zoo;
  RssSampler rss;
  p.run = drive(
      stream,
      [&](const RequestSpec& spec) { return zoo.request(spec, counters); },
      [&](const ForecastRequest& r) { return stack->server.forecast(r); },
      kSenderThreads, keep);
  p.rss_mb = rss.stop();
  p.stats = stack->server.stats();
  stack->server = AnyServer{};
  p.stack = std::move(stack);
  for (int i = 1; i < setups; ++i) {
    t0 = Clock::now();
    const std::unique_ptr<Stack> extra = build_stack(cluster, nullptr);
    p.setup_s.push_back(seconds_since(t0));
  }  // each extra server stops before the next one starts
  return p;
}

/// The output checks: every request kOk, stats conserve, and the sampled
/// requests match their serial reference bit for bit. Returns the number of
/// requests whose check failed.
std::int64_t check_phase(const ServePhase& p,
                         const std::vector<RequestSpec>& stream, Outcome& out) {
  using aeris::serving::RequestStatus;
  std::map<RequestStatus, std::int64_t> by_status;
  const Stack& stack = *p.stack;
  std::int64_t member_steps = stack.ok_member_steps;
  for (RequestStatus st : stack.warm_status) ++by_status[st];
  for (const Sent& s : p.run.sent) {
    ++by_status[s.status];
    member_steps += s.member_steps;
  }
  const std::int64_t issued =
      static_cast<std::int64_t>(stack.warm_status.size() + p.run.sent.size());
  const std::int64_t not_ok = issued - by_status[RequestStatus::kOk];
  if (not_ok > 0) {
    fail_check(out, std::to_string(not_ok) + " requests did not end kOk");
  }
  const ServerStats& st = p.stats;
  if (st.accepted + st.rejected != issued ||
      st.rejected != by_status[RequestStatus::kRejected]) {
    fail_check(out, "stats: accepted + rejected != requests issued");
  }
  if (st.completed != by_status[RequestStatus::kOk] ||
      st.deadline_expired != by_status[RequestStatus::kDeadlineExceeded] ||
      st.faulted != by_status[RequestStatus::kFault] ||
      st.accepted != st.completed + st.deadline_expired + st.faulted +
                         by_status[RequestStatus::kNumericalError] +
                         by_status[RequestStatus::kWorkerLost]) {
    fail_check(out, "stats: accepted != completed + terminal classes");
  }
  if (st.member_steps != member_steps) {
    fail_check(out, "stats: member_steps != sum of served members x steps");
  }
  std::int64_t admitted = 0;
  for (const auto& [name, m] : st.per_model) admitted += m.admitted;
  if (admitted != st.accepted) {
    fail_check(out, "stats: per-model admissions do not sum to accepted");
  }
  std::int64_t mismatched = 0;
  for (const auto& [id, result] : p.run.kept) {
    const RequestSpec& spec = stream[static_cast<std::size_t>(id)];
    if (!result.ok()) continue;  // counted as failed already
    const ForecastRequest req = stack.zoo->request(spec, nullptr);
    if (!same_bits(result.trajectories, stack.zoo->reference(spec, req))) {
      ++mismatched;
      fail_check(out, "request " + std::to_string(id) +
                          " differs from its serial reference");
    }
  }
  return mismatched;
}

}  // namespace

Outcome run_serve(const Args& args, bool cluster) {
  const double rate = cluster ? kClusterRate : kServeRate;
  const auto n = std::max<std::int64_t>(
      kMinRequests,
      static_cast<std::int64_t>(std::llround(rate * args.seconds)));
  const std::vector<RequestSpec> stream = make_stream(args.seed, rate, n);
  const std::set<std::uint64_t> keep = pick_checked(stream, args.seed);
  ForcingCounters counters;

  Outcome out;
  out.attempted = n;
  auto latency_metrics = [&](const ServePhase& p, std::vector<double>* lat) {
    std::int64_t steps = 0;
    for (const Sent& s : p.run.sent) {
      lat->push_back(s.latency_ms);
      steps += s.member_steps;
      if (!s.ok()) ++out.failed;
    }
    return static_cast<double>(steps) / p.run.wall_s;
  };

  if (!args.trace) {
    set_tracing(false);
    ServePhase p = serve_phase(cluster, kSetupRepeats, stream, keep, &counters);
    std::vector<double> lat;
    const double msps = latency_metrics(p, &lat);
    out.failed += check_phase(p, stream, out);
    out.metrics = {
        {"setup_s", median(p.setup_s), "s"},
        {"peak_rss_mb", p.rss_mb, "MiB"},
        {"member_steps_per_s", msps, "1/s"},
        {"latency_p50_ms", percentile(lat, 0.50), "ms"},
        {"latency_p99_ms", percentile(lat, 0.99), "ms"},
        // A member-step is one sample-sized pass through the model stack.
        {"train_samples_per_s", msps, "1/s"},
    };
    return out;
  }

  // Traced run: the same stream untraced, then traced, then the probes.
  ServePhase plain = serve_phase(cluster, 1, stream, keep, &counters);
  std::vector<double> lat_plain;
  latency_metrics(plain, &lat_plain);
  set_tracing(true);
  ServePhase traced = serve_phase(cluster, 1, stream, keep, &counters);
  std::vector<double> lat_traced;
  latency_metrics(traced, &lat_traced);
  out.failed += check_phase(traced, stream, out);
  out.attempted = 2 * n;
  std::vector<Metric>& m = out.metrics;
  const std::int64_t batch = aeris::serving::ServerOptions{}.batch;
  const Zoo& zoo = *traced.stack->zoo;
  probe_model_layers(zoo.teacher_eng, batch, m);
  serving_metrics(traced.run, traced.stats, batch, counters, m);
  probe_wire(zoo.teacher_eng, batch, m);
  probe_swipe(args.seed, 0.0, nullptr, m);
  std::vector<double> lags;
  for (const Sent& s : traced.run.sent) lags.push_back(s.lag_ms);
  harness_metrics(percentile(lat_plain, 0.5), percentile(lat_traced, 0.5),
                  /*higher_is_better=*/false, percentile(lags, 0.99), m);
  return out;
}

}  // namespace perfbench
