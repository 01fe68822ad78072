#pragma once
// The four workloads and the per-layer probes. Each workload returns the
// end-to-end metrics of an untraced run, or, with args.trace, the
// per-layer metrics of a traced run (see README.md for the metric map).
#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "aeris/core/ensemble.hpp"
#include "aeris/serving/types.hpp"
#include "common.hpp"
#include "loadgen.hpp"
#include "report.hpp"

namespace perfbench {

Outcome run_rollout(const Args& args);
/// `serve` (in-process ForecastServer) or `cluster_serve`.
Outcome run_serve(const Args& args, bool cluster);
Outcome run_train(const Args& args);

// ---- shared by the workloads and the probes -------------------------------

/// The benchmark's ForcingFn: a seeded field per (request seed, step),
/// counting its calls and the time spent in them.
struct ForcingCounters {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> ns{0};
};
aeris::core::ForcingFn make_forcing(std::int64_t h, std::int64_t w,
                                    std::int64_t f, std::uint64_t seed,
                                    std::uint64_t request,
                                    ForcingCounters* counters);

/// What the open-loop generator observed for one request.
struct Sent {
  double latency_ms = 0.0;  ///< due time to completion; +inf unless kOk
  double lag_ms = 0.0;      ///< how late the generator sent it
  aeris::serving::RequestStatus status = aeris::serving::RequestStatus::kOk;
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  std::int64_t member_steps = 0;  ///< members_served * steps when kOk

  bool ok() const { return status == aeris::serving::RequestStatus::kOk; }
};

struct GenRun {
  std::vector<Sent> sent;  ///< in stream order
  double wall_s = 0.0;     ///< stream start to last completion
  /// Results of the requests named in `keep`, by stream id.
  std::vector<std::pair<std::uint64_t, aeris::serving::ForecastResult>> kept;
};

/// Sends `stream` open-loop from `threads` sender threads: each takes the
/// next request, builds it, sleeps until its due time and blocks in
/// `forecast`. Latency counts from the due time, so a send delayed by busy
/// senders counts against the system.
GenRun drive(const std::vector<RequestSpec>& stream,
             const std::function<aeris::serving::ForecastRequest(
                 const RequestSpec&)>& build,
             const std::function<aeris::serving::ForecastResult(
                 const aeris::serving::ForecastRequest&)>& forecast,
             int threads, const std::set<std::uint64_t>& keep);

/// Generator threads (at most nproc on the reference host).
inline constexpr int kSenderThreads = 4;

// ---- per-layer probes (probes.cpp) -----------------------------------------

/// tensor.*, nn.*, core.* metrics at the shapes of `engine`'s model,
/// stacking `batch` members per solve.
void probe_model_layers(const aeris::core::ParallelEnsembleEngine& engine,
                        std::int64_t batch, std::vector<Metric>& out);
/// serving.wire_* on a full pack of `batch` members at `engine`'s shapes.
void probe_wire(const aeris::core::ParallelEnsembleEngine& engine,
                std::int64_t batch, std::vector<Metric>& out);
/// serving.* queue/pack/forcing metrics from a generator run and the
/// server's counters.
void serving_metrics(const GenRun& run, const aeris::serving::ServerStats& s,
                     std::int64_t batch, const ForcingCounters& forcing,
                     std::vector<Metric>& out);
/// serving.* metrics for workloads without a server of their own: a short
/// burst of requests through a ForecastServer over `engine`.
void probe_serving(const aeris::core::ParallelEnsembleEngine& engine,
                   std::uint64_t seed, std::vector<Metric>& out,
                   double* gen_lag_p99_ms);

/// swipe.* bytes and timings plus core.trainer_step_ms and
/// swipe.speedup_vs_serial (train.cpp). `measured_bytes` and
/// `measured_step_ms` come from the train workload's own run; with
/// `measured_bytes` null both come from a short train run here.
void probe_swipe(std::uint64_t seed, double measured_step_ms,
                 const std::vector<Metric>* measured_bytes,
                 std::vector<Metric>& out);

/// Appends `bench.trace_overhead_frac` and `bench.gen_lag_p99_ms`.
void harness_metrics(double untraced, double traced, bool higher_is_better,
                     double gen_lag_p99_ms, std::vector<Metric>& out);

}  // namespace perfbench
