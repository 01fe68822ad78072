// The open-loop sender and the benchmark's ForcingFn, shared by the
// serving workloads and the serving probe.
#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using aeris::Tensor;
using aeris::serving::ForecastRequest;
using aeris::serving::ForecastResult;

aeris::core::ForcingFn make_forcing(std::int64_t h, std::int64_t w,
                                    std::int64_t f, std::uint64_t seed,
                                    std::uint64_t request,
                                    ForcingCounters* counters) {
  return [=](std::int64_t step) {
    Scope span("bench.forcing", request);
    const std::int64_t t0 = counters != nullptr ? now_ns() : 0;
    Tensor out = make_field(h, w, f, seed, static_cast<std::uint64_t>(step));
    if (counters != nullptr) {
      counters->ns += now_ns() - t0;
      ++counters->calls;
    }
    return out;
  };
}

GenRun drive(const std::vector<RequestSpec>& stream,
             const std::function<ForecastRequest(const RequestSpec&)>& build,
             const std::function<ForecastResult(const ForecastRequest&)>&
                 forecast,
             int threads, const std::set<std::uint64_t>& keep) {
  GenRun run;
  run.sent.resize(stream.size());
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards run.kept and error
  std::exception_ptr error;
  const auto t0 = Clock::now();
  auto send_all = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= stream.size()) return;
      const RequestSpec& spec = stream[i];
      const ForecastRequest req = build(spec);
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(spec.due_s));
      std::this_thread::sleep_until(due);
      Sent& s = run.sent[i];
      s.lag_ms = std::max(0.0, ms_between(due, Clock::now()));
      ForecastResult res;
      {
        Scope span("serving.forecast", spec.id + 1);
        res = forecast(req);
      }
      const auto done = Clock::now();
      s.status = res.status;
      s.latency_ms = s.ok() ? ms_between(due, done)
                            : std::numeric_limits<double>::infinity();
      s.queue_wait_ms = res.queue_wait_ms;
      s.service_ms = res.total_ms - res.queue_wait_ms;
      s.member_steps = s.ok() ? res.members_served * spec.steps : 0;
      if (keep.count(spec.id)) {
        std::lock_guard<std::mutex> lock(mu);
        run.kept.emplace_back(spec.id, std::move(res));
      }
    }
  };
  // A throwing build or forecast (a malformed request) stops that sender;
  // the first such error is rethrown once every sender has joined.
  auto sender = [&] {
    try {
      send_all();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(sender);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  run.wall_s = seconds_since(t0);
  return run;
}

}  // namespace perfbench
