// Self-test of the benchmark's own machinery: the open-loop generator, the
// sender's due-time latency, the percentile rule, the span recorder's
// self-time arithmetic and the resident-set sampler.
//   perfbench_selftest   (exit 0 = all checks passed)
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

/// Byte encoding of a stream, for identity checks.
std::string serialize(const std::vector<perfbench::RequestSpec>& stream) {
  std::string out;
  auto put = [&](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  for (const auto& r : stream) {
    put(&r.id, sizeof r.id);
    put(&r.due_s, sizeof r.due_s);
    put(&r.members, sizeof r.members);
    put(&r.steps, sizeof r.steps);
    put(&r.route, sizeof r.route);
    put(&r.seed, sizeof r.seed);
  }
  return out;
}

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void stream_is_a_function_of_the_seed() {
  using perfbench::make_stream;
  check(serialize(make_stream(7, 50.0, 1200)) ==
            serialize(make_stream(7, 50.0, 1200)),
        "same seed gives a byte-identical stream");
  check(serialize(make_stream(7, 50.0, 1200)) !=
            serialize(make_stream(8, 50.0, 1200)),
        "a different seed gives a different stream");
}

void stream_mix_is_seed_independent() {
  // Stratified draw: the multiset of (members, steps, route) and hence the
  // total offered work is the same for every seed.
  auto work = [](std::uint64_t seed) {
    std::int64_t member_steps = 0, big = 0;
    std::int64_t routes[4] = {0, 0, 0, 0};
    for (const auto& r : perfbench::make_stream(seed, 50.0, 1000)) {
      member_steps += r.members * r.steps;
      big += r.members == 8;
      ++routes[static_cast<int>(r.route)];
    }
    return std::vector<std::int64_t>{member_steps, big, routes[0], routes[1],
                                     routes[2], routes[3]};
  };
  check(work(1) == work(2) && work(2) == work(99),
        "every seed offers the same mix");
  check(work(1)[1] > 0, "the heavy tail (8 members) is present");
}

void arrivals_are_poisson_at_the_rate() {
  const auto s = perfbench::make_stream(3, 50.0, 20000);
  bool increasing = true;
  for (std::size_t i = 1; i < s.size(); ++i) {
    increasing = increasing && s[i].due_s > s[i - 1].due_s;
  }
  check(increasing, "due times strictly increase");
  const double rate = static_cast<double>(s.size()) / s.back().due_s;
  check(std::fabs(rate - 50.0) < 1e-6, "the stream spans exactly n / rate");
}

void failed_requests_count_as_infinite() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> lat(1000, 10.0);
  check(perfbench::percentile(lat, 0.99) == 10.0, "p99 of a flat sample");
  for (int i = 0; i < 10; ++i) lat[static_cast<std::size_t>(i)] = inf;
  check(perfbench::percentile(lat, 0.99) == 10.0,
        "ten failures sit beyond p99 of 1000");
  lat[10] = inf;
  check(std::isinf(perfbench::percentile(lat, 0.99)),
        "an eleventh failure moves p99 to infinity");
  check(perfbench::percentile({3.0, 1.0, 2.0}, 0.5) == 2.0,
        "nearest-rank median");
}

void latency_counts_from_the_due_time() {
  // Eight requests all due at once, one sender, a 20 ms server: the k-th
  // request waits for the k-1 before it, and that wait is in its latency
  // and in the generator lag. A refused request counts as infinite.
  std::vector<perfbench::RequestSpec> stream(8);
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i].id = i;
  const auto run = perfbench::drive(
      stream,
      [](const perfbench::RequestSpec&) {
        return aeris::serving::ForecastRequest{};
      },
      [&](const aeris::serving::ForecastRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        static int calls = 0;
        aeris::serving::ForecastResult r;
        if (++calls == 8) r.status = aeris::serving::RequestStatus::kRejected;
        return r;
      },
      /*threads=*/1, {3});
  // Bounds sit at one service time, so a host that wakes the sender late
  // cannot fail them; a request that queued behind another would.
  check(run.sent[0].latency_ms >= 19.0 && run.sent[0].lag_ms < 19.0,
        "first request: service time only");
  check(run.sent[6].latency_ms >= 7 * 19.0 && run.sent[6].lag_ms >= 6 * 19.0,
        "seventh request: latency and lag include the six before it");
  check(std::isinf(run.sent[7].latency_ms) && !run.sent[7].ok(),
        "a refused request has infinite latency");
  check(run.kept.size() == 1 && run.kept[0].first == 3,
        "only the requested result is kept");
}

void self_time_subtracts_children() {
  perfbench::clear_spans();
  perfbench::set_tracing(true);
  {
    perfbench::Scope outer("serving.outer", 42);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      perfbench::Scope inner("core.inner", 42);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  }
  perfbench::set_tracing(false);
  const auto spans = perfbench::collect_spans();
  check(spans.size() == 2, "two spans recorded");
  bool parent_ok = false;
  for (const auto& s : spans) {
    if (std::string(s.name) == "core.inner") {
      for (const auto& p : spans) {
        parent_ok = parent_ok || (p.id == s.parent &&
                                  std::string(p.name) == "serving.outer");
      }
      check(s.request == 42, "request id carried");
    }
  }
  check(parent_ok, "child records its parent");
  const auto self = perfbench::self_ms_by_layer(spans);
  // Below the parent's 20 ms plus the child's 30 ms, with room for a late
  // wake-up from either sleep.
  check(self.at("serving") >= 19.0 && self.at("serving") < 49.0,
        "parent self time excludes the child");
  check(self.at("core") >= 29.0, "child self time");
  perfbench::clear_spans();
  {
    perfbench::Scope off("serving.off");
  }
  check(perfbench::collect_spans().empty(), "no spans while tracing is off");
}

}  // namespace

void rss_sampler_sees_touched_memory() {
  perfbench::RssSampler idle;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double base = idle.stop();
  check(base > 0.0, "the resident set reads above zero");
  constexpr std::size_t kBytes = 32u << 20;
  perfbench::RssSampler busy;
  auto block = std::make_unique<char[]>(kBytes);
  std::memset(block.get(), 1, kBytes);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double held = busy.stop();
  check(block[kBytes - 1] == 1 && held >= base + 30.0,
        "32 MiB touched while sampling raise the reading by 30 MiB or more");
}

int main() {
  stream_is_a_function_of_the_seed();
  stream_mix_is_seed_independent();
  arrivals_are_poisson_at_the_rate();
  failed_requests_count_as_infinite();
  latency_counts_from_the_due_time();
  self_time_subtracts_children();
  rss_sampler_sees_touched_memory();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
