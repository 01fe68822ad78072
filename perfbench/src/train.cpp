// `train`: a closed loop of SwipeEngine::train_step on the 16x16 dim-32
// depth-2 model over the grid {DP 1, PP 4, WP 1, SP 1}, four rank threads.
// Every rank body runs inside a SerialRegionGuard: the shared kernel pool
// holds one job at a time, so concurrent dispatch from rank threads must
// stay off it (see thread_pool.hpp and README.md).
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstring>

#include "aeris/core/trainer.hpp"
#include "aeris/swipe/engine.hpp"
#include "aeris/tensor/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using aeris::Tensor;
using aeris::swipe::Traffic;

namespace {

constexpr int kMicrobatches = 8;
// Loss tolerance of the engine-equivalence tests (relative, floor 1).
constexpr float kLossTol = 2e-3f;

aeris::swipe::EngineConfig engine_config(std::uint64_t seed) {
  aeris::swipe::EngineConfig ec;
  ec.model = small_config(16, 16);
  ec.grid.dp = 1;
  ec.grid.pp = static_cast<int>(ec.model.depth) + 2;
  ec.microbatches = kMicrobatches;
  ec.train.schedule.peak = 1e-3f;
  ec.train.schedule.warmup = 1;
  ec.train.schedule.total = 1'000'000;
  ec.train.schedule.decay = 10;
  ec.train.seed = seed;
  return ec;
}

std::int64_t global_batch(const aeris::swipe::EngineConfig& ec) {
  return static_cast<std::int64_t>(ec.grid.dp) * ec.microbatches;
}

/// Seeded training pairs: the target is the previous state shifted one
/// column east plus a small drift.
aeris::swipe::DataFn make_data(const aeris::core::ModelConfig& m,
                               std::uint64_t seed) {
  return [=](std::int64_t idx) {
    Scope span("bench.data_fn");
    aeris::core::TrainExample ex;
    ex.prev = make_field(m.h, m.w, m.out_channels, seed,
                         static_cast<std::uint64_t>(idx));
    ex.target = Tensor({m.h, m.w, m.out_channels});
    for (std::int64_t r = 0; r < m.h; ++r) {
      for (std::int64_t c = 0; c < m.w; ++c) {
        for (std::int64_t v = 0; v < m.out_channels; ++v) {
          ex.target.at3(r, c, v) =
              ex.prev.at3(r, (c + m.w - 1) % m.w, v) + 0.05f;
        }
      }
    }
    ex.forcings = make_field(m.h, m.w, forcing_channels(m), seed ^ 0xF0,
                             static_cast<std::uint64_t>(idx));
    return ex;
  };
}

struct TrainPhase {
  std::vector<double> setup_s;
  std::vector<double> step_ms;                ///< timed steps
  std::vector<std::vector<float>> losses;     ///< [rank][step], warm-up first
  std::vector<Metric> bytes_per_step;         ///< swipe.*_bytes_per_step
  double rss_mb = 0.0;                        ///< over the timed loop
};

/// One world: setup (engines + one warm-up step) and, when `seconds` > 0,
/// the timed loop. Ranks agree on when to stop through a barrier whose
/// completion step also times each collective step.
TrainPhase train_world(const aeris::swipe::EngineConfig& ec,
                       std::uint64_t seed, double seconds) {
  TrainPhase p;
  const auto t0 = Clock::now();
  aeris::swipe::World world(ec.grid.world_size());
  const int n = world.size();
  p.losses.assign(static_cast<std::size_t>(n), {});
  const aeris::swipe::DataFn data = make_data(ec.model, seed);
  const std::int64_t batch = global_batch(ec);

  bool go = true;
  bool first = true;
  auto last = Clock::now();
  auto loop_start = last;
  std::int64_t timed = 0;
  RssSampler rss;
  std::barrier sync(n, [&]() noexcept {
    const auto now = Clock::now();
    if (first) {  // every rank finished setup and the warm-up step
      first = false;
      p.setup_s.push_back(seconds_since(t0));
      world.reset_counters();
      rss.restart();
      loop_start = now;
    } else {
      p.step_ms.push_back(ms_between(last, now));
      ++timed;
    }
    last = now;
    go = seconds_since(loop_start) < seconds;
  });

  world.run([&](int rank) {
    aeris::SerialRegionGuard inline_kernels;
    try {
      aeris::swipe::SwipeEngine engine(world, ec, rank);
      std::vector<float>& losses = p.losses[static_cast<std::size_t>(rank)];
      losses.push_back(engine.train_step(data, 0));
      sync.arrive_and_wait();
      for (std::int64_t step = 1; go; ++step) {
        {
          Scope span("swipe.train_step", static_cast<std::uint64_t>(step));
          losses.push_back(engine.train_step(data, step * batch));
        }
        sync.arrive_and_wait();
      }
    } catch (...) {
      // A failed rank leaves the barrier so its peers reach the failure
      // through the poisoned world instead of waiting here forever.
      sync.arrive_and_drop();
      throw;
    }
  });
  p.rss_mb = rss.stop();

  const double steps = static_cast<double>(std::max<std::int64_t>(1, timed));
  const std::pair<const char*, Traffic> classes[] = {
      {"swipe.p2p_bytes_per_step", Traffic::kP2P},
      {"swipe.allreduce_bytes_per_step", Traffic::kAllReduce},
      {"swipe.reduce_scatter_bytes_per_step", Traffic::kReduceScatter},
      {"swipe.allgather_bytes_per_step", Traffic::kAllGather},
  };
  for (const auto& [name, t] : classes) {
    p.bytes_per_step.push_back(
        {name, static_cast<double>(world.bytes(t)) / steps, "B"});
  }
  return p;
}

TrainPhase train_phase(std::uint64_t seed, double seconds, int setups) {
  const aeris::swipe::EngineConfig ec = engine_config(seed);
  // The timed world comes first, so its ranks draw fresh heap arenas: set-up
  // worlds before it left free memory in them that stayed resident in some
  // runs and not others (peak_rss_mb read 3% apart; 0.3% this way).
  TrainPhase p = train_world(ec, seed, seconds);
  for (int i = 1; i < setups; ++i) {
    p.setup_s.push_back(train_world(ec, seed, 0.0).setup_s.at(0));
  }
  return p;
}

double samples_per_s(const TrainPhase& p, std::uint64_t seed) {
  return static_cast<double>(global_batch(engine_config(seed))) /
         (median(p.step_ms) * 1e-3);
}

/// Losses are identical on every rank at every step, and the first two
/// match the serial core::Trainer on the same batches. Returns the number
/// of failed steps.
std::int64_t check_train(std::uint64_t seed, const TrainPhase& p,
                         Outcome& out) {
  std::int64_t failed = 0;
  const std::vector<float>& ref = p.losses.front();
  for (std::size_t s = 0; s < ref.size(); ++s) {
    for (const auto& rank_losses : p.losses) {
      if (rank_losses.size() != ref.size() ||
          std::memcmp(&rank_losses[s], &ref[s], sizeof(float)) != 0) {
        ++failed;
        break;
      }
    }
  }
  if (failed > 0) {
    fail_check(out, std::to_string(failed) +
                        " steps whose loss differs between ranks");
  }
  const aeris::swipe::EngineConfig ec = engine_config(seed);
  aeris::core::AerisModel model(ec.model, ec.train.seed);
  aeris::core::Trainer trainer(model, ec.train);
  const aeris::swipe::DataFn data = make_data(ec.model, seed);
  const std::int64_t batch = global_batch(ec);
  for (std::size_t s = 0; s < 2 && s < ref.size(); ++s) {
    std::vector<aeris::core::TrainExample> b;
    for (std::int64_t i = 0; i < batch; ++i) {
      b.push_back(data(static_cast<std::int64_t>(s) * batch + i));
    }
    const float want = trainer.train_step(b);
    if (!(std::fabs(ref[s] - want) <=
          kLossTol * std::max(1.0f, std::fabs(want)))) {
      ++failed;
      fail_check(out, "step " + std::to_string(s) + " loss " +
                          std::to_string(ref[s]) + " vs serial trainer " +
                          std::to_string(want));
    }
  }
  return failed;
}

/// Median time of one Communicator call on a fresh 4-rank world, rank 0's
/// view, over blocks of calls.
template <typename Body>
double comm_us(const char* span_name, Body body) {
  constexpr int kBlocks = 7, kPerBlock = 20;
  aeris::swipe::World world(4);
  std::vector<double> block_us;
  world.run([&](int rank) {
    aeris::SerialRegionGuard inline_kernels;
    aeris::swipe::Communicator comm(world, {0, 1, 2, 3}, rank, 7);
    for (int b = 0; b < kBlocks; ++b) {
      comm.barrier();
      const auto t0 = Clock::now();
      for (int i = 0; i < kPerBlock; ++i) {
        Scope span(span_name);
        body(comm);
      }
      if (rank == 0) {
        block_us.push_back(ms_between(t0, Clock::now()) * 1e3 / kPerBlock);
      }
    }
  });
  return median(block_us);
}

}  // namespace

void probe_swipe(std::uint64_t seed, double measured_step_ms,
                 const std::vector<Metric>* measured_bytes,
                 std::vector<Metric>& out) {
  const aeris::swipe::EngineConfig ec = engine_config(seed);
  const aeris::core::ModelConfig& m = ec.model;
  if (measured_bytes != nullptr) {
    out.insert(out.end(), measured_bytes->begin(), measured_bytes->end());
  } else {
    // A short run of the train workload for the exact byte counts.
    TrainPhase p = train_world(ec, seed, 0.3);
    out.insert(out.end(), p.bytes_per_step.begin(), p.bytes_per_step.end());
    measured_step_ms = median(p.step_ms);
  }
  const aeris::swipe::DataFn data = make_data(m, seed);
  constexpr int kDataCalls = 64;
  const auto t0 = Clock::now();
  for (int i = 0; i < kDataCalls; ++i) data(i);
  const double data_fn_ms = ms_between(t0, Clock::now()) / kDataCalls;
  out.push_back({"swipe.data_fn_ms", data_fn_ms, "ms"});

  // Message sizes of the train step: one microbatch activation plus its
  // conditioning row between pipeline stages; a block stage's parameters
  // for the gradient allreduce.
  const auto act = static_cast<std::size_t>(m.h * m.w * m.dim + m.cond_dim);
  const auto grads = static_cast<std::size_t>(
      2 * (m.cond_dim + 1) * 3 * m.dim + 2 * m.dim +
      (m.dim + 1) * 4 * m.dim + 3 * m.dim * m.ffn_hidden);
  using aeris::swipe::Communicator;
  auto comm_metric = [&](const char* span, auto body) {
    out.push_back({std::string(span) + "_us", comm_us(span, body), "us"});
  };
  comm_metric("swipe.p2p", [&](Communicator& c) {
    const int r = c.rank(), n = c.size();
    c.send((r + 1) % n, 1, std::vector<float>(act, 1.0f));
    c.recv((r + n - 1) % n, 1);
  });
  comm_metric("swipe.allreduce", [&](Communicator& c) {
    std::vector<float> g(grads, 1.0f);
    c.allreduce_sum(g);
  });
  comm_metric("swipe.alltoall", [&](Communicator& c) {
    c.alltoall(std::vector<std::vector<float>>(
        4, std::vector<float>(act / 4, 1.0f)));
  });

  // Serial single-rank reference on the same global batch.
  aeris::core::AerisModel model(m, ec.train.seed);
  aeris::core::Trainer trainer(model, ec.train);
  std::vector<aeris::core::TrainExample> batch;
  for (std::int64_t i = 0; i < global_batch(ec); ++i) batch.push_back(data(i));
  trainer.train_step(batch);  // warm-up
  std::vector<double> step_ms;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    Scope span("core.trainer_step");
    trainer.train_step(batch);
    step_ms.push_back(ms_between(t0, Clock::now()));
  }
  const double serial_ms = median(step_ms);
  out.push_back({"core.trainer_step_ms", serial_ms, "ms"});
  out.push_back({"swipe.speedup_vs_serial", serial_ms / measured_step_ms, "x"});
}

Outcome run_train(const Args& args) {
  Outcome out;
  if (!args.trace) {
    set_tracing(false);
    TrainPhase p = train_phase(args.seed, args.seconds, kSetupRepeats);
    out.attempted = static_cast<std::int64_t>(p.losses.front().size());
    out.failed = check_train(args.seed, p, out);
    const double sps = samples_per_s(p, args.seed);
    out.metrics = {
        {"setup_s", median(p.setup_s), "s"},
        {"peak_rss_mb", p.rss_mb, "MiB"},
        // A training sample is one member-step-sized pass (forward,
        // backward and optimizer share).
        {"member_steps_per_s", sps, "1/s"},
        // Closed loop: each step is due when the previous one returns.
        {"latency_p50_ms", percentile(p.step_ms, 0.50), "ms"},
        {"latency_p99_ms", percentile(p.step_ms, 0.99), "ms"},
        {"train_samples_per_s", sps, "1/s"},
    };
    return out;
  }

  const double plain =
      samples_per_s(train_phase(args.seed, args.seconds, 1), args.seed);
  set_tracing(true);
  TrainPhase p = train_phase(args.seed, args.seconds, 1);
  out.attempted = static_cast<std::int64_t>(p.losses.front().size());
  out.failed = check_train(args.seed, p, out);
  std::vector<Metric>& m = out.metrics;
  const aeris::core::ModelConfig mc = engine_config(args.seed).model;
  aeris::core::AerisModel model = make_model(mc, 5);
  const aeris::core::ParallelEnsembleEngine engine(
      model, aeris::core::TrigFlowConfig{}, aeris::core::TrigSamplerConfig{},
      0);
  probe_model_layers(engine, kMicrobatches, m);
  double lag_p99 = 0.0;
  probe_serving(engine, args.seed, m, &lag_p99);
  probe_wire(engine, kMicrobatches, m);
  probe_swipe(args.seed, median(p.step_ms), &p.bytes_per_step, m);
  harness_metrics(plain, samples_per_s(p, args.seed), /*higher_is_better=*/true,
                  lag_p99, m);
  return out;
}

}  // namespace perfbench
