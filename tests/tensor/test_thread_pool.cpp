#include "aeris/tensor/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

namespace aeris {
namespace {

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(10, [&](std::int64_t, std::int64_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, NMuchLargerThanThreads) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(100000, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    total += local;
  });
  EXPECT_EQ(total.load(), 100000LL * 99999 / 2);
}

TEST(ThreadPool, NSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::int64_t b, std::int64_t) {
                                   if (b == 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, [&](std::int64_t b, std::int64_t e) {
      count += static_cast<int>(e - b);
    });
    EXPECT_EQ(count.load(), 64);
  }
}

TEST(ThreadPool, GrainRunsSmallRangeInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  int calls = 0;
  // n <= grain: must be a single inline invocation on the caller.
  pool.parallel_for(
      100,
      [&](std::int64_t b, std::int64_t e) {
        seen = std::this_thread::get_id();
        ++calls;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 100);
      },
      /*grain=*/128);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, GrainBoundsChunkSize) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(
      1000,
      [&](std::int64_t b, std::int64_t e) {
        {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(b, e);
        }
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)]++;
        }
      },
      /*grain=*/64);
  // Coverage is still exact...
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // ...and every chunk except possibly the last holds >= grain iterations.
  EXPECT_LE(chunks.size(), static_cast<std::size_t>(1000 / 64 + 1));
  int small = 0;
  for (const auto& [b, e] : chunks) {
    if (e - b < 64) ++small;
  }
  EXPECT_LE(small, 1);
}

TEST(ThreadPool, ExceptionWithGrainPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   1000,
                   [&](std::int64_t b, std::int64_t) {
                     if (b == 0) throw std::runtime_error("boom");
                   },
                   /*grain=*/16),
               std::runtime_error);
}

TEST(ThreadPool, ManyBackToBackDispatches) {
  // Stresses the epoch/chunk-counter handoff: a straggler from job N must
  // never corrupt job N+1's chunk accounting.
  ThreadPool pool(4);
  for (int round = 0; round < 500; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(97, [&](std::int64_t b, std::int64_t e) {
      count += static_cast<int>(e - b);
    });
    ASSERT_EQ(count.load(), 97) << "round " << round;
  }
}

// A per-element value with enough float arithmetic that a chunk split
// across threads or a lost/duplicated chunk would show in the bits.
float element(std::int64_t i, int salt) {
  float v = static_cast<float>(i % 97) * 0.37f + static_cast<float>(salt);
  for (int k = 0; k < 8; ++k) v = v * 1.0001f + 0.5f / (1.0f + v);
  return v;
}

TEST(ThreadPool, ConcurrentDispatchersMatchSerialBitwise) {
  // Several threads dispatch to one pool at once, with mixed sizes and
  // grains, some chunk bodies dispatching again. Losers of the race for
  // the pool run inline; every result must equal the serial one.
  ThreadPool pool(4);
  constexpr int kDispatchers = 6;
  constexpr int kRounds = 40;
  const std::int64_t sizes[] = {1, 7, 64, 1000, 4096};
  const std::int64_t grains[] = {1, 3, 16, 256};
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int d = 0; d < kDispatchers; ++d) {
    threads.emplace_back([&, d] {
      for (int round = 0; round < kRounds; ++round) {
        const std::int64_t n = sizes[(d + round) % 5];
        const std::int64_t grain = grains[(d * 3 + round) % 4];
        const bool nested = (d + round) % 3 == 0;
        const int salt = d * 1000 + round;
        std::vector<float> out(static_cast<std::size_t>(n), 0.0f);
        pool.parallel_for(
            n,
            [&](std::int64_t b, std::int64_t e) {
              if (nested) {
                pool.parallel_for(e - b, [&](std::int64_t nb, std::int64_t ne) {
                  for (std::int64_t i = b + nb; i < b + ne; ++i) {
                    out[static_cast<std::size_t>(i)] = element(i, salt);
                  }
                });
                return;
              }
              for (std::int64_t i = b; i < e; ++i) {
                out[static_cast<std::size_t>(i)] = element(i, salt);
              }
            },
            grain);
        for (std::int64_t i = 0; i < n; ++i) {
          const float want = element(i, salt);
          if (std::memcmp(&out[static_cast<std::size_t>(i)], &want,
                          sizeof(float)) != 0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPool, GrainForBytesKeepsSmallPassesInline) {
  EXPECT_EQ(grain_for_bytes(512), 2048);  // 2048 rows x 512 B = 1 MiB
  EXPECT_EQ(grain_for_bytes(0), std::int64_t{1} << 20);
  EXPECT_EQ(grain_for_bytes(std::int64_t{1} << 30), 1);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<int> count{0};
  parallel_for(17, [&](std::int64_t b, std::int64_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 17);
}

}  // namespace
}  // namespace aeris
