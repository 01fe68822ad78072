#include "aeris/core/window.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/rng.hpp"

namespace aeris::core {
namespace {

Tensor arange_tokens(std::int64_t h, std::int64_t w, std::int64_t c) {
  Tensor x({h, w, c});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  return x;
}

bool same_bits(const float* a, const Tensor& b) {
  return std::memcmp(a, b.data(),
                     sizeof(float) * static_cast<std::size_t>(b.numel())) == 0;
}

// reorder_tokens over a batch of `e` maps must equal the per-sample
// window_partition / window_reverse (roll2d included) exactly, in all
// three directions: raster -> windows, windows -> raster, and the
// windows -> windows step between two layers' shifts.
void expect_reorder_matches(std::int64_t h, std::int64_t w, std::int64_t win_h,
                            std::int64_t win_w, std::int64_t e,
                            std::int64_t s_from, std::int64_t s_to) {
  const std::int64_t c = 3;
  Tensor maps({e, h, w, c});
  Philox(5).fill_normal(maps, 1, static_cast<std::uint64_t>(e));
  const TokenOrder raster = TokenOrder::raster();
  const TokenOrder from = TokenOrder::windows(win_h, win_w, s_from);
  const TokenOrder to = TokenOrder::windows(win_h, win_w, s_to);
  Tensor wins_from(maps.shape()), wins_to(maps.shape()), back(maps.shape());
  reorder_tokens(maps.data(), raster, wins_from.data(), from, e, h, w, c);
  reorder_tokens(wins_from.data(), from, wins_to.data(), to, e, h, w, c);
  reorder_tokens(wins_to.data(), to, back.data(), raster, e, h, w, c);
  const std::int64_t per = h * w * c;
  for (std::int64_t i = 0; i < e; ++i) {
    const Tensor map =
        slice(maps, 0, i, i + 1).reshaped({h, w, c});
    const Tensor part_from = window_partition(map, win_h, win_w, s_from);
    const Tensor part_to = window_partition(
        window_reverse(part_from, h, w, win_h, win_w, s_from), win_h, win_w,
        s_to);
    const Tensor rev = window_reverse(part_to, h, w, win_h, win_w, s_to);
    const std::string where = "sample " + std::to_string(i) + " of " +
                              std::to_string(e) + ", shifts " +
                              std::to_string(s_from) + "->" +
                              std::to_string(s_to);
    EXPECT_TRUE(same_bits(wins_from.data() + i * per, part_from)) << where;
    EXPECT_TRUE(same_bits(wins_to.data() + i * per, part_to)) << where;
    EXPECT_TRUE(same_bits(back.data() + i * per, rev)) << where;
    EXPECT_TRUE(same_bits(back.data() + i * per, map)) << where;
  }
}

TEST(Roll2D, ZeroShiftIsIdentity) {
  Tensor x = arange_tokens(4, 6, 2);
  EXPECT_TRUE(roll2d(x, 0, 0).allclose(x));
  EXPECT_TRUE(roll2d(x, 4, 6).allclose(x));  // full-period shifts
}

TEST(Roll2D, ShiftMovesContent) {
  Tensor x = arange_tokens(2, 2, 1);
  // x = [[0,1],[2,3]]; roll by (1,0): rows move down.
  Tensor r = roll2d(x, 1, 0);
  EXPECT_FLOAT_EQ(r.at3(0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(r.at3(1, 0, 0), 0.0f);
}

TEST(Roll2D, NegativeShiftIsInverse) {
  Philox rng(1);
  Tensor x({6, 8, 3});
  rng.fill_normal(x, 1, 0);
  Tensor r = roll2d(roll2d(x, 2, 3), -2, -3);
  EXPECT_TRUE(r.allclose(x));
}

TEST(WindowPartition, CountAndShape) {
  EXPECT_EQ(window_count(8, 12, 4, 4), 6);
  EXPECT_THROW(window_count(8, 12, 5, 4), std::invalid_argument);
  Tensor x = arange_tokens(8, 12, 3);
  Tensor wins = window_partition(x, 4, 4, 0);
  EXPECT_EQ(wins.shape(), (Shape{6, 16, 3}));
}

TEST(WindowPartition, RowMajorWindowOrder) {
  Tensor x = arange_tokens(4, 4, 1);
  Tensor wins = window_partition(x, 2, 2, 0);
  // Window 0 is the top-left 2x2 block: tokens 0,1,4,5.
  EXPECT_FLOAT_EQ(wins.at3(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(wins.at3(0, 1, 0), 1.0f);
  EXPECT_FLOAT_EQ(wins.at3(0, 2, 0), 4.0f);
  EXPECT_FLOAT_EQ(wins.at3(0, 3, 0), 5.0f);
  // Window 1 is the top-right block: tokens 2,3,6,7.
  EXPECT_FLOAT_EQ(wins.at3(1, 0, 0), 2.0f);
  // Window 2 is the bottom-left block.
  EXPECT_FLOAT_EQ(wins.at3(2, 0, 0), 8.0f);
}

TEST(WindowPartition, ReverseRoundTripNoShift) {
  Philox rng(2);
  Tensor x({8, 16, 4});
  rng.fill_normal(x, 1, 0);
  Tensor wins = window_partition(x, 4, 4, 0);
  EXPECT_TRUE(window_reverse(wins, 8, 16, 4, 4, 0).allclose(x));
  for (std::int64_t e : {1, 3}) expect_reorder_matches(8, 16, 4, 4, e, 0, 0);
}

TEST(WindowPartition, ReverseRoundTripWithShift) {
  Philox rng(3);
  Tensor x({8, 16, 4});
  rng.fill_normal(x, 1, 0);
  for (std::int64_t shift : {1, 2, 3}) {
    Tensor wins = window_partition(x, 4, 4, shift);
    EXPECT_TRUE(window_reverse(wins, 8, 16, 4, 4, shift).allclose(x))
        << "shift " << shift;
  }
  // Every pair of layer shifts {0, win/2}^2, square and oblong windows.
  const std::int64_t wins_hw[][2] = {{4, 4}, {4, 8}};
  for (const auto& hw : wins_hw) {
    for (std::int64_t e : {1, 3}) {
      for (std::int64_t s_from : {std::int64_t{0}, hw[0] / 2}) {
        for (std::int64_t s_to : {std::int64_t{0}, hw[0] / 2}) {
          expect_reorder_matches(8, 16, hw[0], hw[1], e, s_from, s_to);
        }
      }
    }
  }
}

TEST(WindowPartition, ShiftChangesWindowContents) {
  Tensor x = arange_tokens(4, 4, 1);
  Tensor plain = window_partition(x, 2, 2, 0);
  Tensor shifted = window_partition(x, 2, 2, 1);
  EXPECT_FALSE(plain.allclose(shifted));
  // Shift by -1 rolls token (1,1)=5 into window 0 position 0.
  EXPECT_FLOAT_EQ(shifted.at3(0, 0, 0), 5.0f);
}

TEST(WindowPartition, PartitionIsAPermutation) {
  // Every element appears exactly once.
  Tensor x = arange_tokens(4, 8, 2);
  Tensor wins = window_partition(x, 2, 4, 1);
  std::vector<int> seen(static_cast<std::size_t>(x.numel()), 0);
  for (float v : wins.flat()) seen[static_cast<std::size_t>(v)]++;
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(WindowReverse, ValidatesShape) {
  Tensor wins({3, 16, 2});
  EXPECT_THROW(window_reverse(wins, 8, 8, 4, 4, 0), std::invalid_argument);
}

TEST(FieldTokens, RoundTrip) {
  Philox rng(4);
  Tensor field({5, 6, 7});
  rng.fill_normal(field, 1, 0);
  Tensor tokens = field_to_tokens(field);
  EXPECT_EQ(tokens.shape(), (Shape{6, 7, 5}));
  EXPECT_TRUE(tokens_to_field(tokens).allclose(field));
  EXPECT_FLOAT_EQ(tokens.at3(2, 3, 1), field.at3(1, 2, 3));
}

}  // namespace
}  // namespace aeris::core
