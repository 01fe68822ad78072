#include "aeris/tensor/arena.hpp"

#include <algorithm>

namespace aeris {
namespace {

constexpr std::size_t kAlign = 64;  // cache line / widest SIMD vector
constexpr std::size_t kMinBlockBytes = std::size_t{1} << 20;  // 1 MiB

std::size_t round_up(std::size_t bytes) {
  return (bytes + kAlign - 1) & ~(kAlign - 1);
}

}  // namespace

void ScratchArena::grow(std::size_t bytes) {
  // Geometric growth so a ramp of increasing requests settles after a few
  // blocks; each block is a growth event visible in heap_block_count().
  std::size_t size = std::max(kMinBlockBytes, capacity_);
  size = std::max(size, bytes);
  // Left uninitialized (alloc_floats promises nothing else): pages the
  // kernels never touch stay out of the resident set.
  Block block;
  block.data = std::make_unique_for_overwrite<std::byte[]>(size + kAlign);
  block.size = size;
  capacity_ += size;
  ++heap_blocks_;
  blocks_.push_back(std::move(block));
}

float* ScratchArena::alloc_floats(std::int64_t n) {
  if (n <= 0) return nullptr;
  const std::size_t bytes =
      round_up(static_cast<std::size_t>(n) * sizeof(float));
  // Bump within the current block, advance to an existing free block, or
  // grow. Blocks past cur_block_ are free by the LIFO scope discipline.
  while (cur_block_ < blocks_.size() &&
         cur_used_ + bytes > blocks_[cur_block_].size) {
    ++cur_block_;
    cur_used_ = 0;
  }
  if (cur_block_ == blocks_.size()) grow(bytes);
  std::byte* p = blocks_[cur_block_].aligned_base() + cur_used_;
  cur_used_ += bytes;
  in_use_ += bytes;
  peak_ = std::max(peak_, in_use_);
  return reinterpret_cast<float*>(p);
}

ScratchArena& ScratchArena::for_current_thread() {
  static thread_local ScratchArena arena;
  return arena;
}

}  // namespace aeris
