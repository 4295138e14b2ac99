// Cache-line-aligned limb storage for the Montgomery kernels.
//
// The vector kernels load operands 64 bytes at a time. On plain malloc
// storage where a buffer lands relative to a cache line depends on the heap
// layout, so the same modexp could run at full speed or with every load
// split across two lines. Every kernel buffer (workspace slots, modulus
// constants, fixed-base tables) uses AlignedLimbs instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace pisa::bn {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Allocator that puts every block on a cache-line boundary.
template <class T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  // Implicit, as the Allocator requirements expect of rebinding copies.
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

using AlignedLimbs =
    std::vector<std::uint64_t, CacheLineAllocator<std::uint64_t>>;

}  // namespace pisa::bn
