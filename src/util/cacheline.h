// Cache-line-conscious allocation for hot-path SoA blocks.
//
// The step kernel's working set (ie/token_hot_block.h) is packed into flat
// arrays whose base addresses must sit on cache-line boundaries, so that
// "one record = one line" arithmetic holds and a hardware prefetch of a
// record never straddles two lines. std::vector's default allocator
// only guarantees alignof(std::max_align_t) (16 on x86-64); this allocator
// upgrades that to the line size via C++17 aligned operator new.
#ifndef FGPDB_UTIL_CACHELINE_H_
#define FGPDB_UTIL_CACHELINE_H_

#include <cstddef>
#include <new>
#include <vector>

namespace fgpdb {

/// The alignment the hot-block arrays are allocated at. 64 bytes is the
/// line size of every x86-64 and most AArch64 parts; over-aligning on
/// exotic hardware costs nothing but padding.
inline constexpr size_t kCacheLineBytes = 64;

/// Minimal std::allocator replacement returning cache-line-aligned blocks.
/// Equality is stateless: any two instances are interchangeable.
template <typename T>
class CacheLineAllocator {
 public:
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(size_t n) {
    constexpr std::align_val_t kAlign{
        alignof(T) > kCacheLineBytes ? alignof(T) : kCacheLineBytes};
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }

  void deallocate(T* p, size_t) noexcept {
    constexpr std::align_val_t kAlign{
        alignof(T) > kCacheLineBytes ? alignof(T) : kCacheLineBytes};
    ::operator delete(p, kAlign);
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const CacheLineAllocator<U>&) const {
    return false;
  }
};

/// A std::vector whose backing storage starts on a cache-line boundary.
template <typename T>
using CacheAlignedVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace fgpdb

#endif  // FGPDB_UTIL_CACHELINE_H_
