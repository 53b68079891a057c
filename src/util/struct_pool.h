// StructPool: a chunked object arena for small, same-type structs.
//
// The optimizer's dynamic-programming search builds thousands of short-lived
// PlanNodes per what-if probe; allocating each behind its own
// shared_ptr control block made the hot path pointer-chasing and
// allocator-bound (ROADMAP item 4). StructPool hands out objects from
// contiguous slabs instead — the classic PlanGen idiom — so a probe's whole
// node graph lives in a few cache-friendly chunks that are freed (or reset)
// wholesale. Objects are never freed individually; destruction happens in
// allocation order when the pool is destroyed or Reset().
#ifndef VDBA_UTIL_STRUCT_POOL_H_
#define VDBA_UTIL_STRUCT_POOL_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace vdba::util {

/// Chunked arena allocator for objects of one type T.
///
/// `chunk_capacity` objects share one contiguous allocation; a capacity of 1
/// degenerates to one heap allocation per object with the same ownership
/// semantics.
template <typename T>
class StructPool {
 public:
  explicit StructPool(size_t chunk_capacity = kDefaultChunkCapacity)
      : chunk_capacity_(chunk_capacity < 1 ? 1 : chunk_capacity) {}

  StructPool(const StructPool&) = delete;
  StructPool& operator=(const StructPool&) = delete;

  ~StructPool() { DestroyAll(); }

  /// Constructs a T in the pool and returns it; valid until Reset() or the
  /// pool is destroyed.
  template <typename... Args>
  T* New(Args&&... args) {
    if (used_in_last_ == chunk_capacity_ || chunks_.empty()) {
      chunks_.push_back(std::make_unique<Chunk[]>(chunk_capacity_));
      used_in_last_ = 0;
    }
    T* obj = new (&chunks_.back()[used_in_last_]) T(std::forward<Args>(args)...);
    ++used_in_last_;
    ++size_;
    return obj;
  }

  /// Destroys every object but keeps the first chunk's memory for reuse.
  void Reset() {
    DestroyAll();
    if (chunks_.size() > 1) chunks_.resize(1);
    used_in_last_ = chunks_.empty() ? chunk_capacity_ : 0;
    size_ = 0;
  }

  /// Objects currently live in the pool.
  size_t size() const { return size_; }

  size_t chunk_capacity() const { return chunk_capacity_; }

  static constexpr size_t kDefaultChunkCapacity = 64;

 private:
  struct alignas(alignof(T)) Chunk {
    std::byte raw[sizeof(T)];
  };

  void DestroyAll() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      size_t remaining = size_;
      for (auto& chunk : chunks_) {
        size_t in_chunk =
            remaining < chunk_capacity_ ? remaining : chunk_capacity_;
        for (size_t i = 0; i < in_chunk; ++i) {
          std::launder(reinterpret_cast<T*>(&chunk[i]))->~T();
        }
        remaining -= in_chunk;
      }
    }
  }

  size_t chunk_capacity_;
  std::vector<std::unique_ptr<Chunk[]>> chunks_;
  /// Objects constructed in chunks_.back().
  size_t used_in_last_ = 0;
  size_t size_ = 0;
};

}  // namespace vdba::util

#endif  // VDBA_UTIL_STRUCT_POOL_H_
