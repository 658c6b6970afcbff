// Index-addressed object pool with a free list. Storage grows in fixed-size
// chunks, so growing never moves live records: references and indices stay
// valid while a record is held, and there is no transient copy of the whole
// pool (a doubling std::vector briefly holds both buffers). Released records
// keep their storage for the next Acquire, so a pool that has reached its
// high-water mark never allocates again.
#ifndef SRC_COMMON_POOL_H_
#define SRC_COMMON_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace bsched {

template <typename T>
class Pool {
 public:
  static constexpr uint32_t kChunk = 256;

  // Index of a free record: a released one (with whatever state it was
  // released in) or a default-constructed new one.
  uint32_t Acquire() {
    if (!free_.empty()) {
      const uint32_t index = free_.back();
      free_.pop_back();
      return index;
    }
    if (size_ % kChunk == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
    }
    return size_++;
  }
  void Release(uint32_t index) { free_.push_back(index); }

  T& operator[](uint32_t index) { return chunks_[index / kChunk][index % kChunk]; }
  const T& operator[](uint32_t index) const { return chunks_[index / kChunk][index % kChunk]; }

  // Records ever issued (held + released).
  uint32_t size() const { return size_; }
  uint32_t held() const { return size_ - static_cast<uint32_t>(free_.size()); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t size_ = 0;
};

}  // namespace bsched

#endif  // SRC_COMMON_POOL_H_
