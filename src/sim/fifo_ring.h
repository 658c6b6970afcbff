// Growable FIFO over a power-of-two ring buffer. Unlike std::deque, whose
// push_back/pop_front cycle allocates and frees a block every few elements,
// a ring that has reached its high-water mark never allocates again, so the
// FIFO queues on the simulator's hot path (Resource jobs, Link messages)
// stay allocation-free in steady state.
#ifndef SRC_SIM_FIFO_RING_H_
#define SRC_SIM_FIFO_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace bsched {

template <typename T>
class FifoRing {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  T& back() { return buf_[(head_ + size_ - 1) & (buf_.size() - 1)]; }
  // i-th element from the front (0 == front()).
  const T& operator[](size_t i) const { return buf_[(head_ + i) & (buf_.size() - 1)]; }

  void push_back(T value) {
    if (size_ == buf_.size()) {
      Grow();
    }
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  // Removes and returns the front element; its cell is reset to T() so a
  // ring of callback-holding records (Resource jobs) holds no stale ones.
  T pop_front() {
    T value = std::move(buf_[head_]);
    buf_[head_] = T();
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return value;
  }

 private:
  void Grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace bsched

#endif  // SRC_SIM_FIFO_RING_H_
