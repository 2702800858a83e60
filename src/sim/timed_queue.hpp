// A flat min-queue over timestamped entries, ordered by (at, seq).
//
// Drop-in replacement for the std::priority_queue instances in Scheduler and
// Channel, exploiting the structure both share: `seq` is a globally monotonic
// push counter, and almost every push carries a timestamp >= the timestamp of
// the previous push (events are scheduled at or after "now", and the clock
// only moves forward).  Such pushes go to a plain FIFO lane — an append to a
// vector, no sifting — and only the rare out-of-order push (a wake scheduled
// behind an already-queued later wake) falls back to a binary heap lane.
//
// Correctness: both lanes are individually sorted by (at, seq) — the FIFO
// lane by the monotonic-append invariant plus seq monotonicity, the heap lane
// by construction — so the global minimum is always the smaller of the two
// lane heads, and pops interleave the lanes into exactly the total order the
// old priority_queue produced.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace bridge::sim {

/// T must expose `.at` (totally ordered) and `.seq` (uint64, monotonic
/// across all pushes into one queue instance).
template <typename T>
class TimedMinQueue {
 public:
  [[nodiscard]] bool empty() const noexcept {
    return fifo_head_ == fifo_.size() && heap_.empty();
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return (fifo_.size() - fifo_head_) + heap_.size();
  }

  void reserve(std::size_t n) { fifo_.reserve(n); }

  void push(T item) {
    if (fifo_head_ == fifo_.size()) {
      // FIFO lane drained: restart it so stale storage gets reused.
      fifo_.clear();
      fifo_head_ = 0;
      fifo_.push_back(std::move(item));
      return;
    }
    if (!(item.at < fifo_.back().at)) {
      fifo_.push_back(std::move(item));
      return;
    }
    heap_push(std::move(item));
  }

  /// The minimum element by (at, seq).  Mutable so callers can move the
  /// payload out just before pop() — the ordering keys must not be touched.
  [[nodiscard]] T& top() {
    if (fifo_head_ == fifo_.size()) return heap_.front();
    if (heap_.empty()) return fifo_[fifo_head_];
    return earlier(heap_.front(), fifo_[fifo_head_]) ? heap_.front()
                                                     : fifo_[fifo_head_];
  }

  [[nodiscard]] const T& top() const {
    return const_cast<TimedMinQueue*>(this)->top();
  }

  /// Visit every element, in no particular order.
  template <typename F>
  void for_each(F&& visit) const {
    for (std::size_t i = fifo_head_; i < fifo_.size(); ++i) visit(fifo_[i]);
    for (const T& item : heap_) visit(item);
  }

  void pop() {
    if (fifo_head_ != fifo_.size() &&
        (heap_.empty() || !earlier(heap_.front(), fifo_[fifo_head_]))) {
      ++fifo_head_;
      if (fifo_head_ == fifo_.size()) {
        fifo_.clear();
        fifo_head_ = 0;
      } else if (fifo_head_ >= 1024 && fifo_head_ * 2 >= fifo_.size()) {
        // Slide the live suffix down so the dead prefix doesn't pin memory
        // during long runs where the lane never fully drains.
        fifo_.erase(fifo_.begin(),
                    fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
        fifo_head_ = 0;
      }
      return;
    }
    heap_pop();
  }

 private:
  static bool earlier(const T& a, const T& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void heap_push(T item) {
    heap_.push_back(std::move(item));
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (!earlier(heap_[i], heap_[parent])) break;
      using std::swap;
      swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void heap_pop() {
    if (heap_.size() == 1) {
      heap_.pop_back();
      return;
    }
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t left = 2 * i + 1;
      if (left >= n) break;
      std::size_t child = left;
      std::size_t right = left + 1;
      if (right < n && earlier(heap_[right], heap_[left])) child = right;
      if (!earlier(heap_[child], heap_[i])) break;
      using std::swap;
      swap(heap_[i], heap_[child]);
      i = child;
    }
  }

  std::vector<T> fifo_;        ///< sorted run lane; live range [fifo_head_, end)
  std::size_t fifo_head_ = 0;  ///< first live element of the run lane
  std::vector<T> heap_;        ///< binary min-heap for out-of-order pushes
};

}  // namespace bridge::sim
