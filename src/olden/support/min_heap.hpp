// A flat binary min-heap, replacing std::priority_queue on the event wheel.
//
// Two host-speed advantages over the adaptor: `reserve()` (the queue's peak
// size is reached early in a run, after which pushes never reallocate), and
// `pop_min()` which moves the minimum out in the same operation that
// re-heapifies — priority_queue forces a copy through `top()` because its
// top is const. Ordering and tie-breaking are exactly the adaptor's with
// std::greater: the element for which `Greater` is false against all others
// comes out first, so (time, seq)-ordered Events drain identically.
//
// SlabHeap layers a payload slab under a MinHeap of small keys, for
// payloads too large to sift cheaply (the runtime's Event is 120 bytes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace olden {

template <class T, class Greater = std::greater<T>>
class MinHeap {
 public:
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  void reserve(std::size_t n) { v_.reserve(n); }

  [[nodiscard]] const T& top() const { return v_.front(); }

  void push(T x) {
    v_.push_back(std::move(x));
    sift_up(v_.size() - 1);
  }

  /// Remove and return the minimum element.
  T pop_min() {
    T out = std::move(v_.front());
    if (v_.size() > 1) {
      T last = std::move(v_.back());
      v_.pop_back();
      sift_down(std::move(last));
    } else {
      v_.pop_back();
    }
    return out;
  }

 private:
  // Both sifts move a hole instead of swapping: the comparisons, and so
  // the final layout, are exactly a swap-based heap's.
  void sift_up(std::size_t i) {
    T x = std::move(v_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!gt_(v_[parent], x)) break;
      v_[i] = std::move(v_[parent]);
      i = parent;
    }
    v_[i] = std::move(x);
  }

  /// Re-insert `x` through the hole at the root.
  void sift_down(T x) {
    const std::size_t n = v_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) break;
      std::size_t child = l;
      if (l + 1 < n && gt_(v_[l], v_[l + 1])) child = l + 1;
      if (!gt_(x, v_[child])) break;
      v_[i] = std::move(v_[child]);
      i = child;
    }
    v_[i] = std::move(x);
  }

  std::vector<T> v_;
  [[no_unique_address]] Greater gt_;
};

/// Min-queue of payloads ordered by their `(time, seq)` members. The heap
/// sifts 24-byte `{time, seq, slot}` keys; payloads sit still in a slab
/// whose freed slots are reused. With unique seqs the pop order is the
/// strict `(time, seq)` order, exactly that of a MinHeap<T> ordered the
/// same way.
template <class T>
class SlabHeap {
 public:
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  void reserve(std::size_t n) {
    keys_.reserve(n);
    slab_.reserve(n);
    free_.reserve(n);
  }

  void push(T x) {
    Key k{x.time, x.seq, 0};
    if (free_.empty()) {
      k.slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(x));
    } else {
      k.slot = free_.back();
      free_.pop_back();
      slab_[k.slot] = std::move(x);
    }
    keys_.push(k);
  }

  /// Remove and return the minimum payload.
  T pop_min() {
    const Key k = keys_.pop_min();
    free_.push_back(k.slot);
    return std::move(slab_[k.slot]);
  }

 private:
  struct Key {
    std::uint64_t time;
    std::uint64_t seq;
    std::uint32_t slot;
    friend bool operator>(const Key& a, const Key& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  MinHeap<Key> keys_;
  std::vector<T> slab_;
  std::vector<std::uint32_t> free_;
};

}  // namespace olden
