// D-ary heaps. The paper's micro-optimisation (Section 3) replaces binary
// heaps with octonary (8-ary) heaps: wider nodes mean shallower trees and
// fewer cache misses for insertion-heavy workloads like the VMIS-kNN
// candidate maintenance loop.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace serenade {

/// A d-ary heap over elements of type T. With the default Compare
/// (std::less), the root (Top()) is the *smallest* element, i.e. this is a
/// min-heap; pass std::greater for a max-heap.
///
/// Beyond push/pop, the heap supports ReplaceTop — pop+push fused into a
/// single sift-down — which is the operation VMIS-kNN uses to evict the
/// oldest candidate session (Algorithm 2, line 31) and to maintain the
/// bounded top-k result heap (lines 37-38).
template <typename T, size_t Arity = 8, typename Compare = std::less<T>>
class DaryHeap {
  static_assert(Arity >= 2, "heap arity must be at least 2");

 public:
  explicit DaryHeap(Compare compare = Compare()) : compare_(compare) {}

  bool empty() const { return elements_.empty(); }
  size_t size() const { return elements_.size(); }

  /// Pre-allocates storage for n elements.
  void Reserve(size_t n) { elements_.reserve(n); }

  /// Removes all elements but keeps the allocated storage.
  void Clear() { elements_.clear(); }

  /// The root element (minimum under Compare). Heap must be non-empty.
  const T& Top() const {
    assert(!elements_.empty());
    return elements_.front();
  }

  /// Inserts an element in O(log_d n).
  void Push(T value) {
    elements_.push_back(std::move(value));
    SiftUp(elements_.size() - 1);
  }

  /// Appends an element WITHOUT restoring the heap property. Only valid
  /// as part of a bulk build: after a run of PushUnordered calls the heap
  /// is unusable until Heapify(). VMIS-kNN uses this for the first
  /// posting list of a query, where every candidate is known to be
  /// admitted — one Floyd heapify beats n sift-ups.
  void PushUnordered(T value) { elements_.push_back(std::move(value)); }

  /// Adopts `values` as the backing array WITHOUT restoring the heap
  /// property — the bulk-build counterpart of PushUnordered for callers
  /// that accumulated elements in their own vector. Call Heapify() next.
  void Assign(std::vector<T> values) { elements_ = std::move(values); }

  /// Restores the heap property over the whole array (Floyd's bottom-up
  /// construction, O(n)). Pairs with PushUnordered.
  void Heapify() {
    if (elements_.size() < 2) return;
    for (size_t index = (elements_.size() - 2) / Arity + 1; index-- > 0;) {
      SiftDown(index);
    }
  }

  /// Removes and returns the root in O(d log_d n).
  T Pop() {
    assert(!elements_.empty());
    T result = std::move(elements_.front());
    elements_.front() = std::move(elements_.back());
    elements_.pop_back();
    if (!elements_.empty()) SiftDown(0);
    return result;
  }

  /// Replaces the root with a new value and restores the heap property.
  /// Equivalent to Pop()+Push(value) but with a single sift-down.
  void ReplaceTop(T value) {
    assert(!elements_.empty());
    elements_.front() = std::move(value);
    SiftDown(0);
  }

  /// Destructively drains the heap in unspecified order (the underlying
  /// array). Useful when the consumer sorts or filters anyway.
  std::vector<T> TakeElements() { return std::move(elements_); }

  /// Read-only view of the underlying array (heap order, not sorted).
  const std::vector<T>& elements() const { return elements_; }

 private:
  void SiftUp(size_t index) {
    while (index > 0) {
      const size_t parent = (index - 1) / Arity;
      if (!compare_(elements_[index], elements_[parent])) break;
      std::swap(elements_[index], elements_[parent]);
      index = parent;
    }
  }

  void SiftDown(size_t index) {
    const size_t n = elements_.size();
    while (true) {
      const size_t first_child = index * Arity + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      const size_t last_child =
          first_child + Arity < n ? first_child + Arity : n;
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (compare_(elements_[c], elements_[best])) best = c;
      }
      if (!compare_(elements_[best], elements_[index])) break;
      std::swap(elements_[index], elements_[best]);
      index = best;
    }
  }

  std::vector<T> elements_;
  Compare compare_;
};

/// Keeps the k largest elements (under Compare as a less-than) seen so far,
/// backed by a size-k d-ary min-heap whose root is the weakest element kept.
/// Offer() is O(1) when the candidate does not qualify — the common case in
/// top-k selection over many candidates.
template <typename T, size_t Arity = 8, typename Compare = std::less<T>>
class BoundedTopK {
 public:
  explicit BoundedTopK(size_t k, Compare compare = Compare())
      : k_(k), heap_(compare), compare_(compare) {
    assert(k > 0);
    heap_.Reserve(k);
  }

  size_t size() const { return heap_.size(); }
  size_t capacity() const { return k_; }
  bool full() const { return heap_.size() == k_; }

  /// Offers a candidate; keeps it iff it beats the current weakest (or the
  /// heap is not yet full). Returns true if the candidate was kept.
  bool Offer(T value) {
    if (heap_.size() < k_) {
      heap_.Push(std::move(value));
      return true;
    }
    if (compare_(heap_.Top(), value)) {
      heap_.ReplaceTop(std::move(value));
      return true;
    }
    return false;
  }

  /// Drains the kept elements, strongest first. The heap is empty after.
  std::vector<T> TakeSortedDescending() {
    std::vector<T> result = heap_.TakeElements();
    std::sort(result.begin(), result.end(),
              [this](const T& a, const T& b) { return compare_(b, a); });
    return result;
  }

  /// Unordered view of the kept elements.
  const std::vector<T>& elements() const { return heap_.elements(); }

  void Clear() { heap_.Clear(); }

 private:
  size_t k_;
  DaryHeap<T, Arity, Compare> heap_;
  Compare compare_;
};

}  // namespace serenade
