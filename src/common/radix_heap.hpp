// Monotone radix heap: the IA Dijkstra's priority queue.
//
// Dijkstra with positive weights pops keys in non-decreasing order, so a
// queue only has to accept keys no smaller than the last one popped. A radix
// heap exploits that: bucket 0 holds keys equal to the last popped key, and
// bucket i (1..32) holds keys whose highest bit that differs from it is bit
// i-1. A pop from an empty bucket 0 takes the lowest non-empty bucket, makes
// its minimum the new last key, and redistributes the bucket into strictly
// lower buckets. Each item moves down at most 32 times, so a pop costs
// O(log C) amortized (C the largest key span, i.e. the largest edge weight)
// against the binary heap's O(log n), and the buckets are plain vectors that
// keep their capacity when the heap is reused for the next source.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace aacc {

class RadixHeap {
 public:
  struct Item {
    Dist key;
    VertexId v;
  };

  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Requires key >= the last popped key (0 after clear()).
  void push(Dist key, VertexId v) {
    AACC_DCHECK(key >= last_);
    buckets_[bucket_of(key)].push_back({key, v});
    ++size_;
  }

  /// Removes and returns an item with the smallest key. Among equal keys
  /// the order is unspecified (but deterministic). Requires !empty().
  Item pop() {
    AACC_DCHECK(size_ > 0);
    if (buckets_[0].empty()) refill();
    const Item top = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return top;
  }

  /// Empties the heap and resets the last popped key to 0, keeping the
  /// buckets' capacity.
  void clear() {
    for (std::vector<Item>& b : buckets_) b.clear();
    size_ = 0;
    last_ = 0;
  }

 private:
  [[nodiscard]] std::size_t bucket_of(Dist key) const {
    return static_cast<std::size_t>(std::bit_width(key ^ last_));
  }

  // Bucket 0 is empty: advance last_ to the minimum of the lowest non-empty
  // bucket and spread that bucket over the buckets below it.
  void refill() {
    std::size_t i = 1;
    while (buckets_[i].empty()) ++i;
    std::vector<Item>& from = buckets_[i];
    last_ = std::min_element(from.begin(), from.end(),
                             [](const Item& a, const Item& b) {
                               return a.key < b.key;
                             })->key;
    for (const Item& it : from) buckets_[bucket_of(it.key)].push_back(it);
    from.clear();
  }

  std::array<std::vector<Item>, 33> buckets_;
  Dist last_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aacc
