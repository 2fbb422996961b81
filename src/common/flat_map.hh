// A map held as a vector sorted by key, for the handful of entries a
// hardware structure holds: a search over a few contiguous keys beats
// hashing, iteration runs in key order, and snap::sorted_map reads and
// writes it as it does a hash map.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace hmm {

template <class K, class V>
class FlatMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;

  [[nodiscard]] iterator begin() noexcept { return v_.begin(); }
  [[nodiscard]] iterator end() noexcept { return v_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  void clear() noexcept { v_.clear(); }

  [[nodiscard]] iterator find(const K& k) noexcept {
    const iterator it = lower_bound(k);
    return it != v_.end() && it->first == k ? it : v_.end();
  }
  /// The value at `k`, value-initialized first if `k` is new.
  V& operator[](const K& k) {
    iterator it = lower_bound(k);
    if (it == v_.end() || it->first != k) it = v_.insert(it, {k, V{}});
    return it->second;
  }
  void insert_or_assign(const K& k, const V& v) { (*this)[k] = v; }
  void erase(iterator it) { v_.erase(it); }

 private:
  [[nodiscard]] iterator lower_bound(const K& k) noexcept {
    return std::lower_bound(
        v_.begin(), v_.end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
  }

  std::vector<value_type> v_;  ///< ascending by key
};

}  // namespace hmm
