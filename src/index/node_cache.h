#ifndef NAMTREE_INDEX_NODE_CACHE_H_
#define NAMTREE_INDEX_NODE_CACHE_H_

#include <cstdint>
#include <cstring>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"

namespace namtree::index {

/// A compute server's cache of hot index-node images, the
/// Appendix A.4 extension: compute servers keep copies of hot index nodes
/// to skip remote reads during traversal. One cache serves every client
/// thread of a compute machine (TraversalEngine::CacheFor).
///
/// An entry stays valid until a fence check proves it stale: there is no
/// age limit. Stale images are *safe* in a B-link tree — they can only
/// route a traversal to a node whose key range has since shrunk, and the
/// sibling chase recovers — so staleness costs extra hops, never
/// correctness. The walk that had to chase drops exactly the image that
/// routed it (TraversalEngine::RepairRoute), the FaRM-style rule
/// of refreshing a cached path once its leaf fails the fence check.
///
/// Eviction is LRU over a fixed page budget.
class NodeCache {
 public:
  NodeCache(uint32_t page_size, size_t capacity_pages)
      : page_size_(page_size), capacity_(capacity_pages) {}

  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  /// Registers the hit/miss/invalidation counters as `client.cache.*`
  /// cells labeled `labels`.
  void RegisterMetrics(metrics::MetricRegistry& registry,
                       const metrics::LabelSet& labels) {
    registry.RegisterCounter(hits_, "client.cache.hits", labels,
                             "node-cache lookups served locally");
    registry.RegisterCounter(misses_, "client.cache.misses", labels,
                             "node-cache lookups that went remote");
    registry.RegisterCounter(invalidations_, "client.cache.invalidations",
                             labels,
                             "cached entries dropped after a fence check "
                             "proved them stale");
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }
  size_t size() const { return entries_.size(); }

  /// Returns the cached image for `ptr_raw` or nullptr on a miss. The
  /// pointer is valid until the next cache mutation — by any client of the
  /// machine — so it must not be held across an await.
  const uint8_t* Get(uint64_t ptr_raw) {
    auto it = entries_.find(ptr_raw);
    if (it == entries_.end()) {
      misses_.Inc();
      return nullptr;
    }
    hits_.Inc();
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.image.data();
  }

  /// Non-mutating lookup for the speculative path predictor: no LRU touch
  /// and no hit/miss accounting. Same lifetime rule as Get.
  const uint8_t* Peek(uint64_t ptr_raw) const {
    auto it = entries_.find(ptr_raw);
    return it == entries_.end() ? nullptr : it->second.image.data();
  }

  /// Debug/test introspection: cached keys in LRU order (most recent
  /// first). Lets tests pin that speculative probing leaves the
  /// replacement state bit-identical to a no-speculation run.
  std::vector<uint64_t> LruKeys() const {
    return std::vector<uint64_t>(lru_.begin(), lru_.end());
  }

  /// Inserts/overwrites the image for `ptr_raw`, evicting the LRU entry
  /// when over budget.
  void Put(uint64_t ptr_raw, const uint8_t* image) {
    if (capacity_ == 0) return;
    auto it = entries_.find(ptr_raw);
    if (it != entries_.end()) {
      std::memcpy(it->second.image.data(), image, page_size_);
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return;
    }
    if (entries_.size() >= capacity_) {
      const uint64_t victim = lru_.back();
      lru_.pop_back();
      entries_.erase(victim);
    }
    Entry entry;
    entry.image.assign(image, image + page_size_);
    lru_.push_front(ptr_raw);
    entry.lru_pos = lru_.begin();
    entries_.emplace(ptr_raw, std::move(entry));
  }

  /// Drops one entry that a fence check proved stale (counted when it was
  /// cached).
  void Invalidate(uint64_t ptr_raw) {
    auto it = entries_.find(ptr_raw);
    if (it == entries_.end()) return;
    invalidations_.Inc();
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }

 private:
  struct Entry {
    std::vector<uint8_t> image;
    std::list<uint64_t>::iterator lru_pos;
  };

  uint32_t page_size_;
  size_t capacity_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;
  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter invalidations_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_NODE_CACHE_H_
