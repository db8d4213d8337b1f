#ifndef NAMTREE_BTREE_LOCAL_TREE_H_
#define NAMTREE_BTREE_LOCAL_TREE_H_

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "btree/blink_tree.h"
#include "btree/types.h"
#include "common/status.h"

namespace namtree::btree {

/// The real-thread environment of BLinkTree: heap pages addressed by their
/// memory address ("real memory pointers", paper §3.1), free CPU, and a
/// yield per spin on a locked word. Nothing suspends.
class ThreadEnv {
 public:
  ThreadEnv() = default;
  ~ThreadEnv();
  ThreadEnv(const ThreadEnv&) = delete;
  ThreadEnv& operator=(const ThreadEnv&) = delete;

  uint8_t* Page(uint64_t raw) const { return reinterpret_cast<uint8_t*>(raw); }
  uint64_t AllocatePage(uint32_t bytes);
  std::suspend_never Spin() const {
    std::this_thread::yield();
    return {};
  }
  std::suspend_never Cpu(SimTime /*base*/) const { return {}; }

  std::atomic<uint64_t> root{0};

 private:
  std::mutex pages_mutex_;      // guards pages_ (allocation only)
  std::vector<uint8_t*> pages_;  // owned allocations, freed in dtor
};

/// A thread-safe in-memory B-link tree with optimistic lock coupling.
///
/// This is the tree a memory server builds over its partition in the
/// coarse-grained design (paper §3): the same BLinkTree core that
/// index::ServerTree runs in virtual time for the CG handlers, here on real
/// threads with real std::atomic version words. The §7 shared-nothing
/// baseline (shared_nothing.h) hosts one per node.
///
/// Deletes set a per-entry tombstone bit; `GarbageCollect()` compacts leaf
/// pages (epoch-style: pages are never freed or merged while the tree is
/// alive, so readers never dereference reclaimed memory).
///
/// Thread safety: all operations may be called concurrently from any number
/// of threads. `BulkLoad` must run before concurrent access starts.
class LocalBLinkTree {
 public:
  using TreeStats = btree::TreeStats;

  explicit LocalBLinkTree(uint32_t page_size = 1024);

  LocalBLinkTree(const LocalBLinkTree&) = delete;
  LocalBLinkTree& operator=(const LocalBLinkTree&) = delete;

  /// Returns the value of (any) live entry with `key`.
  Result<Value> Lookup(Key key) const;

  /// Inserts (key, value); duplicate keys are allowed.
  Status Insert(Key key, Value value) {
    return sim::RunInline(tree_.Insert(key, value));
  }

  /// Overwrites the value of the first live entry with `key` in place.
  Status Update(Key key, Value value) {
    return sim::RunInline(tree_.Update(key, value));
  }

  /// Appends the values of all live entries with `key` to `out` (may be
  /// null); returns the number found.
  uint64_t LookupAll(Key key, std::vector<Value>* out) const {
    return sim::RunInline(tree_.LookupAll(key, out));
  }

  /// Tombstones the first live entry with `key`.
  Status Delete(Key key) { return sim::RunInline(tree_.Delete(key)); }

  /// Collects live entries with lo <= key < hi into `out` (appended in key
  /// order). Returns the number of entries found.
  uint64_t Scan(Key lo, Key hi, std::vector<KV>* out) const {
    return sim::RunInline(tree_.Scan(lo, hi, out));
  }

  /// Replaces the tree contents with `sorted` (ascending by key), pages
  /// ~90% full. Must not race with other operations.
  Status BulkLoad(std::span<const KV> sorted) {
    return tree_.Build(sorted, kFillPercent);
  }

  /// Compacts tombstoned entries out of every leaf. Returns the number of
  /// entries reclaimed. Safe to run concurrently with readers/writers.
  uint64_t GarbageCollect() { return sim::RunInline(tree_.Compact()); }

  /// Walks the tree (quiescent use only; concurrent writers may skew
  /// counts).
  TreeStats GetStats() const { return tree_.GetStats(); }

  uint32_t page_size() const { return tree_.page_size(); }

 private:
  static constexpr uint32_t kFillPercent = 90;

  BLinkTree<ThreadEnv> tree_;
};

}  // namespace namtree::btree

#endif  // NAMTREE_BTREE_LOCAL_TREE_H_
