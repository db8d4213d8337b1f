#ifndef NAMTREE_BTREE_BLINK_TREE_H_
#define NAMTREE_BTREE_BLINK_TREE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "btree/bulk_load.h"
#include "btree/page.h"
#include "btree/types.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/task.h"

namespace namtree::btree {

/// Handler CPU charged per node visit (paper §3: a memory server's worker
/// pays for every node it searches or modifies).
struct NodeCosts {
  SimTime inner = 0;         ///< searching an inner node
  SimTime leaf = 0;          ///< searching a leaf
  SimTime insert_extra = 0;  ///< modifying a node on top of searching it
};

struct TreeStats {
  uint64_t pages = 0;
  uint64_t height = 0;  ///< levels, counting the leaf level (1 = one leaf)
  uint64_t live_entries = 0;
  uint64_t tombstones = 0;
};

#if defined(__SANITIZE_THREAD__)
// ThreadSanitizer's dynamic annotations (exported by its runtime).
extern "C" void AnnotateIgnoreReadsBegin(const char* file, int line);
extern "C" void AnnotateIgnoreReadsEnd(const char* file, int line);
#endif

/// The optimistic read of Listing 1 (readUnlockOrRestart/checkOrRestart):
/// runs `read` over the bytes of an unlocked page, then re-checks the
/// page's version word. False means the page changed underneath — a torn
/// read whose results the caller must discard. Every speculative page read
/// of BLinkTree happens inside this function. Those reads race with a
/// lock-holding writer by design (seqlock pattern), so under TSan they are
/// exactly the accesses it is told to ignore; every other access of the
/// core stays checked.
template <typename Read>
bool OptimisticRead(PageView view, uint64_t version, Read&& read) {
#if defined(__SANITIZE_THREAD__)
  // TSan cannot instrument fences (GCC hard-errors under -Wtsan); the
  // acquire load below remains.
  AnnotateIgnoreReadsBegin(__FILE__, __LINE__);
  read();
  AnnotateIgnoreReadsEnd(__FILE__, __LINE__);
#else
  read();
  // Orders the speculative payload reads before the version re-load.
  std::atomic_thread_fence(std::memory_order_acquire);
#endif
  return std::atomic_ref<uint64_t>(view.header().version_lock)
             .load(std::memory_order_acquire) == version;
}

/// An in-place B-link tree under optimistic lock coupling (OLC), exactly
/// as Listings 1 and 3: readers spin on a node's lock bit, search it and
/// validate its version afterwards; writers escalate with a CAS on the
/// version word, and splits install separators bottom-up by a fresh locked
/// descent [Lehman/Yao; Leis et al., "The ART of practical
/// synchronization"].
///
/// One algorithm, two environments. `Env` supplies
///   uint8_t* Page(uint64_t raw) const;          page addressing
///   uint64_t AllocatePage(uint32_t bytes);      a zeroed page, 0 = exhausted
///   std::atomic<uint64_t> root;                 the root word
///   Awaitable Spin() const;                     one wait on a locked word
///   Awaitable Cpu(SimTime base) const;          a CPU charge
/// index::ServerTree runs it in virtual time as a memory server's handler
/// (CPU and spins are simulated delays); LocalBLinkTree runs it on real
/// threads, where nothing suspends and each op completes inline.
///
/// Two shapes: local leaves (level 0 holds the data), or remote leaves
/// (hybrid, §5) where the lowest local level is 1 and its children are
/// pointers to leaves stored elsewhere.
///
/// Pages are never freed while the tree lives (epoch GC compacts leaves in
/// place), so a stale pointer always dereferences.
template <typename Env>
class BLinkTree {
 public:
  template <typename... EnvArgs>
  explicit BLinkTree(uint32_t page_size, NodeCosts costs,
                     EnvArgs&&... env_args)
      : env_(std::forward<EnvArgs>(env_args)...),
        page_size_(page_size),
        costs_(costs) {}

  BLinkTree(const BLinkTree&) = delete;
  BLinkTree& operator=(const BLinkTree&) = delete;

  uint32_t page_size() const { return page_size_; }

  // ---- Setup-time construction (must not race with operations) ----------

  /// Local leaves: builds leaves and inner levels over `sorted`.
  Status Build(std::span<const KV> sorted, uint32_t fill_percent) {
    remote_leaves_ = false;
    bottom_level_ = 0;
    std::vector<ChildRef> leaves;
    const Status status =
        BuildLeafLevel(sorted, page_size_, fill_percent, Pages(), &leaves);
    if (!status.ok()) return status;
    return BuildRoot(std::move(leaves), fill_percent);
  }

  /// Remote leaves: builds inner levels over `children`; the tree then ends
  /// at level 1 and lookups return child pointers (FindLeafChild).
  Status BuildOverChildren(std::span<const ChildRef> children,
                           uint32_t fill_percent) {
    remote_leaves_ = true;
    bottom_level_ = 1;
    if (children.empty()) {
      return Status::InvalidArgument("hybrid tree needs at least one child");
    }
    return BuildRoot(std::vector<ChildRef>(children.begin(), children.end()),
                     fill_percent);
  }

  // ---- Operations (local leaves) ----------------------------------------

  /// The value of the first live entry with `key`.
  sim::Task<std::optional<Value>> Lookup(Key key) const {
    assert(!remote_leaves_);
    for (;;) {  // restart loop
      uint64_t v = 0;
      uint64_t node = co_await Descend(bottom_level_, key, &v);
      for (;;) {
        const PageView view = View(node);
        co_await env_.Cpu(costs_.leaf);
        int32_t idx = -1;
        Value value = 0;
        bool chase = false;
        uint64_t next = 0;
        if (!OptimisticRead(view, v, [&] {
              idx = view.LeafFindLive(key);
              if (idx >= 0) value = view.leaf_entries()[idx].value;
              chase = view.NeedsChase(key);
              next = view.right_sibling();
            })) {
          break;
        }
        if (idx >= 0) co_return value;
        if (!chase) co_return std::nullopt;
        node = next;
        v = co_await AwaitUnlocked(node);
      }
    }
  }

  /// Appends the live entries in [lo, hi) to `out` (may be null) in key
  /// order; returns how many there are.
  sim::Task<uint64_t> Scan(Key lo, Key hi, std::vector<KV>* out) const {
    assert(!remote_leaves_ && "hybrid scans walk the leaf chain client-side");
    if (lo >= hi) co_return 0;
    uint64_t v = 0;
    uint64_t node = co_await Descend(bottom_level_, lo, &v);
    uint64_t found = 0;
    for (;;) {
      const PageView view = View(node);
      co_await env_.Cpu(costs_.leaf);
      const size_t mark = out != nullptr ? out->size() : 0;
      uint32_t in_page = 0;
      bool last = false;
      uint64_t next = 0;
      if (!OptimisticRead(view, v, [&] {
            in_page = view.LeafCollectRange(lo, hi, out);
            last = view.Covers(hi - 1);  // the range ends in this leaf
            next = view.right_sibling();
          })) {
        if (out != nullptr) out->resize(mark);
        v = co_await AwaitUnlocked(node);
        continue;  // re-scan this page
      }
      found += in_page;
      if (last) co_return found;
      node = next;
      v = co_await AwaitUnlocked(node);
    }
  }

  /// Appends the values of all live entries with `key` to `out` (may be
  /// null), following duplicate runs across leaves; returns how many.
  sim::Task<uint64_t> LookupAll(Key key, std::vector<Value>* out) const {
    assert(!remote_leaves_);
    uint64_t v = 0;
    uint64_t node = co_await Descend(bottom_level_, key, &v);
    uint64_t found = 0;
    for (;;) {
      const PageView view = View(node);
      co_await env_.Cpu(costs_.leaf);
      const size_t mark = out != nullptr ? out->size() : 0;
      uint32_t in_page = 0;
      bool chase = false;
      uint64_t next = 0;
      if (!OptimisticRead(view, v, [&] {
            in_page = view.LeafCollect(key, out);
            chase = view.NeedsChase(key);
            next = view.right_sibling();
          })) {
        if (out != nullptr) out->resize(mark);
        v = co_await AwaitUnlocked(node);
        continue;  // retry this page
      }
      found += in_page;
      if (!chase) co_return found;
      node = next;
      v = co_await AwaitUnlocked(node);
    }
  }

  /// Inserts (key, value); duplicate keys are allowed. A split that cannot
  /// be indexed for lack of pages reports kResourceExhausted, although the
  /// entry itself went in (reachable along the sibling chain).
  sim::Task<Status> Insert(Key key, Value value) {
    assert(!remote_leaves_);
    for (;;) {  // restart loop
      uint64_t v = 0;
      uint64_t node = co_await Descend(bottom_level_, key, &v);
      // Chase right while the key belongs further on (duplicate-run fences
      // or a concurrent split).
      bool restart = false;
      for (;;) {
        const PageView view = View(node);
        bool chase = false;
        uint64_t next = 0;
        if (!OptimisticRead(view, v, [&] {
              chase = view.NeedsChase(key);
              next = view.right_sibling();
            })) {
          restart = true;
          break;
        }
        if (!chase) break;
        node = next;
        v = co_await AwaitUnlocked(node);
      }
      if (restart) continue;

      const PageView view = View(node);
      if (!TryLock(view, v)) continue;  // upgradeToWriteLockOrRestart
      co_await env_.Cpu(costs_.leaf + costs_.insert_extra);
      if (view.LeafInsert(key, value)) {
        Unlock(view);
        co_return Status::OK();
      }

      // Split while holding the leaf lock (Listing 1 propagation).
      const uint64_t right_raw = env_.AllocatePage(page_size_);
      if (right_raw == 0) {
        Unlock(view);  // nothing changed
        co_return Status::ResourceExhausted("leaf split");
      }
      const PageView right = View(right_raw);
      const Key separator = view.SplitLeafInto(right, right_raw);
      const bool ok = (key < separator ? view : right).LeafInsert(key, value);
      assert(ok);
      (void)ok;
      co_await env_.Cpu(costs_.insert_extra);  // split work
      Unlock(view);
      co_return co_await InstallSeparator(
          static_cast<uint8_t>(bottom_level_ + 1), separator, node, right_raw);
    }
  }

  /// Overwrites the value of the first live entry with `key` in place.
  sim::Task<Status> Update(Key key, Value value) {
    co_return co_await ModifyFirst(
        key, [key, value](PageView leaf) {
          return leaf.LeafUpdateFirst(key, value);
        });
  }

  /// Tombstones the first live entry with `key`.
  sim::Task<Status> Delete(Key key) {
    co_return co_await ModifyFirst(
        key, [key](PageView leaf) { return leaf.LeafMarkDeleted(key); });
  }

  /// Epoch GC (§3.2): compacts tombstones out of every leaf, one leaf lock
  /// at a time. Returns the number of entries reclaimed.
  sim::Task<uint64_t> Compact() {
    assert(!remote_leaves_);
    uint64_t v = 0;
    uint64_t node = co_await Descend(bottom_level_, 0, &v);
    uint64_t reclaimed = 0;
    while (node != 0) {
      const PageView view = View(node);
      co_await Lock(node);
      co_await env_.Cpu(costs_.leaf);
      reclaimed += view.LeafCompact();
      const uint64_t next = view.right_sibling();
      Unlock(view);
      node = next;
    }
    co_return reclaimed;
  }

  // ---- Operations (remote leaves) ---------------------------------------

  /// The leaf child whose range contains `key`. Range form (`rest`
  /// non-null and `hi` > `key`): also appends to `rest` the children that
  /// follow it in chain order and may hold keys below `hi` — at most
  /// InnerKeyCapacity, walking into right-sibling nodes, each visited node
  /// charged like the first. A torn sibling read ends the list early; the
  /// caller continues with another call. `path`, when non-null, receives
  /// the pages the answer was found through (see AppendImage), from the
  /// root down to the level-1 node that names the child; each image is
  /// copied inside the optimistic read that validates it, so it is
  /// consistent and costs no extra CPU charge.
  sim::Task<uint64_t> FindLeafChild(Key key, Key hi = 0,
                                    std::vector<uint64_t>* rest = nullptr,
                                    std::vector<uint64_t>* path = nullptr)
      const {
    assert(remote_leaves_);
    const bool range = rest != nullptr && hi > key;
    for (;;) {  // restart loop
      if (path != nullptr) path->clear();
      uint64_t v = 0;
      uint64_t node = co_await Descend(bottom_level_, key, &v, path);
      for (;;) {
        const PageView view = View(node);
        co_await env_.Cpu(costs_.inner);
        const size_t mark = range ? rest->size() : 0;
        uint64_t first = 0;
        bool chase = false;
        bool more = false;
        uint64_t next = 0;
        if (!OptimisticRead(view, v, [&] {
              if (path != nullptr) AppendImage(node, view, path);
              chase = view.NeedsChase(key);
              next = view.right_sibling();
              if (chase) return;
              first = view.InnerChildFor(key);
              if (!range) return;
              const uint64_t* children = view.inner_children();
              const auto at = std::find(children,
                                        children + view.count() + 1, first);
              more = AppendRun(view, static_cast<uint32_t>(at - children), hi,
                               rest);
            })) {
          if (range) rest->resize(mark);
          break;
        }
        if (chase) {
          // The bottom node split while we descended.
          node = next;
          v = co_await AwaitUnlocked(node);
          continue;
        }
        while (more) {
          node = next;
          v = co_await AwaitUnlocked(node);
          const PageView sibling = View(node);
          co_await env_.Cpu(costs_.inner);
          const size_t before = rest->size();
          if (!OptimisticRead(sibling, v, [&] {
                rest->push_back(sibling.inner_children()[0]);
                more = AppendRun(sibling, 0, hi, rest);
                next = sibling.right_sibling();
              })) {
            rest->resize(before);
            break;
          }
        }
        co_return first;
      }
    }
  }

  /// Installs the separator of a one-sided leaf split: `child_raw` now
  /// holds the keys from `sep` on.
  sim::Task<Status> InstallChildSeparator(Key sep, uint64_t child_raw) {
    assert(remote_leaves_);
    co_return co_await InstallSeparator(bottom_level_, sep, /*left_raw=*/0,
                                        child_raw);
  }

  // ---- Inspection (quiescent use) ---------------------------------------

  /// Pages, height and leaf entries, walking each level's chain.
  TreeStats GetStats() const {
    TreeStats stats;
    uint64_t node = root_raw();
    if (node == 0) return stats;
    stats.height = root_level() + 1ull;
    for (;;) {
      for (uint64_t chain = node; chain != 0;
           chain = View(chain).right_sibling()) {
        const PageView page = View(chain);
        stats.pages++;
        if (!page.is_leaf()) continue;
        for (uint32_t i = 0; i < page.count(); ++i) {
          (page.LeafIsTombstoned(i) ? stats.tombstones : stats.live_entries)++;
        }
      }
      const PageView first = View(node);
      if (first.level() == bottom_level_) return stats;
      node = first.inner_children()[0];
    }
  }

  uint64_t root_raw() const {
    return env_.root.load(std::memory_order_acquire);
  }
  uint8_t root_level() const {
    const uint64_t root = root_raw();
    return root == 0 ? 0 : View(root).level();
  }

 private:
  /// Outcome of a root-growth attempt (see TryGrowRoot).
  enum class GrowResult { kDone, kLostRace, kExhausted };

  PageView View(uint64_t raw) const {
    return PageView(env_.Page(raw), page_size_);
  }

  PageAllocator Pages() {
    return [this] {
      const uint64_t raw = env_.AllocatePage(page_size_);
      return NewPage{raw, raw == 0 ? nullptr : env_.Page(raw)};
    };
  }

  Status BuildRoot(std::vector<ChildRef> level, uint32_t fill_percent) {
    uint64_t root = 0;
    uint8_t root_level = 0;
    const Status status =
        BuildInnerLevels(std::move(level), page_size_, fill_percent,
                         remote_leaves_, Pages(), &root, &root_level);
    if (status.ok()) env_.root.store(root, std::memory_order_release);
    return status;
  }

  // ---- Version word (Listing 3) -----------------------------------------

  static uint64_t LoadWord(PageView view) {
    return std::atomic_ref<uint64_t>(view.header().version_lock)
        .load(std::memory_order_acquire);
  }
  /// upgradeToWriteLockOrRestart: CAS(version -> version | lock bit).
  static bool TryLock(PageView view, uint64_t version) {
    uint64_t expected = version;
    return std::atomic_ref<uint64_t>(view.header().version_lock)
        .compare_exchange_strong(expected, WithLockBit(version),
                                 std::memory_order_acquire);
  }
  /// writeUnlock: +1 on the odd word clears the lock bit and bumps the
  /// version in one step.
  static void Unlock(PageView view) {
    std::atomic_ref<uint64_t>(view.header().version_lock)
        .fetch_add(1, std::memory_order_release);
  }

  /// Awaits the node's unlocked word. An unlocked node completes the await
  /// at once; a locked one waits in SpinUntilUnlocked.
  auto AwaitUnlocked(uint64_t raw) const {
    struct Awaiter {
      const BLinkTree* tree;
      uint64_t raw;
      uint64_t word = 0;
      sim::Task<uint64_t> spin;

      bool await_ready() {
        word = LoadWord(tree->View(raw));
        return !IsLocked(word);
      }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
        spin = tree->SpinUntilUnlocked(raw);
        return spin.await_suspend(parent);
      }
      uint64_t await_resume() {
        return spin.valid() ? spin.await_resume() : word;
      }
    };
    return Awaiter{this, raw, 0, {}};
  }

  /// Spins on a locked node's lock bit, one Env::Spin per locked
  /// observation (the handler keeps its worker busy meanwhile — the effect
  /// §6.3 observes under write load). Returns the unlocked word.
  sim::Task<uint64_t> SpinUntilUnlocked(uint64_t raw) const {
    const PageView view = View(raw);
    for (;;) {
      co_await env_.Spin();
      const uint64_t word = LoadWord(view);
      if (!IsLocked(word)) co_return word;
    }
  }

  /// Spin-acquires the node's write lock.
  sim::Task<void> Lock(uint64_t raw) {
    for (;;) {
      const uint64_t word = co_await AwaitUnlocked(raw);
      if (TryLock(View(raw), word)) co_return;
    }
  }

  /// The in-place descent: from the root to the node at `level` on `key`'s
  /// path, charging inner-node CPU per node above `level`, chasing right
  /// past stale fences and restarting from the root on a failed version
  /// check. Returns the node with its validated version in `*version`, or
  /// 0 when the root is below `level`. `path`, when non-null, receives the
  /// image of every node above `level` the final pass searched (see
  /// AppendImage).
  sim::Task<uint64_t> Descend(uint8_t level, Key key, uint64_t* version,
                              std::vector<uint64_t>* path = nullptr) const {
    const size_t mark = path == nullptr ? 0 : path->size();
    for (;;) {  // restart loop
      if (path != nullptr) path->resize(mark);
      uint64_t node = root_raw();
      if (View(node).level() < level) co_return 0;
      uint64_t v = co_await AwaitUnlocked(node);
      for (;;) {
        const PageView view = View(node);
        if (view.level() == level) {
          *version = v;
          co_return node;
        }
        co_await env_.Cpu(costs_.inner);
        bool chase = false;
        uint64_t next = 0;
        if (!OptimisticRead(view, v, [&] {
              if (path != nullptr) AppendImage(node, view, path);
              chase = view.NeedsChase(key);
              next = chase ? view.right_sibling() : view.InnerChildFor(key);
            })) {
          break;
        }
        if (chase) {
          node = next;
          v = co_await AwaitUnlocked(node);
          continue;
        }
        const uint64_t child_version = co_await AwaitUnlocked(next);
        if (LoadWord(view) != v) break;
        node = next;
        v = child_version;
      }
    }
  }

  /// The locked descent: the node at `level` whose range holds `sep`,
  /// write-locked; the lock is handed rightwards along the chain while
  /// `sep` belongs further on. 0 when the root is below `level`.
  sim::Task<uint64_t> DescendToLevelLocked(uint8_t level, Key sep) {
    uint64_t v = 0;
    uint64_t node = co_await Descend(level, sep, &v);
    if (node == 0) co_return 0;
    co_await Lock(node);
    while (View(node).NeedsChase(sep)) {
      const uint64_t next = View(node).right_sibling();
      Unlock(View(node));
      node = next;
      co_await Lock(node);
    }
    co_return node;
  }

  /// Update/Delete: applies `modify` to the first leaf on `key`'s chain
  /// where it returns true, each leaf under its write lock.
  template <typename Modify>
  sim::Task<Status> ModifyFirst(Key key, Modify modify) {
    assert(!remote_leaves_);
    for (;;) {  // restart loop
      uint64_t v = 0;
      uint64_t node = co_await Descend(bottom_level_, key, &v);
      for (;;) {
        const PageView view = View(node);
        if (!TryLock(view, v)) break;
        co_await env_.Cpu(costs_.leaf);
        const bool done = modify(view);
        const bool chase = view.NeedsChase(key);
        const uint64_t next = view.right_sibling();
        Unlock(view);
        if (done) co_return Status::OK();
        if (!chase) co_return Status::NotFound();
        node = next;
        v = co_await AwaitUnlocked(node);
      }
    }
  }

  /// Installs `sep` (with `right_raw` to its right) at `level` after a
  /// split of `left_raw` one level below. kResourceExhausted = the pages
  /// ran out mid-propagation; the tree stays valid via the sibling chain
  /// (B-link), the separator is simply not indexed yet.
  sim::Task<Status> InstallSeparator(uint8_t level, Key sep, uint64_t left_raw,
                                     uint64_t right_raw) {
    for (;;) {
      if (root_level() < level) {
        // Only possible when the split node was the root (left_raw known).
        assert(left_raw != 0);
        const GrowResult grew = TryGrowRoot(level, sep, left_raw, right_raw);
        if (grew == GrowResult::kDone) co_return Status::OK();
        if (grew == GrowResult::kExhausted) {
          co_return Status::ResourceExhausted("root growth");
        }
        continue;  // lost the race: someone else grew the root
      }
      const uint64_t parent = co_await DescendToLevelLocked(level, sep);
      if (parent == 0) continue;
      const PageView view = View(parent);
      co_await env_.Cpu(costs_.inner + costs_.insert_extra);
      if (view.InnerInsert(sep, right_raw)) {
        Unlock(view);
        co_return Status::OK();
      }
      const uint64_t new_raw = env_.AllocatePage(page_size_);
      if (new_raw == 0) {
        Unlock(view);
        co_return Status::ResourceExhausted("inner split");
      }
      const PageView right = View(new_raw);
      const Key promoted = view.SplitInnerInto(right, new_raw);
      const bool ok =
          (sep < promoted ? view : right).InnerInsert(sep, right_raw);
      assert(ok);
      (void)ok;
      Unlock(view);
      co_return co_await InstallSeparator(static_cast<uint8_t>(level + 1),
                                          promoted, parent, new_raw);
    }
  }

  /// Replaces the root `left_raw` with a new root over (left, right). A
  /// lost race leaves the new page unreferenced.
  GrowResult TryGrowRoot(uint8_t new_level, Key sep, uint64_t left_raw,
                         uint64_t right_raw) {
    if (root_raw() != left_raw) return GrowResult::kLostRace;
    const uint64_t new_root = env_.AllocatePage(page_size_);
    if (new_root == 0) return GrowResult::kExhausted;
    PageView view = View(new_root);
    view.InitInner(new_level, kInfinityKey, 0);
    view.inner_keys()[0] = sep;
    view.inner_children()[0] = left_raw;
    view.inner_children()[1] = right_raw;
    view.header().count = 1;
    uint64_t expected = left_raw;
    return env_.root.compare_exchange_strong(expected, new_root,
                                             std::memory_order_acq_rel)
               ? GrowResult::kDone
               : GrowResult::kLostRace;
  }

  /// One entry of a `path`: the node's raw pointer, then its page image
  /// as page_size / 8 words. Called inside the optimistic read of `view`.
  void AppendImage(uint64_t raw, PageView view,
                   std::vector<uint64_t>* path) const {
    path->push_back(raw);
    const size_t at = path->size();
    path->resize(at + page_size_ / 8);
    std::memcpy(path->data() + at, view.data(), page_size_);
  }

  /// FindLeafChild's range form: appends the children after index `i` of
  /// `view` whose ranges start below `hi`, until `rest` holds one node's
  /// worth. True when the run reaches the node's end and continues in its
  /// right sibling.
  bool AppendRun(PageView view, uint32_t i, Key hi,
                 std::vector<uint64_t>* rest) const {
    const size_t cap = PageView::InnerKeyCapacity(page_size_);
    while (rest->size() < cap) {
      if (i >= view.count()) return view.NeedsChase(hi);
      if (view.inner_keys()[i] >= hi) return false;
      rest->push_back(view.inner_children()[++i]);
    }
    return false;
  }

  Env env_;
  uint32_t page_size_;
  NodeCosts costs_;
  bool remote_leaves_ = false;
  uint8_t bottom_level_ = 0;  ///< lowest level stored locally
};

}  // namespace namtree::btree

#endif  // NAMTREE_BTREE_BLINK_TREE_H_
