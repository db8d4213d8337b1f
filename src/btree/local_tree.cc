#include "btree/local_tree.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace namtree::btree {

LocalBLinkTree::LocalBLinkTree(uint32_t page_size) : page_size_(page_size) {
  assert(page_size >= PageView::kMinPageSize);
  assert(page_size % 8 == 0);
  const uint64_t root = AllocatePage();
  View(root).InitLeaf(kInfinityKey, 0);
  root_.store(root, std::memory_order_release);
  root_level_.store(0, std::memory_order_release);
}

LocalBLinkTree::~LocalBLinkTree() {
  for (uint8_t* p : pages_) ::operator delete[](p, std::align_val_t(64));
}

uint64_t LocalBLinkTree::AllocatePage() {
  uint8_t* p = static_cast<uint8_t*>(
      ::operator new[](page_size_, std::align_val_t(64)));
  std::memset(p, 0, page_size_);
  {
    std::lock_guard<std::mutex> guard(pages_mutex_);
    pages_.push_back(p);
  }
  return reinterpret_cast<uint64_t>(p);
}

uint64_t LocalBLinkTree::AwaitNodeUnlocked(PageView page) {
  uint64_t version = VersionWord(page).load(std::memory_order_acquire);
  while (IsLocked(version)) {
    std::this_thread::yield();
    version = VersionWord(page).load(std::memory_order_acquire);
  }
  return version;
}

bool LocalBLinkTree::TryUpgradeToWriteLock(PageView page, uint64_t version) {
  uint64_t expected = version;
  return VersionWord(page).compare_exchange_strong(
      expected, WithLockBit(version), std::memory_order_acquire);
}

uint64_t LocalBLinkTree::WriteLock(PageView page) {
  for (;;) {
    const uint64_t version = AwaitNodeUnlocked(page);
    if (TryUpgradeToWriteLock(page, version)) return version;
  }
}

uint64_t LocalBLinkTree::DescendToLeaf(Key key, uint64_t* version) const {
  for (;;) {  // restart loop
    uint64_t node = root_.load(std::memory_order_acquire);
    uint64_t v = AwaitNodeUnlocked(View(node));
    bool restart = false;
    while (!restart) {
      PageView view = View(node);
      if (view.is_leaf()) {
        *version = v;
        return node;
      }
      // Stale-range chase: strictly beyond this node's fence.
      if (key > view.high_key()) {
        const uint64_t next = view.right_sibling();
        if (!CheckVersion(view, v) || next == 0) {
          restart = true;
          break;
        }
        node = next;
        v = AwaitNodeUnlocked(View(node));
        continue;
      }
      const uint64_t child = view.InnerChildFor(key);
      const uint64_t child_version = AwaitNodeUnlocked(View(child));
      if (!CheckVersion(view, v)) {
        restart = true;
        break;
      }
      node = child;
      v = child_version;
    }
  }
}

Result<Value> LocalBLinkTree::Lookup(Key key) const {
  for (;;) {
    uint64_t version = 0;
    uint64_t node = DescendToLeaf(key, &version);
    // Chase the leaf chain (B-link rule + duplicate runs over the fence).
    for (;;) {
      PageView view = View(node);
      const int32_t idx = view.LeafFindLive(key);
      const Value value = idx >= 0 ? view.leaf_entries()[idx].value : 0;
      const Key high = view.high_key();
      const uint64_t next = view.right_sibling();
      if (!CheckVersion(view, version)) break;  // torn read -> restart
      if (idx >= 0) return value;
      if (key >= high && next != 0) {
        node = next;
        version = AwaitNodeUnlocked(View(node));
        continue;
      }
      return Status::NotFound();
    }
  }
}

Status LocalBLinkTree::Insert(Key key, Value value) {
  for (;;) {
    uint64_t version = 0;
    uint64_t node = DescendToLeaf(key, &version);
    PageView view = View(node);
    // The key may belong further right (fence moved by a concurrent or
    // duplicate-run split): chase before locking.
    {
      const Key high = view.high_key();
      const uint64_t next = view.right_sibling();
      if (!CheckVersion(view, version)) continue;
      if (key >= high && next != 0) {
        // Re-descend via the sibling chain under optimistic reads.
        uint64_t n = next;
        uint64_t v = AwaitNodeUnlocked(View(n));
        bool restart = false;
        while (true) {
          PageView nv = View(n);
          const Key h = nv.high_key();
          const uint64_t nn = nv.right_sibling();
          if (!CheckVersion(nv, v)) {
            restart = true;
            break;
          }
          if (key >= h && nn != 0) {
            n = nn;
            v = AwaitNodeUnlocked(View(n));
            continue;
          }
          break;
        }
        if (restart) continue;
        node = n;
        version = v;
        view = View(node);
      }
    }

    if (!TryUpgradeToWriteLock(view, version)) continue;
    // Under the lock the snapshot is stable; re-verify the range in case
    // the CAS admitted us to a page that split right before we read it.
    if (view.NeedsChase(key)) {
      WriteUnlock(view);
      continue;
    }

    if (view.LeafInsert(key, value)) {
      WriteUnlock(view);
      return Status::OK();
    }

    // Full: split, then insert into the proper half before unlocking.
    const uint64_t right_raw = AllocatePage();
    PageView right = View(right_raw);
    const Key separator = view.SplitLeafInto(right, right_raw);
    const bool into_left = key < separator;
    const bool ok = into_left ? view.LeafInsert(key, value)
                              : right.LeafInsert(key, value);
    assert(ok);
    (void)ok;
    WriteUnlock(view);

    const uint8_t level = 1;
    InstallSeparator(level, separator, node, right_raw);
    return Status::OK();
  }
}

uint64_t LocalBLinkTree::DescendToLevelLocked(uint8_t level, Key sep) {
  for (;;) {
    if (root_level_.load(std::memory_order_acquire) < level) return 0;
    uint64_t node = root_.load(std::memory_order_acquire);
    uint64_t v = AwaitNodeUnlocked(View(node));
    if (View(node).level() < level) continue;  // root changed underneath us
    bool restart = false;
    while (!restart) {
      PageView view = View(node);
      if (view.level() == level) {
        if (!TryUpgradeToWriteLock(view, v)) {
          v = AwaitNodeUnlocked(view);
          continue;  // re-try lock on the same node
        }
        // Locked; chase right if the separator now belongs further right.
        while (view.NeedsChase(sep)) {
          const uint64_t next = view.right_sibling();
          WriteUnlock(view);
          node = next;
          view = View(node);
          (void)WriteLock(view);
        }
        return node;
      }
      if (sep > view.high_key()) {
        const uint64_t next = view.right_sibling();
        if (!CheckVersion(view, v) || next == 0) {
          restart = true;
          break;
        }
        node = next;
        v = AwaitNodeUnlocked(View(node));
        continue;
      }
      const uint64_t child = view.InnerChildFor(sep);
      const uint64_t child_version = AwaitNodeUnlocked(View(child));
      if (!CheckVersion(view, v)) {
        restart = true;
        break;
      }
      node = child;
      v = child_version;
    }
  }
}

bool LocalBLinkTree::TryGrowRoot(uint8_t new_level, Key sep,
                                 uint64_t left_raw, uint64_t right_raw) {
  const uint64_t new_root = AllocatePage();
  PageView view = View(new_root);
  view.InitInner(new_level, kInfinityKey, 0);
  view.inner_keys()[0] = sep;
  view.inner_children()[0] = left_raw;
  view.inner_children()[1] = right_raw;
  view.header().count = 1;

  uint64_t expected = left_raw;
  if (root_.compare_exchange_strong(expected, new_root,
                                    std::memory_order_acq_rel)) {
    root_level_.store(new_level, std::memory_order_release);
    return true;
  }
  return false;  // page leaks into pages_ and is reclaimed at destruction
}

void LocalBLinkTree::InstallSeparator(uint8_t level, Key sep,
                                      uint64_t left_raw, uint64_t right_raw) {
  for (;;) {
    if (root_level_.load(std::memory_order_acquire) < level) {
      // The split node was the root: grow the tree.
      if (TryGrowRoot(level, sep, left_raw, right_raw)) return;
      continue;  // another thread grew it; find the parent normally
    }
    const uint64_t parent = DescendToLevelLocked(level, sep);
    if (parent == 0) continue;  // raced with a root change
    PageView view = View(parent);
    if (view.InnerInsert(sep, right_raw)) {
      WriteUnlock(view);
      return;
    }
    // Parent full: split it and retry the insert into the proper half.
    const uint64_t new_raw = AllocatePage();
    PageView right = View(new_raw);
    const Key promoted = view.SplitInnerInto(right, new_raw);
    PageView target = sep < promoted ? view : right;
    const bool ok = target.InnerInsert(sep, right_raw);
    assert(ok);
    (void)ok;
    WriteUnlock(view);
    InstallSeparator(static_cast<uint8_t>(level + 1), promoted, parent,
                     new_raw);
    return;
  }
}

Status LocalBLinkTree::Update(Key key, Value value) {
  for (;;) {
    uint64_t version = 0;
    uint64_t node = DescendToLeaf(key, &version);
    for (;;) {
      PageView view = View(node);
      if (!TryUpgradeToWriteLock(view, version)) {
        version = AwaitNodeUnlocked(view);
        continue;
      }
      const bool updated = view.LeafUpdateFirst(key, value);
      const Key high = view.high_key();
      const uint64_t next = view.right_sibling();
      WriteUnlock(view);
      if (updated) return Status::OK();
      if (key >= high && next != 0) {
        node = next;
        version = AwaitNodeUnlocked(View(node));
        continue;
      }
      return Status::NotFound();
    }
  }
}

uint64_t LocalBLinkTree::LookupAll(Key key, std::vector<Value>* out) const {
  for (;;) {
    uint64_t version = 0;
    uint64_t node = DescendToLeaf(key, &version);
    uint64_t found = 0;
    std::vector<Value> page_hits;
    bool restart = false;
    for (;;) {
      PageView view = View(node);
      page_hits.clear();
      view.LeafCollect(key, &page_hits);
      const Key high = view.high_key();
      const uint64_t next = view.right_sibling();
      if (!CheckVersion(view, version)) {
        version = AwaitNodeUnlocked(view);
        continue;  // retry this page
      }
      found += page_hits.size();
      if (out != nullptr) {
        out->insert(out->end(), page_hits.begin(), page_hits.end());
      }
      if (key >= high && next != 0) {
        node = next;
        version = AwaitNodeUnlocked(View(node));
        continue;
      }
      return found;
    }
    if (restart) {
      if (out != nullptr && found > 0) {
        out->resize(out->size() - found);
      }
      continue;
    }
  }
}

Status LocalBLinkTree::Delete(Key key) {
  for (;;) {
    uint64_t version = 0;
    uint64_t node = DescendToLeaf(key, &version);
    for (;;) {
      PageView view = View(node);
      if (!TryUpgradeToWriteLock(view, version)) {
        version = AwaitNodeUnlocked(view);
        continue;
      }
      if (view.LeafMarkDeleted(key)) {
        WriteUnlock(view);
        return Status::OK();
      }
      const Key high = view.high_key();
      const uint64_t next = view.right_sibling();
      WriteUnlock(view);
      if (key >= high && next != 0) {
        node = next;
        version = AwaitNodeUnlocked(View(node));
        continue;
      }
      return Status::NotFound();
    }
  }
}

uint64_t LocalBLinkTree::Scan(Key lo, Key hi, std::vector<KV>* out) const {
  if (lo >= hi) return 0;
  uint64_t version = 0;
  uint64_t node = DescendToLeaf(lo, &version);
  uint64_t found = 0;
  std::vector<KV> page_hits;
  for (;;) {
    PageView view = View(node);
    page_hits.clear();
    const uint32_t n = view.count();
    const KV* entries = view.leaf_entries();
    for (uint32_t i = view.LeafLowerBound(lo); i < n; ++i) {
      if (entries[i].key >= hi) break;
      if (!view.LeafIsTombstoned(i)) page_hits.push_back(entries[i]);
    }
    const bool done = view.high_key() >= hi;
    const uint64_t next = view.right_sibling();
    if (!CheckVersion(view, version)) {
      // Torn read: retry this page.
      version = AwaitNodeUnlocked(view);
      continue;
    }
    if (out != nullptr) {
      out->insert(out->end(), page_hits.begin(), page_hits.end());
    }
    found += page_hits.size();
    if (done || next == 0) return found;
    node = next;
    version = AwaitNodeUnlocked(View(node));
  }
}

LocalBLinkTree::Cursor::Cursor(const LocalBLinkTree* tree, Key seek)
    : tree_(tree) {
  FetchFrom(seek);
}

void LocalBLinkTree::Cursor::FetchFrom(Key lo) {
  buffer_.clear();
  position_ = 0;
  if (exhausted_) return;
  // Read one page's worth of live entries >= lo under OLC validation.
  for (;;) {
    uint64_t version = 0;
    uint64_t node = tree_->DescendToLeaf(lo, &version);
    for (;;) {
      PageView view = tree_->View(node);
      buffer_.clear();
      const uint32_t n = view.count();
      const KV* entries = view.leaf_entries();
      for (uint32_t i = view.LeafLowerBound(lo); i < n; ++i) {
        if (!view.LeafIsTombstoned(i)) buffer_.push_back(entries[i]);
      }
      const Key high = view.high_key();
      const uint64_t next = view.right_sibling();
      if (!CheckVersion(view, version)) {
        version = AwaitNodeUnlocked(view);
        continue;  // retry this page
      }
      if (buffer_.empty()) {
        if (next == 0 || high == kInfinityKey) {
          exhausted_ = true;
          return;
        }
        // Page had nothing live >= lo: continue from its fence.
        lo = high;
        node = next;
        version = AwaitNodeUnlocked(tree_->View(node));
        continue;
      }
      resume_at_ = high;
      exhausted_ = (next == 0 || high == kInfinityKey);
      return;
    }
  }
}

void LocalBLinkTree::Cursor::Next() {
  if (!Valid()) return;
  position_++;
  if (position_ < buffer_.size()) return;
  const bool was_exhausted = exhausted_;
  if (was_exhausted) {
    buffer_.clear();
    position_ = 0;
    return;
  }
  FetchFrom(resume_at_);
}

Status LocalBLinkTree::BulkLoad(std::span<const KV> sorted) {
  // Build the leaf level (pages ~90% full), then inner levels bottom-up.
  const uint32_t leaf_fill =
      std::max<uint32_t>(1, PageView::LeafCapacity(page_size_) * 9 / 10);
  const uint32_t inner_fill =
      std::max<uint32_t>(2, PageView::InnerKeyCapacity(page_size_) * 9 / 10);

  struct NodeRef {
    uint64_t raw;
    Key low;  // smallest key reachable in the subtree
  };
  std::vector<NodeRef> level_nodes;

  // Leaves.
  size_t i = 0;
  uint64_t prev = 0;
  do {
    const uint64_t raw = AllocatePage();
    PageView leaf = View(raw);
    leaf.InitLeaf(kInfinityKey, 0);
    const size_t take = std::min<size_t>(leaf_fill, sorted.size() - i);
    for (size_t j = 0; j < take; ++j) {
      leaf.leaf_entries()[j] = sorted[i + j];
    }
    leaf.header().count = static_cast<uint16_t>(take);
    const Key low = take > 0 ? sorted[i].key : 0;
    if (prev != 0) {
      View(prev).header().right_sibling = raw;
      View(prev).header().high_key = low;
    }
    level_nodes.push_back({raw, low});
    prev = raw;
    i += take;
  } while (i < sorted.size());

  // Inner levels.
  uint8_t level = 0;
  while (level_nodes.size() > 1) {
    level++;
    std::vector<NodeRef> upper;
    size_t j = 0;
    uint64_t prev_inner = 0;
    while (j < level_nodes.size()) {
      const uint64_t raw = AllocatePage();
      PageView inner = View(raw);
      inner.InitInner(level, kInfinityKey, 0);
      const size_t children =
          std::min<size_t>(inner_fill + 1, level_nodes.size() - j);
      inner.inner_children()[0] = level_nodes[j].raw;
      for (size_t c = 1; c < children; ++c) {
        inner.inner_keys()[c - 1] = level_nodes[j + c].low;
        inner.inner_children()[c] = level_nodes[j + c].raw;
      }
      inner.header().count = static_cast<uint16_t>(children - 1);
      if (prev_inner != 0) {
        View(prev_inner).header().right_sibling = raw;
        View(prev_inner).header().high_key = level_nodes[j].low;
      }
      upper.push_back({raw, level_nodes[j].low});
      prev_inner = raw;
      j += children;
    }
    level_nodes.swap(upper);
  }

  root_.store(level_nodes[0].raw, std::memory_order_release);
  root_level_.store(level, std::memory_order_release);
  return Status::OK();
}

uint64_t LocalBLinkTree::GarbageCollect() {
  // Find the leftmost leaf, then sweep the chain compacting each page
  // under its write lock (epoch GC, paper §3.2).
  uint64_t version = 0;
  uint64_t node = DescendToLeaf(0, &version);
  uint64_t reclaimed = 0;
  while (node != 0) {
    PageView view = View(node);
    (void)WriteLock(view);
    reclaimed += view.LeafCompact();
    const uint64_t next = view.right_sibling();
    WriteUnlock(view);
    node = next;
  }
  return reclaimed;
}

LocalBLinkTree::TreeStats LocalBLinkTree::GetStats() const {
  TreeStats stats;
  uint64_t node = root_.load(std::memory_order_acquire);
  stats.height = View(node).level() + 1ull;
  // Walk down the leftmost spine, counting each level's chain.
  while (true) {
    PageView view = View(node);
    uint64_t chain = node;
    while (chain != 0) {
      PageView cv = View(chain);
      stats.pages++;
      if (cv.is_leaf()) {
        for (uint32_t i = 0; i < cv.count(); ++i) {
          if (cv.LeafIsTombstoned(i)) {
            stats.tombstones++;
          } else {
            stats.live_entries++;
          }
        }
      }
      chain = cv.right_sibling();
    }
    if (view.is_leaf()) break;
    node = view.inner_children()[0];
  }
  return stats;
}

}  // namespace namtree::btree
