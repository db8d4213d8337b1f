#include "index/leaf_level.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace namtree::index {

using btree::IsLocked;
using btree::Key;
using btree::KV;
using btree::PageView;
using btree::Value;

namespace {

/// The bulk loader's pages in memory-server regions: every page on
/// `fixed_server` when >= 0, else round-robin over the servers starting at
/// `first_server`, skipping exhausted regions.
btree::PageAllocator RegionPages(rdma::Fabric& fabric, uint32_t page_size,
                                 int32_t fixed_server, uint32_t first_server) {
  return [&fabric, page_size, fixed_server,
          rr = first_server]() mutable -> btree::NewPage {
    rdma::RemotePtr ptr;
    if (fixed_server >= 0) {
      ptr = fabric.region(static_cast<uint32_t>(fixed_server))
                ->AllocateLocal(page_size);
    } else {
      const uint32_t servers = fabric.num_memory_servers();
      for (uint32_t attempt = 0; attempt < servers && ptr.is_null();
           ++attempt) {
        ptr = fabric.region(rr++ % servers)->AllocateLocal(page_size);
      }
    }
    if (ptr.is_null()) return {};
    return {ptr.raw(), fabric.region(ptr.server_id())->at(ptr.offset())};
  };
}

/// Follows `view`'s (the page at `ptr`) right sibling for `key`, and moves a
/// walk's landing page past it when its high fence is strictly below `key`
/// (see LeafLevel::SearchChain).
rdma::RemotePtr Chase(PageView view, rdma::RemotePtr ptr, Key key,
                      rdma::RemotePtr* landed) {
  const rdma::RemotePtr next(view.right_sibling());
  if (landed != nullptr && *landed == ptr && view.high_key() < key) {
    *landed = next;
  }
  return next;
}

}  // namespace

Status LeafLevel::Build(rdma::Fabric& fabric,
                        std::span<const btree::KV> sorted,
                        const IndexConfig& config, BuildResult* out,
                        int32_t fixed_server, bool inner_levels) {
  Status status = btree::BuildLeafLevel(
      sorted, config.page_size, config.leaf_fill_percent,
      RegionPages(fabric, config.page_size, fixed_server, 0), &out->leaf_refs);
  if (!status.ok()) return status;
  out->first = rdma::RemotePtr(out->leaf_refs.front().raw_ptr);
  if (!inner_levels) return Status::OK();
  uint64_t root = 0;
  status = btree::BuildInnerLevels(
      out->leaf_refs, config.page_size, config.leaf_fill_percent,
      /*at_least_one=*/false,
      RegionPages(fabric, config.page_size, fixed_server, 1), &root,
      &out->root_level);
  if (!status.ok()) return status;
  out->root = rdma::RemotePtr(root);
  if (fixed_server >= 0 || out->root_level == 0) return Status::OK();
  const uint8_t* image =
      fabric.region(out->root.server_id())->at(out->root.offset());
  out->mirrors.assign(fabric.num_memory_servers(), rdma::RemotePtr::Null());
  for (uint32_t s = 0; s < fabric.num_memory_servers(); ++s) {
    if (s == out->root.server_id()) continue;
    const rdma::RemotePtr mirror =
        fabric.region(s)->AllocateLocal(config.page_size);
    if (mirror.is_null()) continue;  // a full server reads the root itself
    std::memcpy(fabric.region(s)->at(mirror.offset()), image,
                config.page_size);
    out->mirrors[s] = mirror;
  }
  return Status::OK();
}

sim::Task<LookupResult> LeafLevel::SearchChain(RemoteOps ops,
                                               rdma::RemotePtr start,
                                               Key key,
                                               const uint8_t* preread,
                                               rdma::RemotePtr* landed) {
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  if (landed != nullptr) *landed = start;
  // namtree-lint: bounded-loop(chain-chase: every step moves right along ascending fences and stops at the first fence above key; read failures exit)
  for (;;) {
    const uint8_t* image;
    if (preread != nullptr) {
      // Speculatively prefetched image of `start`: already validated
      // unlocked by the descent, consumed exactly once.
      image = preread;
      preread = nullptr;
    } else {
      const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
      if (!read.ok()) co_return LookupResult{false, 0, read.status};
      image = buf;
    }
    PageView view(const_cast<uint8_t*>(image), ops.page_size());
    const int32_t idx = view.LeafFindLive(key);
    if (idx >= 0) {
      co_return LookupResult{true, view.leaf_entries()[idx].value,
                             Status::OK()};
    }
    if (view.NeedsChase(key)) {
      ptr = Chase(view, ptr, key, landed);
      continue;
    }
    co_return LookupResult{false, 0, Status::OK()};
  }
}

sim::Task<Status> LeafLevel::SearchChainMulti(RemoteOps ops,
                                              rdma::RemotePtr start,
                                              std::span<const Key> keys,
                                              LookupResult* results) {
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  size_t i = 0;
  bool have_image = false;
  // Ascending keys make the walk monotone: the cursor only ever moves
  // right, and each visited page is read once no matter how many of the
  // group's keys it answers.
  // namtree-lint: bounded-loop(chain-chase: keys ascend and every re-read step moves right along ascending fences; read failures exit)
  while (i < keys.size()) {
    if (!have_image) {
      const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
      if (!read.ok()) {
        for (; i < keys.size(); ++i) {
          results[i] = LookupResult{false, 0, read.status};
        }
        co_return read.status;
      }
      have_image = true;
    }
    PageView view(buf, ops.page_size());
    const Key key = keys[i];
    const int32_t idx = view.LeafFindLive(key);
    if (idx >= 0) {
      results[i] =
          LookupResult{true, view.leaf_entries()[idx].value, Status::OK()};
      i++;
      continue;
    }
    if (view.NeedsChase(key)) {
      ptr = rdma::RemotePtr(view.right_sibling());
      have_image = false;
      continue;
    }
    results[i] = LookupResult{false, 0, Status::OK()};
    i++;
  }
  co_return Status::OK();
}

namespace {

/// Position of child pointer `raw` in inner image `node`, or -1.
int32_t FindChild(PageView node, uint64_t raw) {
  const uint64_t* children = node.inner_children();
  for (uint32_t i = 0; i <= node.count(); ++i) {
    if (children[i] == raw) return static_cast<int32_t>(i);
  }
  return -1;
}

}  // namespace

LeafLevel::ParentDirectory::ParentDirectory(const uint8_t* parent,
                                            uint32_t page_size)
    : page_size_(page_size),
      parent_(parent, parent + page_size),
      sibling_(page_size) {}

sim::Task<Status> LeafLevel::ParentDirectory::NextRun(
    RemoteOps /*ops*/, Key /*cursor*/, Key hi, rdma::RemotePtr next,
    std::vector<uint64_t>* run, rdma::RemotePtr* extra) {
  PageView parent(parent_.data(), page_size_);
  int32_t at = FindChild(parent, next.raw());
  if (at < 0 && has_sibling_) {
    // The last run consumed this node's last child: carry on in the right
    // sibling that rode that run's batch.
    parent_.swap(sibling_);
    has_sibling_ = false;
    parent = PageView(parent_.data(), page_size_);
    at = FindChild(parent, next.raw());
  }
  if (at < 0) co_return Status::OK();  // not listed: the scan reads `next`
  const uint32_t count = parent.count();
  const Key* keys = parent.inner_keys();
  const uint64_t* children = parent.inner_children();
  auto i = static_cast<uint32_t>(at);
  run->push_back(children[i]);
  // Child i + 1's range starts at keys[i].
  while (i < count && keys[i] < hi) {
    ++i;
    run->push_back(children[i]);
  }
  // Keys above the inclusive inner fence live under the right sibling; the
  // first of them, the fence itself, is its first child's low key.
  if (i == count && parent.NeedsChase(hi)) {
    *extra = rdma::RemotePtr(parent.right_sibling());
  }
  co_return Status::OK();
}

void LeafLevel::ParentDirectory::Absorb(const uint8_t* image) {
  std::memcpy(sibling_.data(), image, page_size_);
  has_sibling_ = true;
}

sim::Task<uint64_t> LeafLevel::ScanChain(RemoteOps ops, rdma::RemotePtr start,
                                         Key lo, Key hi,
                                         std::vector<KV>* out, Status* status,
                                         ScanDirectory* directory) {
  // Every clean exit leaves this OK; the degraded-mode exits overwrite it
  // with the failing read's status so the caller can tell kUnavailable
  // (dead server/client) from kTimedOut (flaky-net budget exhausted).
  if (status != nullptr) *status = Status::OK();
  if (lo >= hi) co_return 0;
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  uint64_t found = 0;
  rdma::RemotePtr next = start;
  // Monotonic low bound: entries below the highest fence seen so far were
  // either already collected or belonged to a page we saw *after* an epoch
  // merge drained it — in both cases the absorber to the right holds them
  // and this cursor makes collection exactly-once (see RebalanceChain).
  Key cursor = lo;

  // Consumes the image of the leaf the chain names next; true once the
  // range ends within it.
  const auto consume = [&](PageView leaf) {
    found += leaf.LeafCollectRange(cursor, hi, out);
    if (!leaf.is_drained()) {
      cursor = std::max(cursor, std::min(leaf.high_key(), hi));
    }
    next = rdma::RemotePtr(leaf.right_sibling());
    return leaf.Covers(hi - 1);
  };
  // A batch member is usable as read unless its target server died
  // mid-batch (the slot then holds stale bytes) or the page was locked
  // mid-write.
  const auto usable = [&ops](rdma::RemotePtr target, const uint8_t* image) {
    uint64_t word;
    std::memcpy(&word, image + btree::kVersionOffset, 8);
    return ops.fabric().ServerAlive(target.server_id()) && !IsLocked(word);
  };

  std::vector<uint64_t> run;
  std::vector<uint8_t> batch;
  // namtree-lint: bounded-loop(chain-walk: every pass consumes at least the leaf the chain names next, moving right along ascending fences, and stops at the first fence >= hi or the rightmost page; read failures exit)
  for (;;) {
    run.clear();
    rdma::RemotePtr extra;
    if (directory != nullptr) {
      const Status listed =
          co_await directory->NextRun(ops, cursor, hi, next, &run, &extra);
      if (!listed.ok()) {
        if (status != nullptr) *status = listed;
        co_return found;
      }
      if (next.is_null()) {
        if (run.empty()) co_return found;
        next = rdma::RemotePtr(run.front());
      }
    }
    const size_t members = run.size() + (extra.is_null() ? 0 : 1);
    if (run.empty() || run.front() != next.raw() || members < 2) {
      // Nothing to batch: one signaled READ, the plain chain walk.
      const PageReadResult step = co_await ops.ReadPageUnlocked(next, buf);
      if (!step.ok()) {
        if (status != nullptr) *status = step.status;
        co_return found;  // degraded mode: the partial count so far
      }
      if (consume(PageView(buf, page_size))) co_return found;
      continue;
    }

    // One selectively signaled doorbell batch for the whole run (§4.3).
    batch.resize(members * page_size);
    std::vector<RemoteOps::ChainOp> reqs;
    reqs.reserve(members);
    for (size_t k = 0; k < run.size(); ++k) {
      reqs.push_back(RemoteOps::ChainOp::Read(
          rdma::RemotePtr(run[k]), batch.data() + k * page_size, page_size));
    }
    uint8_t* extra_image = batch.data() + run.size() * page_size;
    if (!extra.is_null()) {
      reqs.push_back(RemoteOps::ChainOp::Read(extra, extra_image, page_size));
    }
    const Status read = co_await ops.ReadPagesBatch(std::move(reqs));
    if (!read.ok()) {
      if (status != nullptr) *status = read;
      co_return found;  // batch dropped; images unspecified
    }

    if (!extra.is_null()) {
      bool ok = usable(extra, extra_image);
      if (!ok) {
        ops.ctx().scan_prefetch_fallbacks.Inc();
        ok = (co_await ops.ReadPageUnlocked(extra, extra_image)).ok();
      }
      // A lost directory page only costs single reads later on.
      if (ok) directory->Absorb(extra_image);
    }
    for (size_t k = 0; k < run.size(); ++k) {
      if (run[k] != next.raw()) {
        // The chain left the directory: a split it does not list yet put a
        // new leaf here, or an epoch merge drained the previous leaf into
        // a fresh absorber. Drop the rest of the run; the next pass walks
        // the chain from `next` until the directory lists it again.
        ops.ctx().scan_prefetch_fallbacks.Inc();
        break;
      }
      uint8_t* image = batch.data() + k * page_size;
      if (!usable(next, image)) {
        // Re-read with the spinning single READ, which fails over to a
        // live replica under replication.
        ops.ctx().scan_prefetch_fallbacks.Inc();
        const PageReadResult reread =
            co_await ops.ReadPageUnlocked(next, image);
        if (!reread.ok()) {
          if (status != nullptr) *status = reread.status;
          co_return found;
        }
      }
      if (consume(PageView(image, page_size))) co_return found;
    }
  }
}

sim::Task<Status> LeafLevel::LockLeafFor(RemoteOps& ops, rdma::RemotePtr* ptr,
                                         Key key, bool live,
                                         rdma::RemotePtr* landed) {
  uint8_t* buf = ops.ctx().page_a();
  for (;;) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(*ptr, buf);
    if (!read.ok()) co_return read.status;
    PageView view(buf, ops.page_size());
    if (live ? view.LeafFindLive(key) < 0 : view.NeedsChase(key)) {
      if (view.NeedsChase(key)) {
        *ptr = Chase(view, *ptr, key, landed);
        continue;
      }
      co_return Status::NotFound();
    }
    const Status lock = co_await ops.TryLockPage(*ptr, read.version);
    if (!lock.ok()) {
      if (!lock.IsAborted()) co_return lock;  // dead: no partial state
      ops.ctx().restarts.Inc();
      continue;  // version moved: re-read and retry
    }
    // The CAS succeeded against the version of our image, so the image is
    // the current content; stamp the locked word into it.
    ops.StampLocked(buf, read.version);
    co_return Status::OK();
  }
}

sim::Task<Status> LeafLevel::InsertAt(RemoteOps ops, rdma::RemotePtr start,
                                      Key key, Value value,
                                      SplitInfo* split,
                                      int32_t alloc_server,
                                      rdma::RemotePtr* landed) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  split->split = false;
  if (landed != nullptr) *landed = start;

  for (;;) {
    const Status locked =
        co_await LockLeafFor(ops, &ptr, key, /*live=*/false, landed);
    if (!locked.ok()) co_return locked;
    PageView view(buf, page_size);
    if (view.LeafInsert(key, value)) {
      const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
      if (wu.IsAborted()) {
        // The locked acting primary died mid-publication (R>1): the lock
        // evaporated with the server; retry against the promoted replica.
        ops.ctx().restarts.Inc();
        continue;
      }
      co_return wu;
    }

    // Split: allocate the right page round-robin (RDMA_ALLOC), then
    // publish {right page, left page, unlock} as one in-order verb chain
    // (the right page lands before the left page points at it). A crash at
    // any point here is sound: the chain's unexecuted tail drops
    // atomically, an unpublished right page is an unreachable leak, and
    // the orphaned left lock is lease-stolen (the image behind it is
    // either the old or the fully split content — verbs are atomic).
    const AllocResult alloc = co_await ops.AllocPageOn(alloc_server);
    if (!alloc.ok()) {
      const Status unlock = co_await ops.UnlockPage(ptr);
      if (!unlock.ok()) co_return unlock;
      if (alloc.status.IsOutOfMemory()) {
        co_return Status::OutOfMemory("leaf split");
      }
      co_return alloc.status;  // dead allocation pool: surface it
    }
    const rdma::RemotePtr right_ptr = alloc.ptr;
    uint8_t* rbuf = ops.ctx().page_b();
    PageView right(rbuf, page_size);
    const Key separator = view.SplitLeafInto(right, right_ptr.raw());
    const bool ok = key < separator ? view.LeafInsert(key, value)
                                    : right.LeafInsert(key, value);
    assert(ok);
    (void)ok;
    const Status unlock =
        co_await ops.WriteSiblingAndUnlockPage(right_ptr, rbuf, ptr, buf);
    if (unlock.IsAborted()) {
      // Locked primary died mid-split-publication: the promoted replica
      // still shows the pre-split image. The allocated right page leaks
      // (unreachable); retry the whole pass.
      ops.ctx().restarts.Inc();
      continue;
    }
    if (!unlock.ok()) co_return unlock;

    split->split = true;
    split->separator = separator;
    split->right = right_ptr;
    co_return Status::OK();
  }
}

sim::Task<Status> LeafLevel::ModifyLiveAt(
    RemoteOps ops, rdma::RemotePtr start, Key key, rdma::RemotePtr* landed,
    std::function<bool(PageView)> modify) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  if (landed != nullptr) *landed = start;
  for (;;) {
    const Status locked =
        co_await LockLeafFor(ops, &ptr, key, /*live=*/true, landed);
    if (!locked.ok()) co_return locked;
    PageView view(buf, page_size);
    if (!modify(view)) {
      // Entry vanished between read and lock? Impossible: CAS pinned the
      // version. Defensive anyway.
      const Status unlock = co_await ops.UnlockPage(ptr);
      if (!unlock.ok()) co_return unlock;
      co_return Status::NotFound();
    }
    const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
    if (wu.IsAborted()) {
      ops.ctx().restarts.Inc();  // primary died mid-publication: retry promoted
      continue;
    }
    co_return wu;
  }
}

sim::Task<Status> LeafLevel::UpdateAt(RemoteOps ops, rdma::RemotePtr start,
                                      Key key, Value value,
                                      rdma::RemotePtr* landed) {
  co_return co_await ModifyLiveAt(ops, start, key, landed,
                                  [key, value](PageView view) {
                                    return view.LeafUpdateFirst(key, value);
                                  });
}

sim::Task<Status> LeafLevel::DeleteAt(RemoteOps ops, rdma::RemotePtr start,
                                      Key key, rdma::RemotePtr* landed) {
  co_return co_await ModifyLiveAt(
      ops, start, key, landed,
      [key](PageView view) { return view.LeafMarkDeleted(key); });
}

sim::Task<uint64_t> LeafLevel::CollectAt(RemoteOps ops, rdma::RemotePtr start,
                                         Key key,
                                         std::vector<Value>* out,
                                         rdma::RemotePtr* landed) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  if (landed != nullptr) *landed = start;
  uint64_t found = 0;
  // Chasing stops at the first fence above `key`; epoch merges never
  // straddle a duplicate run, so a fence above `key` guarantees no copies
  // of the run live further right (absorbed or otherwise).
  // namtree-lint: bounded-loop(chain-chase: every step moves right along ascending fences; read failures exit)
  for (;;) {
    if (!(co_await ops.ReadPageUnlocked(ptr, buf)).ok()) co_return found;
    PageView view(buf, page_size);
    found += view.LeafCollect(key, out);
    if (view.NeedsChase(key)) {
      ptr = Chase(view, ptr, key, landed);
      continue;
    }
    co_return found;
  }
}

sim::Task<uint64_t> LeafLevel::CompactChain(RemoteOps ops,
                                            rdma::RemotePtr first) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = first;
  uint64_t reclaimed = 0;
  while (!ptr.is_null()) {
    if (!(co_await ops.ReadPageUnlocked(ptr, buf)).ok()) co_return reclaimed;
    PageView view(buf, page_size);
    bool dirty = false;
    for (uint32_t i = 0; i < view.count(); ++i) {
      if (view.LeafIsTombstoned(i)) {
        dirty = true;
        break;
      }
    }
    if (!dirty) {
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }
    if (!(co_await ops.LockPage(ptr, buf)).ok()) co_return reclaimed;
    PageView locked_view(buf, page_size);
    reclaimed += locked_view.LeafCompact();
    const rdma::RemotePtr next(locked_view.right_sibling());
    if (!(co_await ops.WriteUnlockPage(ptr, buf)).ok()) co_return reclaimed;
    ptr = next;
  }
  co_return reclaimed;
}

sim::Task<uint64_t> LeafLevel::RebalanceChain(RemoteOps ops,
                                              rdma::RemotePtr first,
                                              uint32_t max_fill_percent) {
  const uint32_t page_size = ops.page_size();
  uint8_t* left_buf = ops.ctx().page_a();
  uint8_t* right_buf = ops.ctx().page_b();
  std::vector<uint8_t> peek_buf(page_size);

  uint64_t changed = 0;
  rdma::RemotePtr prev;  // last live leaf whose direct sibling is `ptr`
  rdma::RemotePtr ptr = first;

  while (!ptr.is_null()) {
    // A failed protocol step aborts the pass; epoch GC retries next epoch.
    if (!(co_await ops.ReadPageUnlocked(ptr, left_buf)).ok()) {
      co_return changed;
    }
    PageView page(left_buf, page_size);

    if (page.is_drained()) {
      // Unlink a drained page when its direct predecessor is a live leaf
      // we tracked (GC is single-threaded, so its sibling is stable).
      const rdma::RemotePtr next(page.right_sibling());
      if (!prev.is_null()) {
        if (!(co_await ops.LockPage(prev, right_buf)).ok()) co_return changed;
        PageView pv(right_buf, page_size);
        if (pv.right_sibling() == ptr.raw()) {
          pv.header().right_sibling = next.raw();
          if (!(co_await ops.WriteUnlockPage(prev, right_buf)).ok()) {
            co_return changed;
          }
          changed++;
        } else {
          if (!(co_await ops.UnlockPage(prev)).ok()) co_return changed;
          prev = rdma::RemotePtr();  // chain changed; re-anchor later
        }
      }
      ptr = next;
      continue;
    }

    // Candidate merge: direct live-leaf successor, combined live entries
    // within budget, no duplicate run straddling the boundary (checked
    // again under the locks in TryMerge).
    const rdma::RemotePtr next(page.right_sibling());
    bool merged = false;
    rdma::RemotePtr replacement;
    bool relinked = false;
    if (!next.is_null()) {
      if (!(co_await ops.ReadPage(next, peek_buf.data())).ok()) {
        co_return changed;
      }
      PageView peek(peek_buf.data(), page_size);
      if (peek.is_leaf() && !peek.is_drained() &&
          !btree::IsLocked(peek.version_word())) {
        uint32_t left_live = 0;
        for (uint32_t i = 0; i < page.count(); ++i) {
          if (!page.LeafIsTombstoned(i)) left_live++;
        }
        uint32_t right_live = 0;
        for (uint32_t i = 0; i < peek.count(); ++i) {
          if (!peek.LeafIsTombstoned(i)) right_live++;
        }
        const uint32_t budget =
            PageView::LeafCapacity(page_size) * max_fill_percent / 100;
        if (left_live + right_live <= budget) {
          merged = co_await TryMerge(ops, prev, ptr, next, &replacement,
                                     &relinked, &changed);
        }
      }
    }
    if (merged) {
      // Continue at the freshly allocated absorber; `prev` is still its
      // direct predecessor iff the relink succeeded.
      if (!relinked) prev = rdma::RemotePtr();
      ptr = replacement;
    } else {
      prev = ptr;
      ptr = next;
    }
  }
  co_return changed;
}

sim::Task<bool> LeafLevel::TryMerge(RemoteOps ops, rdma::RemotePtr prev,
                                    rdma::RemotePtr left,
                                    rdma::RemotePtr right,
                                    rdma::RemotePtr* replacement,
                                    bool* relinked, uint64_t* changed) {
  const uint32_t page_size = ops.page_size();
  uint8_t* left_buf = ops.ctx().page_a();
  uint8_t* right_buf = ops.ctx().page_b();
  *relinked = false;

  // Any Unavailable below means *this* client died: no cleanup is possible
  // (our verbs are dropped); orphaned locks are reclaimed by lease-steal.
  if (!(co_await ops.LockPage(left, left_buf)).ok()) co_return false;
  PageView lv(left_buf, page_size);
  if (!lv.is_leaf() || lv.is_drained() ||
      lv.right_sibling() != right.raw()) {
    (void)co_await ops.UnlockPage(left);
    co_return false;  // the chain moved under us
  }
  if (!(co_await ops.LockPage(right, right_buf)).ok()) {
    (void)co_await ops.UnlockPage(left);
    co_return false;
  }
  PageView rv(right_buf, page_size);
  if (!rv.is_leaf() || rv.is_drained()) {
    (void)co_await ops.UnlockPage(right);
    (void)co_await ops.UnlockPage(left);
    co_return false;
  }

  lv.LeafCompact();
  rv.LeafCompact();
  const uint32_t ln = lv.count();
  const uint32_t rn = rv.count();
  const bool straddle = ln > 0 && rn > 0 &&
                        lv.leaf_entries()[ln - 1].key ==
                            rv.leaf_entries()[0].key;
  if (ln + rn > lv.leaf_capacity() || straddle) {
    (void)co_await ops.UnlockPage(right);
    (void)co_await ops.UnlockPage(left);
    co_return false;
  }

  // Migrate both pages into a fresh round-robin page so repeated merges
  // do not collapse the chain's server scatter (the fine-grained design's
  // whole point).
  const AllocResult fresh_alloc = co_await ops.AllocPageRoundRobin();
  if (!fresh_alloc.ok()) {
    (void)co_await ops.UnlockPage(right);
    (void)co_await ops.UnlockPage(left);
    co_return false;  // merge abandoned; GC retries next epoch
  }
  const rdma::RemotePtr fresh = fresh_alloc.ptr;
  std::vector<uint8_t> image(page_size);
  PageView nv(image.data(), page_size);
  nv.InitLeaf(rv.high_key(), rv.right_sibling());
  btree::KV* ne = nv.leaf_entries();
  for (uint32_t i = 0; i < ln; ++i) ne[i] = lv.leaf_entries()[i];
  for (uint32_t i = 0; i < rn; ++i) ne[ln + i] = rv.leaf_entries()[i];
  nv.header().count = static_cast<uint16_t>(ln + rn);
  // Fresh-page publication (primary + live backups under replication).
  if (!(co_await ops.WriteFreshPage(fresh, image.data())).ok()) {
    co_return false;  // absorber unpublished: harmless leak
  }

  // Publish right first (drained, rerouted to the absorber), then left:
  // any reader entering through either page converges on the absorber, and
  // the scans' monotonic fence cursor de-duplicates the transient overlap.
  rv.header().count = 0;
  rv.header().high_key = 0;
  rv.header().flags |= btree::kDrainedFlag;
  rv.header().right_sibling = fresh.raw();
  if (!(co_await ops.WriteUnlockPage(right, right_buf)).ok()) co_return false;

  lv.header().count = 0;
  lv.header().high_key = 0;
  lv.header().flags |= btree::kDrainedFlag;
  lv.header().right_sibling = fresh.raw();
  if (!(co_await ops.WriteUnlockPage(left, left_buf)).ok()) co_return false;

  // Bypass the drained pair when the tracked predecessor still points at
  // the left page (failure is benign: the chain via the drained pages
  // still reaches the absorber, and a later epoch unlinks them).
  if (!prev.is_null()) {
    const PageReadResult plock = co_await ops.LockPage(prev, right_buf);
    if (!plock.ok()) co_return false;
    PageView pv(right_buf, page_size);
    if (pv.right_sibling() == left.raw()) {
      pv.header().right_sibling = fresh.raw();
      if ((co_await ops.WriteUnlockPage(prev, right_buf)).ok()) {
        *relinked = true;
      }
    } else {
      (void)co_await ops.UnlockPage(prev);
    }
  }

  *replacement = fresh;
  (*changed)++;
  co_return true;
}

sim::Task<uint64_t> LeafLevel::CountChain(RemoteOps ops,
                                          rdma::RemotePtr first,
                                          uint64_t* live_entries,
                                          uint64_t* tombstones) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  uint64_t pages = 0;
  uint64_t live = 0;
  uint64_t dead = 0;
  rdma::RemotePtr ptr = first;
  while (!ptr.is_null()) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) break;  // degraded: report the pages counted so far
    PageView view(buf, page_size);
    pages++;
    for (uint32_t i = 0; i < view.count(); ++i) {
      if (view.LeafIsTombstoned(i)) {
        dead++;
      } else {
        live++;
      }
    }
    ptr = rdma::RemotePtr(view.right_sibling());
  }
  if (live_entries != nullptr) *live_entries = live;
  if (tombstones != nullptr) *tombstones = dead;
  co_return pages;
}

}  // namespace namtree::index
