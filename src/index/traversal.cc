#include "index/traversal.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace namtree::index {

using btree::Key;
using btree::kInfinityKey;
using btree::PageView;

uint32_t TraversalEngine::AddTree(int32_t alloc_server,
                                  rdma::RemotePtr catalog_ptr) {
  Tree tree;
  tree.alloc_server = alloc_server;
  tree.catalog_ptr = catalog_ptr;
  trees_.push_back(tree);
  return static_cast<uint32_t>(trees_.size() - 1);
}

void TraversalEngine::SetRoot(uint32_t tree, rdma::RemotePtr root,
                              uint8_t root_level,
                              std::vector<rdma::RemotePtr> mirrors) {
  trees_[tree].root = root;
  trees_[tree].root_level = root_level;
  trees_[tree].mirrors = std::move(mirrors);
}

NodeCache* TraversalEngine::CacheFor(uint32_t client_id) {
  if (opts_.cache_pages == 0) return nullptr;
  const uint32_t machine = fabric_.ClientMachine(client_id);
  auto it = caches_.find(machine);
  if (it == caches_.end()) {
    auto cache =
        std::make_unique<NodeCache>(opts_.page_size, opts_.cache_pages);
    cache->RegisterMetrics(fabric_.metrics(),
                           {{"machine", std::to_string(machine)}});
    it = caches_.emplace(machine, std::move(cache)).first;
  }
  return it->second.get();
}

rdma::RemotePtr TraversalEngine::HopTarget(nam::ClientContext& ctx,
                                           uint32_t tree,
                                           rdma::RemotePtr ptr) const {
  const Tree& t = trees_[tree];
  if (t.mirrors.empty() || ptr != t.root) return ptr;
  // A co-located client reads the copy on its own machine; the others
  // spread the root's READs evenly over the servers by client id. The
  // root's own server has no mirror and serves its share from the root.
  const uint32_t servers = static_cast<uint32_t>(t.mirrors.size());
  const uint32_t client = ctx.client_id();
  uint32_t home = client % servers;
  for (uint32_t s = 0; s < servers; ++s) {
    if (fabric_.IsLocal(client, s) && fabric_.ServerAlive(s)) {
      home = s;
      break;
    }
  }
  if (home == t.root.server_id()) return ptr;
  // A dead server's share moves to the next live mirror in descending
  // server order, never to the root's server. Descending, because under
  // replication the dead server's pages fail over to the next server up
  // (Fabric::ReplicaPtr), which must not take its root hops too.
  for (uint32_t i = 0; i < servers; ++i) {
    const rdma::RemotePtr mirror = t.mirrors[(home + servers - i) % servers];
    if (!mirror.is_null() && fabric_.ServerAlive(mirror.server_id())) {
      return mirror;
    }
  }
  return ptr;
}

sim::Task<PageReadResult> TraversalEngine::ReadHop(RemoteOps& ops,
                                                   uint32_t tree,
                                                   rdma::RemotePtr ptr,
                                                   uint8_t level,
                                                   uint8_t* buf) {
  const rdma::RemotePtr mirror = HopTarget(ops.ctx(), tree, ptr);
  if (mirror != ptr && trees_[tree].root_level > level) {
    // One READ, never a spin: a mirror is locked only while a refresher
    // writes it, and the primary root serves this hop meanwhile.
    const Status read = co_await ops.ReadPage(mirror, buf);
    if (!ops.alive()) {
      co_return PageReadResult{Status::Unavailable("client crashed"), 0};
    }
    if (read.ok() && ops.fabric().ServerAlive(mirror.server_id())) {
      uint64_t word;
      std::memcpy(&word, buf + btree::kVersionOffset, 8);
      if (!btree::IsLocked(word) &&
          PageView(buf, ops.page_size()).level() > level) {
        co_return PageReadResult{Status::OK(), word};
      }
    }
  }
  co_return co_await ops.ReadPageUnlocked(ptr, buf);
}

sim::Task<void> TraversalEngine::RefreshMirrors(RemoteOps& ops,
                                                uint32_t tree) {
  if (trees_[tree].mirrors.empty()) co_return;
  std::vector<uint8_t> image(ops.page_size());
  for (const rdma::RemotePtr mirror : trees_[tree].mirrors) {
    if (mirror.is_null() || !ops.fabric().ServerAlive(mirror.server_id())) {
      continue;  // readers skip a dead server's mirror
    }
    const PageReadResult lock = co_await ops.LockPage(mirror, image.data());
    if (!lock.ok()) {
      if (!ops.alive()) co_return;
      continue;
    }
    // The root is read only now, under the mirror's lock: a refresher that
    // locks after another publication reads that publication too.
    const PageReadResult root =
        co_await ops.ReadPageUnlocked(trees_[tree].root, image.data());
    if (!root.ok()) {
      if (!ops.alive()) co_return;
      // namtree-lint: status-ok(a stale mirror only costs routing hops)
      (void)co_await ops.UnlockPage(mirror);
      continue;
    }
    ops.StampLocked(image.data(), lock.version);
    // namtree-lint: status-ok(a stale mirror only costs routing hops)
    (void)co_await ops.WriteUnlockPage(mirror, image.data());
    if (!ops.alive()) co_return;
  }
}

void TraversalEngine::SeedPublishedImage(NodeCache* cache,
                                         rdma::RemotePtr ptr, uint8_t* buf) {
  // The local image still carries the locked word this client stamped;
  // patch it to the post-release version (unlock adds 2) so the cached
  // copy matches what the next remote read would observe.
  uint64_t word;
  std::memcpy(&word, buf + btree::kVersionOffset, 8);
  const uint64_t unlocked = btree::VersionOf(word) + 2;
  std::memcpy(buf + btree::kVersionOffset, &unlocked, 8);
  cache->Put(ptr.raw(), buf);
}

sim::Task<void> TraversalEngine::SpeculatePath(RemoteOps& ops, uint32_t tree,
                                               Key key, NodeCache* cache,
                                               DescentPrefetch* prefetch,
                                               SpecState* spec) {
  const uint32_t page = opts_.page_size;
  spec->predicted_leaf =
      WalkCached(*cache, trees_[tree].root, trees_[tree].root_level, key,
                 &spec->frontier, &spec->predicted);
  if (!spec->predicted_leaf.is_null()) {
    spec->predicted.push_back(spec->predicted_leaf.raw());
    spec->complete = true;
  } else if (spec->frontier.is_null()) {
    co_return;  // garbage route or cycle trip: abandon speculation
  }

  spec->attempted = true;
  const bool want_leaf =
      spec->complete && prefetch != nullptr && prefetch->leaf_buf != nullptr;
  if (spec->frontier.is_null() && !want_leaf) co_return;  // warm-cache path

  // One doorbell: the first predicted page missing from the cache (read
  // from the client's mirror when it is the root), or the leaf of a
  // complete prediction.
  std::vector<RemoteOps::ChainOp> reqs;
  if (want_leaf) {
    reqs.push_back(RemoteOps::ChainOp::Read(spec->predicted_leaf,
                                            prefetch->leaf_buf, page));
    spec->leaf_in_batch = true;
  } else {
    spec->frontier_read = HopTarget(ops.ctx(), tree, spec->frontier);
    spec->frontier_image.resize(page);
    reqs.push_back(RemoteOps::ChainOp::Read(
        spec->frontier_read, spec->frontier_image.data(), page));
  }
  if (!(co_await ops.ReadPagesBatch(std::move(reqs))).ok()) co_return;

  // Accept the frontier only from a live target server, unlocked (and a
  // mirror only with an inner image, as ReadHop does). A locked or dropped
  // image is simply not used — validation falls back to a real read there,
  // which fails over under replication.
  if (!spec->frontier.is_null() &&
      ops.fabric().ServerAlive(spec->frontier_read.server_id())) {
    uint8_t* image = spec->frontier_image.data();
    uint64_t word;
    std::memcpy(&word, image + btree::kVersionOffset, 8);
    spec->frontier_valid =
        !btree::IsLocked(word) && (spec->frontier_read == spec->frontier ||
                                   PageView(image, page).level() >= 1);
  }
}

rdma::RemotePtr TraversalEngine::WalkCached(
    const NodeCache& cache, rdma::RemotePtr root, uint8_t root_level, Key key,
    rdma::RemotePtr* frontier, std::vector<uint64_t>* visited,
    rdma::RemotePtr* parent) const {
  rdma::RemotePtr ptr = root;
  // Hop budget: a healthy path is root_level hops and staleness adds a few
  // chases; a cyclic stale-fence walk trips the budget.
  const size_t max_hops = static_cast<size_t>(root_level) * 2 + 8;
  // namtree-lint: bounded-loop(local cache walk: hop budget max_hops)
  for (size_t hop = 0; hop < max_hops; ++hop) {
    if (ptr.is_null()) return rdma::RemotePtr::Null();  // garbage route
    if (visited != nullptr) visited->push_back(ptr.raw());
    const uint8_t* img = cache.Peek(ptr.raw());
    // A leaf image under an inner-path pointer (stale root metadata) is a
    // frontier too: validation sorts it out.
    if (img == nullptr ||
        PageView(const_cast<uint8_t*>(img), opts_.page_size).level() == 0) {
      if (frontier != nullptr) *frontier = ptr;
      return rdma::RemotePtr::Null();
    }
    PageView v(const_cast<uint8_t*>(img), opts_.page_size);
    if (v.NeedsChase(key)) {
      ptr = rdma::RemotePtr(v.right_sibling());
      continue;
    }
    const rdma::RemotePtr child(v.InnerChildFor(key));
    if (v.level() == 1) {
      if (parent != nullptr) *parent = ptr;
      return child;  // null: garbage
    }
    ptr = child;
  }
  return rdma::RemotePtr::Null();
}

rdma::RemotePtr TraversalEngine::PredictLeaf(uint32_t client_id,
                                             uint32_t tree, Key key) const {
  if (opts_.cache_pages == 0) return rdma::RemotePtr::Null();
  if (trees_[tree].root_level == 0) return trees_[tree].root;
  auto it = caches_.find(fabric_.ClientMachine(client_id));
  if (it == caches_.end()) return rdma::RemotePtr::Null();
  return WalkCached(*it->second, trees_[tree].root, trees_[tree].root_level,
                    key, nullptr, nullptr);
}

rdma::RemotePtr TraversalEngine::PredictLeaf(uint32_t client_id,
                                             rdma::RemotePtr root,
                                             Key key) const {
  auto it = caches_.find(fabric_.ClientMachine(client_id));
  if (it == caches_.end()) return rdma::RemotePtr::Null();
  const uint8_t* image = it->second->Peek(root.raw());
  if (image == nullptr) return rdma::RemotePtr::Null();
  const uint8_t level =
      PageView(const_cast<uint8_t*>(image), opts_.page_size).level();
  return WalkCached(*it->second, root, level, key, nullptr, nullptr);
}

rdma::RemotePtr TraversalEngine::ResolveCached(uint32_t client_id,
                                               rdma::RemotePtr root, Key key,
                                               DescentPrefetch* descent,
                                               rdma::RemotePtr* frontier) {
  *frontier = root;
  NodeCache* cache = CacheFor(client_id);
  if (cache == nullptr) return rdma::RemotePtr::Null();
  const uint8_t* image = cache->Peek(root.raw());
  rdma::RemotePtr leaf;
  std::vector<uint64_t> visited;
  if (image != nullptr) {
    *frontier = rdma::RemotePtr::Null();
    const uint8_t level =
        PageView(const_cast<uint8_t*>(image), opts_.page_size).level();
    leaf = WalkCached(*cache, root, level, key, frontier, &visited,
                      &descent->parent);
  }
  if (leaf.is_null()) {
    if (!frontier->is_null()) (void)cache->Get(frontier->raw());  // the miss
    return leaf;
  }
  // A resolved route touches (and counts) every page it walked, as a
  // descent through the cache does.
  for (const uint64_t page : visited) (void)cache->Get(page);
  return leaf;
}

sim::Task<rdma::RemotePtr> TraversalEngine::DescendToLeaf(
    RemoteOps& ops, uint32_t tree, Key key, DescentPrefetch* prefetch) {
  if (prefetch != nullptr) {
    prefetch->leaf_image_valid = false;
    prefetch->parent_valid = false;
    prefetch->parent = rdma::RemotePtr::Null();
  }
  rdma::RemotePtr ptr = trees_[tree].root;
  if (trees_[tree].root_level == 0) co_return ptr;  // single-leaf tree
  uint8_t* buf = ops.ctx().page_a();
  NodeCache* cache = CacheFor(ops.ctx().client_id());

  // Speculative path prefetch (Options::speculative_descent): predict the
  // whole path from cached images, batch the first missing page (or the
  // leaf) in one RTT, then let the loop below validate top-down — it
  // consumes the batch image in place of a remote read and degrades to the
  // plain level-by-level descent from the first hop speculation cannot
  // serve.
  SpecState spec;
  if (opts_.speculative_descent && cache != nullptr) {
    co_await SpeculatePath(ops, tree, key, cache, prefetch, &spec);
    if (!ops.alive()) co_return rdma::RemotePtr::Null();
  }

  rdma::RemotePtr leaf;
  // The inner page whose image routed the descent down to `ptr` (null at
  // the root and after a chase).
  rdma::RemotePtr chose;
  bool fallback_read = false;  // a predicted hop needed a real read
  // namtree-lint: bounded-loop(blink-descent: every step moves down a level or right along ascending fences; read failures exit)
  for (;;) {
    // A.4 caching: inner-node images may come from the machine's cache; a
    // stale image can only route us too far left, which the B-link chase
    // at the next level (or leaf chain) corrects. The cache is consulted
    // *before* the speculative batch — the exact order of the plain loop,
    // so hit/miss accounting and LRU motion are bit-identical with
    // speculation on (pinned by the Peek regression test). No image
    // pointer outlives its iteration: the only await is the remote read.
    const uint8_t* image = nullptr;
    bool fresh_from_batch = false;
    if (cache != nullptr) image = cache->Get(ptr.raw());
    if (image == nullptr && spec.frontier_valid && ptr == spec.frontier) {
      image = spec.frontier_image.data();
      fresh_from_batch = true;
    }
    if (image == nullptr) {
      const PageReadResult read = co_await ReadHop(ops, tree, ptr, 0, buf);
      if (!read.ok()) co_return rdma::RemotePtr::Null();
      image = buf;
      if (spec.attempted &&
          (spec.complete ||
           std::find(spec.predicted.begin(), spec.predicted.end(),
                     ptr.raw()) != spec.predicted.end())) {
        // Below an incomplete prediction's frontier real reads are the
        // plan, not a mispredict; on a predicted hop (or anywhere under a
        // complete prediction) they mean speculation failed here.
        fallback_read = true;
      }
    }
    PageView view(const_cast<uint8_t*>(image), ops.page_size());
    if (cache != nullptr && (image == buf || fresh_from_batch) &&
        view.level() >= 1) {
      // A remote read (or the batched read substituting for it) seeds the
      // cache.
      cache->Put(ptr.raw(), image);
    }
    if (view.level() == 0) {
      // Stale root metadata can land us on a leaf; hand it to the caller.
      leaf = ptr;
      break;
    }
    if (view.NeedsChase(key)) {
      ptr = rdma::RemotePtr(view.right_sibling());
      // The image that routed us here predates a split of this node: drop
      // it so the next descent for these keys re-reads that page.
      if (cache != nullptr && !chose.is_null()) cache->Invalidate(chose.raw());
      chose = rdma::RemotePtr::Null();
      continue;
    }
    const rdma::RemotePtr child(view.InnerChildFor(key));
    if (view.level() == 1) {
      leaf = child;
      if (prefetch != nullptr) {
        prefetch->parent = ptr;
        if (prefetch->parent_buf != nullptr) {
          std::memcpy(prefetch->parent_buf, image, ops.page_size());
          prefetch->parent_valid = true;
        }
      }
      break;
    }
    chose = ptr;
    ptr = child;
  }

  if (spec.attempted) {
    bool leaf_usable = false;
    if (spec.leaf_in_batch && leaf == spec.predicted_leaf &&
        ops.fabric().ServerAlive(leaf.server_id())) {
      uint64_t word;
      std::memcpy(&word, prefetch->leaf_buf + btree::kVersionOffset, 8);
      leaf_usable = !btree::IsLocked(word);
    }
    const bool mispredicted = fallback_read ||
                              (spec.complete && leaf != spec.predicted_leaf) ||
                              (spec.leaf_in_batch && !leaf_usable);
    if (mispredicted) {
      ops.ctx().mispredicts.Inc();
    } else if (spec.complete) {
      ops.ctx().speculative_hits.Inc();
    }
    if (leaf_usable) prefetch->leaf_image_valid = true;
  }
  co_return leaf;
}

void TraversalEngine::RepairRoute(RemoteOps& ops,
                                  const DescentPrefetch& descent,
                                  rdma::RemotePtr leaf,
                                  rdma::RemotePtr landed) {
  if (landed == leaf || descent.parent.is_null()) return;
  NodeCache* cache = CacheFor(ops.ctx().client_id());
  if (cache != nullptr) cache->Invalidate(descent.parent.raw());
}

sim::Task<bool> TraversalEngine::TryGrowRoot(RemoteOps& ops, uint32_t tree,
                                             uint8_t new_level, Key sep,
                                             rdma::RemotePtr left,
                                             rdma::RemotePtr right) {
  // A mirrored tree keeps its root on the one server without a mirror, so
  // the root's READs stay spread evenly after it grows.
  AllocResult alloc;
  if (trees_[tree].mirrors.empty()) {
    alloc = co_await ops.AllocPageOn(trees_[tree].alloc_server);
  } else {
    alloc = co_await ops.AllocPage(trees_[tree].root.server_id());
  }
  if (!alloc.ok()) co_return true;  // give up silently: tree valid
  const rdma::RemotePtr new_root = alloc.ptr;
  std::vector<uint8_t> image(ops.page_size());
  PageView view(image.data(), ops.page_size());
  view.InitInner(new_level, kInfinityKey, 0);
  view.inner_keys()[0] = sep;
  view.inner_children()[0] = left.raw();
  view.inner_children()[1] = right.raw();
  view.header().count = 1;
  // Fresh-page publication (primary + live backups under replication); a
  // dropped root-image write must not be published: give up, tree valid.
  const Status published = co_await ops.WriteFreshPage(new_root, image.data());
  if (!published.ok()) co_return true;
  // Publish through the catalog. The check-and-update happens atomically in
  // virtual time (no awaits in between), mirroring a catalog-service CAS.
  if (trees_[tree].root != left) co_return false;  // somebody else grew it
  trees_[tree].root = new_root;
  trees_[tree].root_level = new_level;
  if (!trees_[tree].catalog_ptr.is_null()) {
    // A dropped catalog write (dead client) is sound: the in-memory root
    // already moved, and bootstrapping clients re-read the slot anyway.
    // namtree-lint: status-ok(catalog publication is best-effort)
    (void)co_await ops.WriteWord(trees_[tree].catalog_ptr, new_root.raw());
  }
  co_await RefreshMirrors(ops, tree);
  co_return true;
}

sim::Task<Status> TraversalEngine::InstallSeparator(RemoteOps& ops,
                                                    uint32_t tree,
                                                    uint8_t level, Key sep,
                                                    rdma::RemotePtr left,
                                                    rdma::RemotePtr right) {
  uint8_t* buf = ops.ctx().page_a();
  // Bounded: every pass makes B-link progress or propagates a failure
  // status. namtree-lint: bounded-loop(blink-restart)
  for (;;) {
    if (trees_[tree].root_level < level) {
      if (co_await TryGrowRoot(ops, tree, level, sep, left, right)) {
        co_return ops.alive() ? Status::OK()
                              : Status::Unavailable("client crashed");
      }
      continue;
    }
    // Descend to the target level for `sep`.
    rdma::RemotePtr ptr = trees_[tree].root;
    bool restart = false;
    NodeCache* cache = CacheFor(ops.ctx().client_id());
    // namtree-lint: bounded-loop(blink-descent)
    for (;;) {
      // A.4 caching on the install descent: hops *above* the target level
      // may come from the machine's cache (a stale image only routes too
      // far left, and the B-link chase corrects that). The target node
      // itself always takes a fresh read — its version word seeds the lock
      // CAS.
      if (cache != nullptr) {
        const uint8_t* image = cache->Get(ptr.raw());
        if (image != nullptr) {
          PageView cview(const_cast<uint8_t*>(image), ops.page_size());
          if (cview.level() > level) {
            if (cview.NeedsChase(sep)) {
              ptr = rdma::RemotePtr(cview.right_sibling());
            } else {
              ptr = rdma::RemotePtr(cview.InnerChildFor(sep));
            }
            continue;
          }
        }
      }
      const PageReadResult read = co_await ReadHop(ops, tree, ptr, level, buf);
      if (!read.ok()) co_return read.status;
      PageView view(buf, ops.page_size());
      if (view.level() < level) {
        // Stale root below the target level: re-check the catalog state.
        restart = true;
        break;
      }
      if (view.level() > level) {
        if (cache != nullptr) {
          cache->Put(ptr.raw(), buf);
        }
        if (view.NeedsChase(sep)) {
          ptr = rdma::RemotePtr(view.right_sibling());
          continue;
        }
        ptr = rdma::RemotePtr(view.InnerChildFor(sep));
        continue;
      }
      // At the target level: chase, then lock.
      if (view.NeedsChase(sep)) {
        ptr = rdma::RemotePtr(view.right_sibling());
        continue;
      }
      const Status lock = co_await ops.TryLockPage(ptr, read.version);
      if (!lock.ok()) {
        if (!lock.IsAborted()) co_return lock;
        ops.ctx().restarts.Inc();
        continue;  // lost the CAS race: re-read this node
      }
      ops.StampLocked(buf, read.version);

      // Re-validate the range under the lock (version pinned by the CAS).
      if (view.InnerInsert(sep, right.raw())) {
        const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
        if (wu.IsAborted()) {
          // The locked acting primary died mid-publication (R>1): the lock
          // evaporated with it; retry against the promoted replica.
          ops.ctx().restarts.Inc();
          continue;
        }
        if (!wu.ok()) co_return wu;
        if (cache != nullptr) {
          // Seed the cache with the image we just published: the next
          // descent routes through this node with zero remote reads.
          SeedPublishedImage(cache, ptr, buf);
        }
        if (ptr == trees_[tree].root) co_await RefreshMirrors(ops, tree);
        co_return Status::OK();
      }
      // Full: split this inner node and recurse with the promoted key.
      const AllocResult alloc =
          co_await ops.AllocPageOn(trees_[tree].alloc_server);
      if (!alloc.ok()) {
        if (!ops.alive()) co_return Status::Unavailable("client crashed");
        (void)co_await ops.UnlockPage(ptr);
        if (alloc.status.IsOutOfMemory()) {
          co_return Status::OK();  // OOM; separator uninstalled (B-link safe)
        }
        co_return alloc.status;  // dead allocation pool: surface it
      }
      const rdma::RemotePtr new_right = alloc.ptr;
      std::vector<uint8_t> rimage(ops.page_size());
      PageView rview(rimage.data(), ops.page_size());
      const Key promoted = view.SplitInnerInto(rview, new_right.raw());
      PageView target = sep < promoted ? view : rview;
      const bool ok = target.InnerInsert(sep, right.raw());
      assert(ok);
      (void)ok;
      // One chained {right WRITE, left WRITE, unlock} publication; a crash
      // drops the unexecuted tail, orphans the lock on `ptr` (lease-steal
      // reclaims it) and leaks the unpublished right node — both sound.
      const Status wu = co_await ops.WriteSiblingAndUnlockPage(
          new_right, rimage.data(), ptr, buf);
      if (wu.IsAborted()) {
        // Locked primary died mid-split-publication: the promoted replica
        // still shows the pre-split image and the lock evaporated. The
        // allocated right node leaks (unreachable) — retry the pass.
        ops.ctx().restarts.Inc();
        continue;
      }
      if (!wu.ok()) co_return wu;
      if (cache != nullptr) {
        // Seed both halves of the split with their freshly published
        // images (left patched to the post-release version word).
        SeedPublishedImage(cache, ptr, buf);
        cache->Put(new_right.raw(), rimage.data());
      }
      if (ptr == trees_[tree].root) co_await RefreshMirrors(ops, tree);
      co_return co_await InstallSeparator(
          ops, tree, static_cast<uint8_t>(level + 1), promoted, ptr,
          new_right);
    }
    if (restart) continue;
  }
}

sim::Task<Status> TraversalEngine::BootstrapFromCatalog(RemoteOps& ops,
                                                        uint32_t tree) {
  if (trees_[tree].catalog_ptr.is_null()) {
    co_return Status::Unsupported("tree has no catalog slot");
  }
  uint64_t raw = 0;
  const Status word = co_await ops.ReadWord(trees_[tree].catalog_ptr, &raw);
  if (!word.ok()) co_return word;
  if (!ops.fabric().ServerAlive(trees_[tree].catalog_ptr.server_id())) {
    // Catalog slots live in the (unreplicated) region header.
    co_return Status::Unavailable("catalog host dead");
  }
  const rdma::RemotePtr root(raw);
  if (root.is_null()) co_return Status::NotFound("catalog slot empty");
  // Learn the root's level from its page header.
  const Status read = co_await ops.ReadPage(root, ops.ctx().page_a());
  if (!read.ok()) co_return read;
  PageView view(ops.ctx().page_a(), ops.page_size());
  trees_[tree].root = root;
  trees_[tree].root_level = view.level();
  co_return Status::OK();
}

}  // namespace namtree::index
