#include "index/fine_grained.h"

#include <algorithm>

#include "btree/page.h"
#include "rdma/memory_region.h"

namespace namtree::index {

using btree::Key;
using btree::KV;
using btree::Value;

FineGrainedIndex::FineGrainedIndex(nam::Cluster& cluster, IndexConfig config)
    : cluster_(cluster),
      config_(config),
      catalog_slot_(cluster.AllocateCatalogSlot()),
      engine_(cluster.fabric(),
              TraversalEngine::Options{
                  config.page_size,
                  config.client_cache_pages > 0
                      ? TraversalEngine::CacheMode::kInnerImages
                      : TraversalEngine::CacheMode::kNone,
                  config.client_cache_pages, config.speculative_descent}),
      tree_(engine_.AddTree(
          /*alloc_server=*/-1,
          rdma::RemotePtr::Make(
              0, rdma::MemoryRegion::CatalogSlotOffset(catalog_slot_)))) {}

Status FineGrainedIndex::BulkLoad(std::span<const KV> sorted) {
  LeafLevel::BuildResult tree;
  const Status status = LeafLevel::Build(cluster_.fabric(), sorted, config_,
                                         &tree, /*fixed_server=*/-1,
                                         /*inner_levels=*/true);
  if (!status.ok()) return status;
  first_leaf_ = tree.first;
  engine_.SetRoot(tree_, tree.root, tree.root_level, std::move(tree.mirrors));

  // Publish the root in this index's catalog slot (server 0) for remote
  // bootstrap.
  cluster_.fabric().region(0)->WriteU64(
      rdma::MemoryRegion::CatalogSlotOffset(catalog_slot_), tree.root.raw());
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

sim::Task<LookupResult> FineGrainedIndex::Lookup(nam::ClientContext& ctx,
                                                 Key key) {
  metrics::OpSpan span(ctx.trace(), "lookup");
  RemoteOps ops(ctx);
  // Under speculative descent the predicted leaf's image rides the descent
  // batch into page_b (free on this read-only path) and, when confirmed,
  // feeds SearchChain's first iteration — the one-RTT lookup.
  TraversalEngine::DescentPrefetch descent;
  descent.leaf_buf = ctx.page_b();
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, tree_, key, &descent);
  if (leaf.is_null()) {
    co_return LookupResult{false, 0, Status::Unavailable("client crashed")};
  }
  rdma::RemotePtr landed;
  const LookupResult result = co_await LeafLevel::SearchChain(
      ops, leaf, key, descent.leaf_image_valid ? ctx.page_b() : nullptr,
      &landed);
  engine_.RepairRoute(ops, descent, leaf, landed);
  co_return result;
}

sim::Task<void> FineGrainedIndex::MultiGet(nam::ClientContext& ctx,
                                           std::span<const Key> keys,
                                           LookupResult* results) {
  metrics::OpSpan span(ctx.trace(), "multiget");
  RemoteOps ops(ctx);
  // Sort (stably, by key) so chain walks move strictly right, then group
  // consecutive keys whose locally predicted leaf matches: each group costs
  // one descent plus one READ per visited leaf instead of one full lookup
  // per key. Keys the cache cannot place fall back to single lookups.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  size_t i = 0;
  while (i < order.size()) {
    const rdma::RemotePtr predicted =
        engine_.PredictLeaf(ctx.client_id(), tree_, keys[order[i]]);
    size_t j = i + 1;
    if (!predicted.is_null()) {
      while (j < order.size() &&
             engine_.PredictLeaf(ctx.client_id(), tree_, keys[order[j]]) ==
                 predicted) {
        j++;
      }
    }
    if (predicted.is_null() || j == i + 1) {
      results[order[i]] = co_await Lookup(ctx, keys[order[i]]);
      i = j;
      continue;
    }
    std::vector<Key> group(j - i);
    for (size_t k = i; k < j; ++k) group[k - i] = keys[order[k]];
    std::vector<LookupResult> group_results(group.size());
    // A stale prediction can only name a leaf too far left; the chain
    // chase inside SearchChainMulti recovers, exactly as for Lookup.
    // namtree-lint: status-ok(per-key statuses land in group_results)
    (void)co_await LeafLevel::SearchChainMulti(ops, predicted, group,
                                               group_results.data());
    for (size_t k = i; k < j; ++k) {
      results[order[k]] = group_results[k - i];
    }
    i = j;
  }
}

sim::Task<uint64_t> FineGrainedIndex::Scan(nam::ClientContext& ctx, Key lo,
                                           Key hi, std::vector<KV>* out,
                                           Status* status) {
  metrics::OpSpan span(ctx.trace(), "scan");
  RemoteOps ops(ctx);
  // The level-1 image the descent routed through is the scan's prefetch
  // directory (page_b is free on this read-only path).
  TraversalEngine::DescentPrefetch descent;
  descent.parent_buf = ctx.page_b();
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, tree_, lo, &descent);
  if (leaf.is_null()) {
    if (status != nullptr) *status = Status::Unavailable("client crashed");
    co_return 0;
  }
  LeafLevel::ParentDirectory directory(ctx.page_b(), config_.page_size);
  co_return co_await LeafLevel::ScanChain(
      ops, leaf, lo, hi, out, status,
      descent.parent_valid ? &directory : nullptr);
}

sim::Task<Status> FineGrainedIndex::Insert(nam::ClientContext& ctx, Key key,
                                           Value value) {
  metrics::OpSpan span(ctx.trace(), "insert");
  RemoteOps ops(ctx);
  TraversalEngine::DescentPrefetch descent;
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, tree_, key, &descent);
  if (leaf.is_null()) co_return Status::Unavailable("client crashed");
  LeafLevel::SplitInfo split;
  rdma::RemotePtr landed;
  const Status status = co_await LeafLevel::InsertAt(
      ops, leaf, key, value, &split, /*alloc_server=*/-1, &landed);
  // Before the separator install, which seeds the level-1 image it writes.
  engine_.RepairRoute(ops, descent, leaf, landed);
  if (!status.ok()) co_return status;
  if (split.split) {
    // The left page of the split is the page InsertAt actually modified;
    // it may differ from `leaf` after chain chases, but the separator
    // install only needs (sep, right).
    co_return co_await engine_.InstallSeparator(ops, tree_, 1,
                                                split.separator, leaf,
                                                split.right);
  }
  co_return Status::OK();
}

sim::Task<Status> FineGrainedIndex::Update(nam::ClientContext& ctx, Key key,
                                           Value value) {
  metrics::OpSpan span(ctx.trace(), "update");
  RemoteOps ops(ctx);
  TraversalEngine::DescentPrefetch descent;
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, tree_, key, &descent);
  if (leaf.is_null()) co_return Status::Unavailable("client crashed");
  rdma::RemotePtr landed;
  const Status status =
      co_await LeafLevel::UpdateAt(ops, leaf, key, value, &landed);
  engine_.RepairRoute(ops, descent, leaf, landed);
  co_return status;
}

sim::Task<uint64_t> FineGrainedIndex::LookupAll(nam::ClientContext& ctx,
                                                Key key,
                                                std::vector<Value>* out) {
  metrics::OpSpan span(ctx.trace(), "lookup_all");
  RemoteOps ops(ctx);
  TraversalEngine::DescentPrefetch descent;
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, tree_, key, &descent);
  if (leaf.is_null()) co_return 0;
  rdma::RemotePtr landed;
  const uint64_t found =
      co_await LeafLevel::CollectAt(ops, leaf, key, out, &landed);
  engine_.RepairRoute(ops, descent, leaf, landed);
  co_return found;
}

sim::Task<Status> FineGrainedIndex::Delete(nam::ClientContext& ctx, Key key) {
  metrics::OpSpan span(ctx.trace(), "delete");
  RemoteOps ops(ctx);
  TraversalEngine::DescentPrefetch descent;
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, tree_, key, &descent);
  if (leaf.is_null()) co_return Status::Unavailable("client crashed");
  rdma::RemotePtr landed;
  const Status status = co_await LeafLevel::DeleteAt(ops, leaf, key, &landed);
  engine_.RepairRoute(ops, descent, leaf, landed);
  co_return status;
}

sim::Task<uint64_t> FineGrainedIndex::GarbageCollect(nam::ClientContext& ctx) {
  // The global epoch GC runs from a compute server using the same
  // one-sided lock protocol as writers (§4.2): leaf compaction first, then
  // rebalancing.
  RemoteOps ops(ctx);
  uint64_t reclaimed = co_await LeafLevel::CompactChain(ops, first_leaf_);
  if (config_.gc_merge_fill_percent > 0) {
    // Page merges/unlinks are counted separately from entry reclaims.
    (void)co_await LeafLevel::RebalanceChain(ops, first_leaf_,
                                             config_.gc_merge_fill_percent);
  }
  co_return reclaimed;
}

sim::Task<Status> FineGrainedIndex::BootstrapFromCatalog(
    nam::ClientContext& ctx) {
  RemoteOps ops(ctx);
  co_return co_await engine_.BootstrapFromCatalog(ops, tree_);
}

}  // namespace namtree::index
