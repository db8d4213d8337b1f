#include "index/coarse_one_sided.h"

#include <algorithm>

#include "btree/page.h"
#include "rdma/memory_region.h"

namespace namtree::index {

using btree::Key;
using btree::KV;
using btree::Value;

CoarseOneSidedIndex::CoarseOneSidedIndex(nam::Cluster& cluster,
                                         IndexConfig config)
    : cluster_(cluster),
      config_(config),
      partitioner_(config.partition, cluster.num_memory_servers()),
      catalog_slot_(cluster.AllocateCatalogSlot()),
      engine_(cluster.fabric(),
              TraversalEngine::Options{
                  config.page_size,
                  config.client_cache_pages > 0
                      ? TraversalEngine::CacheMode::kInnerImages
                      : TraversalEngine::CacheMode::kNone,
                  config.client_cache_pages, config.speculative_descent}) {
  // One engine tree per partition: splits allocate on the partition's
  // server and the root is published in that server's catalog slot.
  for (uint32_t s = 0; s < cluster.num_memory_servers(); ++s) {
    engine_.AddTree(
        static_cast<int32_t>(s),
        rdma::RemotePtr::Make(
            s, rdma::MemoryRegion::CatalogSlotOffset(catalog_slot_)));
  }
}

Status CoarseOneSidedIndex::BulkLoad(std::span<const KV> sorted) {
  partitioner_.FitBoundaries(sorted, config_.partition_weights);
  const uint32_t servers = cluster_.num_memory_servers();

  std::vector<std::vector<KV>> scattered;
  std::vector<std::span<const KV>> slices(servers);
  if (partitioner_.kind() == PartitionKind::kHash) {
    scattered.resize(servers);
    for (const KV& kv : sorted) {
      scattered[partitioner_.ServerFor(kv.key)].push_back(kv);
    }
    for (uint32_t s = 0; s < servers; ++s) slices[s] = scattered[s];
  } else {
    size_t begin = 0;
    for (uint32_t s = 0; s < servers; ++s) {
      const Key upper = partitioner_.UpperBoundOf(s);
      size_t end = begin;
      while (end < sorted.size() && sorted[end].key < upper) end++;
      slices[s] = sorted.subspan(begin, end - begin);
      begin = end;
    }
  }

  first_leaves_.assign(servers, rdma::RemotePtr());
  for (uint32_t s = 0; s < servers; ++s) {
    LeafLevel::BuildResult tree;
    const Status status =
        LeafLevel::Build(cluster_.fabric(), slices[s], config_, &tree,
                         static_cast<int32_t>(s), /*inner_levels=*/true);
    if (!status.ok()) return status;
    first_leaves_[s] = tree.first;
    engine_.SetRoot(s, tree.root, tree.root_level);
    // Publish each partition root in this index's catalog slot.
    cluster_.fabric().region(s)->WriteU64(
        rdma::MemoryRegion::CatalogSlotOffset(catalog_slot_), tree.root.raw());
  }
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

sim::Task<LookupResult> CoarseOneSidedIndex::Lookup(nam::ClientContext& ctx,
                                                    Key key) {
  metrics::OpSpan span(ctx.trace(), "lookup");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  // As in FG: the predicted leaf rides the speculative-descent batch into
  // page_b and feeds SearchChain's first iteration when confirmed.
  TraversalEngine::DescentPrefetch descent;
  descent.leaf_buf = ctx.page_b();
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, server, key, &descent);
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

sim::Task<void> CoarseOneSidedIndex::MultiGet(nam::ClientContext& ctx,
                                              std::span<const Key> keys,
                                              LookupResult* results) {
  metrics::OpSpan span(ctx.trace(), "multiget");
  RemoteOps ops(ctx);
  // Sort, then group consecutive keys by locally predicted leaf within
  // their partition tree; each group is one chain walk. Prediction never
  // crosses partitions: ServerFor pins the tree, and PredictLeaf only
  // groups keys that resolve to the same leaf of the same tree.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  size_t i = 0;
  while (i < order.size()) {
    const uint32_t server = partitioner_.ServerFor(keys[order[i]]);
    const rdma::RemotePtr predicted =
        engine_.PredictLeaf(ctx.client_id(), server, keys[order[i]]);
    size_t j = i + 1;
    if (!predicted.is_null()) {
      while (j < order.size() &&
             partitioner_.ServerFor(keys[order[j]]) == server &&
             engine_.PredictLeaf(ctx.client_id(), server, keys[order[j]]) ==
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
    // namtree-lint: status-ok(per-key statuses land in group_results)
    (void)co_await LeafLevel::SearchChainMulti(ops, predicted, group,
                                               group_results.data());
    for (size_t k = i; k < j; ++k) {
      results[order[k]] = group_results[k - i];
    }
    i = j;
  }
}

sim::Task<uint64_t> CoarseOneSidedIndex::Scan(nam::ClientContext& ctx, Key lo,
                                              Key hi, std::vector<KV>* out,
                                              Status* status) {
  metrics::OpSpan span(ctx.trace(), "scan");
  if (status != nullptr) *status = Status::OK();
  // Partition chains are per-server; visit every partition intersecting
  // the range (all of them under hash partitioning, Table 2).
  RemoteOps ops(ctx);
  uint64_t found = 0;
  std::vector<KV> merged;
  const bool hash = partitioner_.kind() == PartitionKind::kHash;
  for (uint32_t server : partitioner_.ServersFor(lo, hi)) {
    std::vector<KV>* sink = out == nullptr ? nullptr : (hash ? &merged : out);
    // As in FG: the descent's level-1 image is the prefetch directory.
    TraversalEngine::DescentPrefetch descent;
    descent.parent_buf = ctx.page_b();
    const rdma::RemotePtr leaf =
        co_await engine_.DescendToLeaf(ops, server, lo, &descent);
    if (leaf.is_null()) {  // dead client: report the partial count
      if (status != nullptr) *status = Status::Unavailable("client crashed");
      break;
    }
    // Later partitions may still be reachable after one chain degrades, so
    // keep going for the best-effort count but report the first failure
    // (kTimedOut vs kUnavailable matters to the YCSB FailureBreakdown).
    Status chain_status;
    LeafLevel::ParentDirectory directory(ctx.page_b(), config_.page_size);
    found += co_await LeafLevel::ScanChain(
        ops, leaf, lo, hi, sink, &chain_status,
        descent.parent_valid ? &directory : nullptr);
    if (!chain_status.ok() && status != nullptr && status->ok()) {
      *status = chain_status;
    }
  }
  if (out != nullptr && hash) {
    std::stable_sort(merged.begin(), merged.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
    out->insert(out->end(), merged.begin(), merged.end());
  }
  co_return found;
}

sim::Task<Status> CoarseOneSidedIndex::Insert(nam::ClientContext& ctx,
                                              Key key, Value value) {
  metrics::OpSpan span(ctx.trace(), "insert");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  TraversalEngine::DescentPrefetch descent;
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, server, key, &descent);
  if (leaf.is_null()) co_return Status::Unavailable("client crashed");
  LeafLevel::SplitInfo split;
  rdma::RemotePtr landed;
  const Status status = co_await LeafLevel::InsertAt(
      ops, leaf, key, value, &split, static_cast<int32_t>(server), &landed);
  // Before the separator install, which seeds the level-1 image it writes.
  engine_.RepairRoute(ops, descent, leaf, landed);
  if (!status.ok()) co_return status;
  if (split.split) {
    co_return co_await engine_.InstallSeparator(ops, server, 1,
                                                split.separator, leaf,
                                                split.right);
  }
  co_return Status::OK();
}

sim::Task<Status> CoarseOneSidedIndex::Update(nam::ClientContext& ctx,
                                              Key key, Value value) {
  metrics::OpSpan span(ctx.trace(), "update");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  TraversalEngine::DescentPrefetch descent;
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, server, key, &descent);
  if (leaf.is_null()) co_return Status::Unavailable("client crashed");
  rdma::RemotePtr landed;
  const Status status =
      co_await LeafLevel::UpdateAt(ops, leaf, key, value, &landed);
  engine_.RepairRoute(ops, descent, leaf, landed);
  co_return status;
}

sim::Task<uint64_t> CoarseOneSidedIndex::LookupAll(nam::ClientContext& ctx,
                                                   Key key,
                                                   std::vector<Value>* out) {
  metrics::OpSpan span(ctx.trace(), "lookup_all");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  TraversalEngine::DescentPrefetch descent;
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, server, key, &descent);
  if (leaf.is_null()) co_return 0;
  rdma::RemotePtr landed;
  const uint64_t found =
      co_await LeafLevel::CollectAt(ops, leaf, key, out, &landed);
  engine_.RepairRoute(ops, descent, leaf, landed);
  co_return found;
}

sim::Task<Status> CoarseOneSidedIndex::Delete(nam::ClientContext& ctx,
                                              Key key) {
  metrics::OpSpan span(ctx.trace(), "delete");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  TraversalEngine::DescentPrefetch descent;
  const rdma::RemotePtr leaf =
      co_await engine_.DescendToLeaf(ops, server, key, &descent);
  if (leaf.is_null()) co_return Status::Unavailable("client crashed");
  rdma::RemotePtr landed;
  const Status status = co_await LeafLevel::DeleteAt(ops, leaf, key, &landed);
  engine_.RepairRoute(ops, descent, leaf, landed);
  co_return status;
}

sim::Task<uint64_t> CoarseOneSidedIndex::GarbageCollect(
    nam::ClientContext& ctx) {
  RemoteOps ops(ctx);
  uint64_t reclaimed = 0;
  for (uint32_t s = 0; s < cluster_.num_memory_servers(); ++s) {
    reclaimed += co_await LeafLevel::CompactChain(ops, first_leaves_[s]);
    if (config_.gc_merge_fill_percent > 0) {
      // Page merges/unlinks are counted separately from entry reclaims.
      (void)co_await LeafLevel::RebalanceChain(
          ops, first_leaves_[s], config_.gc_merge_fill_percent);
    }
  }
  co_return reclaimed;
}

}  // namespace namtree::index
