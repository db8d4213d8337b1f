#include "index/leaf_chain.h"

#include <algorithm>

#include "rdma/memory_region.h"

namespace namtree::index {

using btree::Key;
using btree::KV;
using btree::Value;

LeafChainIndex::LeafChainIndex(nam::Cluster& cluster, IndexConfig config,
                               std::string name)
    : cluster_(cluster),
      config_(std::move(config)),
      engine_(cluster.fabric(),
              TraversalEngine::Options{config_.page_size,
                                       config_.client_cache_pages,
                                       config_.speculative_descent}),
      name_(std::move(name)) {}

uint32_t LeafChainIndex::AddTree(int32_t alloc_server,
                                 rdma::RemotePtr catalog) {
  first_leaves_.push_back(rdma::RemotePtr::Null());
  return engine_.AddTree(alloc_server, catalog);
}

Status LeafChainIndex::LoadTree(uint32_t tree, std::span<const KV> sorted) {
  LeafLevel::BuildResult built;
  const Status status =
      LeafLevel::Build(cluster_.fabric(), sorted, config_, &built,
                       engine_.alloc_server(tree), /*inner_levels=*/true);
  if (!status.ok()) return status;
  first_leaves_[tree] = built.first;
  engine_.SetRoot(tree, built.root, built.root_level,
                  std::move(built.mirrors));
  // Publish the root in the tree's catalog slot for remote bootstrap.
  const rdma::RemotePtr catalog = engine_.catalog(tree);
  cluster_.fabric().region(catalog.server_id())->WriteU64(catalog.offset(),
                                                          built.root.raw());
  return Status::OK();
}

sim::Task<Status> LeafChainIndex::FindLeaf(RemoteOps& ops, Key key,
                                           Route* route) {
  route->tree = TreeFor(key);
  route->leaf =
      co_await engine_.DescendToLeaf(ops, route->tree, key, &route->descent);
  if (route->leaf.is_null()) co_return Status::Unavailable("client crashed");
  co_return Status::OK();
}

sim::Task<Status> LeafChainIndex::AnnounceSplit(
    RemoteOps& ops, const Route& route, const LeafLevel::SplitInfo& split) {
  // The left page of the split is the page InsertAt actually modified; it
  // may differ from `route.leaf` after chain chases, but the separator
  // install only needs (sep, right).
  co_return co_await engine_.InstallSeparator(ops, route.tree, 1,
                                              split.separator, route.leaf,
                                              split.right);
}

sim::Task<Status> LeafChainIndex::StartScan(
    RemoteOps& ops, uint32_t tree, Key lo, rdma::RemotePtr* start,
    std::unique_ptr<LeafLevel::ScanDirectory>* directory) {
  // The level-1 image the descent routed through is the scan's prefetch
  // directory (page_b is free on this read-only path).
  TraversalEngine::DescentPrefetch descent;
  descent.parent_buf = ops.ctx().page_b();
  *start = co_await engine_.DescendToLeaf(ops, tree, lo, &descent);
  if (start->is_null()) co_return Status::Unavailable("client crashed");
  if (descent.parent_valid) {
    *directory = std::make_unique<LeafLevel::ParentDirectory>(
        ops.ctx().page_b(), config_.page_size);
  }
  co_return Status::OK();
}

sim::Task<LookupResult> LeafChainIndex::Lookup(nam::ClientContext& ctx,
                                               Key key) {
  metrics::OpSpan span(ctx.trace(), "lookup");
  RemoteOps ops(ctx);
  // Under speculative descent the predicted leaf's image rides the descent
  // batch into page_b (free on this read-only path) and, when confirmed,
  // feeds SearchChain's first iteration — the one-RTT lookup.
  Route route;
  route.descent.leaf_buf = ctx.page_b();
  const Status found = co_await FindLeaf(ops, key, &route);
  if (!found.ok()) co_return LookupResult{false, 0, found};
  rdma::RemotePtr landed;
  const LookupResult result = co_await LeafLevel::SearchChain(
      ops, route.leaf, key,
      route.descent.leaf_image_valid ? ctx.page_b() : nullptr, &landed);
  engine_.RepairRoute(ops, route.descent, route.leaf, landed);
  co_return result;
}

sim::Task<void> LeafChainIndex::MultiGet(nam::ClientContext& ctx,
                                         std::span<const Key> keys,
                                         LookupResult* results) {
  metrics::OpSpan span(ctx.trace(), "multiget");
  RemoteOps ops(ctx);
  // Sort (stably, by key) so chain walks move strictly right, then group
  // consecutive keys of one tree whose locally predicted leaf matches: each
  // group costs one READ per visited leaf instead of one full lookup per
  // key. Keys the cache cannot place fall back to single lookups, which
  // seed the cache as usual.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  const auto predict = [&](uint32_t tree, Key key) {
    return PredictLeaf(ctx.client_id(), tree, key);
  };
  size_t i = 0;
  while (i < order.size()) {
    const uint32_t tree = TreeFor(keys[order[i]]);
    const rdma::RemotePtr predicted = predict(tree, keys[order[i]]);
    size_t j = i + 1;
    if (!predicted.is_null()) {
      while (j < order.size() && TreeFor(keys[order[j]]) == tree &&
             predict(tree, keys[order[j]]) == predicted) {
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

sim::Task<uint64_t> LeafChainIndex::Scan(nam::ClientContext& ctx, Key lo,
                                         Key hi, std::vector<KV>* out,
                                         Status* status) {
  metrics::OpSpan span(ctx.trace(), "scan");
  if (status != nullptr) *status = Status::OK();
  RemoteOps ops(ctx);
  const std::vector<uint32_t> trees = TreesFor(lo, hi);
  const size_t appended_from = out == nullptr ? 0 : out->size();
  uint64_t found = 0;
  for (const uint32_t tree : trees) {
    rdma::RemotePtr start;
    std::unique_ptr<LeafLevel::ScanDirectory> directory;
    const Status started =
        co_await StartScan(ops, tree, lo, &start, &directory);
    if (!started.ok()) {  // dead client: report the partial count
      if (status != nullptr) *status = started;
      break;
    }
    // Later trees may still be reachable after one chain degrades, so keep
    // going for the best-effort count but report the first failure
    // (kTimedOut vs kUnavailable matters to the YCSB FailureBreakdown).
    Status chain_status;
    found += co_await LeafLevel::ScanChain(ops, start, lo, hi, out,
                                           &chain_status, directory.get());
    if (!chain_status.ok() && status != nullptr && status->ok()) {
      *status = chain_status;
    }
  }
  if (out != nullptr && trees.size() > 1) {
    // Partition chains hold disjoint keys, interleaved under hash
    // partitioning (Table 2): merge this scan's hits by key.
    std::stable_sort(out->begin() + static_cast<ptrdiff_t>(appended_from),
                     out->end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
  }
  co_return found;
}

sim::Task<Status> LeafChainIndex::Insert(nam::ClientContext& ctx, Key key,
                                         Value value) {
  metrics::OpSpan span(ctx.trace(), "insert");
  RemoteOps ops(ctx);
  Route route;
  const Status found = co_await FindLeaf(ops, key, &route);
  if (!found.ok()) co_return found;
  LeafLevel::SplitInfo split;
  rdma::RemotePtr landed;
  const Status status = co_await LeafLevel::InsertAt(
      ops, route.leaf, key, value, &split, engine_.alloc_server(route.tree),
      &landed);
  // Repaired before the separator install, which seeds the level-1 image
  // it writes.
  engine_.RepairRoute(ops, route.descent, route.leaf, landed);
  if (!status.ok()) co_return status;
  if (split.split) co_return co_await AnnounceSplit(ops, route, split);
  co_return Status::OK();
}

sim::Task<Status> LeafChainIndex::Update(nam::ClientContext& ctx, Key key,
                                         Value value) {
  metrics::OpSpan span(ctx.trace(), "update");
  RemoteOps ops(ctx);
  Route route;
  const Status found = co_await FindLeaf(ops, key, &route);
  if (!found.ok()) co_return found;
  rdma::RemotePtr landed;
  const Status status =
      co_await LeafLevel::UpdateAt(ops, route.leaf, key, value, &landed);
  engine_.RepairRoute(ops, route.descent, route.leaf, landed);
  co_return status;
}

sim::Task<uint64_t> LeafChainIndex::LookupAll(nam::ClientContext& ctx,
                                              Key key,
                                              std::vector<Value>* out) {
  metrics::OpSpan span(ctx.trace(), "lookup_all");
  RemoteOps ops(ctx);
  Route route;
  if (!(co_await FindLeaf(ops, key, &route)).ok()) co_return 0;
  rdma::RemotePtr landed;
  const uint64_t found =
      co_await LeafLevel::CollectAt(ops, route.leaf, key, out, &landed);
  engine_.RepairRoute(ops, route.descent, route.leaf, landed);
  co_return found;
}

sim::Task<Status> LeafChainIndex::Delete(nam::ClientContext& ctx, Key key) {
  metrics::OpSpan span(ctx.trace(), "delete");
  RemoteOps ops(ctx);
  Route route;
  const Status found = co_await FindLeaf(ops, key, &route);
  if (!found.ok()) co_return found;
  rdma::RemotePtr landed;
  const Status status =
      co_await LeafLevel::DeleteAt(ops, route.leaf, key, &landed);
  engine_.RepairRoute(ops, route.descent, route.leaf, landed);
  co_return status;
}

sim::Task<uint64_t> LeafChainIndex::GarbageCollect(nam::ClientContext& ctx) {
  // The epoch GC runs from a compute server using the same one-sided lock
  // protocol as writers (§4.2; §5.2 notes the hybrid's needs no
  // synchronization with the servers' upper levels): per chain, leaf
  // compaction first, then rebalancing.
  RemoteOps ops(ctx);
  uint64_t reclaimed = 0;
  for (const rdma::RemotePtr first : first_leaves_) {
    reclaimed += co_await LeafLevel::CompactChain(ops, first);
    if (config_.gc_merge_fill_percent > 0) {
      // Page merges/unlinks are counted separately from entry reclaims.
      (void)co_await LeafLevel::RebalanceChain(ops, first,
                                               config_.gc_merge_fill_percent);
    }
  }
  co_return reclaimed;
}

sim::Task<Status> LeafChainIndex::BootstrapFromCatalog(
    nam::ClientContext& ctx) {
  RemoteOps ops(ctx);
  for (uint32_t tree = 0; tree < engine_.num_trees(); ++tree) {
    const Status status = co_await engine_.BootstrapFromCatalog(ops, tree);
    if (!status.ok()) co_return status;
  }
  co_return Status::OK();
}

}  // namespace namtree::index
