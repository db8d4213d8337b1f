#include "index/hybrid.h"

#include <algorithm>

namespace namtree::index {

using btree::Key;
using btree::KV;

HybridIndex::HybridIndex(nam::Cluster& cluster, IndexConfig config)
    : LeafChainIndex(cluster, std::move(config), "hybrid",
                     TraversalEngine::CacheMode::kLeafRoutes),
      partitioner_(PartitionKind::kRange, cluster.num_memory_servers()),
      rpc_service_(cluster.AllocateRpcService()) {
  // The global leaf chain: splits allocate round-robin, and no root is
  // published (leaves are resolved by RPC).
  AddTree(/*alloc_server=*/-1, rdma::RemotePtr::Null());
}

Status HybridIndex::BulkLoad(std::span<const KV> sorted) {
  if (config_.partition == PartitionKind::kHash) {
    return Status::Unsupported(
        "hybrid upper levels require range partitioning (the leaf chain is "
        "globally sorted)");
  }

  // Build the global fine-grained leaf level first.
  LeafLevel::BuildResult leaves;
  Status status =
      LeafLevel::Build(cluster_.fabric(), sorted, config_, &leaves);
  if (!status.ok()) return status;
  first_leaves_[0] = leaves.first;

  // Partition the *leaves* by entry weight and align the routing
  // boundaries with the chosen leaf fences so no partition starts in the
  // middle of a leaf's range.
  const uint32_t servers = cluster_.num_memory_servers();
  std::vector<double> weights = config_.partition_weights;
  if (weights.size() != servers) {
    weights.assign(servers, 1.0 / servers);
  }
  double total = 0;
  for (double w : weights) total += w;

  const size_t num_leaves = leaves.leaf_refs.size();
  std::vector<size_t> first_leaf_of(servers, num_leaves);
  std::vector<Key> boundaries;
  double cumulative = 0;
  size_t begin = 0;
  for (uint32_t s = 0; s < servers; ++s) {
    first_leaf_of[s] = begin;
    cumulative += weights[s] / total;
    size_t end = (s + 1 == servers)
                     ? num_leaves
                     : std::min<size_t>(
                           num_leaves,
                           static_cast<size_t>(cumulative *
                                               static_cast<double>(num_leaves)));
    if (end <= begin && begin < num_leaves) end = begin + 1;  // non-empty
    if (s + 1 < servers) {
      boundaries.push_back(end < num_leaves ? leaves.leaf_refs[end].low
                                            : btree::kInfinityKey);
    }
    begin = end;
  }
  partitioner_.SetBoundaries(std::move(boundaries));

  // Build each server's upper levels over its slice of leaf children.
  trees_.clear();
  for (uint32_t s = 0; s < servers; ++s) {
    nam::MemoryServer& server = cluster_.memory_server(s);
    trees_.push_back(std::make_unique<ServerTree>(server, config_.page_size));
    const size_t lo = first_leaf_of[s];
    const size_t hi = (s + 1 == servers) ? num_leaves : first_leaf_of[s + 1];
    std::span<const ServerTree::ChildRef> slice(leaves.leaf_refs.data() + lo,
                                                hi - lo);
    if (slice.empty()) {
      // Give empty partitions a single sentinel child: the last leaf of the
      // previous partition, so chain chases still find every key.
      slice = std::span<const ServerTree::ChildRef>(
          leaves.leaf_refs.data() + (lo == 0 ? 0 : lo - 1), 1);
    }
    status = trees_[s]->BuildOverChildren(slice, config_.leaf_fill_percent);
    if (!status.ok()) return status;
    server.RegisterHandler(
        rpc_service_, [this](nam::MemoryServer& srv, rdma::IncomingRpc rpc) {
          return Handle(srv, std::move(rpc));
        });
  }
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

sim::Task<> HybridIndex::Handle(nam::MemoryServer& server,
                                rdma::IncomingRpc rpc) {
  co_await sim::Delay(cluster_.simulator(), server.RequestOverhead());
  ServerTree& tree = *trees_[server.server_id()];
  rdma::RpcResponse resp;

  switch (rpc.request.op) {
    case kFindLeaf: {
      // arg1 = 0 (lookups) is the point form: an empty payload.
      resp.arg0 = co_await tree.FindLeafChild(rpc.request.arg0,
                                              rpc.request.arg1, &resp.payload);
      resp.status = static_cast<uint16_t>(StatusCode::kOk);
      break;
    }
    case kInstallSep: {
      const Status status = co_await tree.InstallChildSeparator(
          rpc.request.arg0, rpc.request.arg1);
      resp.status = static_cast<uint16_t>(status.code());
      break;
    }
    default:
      resp.status = static_cast<uint16_t>(StatusCode::kUnsupported);
      break;
  }

  cluster_.fabric().Respond(server.server_id(), rpc, std::move(resp));
}

/// Asks the owner of the scan's cursor for the leaves covering the rest of
/// the range: the first in `arg0`, the rest in the payload.
class HybridIndex::RouteDirectory : public LeafLevel::ScanDirectory {
 public:
  explicit RouteDirectory(HybridIndex& index) : index_(index) {}

  sim::Task<Status> NextRun(RemoteOps ops, Key cursor, Key hi,
                            rdma::RemotePtr next, std::vector<uint64_t>* run,
                            rdma::RemotePtr* /*extra*/) override {
    // Leaves the last answer already listed cost no RPC.
    if (TakeFrom(next, run)) co_return Status::OK();
    rdma::RpcResponse resp;
    const Status found =
        co_await index_.CallFindLeaf(ops.ctx(), cursor, hi, &resp);
    if (!found.ok()) co_return found;
    routes_.assign(1, resp.arg0);
    routes_.insert(routes_.end(), resp.payload.begin(), resp.payload.end());
    // A continuation at the previous leaf's high fence routes to that
    // already consumed leaf first (inclusive inner fence), so the run
    // starts at `next`. When the answer does not list `next` at all, the
    // scan reads it alone and asks again from further right.
    if (next.is_null()) {
      *run = routes_;
    } else {
      TakeFrom(next, run);
    }
    co_return Status::OK();
  }

 private:
  /// Copies the listed routes from `next` on into `run`; false when `next`
  /// is not listed.
  bool TakeFrom(rdma::RemotePtr next, std::vector<uint64_t>* run) const {
    if (next.is_null()) return false;
    const auto at = std::find(routes_.begin(), routes_.end(), next.raw());
    if (at == routes_.end()) return false;
    run->assign(at, routes_.end());
    return true;
  }

  HybridIndex& index_;
  std::vector<uint64_t> routes_;
};

sim::Task<Status> HybridIndex::CallFindLeaf(nam::ClientContext& ctx, Key key,
                                            Key hi, rdma::RpcResponse* resp) {
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kFindLeaf;
  req.arg0 = key;
  req.arg1 = hi;
  *resp = co_await ctx.Call(partitioner_.ServerFor(key), std::move(req));
  const auto code = static_cast<StatusCode>(resp->status);
  if (code != StatusCode::kOk) {
    co_return Status::FromCode(code, "find-leaf rpc");
  }
  co_return Status::OK();
}

sim::Task<Status> HybridIndex::FindLeaf(RemoteOps& ops, Key key,
                                        Route* route) {
  const uint32_t client = ops.ctx().client_id();
  if (engine_.CachedRoute(client, key, &route->leaf)) co_return Status::OK();
  rdma::RpcResponse resp;
  const Status found = co_await CallFindLeaf(ops.ctx(), key, /*hi=*/0, &resp);
  if (!found.ok()) co_return found;
  route->leaf = rdma::RemotePtr(resp.arg0);
  engine_.SeedRoute(client, key, route->leaf);
  co_return Status::OK();
}

sim::Task<Status> HybridIndex::AnnounceSplit(
    RemoteOps& ops, const Route& /*route*/,
    const LeafLevel::SplitInfo& split) {
  // The owning memory server installs the key into its upper levels itself.
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kInstallSep;
  req.arg0 = split.separator;
  req.arg1 = split.right.raw();
  const rdma::RpcResponse resp = co_await ops.ctx().Call(
      partitioner_.ServerFor(split.separator), std::move(req));
  const auto code = static_cast<StatusCode>(resp.status);
  if (code != StatusCode::kOk) {
    // The inserted entry is live and reachable through the leaf chain;
    // only the routing shortcut is missing until a retry installs it.
    co_return Status::FromCode(code, "install-separator rpc");
  }
  co_return Status::OK();
}

sim::Task<Status> HybridIndex::StartScan(
    RemoteOps& /*ops*/, uint32_t /*tree*/, Key /*lo*/, rdma::RemotePtr* start,
    std::unique_ptr<LeafLevel::ScanDirectory>* directory) {
  *start = rdma::RemotePtr::Null();
  *directory = std::make_unique<RouteDirectory>(*this);
  co_return Status::OK();
}

std::vector<std::pair<rdma::RemotePtr, uint8_t>> HybridIndex::UpperRoots(
    uint32_t /*tree*/) const {
  // Each server's upper levels end at local level 1, whose children are
  // the remote leaves.
  std::vector<std::pair<rdma::RemotePtr, uint8_t>> roots;
  for (const std::unique_ptr<ServerTree>& tree : trees_) {
    roots.emplace_back(rdma::RemotePtr(tree->root_raw()), tree->root_level());
  }
  return roots;
}

}  // namespace namtree::index
