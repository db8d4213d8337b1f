#include "index/hybrid.h"

#include <algorithm>

namespace namtree::index {

namespace {

/// How often one lookup waits for a machine-mate's find-leaf RPC before it
/// sends its own: enough for a miss at the root and then one per level.
constexpr int kMaxMissWaits = 4;

}  // namespace

using btree::Key;
using btree::KV;

HybridIndex::HybridIndex(nam::Cluster& cluster, IndexConfig config)
    : LeafChainIndex(cluster, std::move(config), "hybrid"),
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
      // arg1 = 0 (lookups) is the point form; its payload carries the
      // upper-level path images when arg2 asks for them, else nothing.
      const bool range = rpc.request.arg1 != 0;
      const bool images = !range && rpc.request.arg2 != 0;
      resp.arg0 = co_await tree.FindLeafChild(
          rpc.request.arg0, rpc.request.arg1, range ? &resp.payload : nullptr,
          images ? &resp.payload : nullptr);
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
    const Status found = co_await index_.CallFindLeaf(
        ops.ctx(), cursor, hi, /*images=*/false, &resp);
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
                                            Key hi, bool images,
                                            rdma::RpcResponse* resp) {
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kFindLeaf;
  req.arg0 = key;
  req.arg1 = hi;
  req.arg2 = images ? 1 : 0;
  *resp = co_await ctx.Call(partitioner_.ServerFor(key), std::move(req));
  const auto code = static_cast<StatusCode>(resp->status);
  if (code != StatusCode::kOk) {
    co_return Status::FromCode(code, "find-leaf rpc");
  }
  co_return Status::OK();
}

std::vector<rdma::RemotePtr>& HybridIndex::LearnedRoots(uint32_t client_id) {
  std::vector<rdma::RemotePtr>& roots =
      learned_roots_[cluster_.fabric().ClientMachine(client_id)];
  roots.resize(cluster_.num_memory_servers());
  return roots;
}

sim::Task<Status> HybridIndex::FindLeaf(RemoteOps& ops, Key key,
                                        Route* route) {
  const uint32_t client = ops.ctx().client_id();
  const uint32_t server = partitioner_.ServerFor(key);
  NodeCache* cache = CacheFor(client);
  std::tuple<uint32_t, uint32_t, uint64_t> miss;
  if (cache != nullptr) {
    // A miss whose page a machine-mate's RPC is already fetching waits for
    // that response and walks again, a few times at most: each wait ends
    // with the awaited page cached unless that RPC failed.
    for (int waits = 0;; ++waits) {
      const rdma::RemotePtr root = LearnedRoots(client)[server];
      rdma::RemotePtr frontier;
      if (!root.is_null()) {
        route->leaf = engine_.ResolveCached(client, root, key,
                                            &route->descent, &frontier);
        if (!route->leaf.is_null()) co_return Status::OK();
      }
      miss = {cluster_.fabric().ClientMachine(client), server, frontier.raw()};
      auto pending = pending_misses_.find(miss);
      if (pending == pending_misses_.end() || waits == kMaxMissWaits) break;
      const std::shared_ptr<sim::SimEvent> fetched = pending->second;
      sim::SimEvent& landed = *fetched;
      co_await landed;
    }
  }
  std::shared_ptr<sim::SimEvent> fetched;
  if (cache != nullptr) {
    fetched = std::make_shared<sim::SimEvent>(cluster_.simulator());
    pending_misses_.emplace(miss, fetched);
  }
  rdma::RpcResponse resp;
  const Status found = co_await CallFindLeaf(ops.ctx(), key, /*hi=*/0,
                                             cache != nullptr, &resp);
  if (found.ok()) route->leaf = rdma::RemotePtr(resp.arg0);
  if (found.ok() && cache != nullptr && !resp.payload.empty()) {
    // The path images, root first: each is the page's raw pointer followed
    // by its image. The last one named the leaf.
    const size_t stride = 1 + config_.page_size / 8;
    for (size_t at = 0; at + stride <= resp.payload.size(); at += stride) {
      cache->Put(resp.payload[at],
                 reinterpret_cast<const uint8_t*>(&resp.payload[at + 1]));
      route->descent.parent = rdma::RemotePtr(resp.payload[at]);
    }
    LearnedRoots(client)[server] = rdma::RemotePtr(resp.payload[0]);
  }
  if (fetched != nullptr) {
    auto pending = pending_misses_.find(miss);
    if (pending != pending_misses_.end() && pending->second == fetched) {
      pending_misses_.erase(pending);
    }
    fetched->Set();
  }
  co_return found;
}

rdma::RemotePtr HybridIndex::PredictLeaf(uint32_t client_id,
                                         uint32_t /*tree*/, Key key) const {
  auto it = learned_roots_.find(cluster_.fabric().ClientMachine(client_id));
  if (it == learned_roots_.end()) return rdma::RemotePtr::Null();
  const rdma::RemotePtr root = it->second[partitioner_.ServerFor(key)];
  if (root.is_null()) return rdma::RemotePtr::Null();
  return engine_.PredictLeaf(client_id, root, key);
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
