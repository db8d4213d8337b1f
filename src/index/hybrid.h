#ifndef NAMTREE_INDEX_HYBRID_H_
#define NAMTREE_INDEX_HYBRID_H_

#include <memory>
#include <vector>

#include "index/index.h"
#include "index/leaf_level.h"
#include "index/node_cache.h"
#include "index/partition.h"
#include "index/remote_ops.h"
#include "index/server_tree.h"
#include "index/traversal.h"
#include "nam/cluster.h"

namespace namtree::index {

/// Design 3 (paper §5): hybrid scheme.
///
/// The upper levels (root + inner nodes) are range-partitioned across the
/// memory servers and traversed by RPC (two-sided, low latency); the leaf
/// level is one global fine-grained chain scattered round-robin over all
/// servers and accessed one-sided (aggregated bandwidth, skew-immune).
/// Lookups: one RPC that returns a leaf remote pointer, then RDMA READs.
/// Range scans: the same RPC in range form returns the leaves covering the
/// range, then one doorbell-batched READ fetches them all.
/// Inserts: RPC for the pointer, one-sided leaf insert; on a split an extra
/// RPC installs the separator into the owning server's upper levels.
///
/// Leaf resolution goes through TraversalEngine's RPC root policy
/// (docs/traversal.md): the engine fronts the find-leaf RPC with a
/// leaf-route cache (key -> leaf pointer) per compute machine. A stale
/// route is B-link safe — leaf coverage only ever moves right (splits,
/// drain-merges), so the leaf-chain chase recovers, and the walk re-seeds
/// the route where it landed.
class HybridIndex : public DistributedIndex,
                    private TraversalEngine::LeafResolver {
 public:
  enum Op : uint16_t {
    kFindLeaf = 1,
    kInstallSep = 2,
  };

  HybridIndex(nam::Cluster& cluster, IndexConfig config);

  Status BulkLoad(std::span<const btree::KV> sorted) override;

  sim::Task<LookupResult> Lookup(nam::ClientContext& ctx,
                                 btree::Key key) override;
  sim::Task<uint64_t> Scan(nam::ClientContext& ctx, btree::Key lo,
                           btree::Key hi, std::vector<btree::KV>* out,
                           Status* status = nullptr) override;
  sim::Task<Status> Insert(nam::ClientContext& ctx, btree::Key key,
                           btree::Value value) override;
  sim::Task<Status> Update(nam::ClientContext& ctx, btree::Key key,
                           btree::Value value) override;
  sim::Task<uint64_t> LookupAll(nam::ClientContext& ctx, btree::Key key,
                                std::vector<btree::Value>* out) override;
  sim::Task<Status> Delete(nam::ClientContext& ctx, btree::Key key) override;
  sim::Task<uint64_t> GarbageCollect(nam::ClientContext& ctx) override;

  /// Sorts the keys and groups consecutive ones sharing a cached
  /// route (no find-leaf RPC per grouped key); each group is one chain
  /// walk, uncached keys fall back to Lookup (which seeds the cache).
  sim::Task<void> MultiGet(nam::ClientContext& ctx,
                           std::span<const btree::Key> keys,
                           LookupResult* results) override;

  std::string name() const override { return "hybrid"; }
  uint32_t page_size() const override { return config_.page_size; }

  const Partitioner& partitioner() const { return partitioner_; }
  rdma::RemotePtr first_leaf() const { return first_leaf_; }
  ServerTree& tree(uint32_t server) { return *trees_[server]; }

  /// The leaf-route cache of the client's compute machine, or nullptr when
  /// caching is disabled.
  NodeCache* CacheFor(uint32_t client_id) {
    return engine_.CacheFor(client_id);
  }

 private:
  /// Range scans' prefetch directory: the range form of the find-leaf RPC.
  class RouteDirectory;

  sim::Task<> Handle(nam::MemoryServer& server, rdma::IncomingRpc rpc);

  /// TraversalEngine::LeafResolver: the find-leaf RPC to the owner of
  /// `key`, returning a candidate leaf pointer.
  sim::Task<DescentResult> ResolveLeaf(nam::ClientContext& ctx,
                                       btree::Key key) override;

  nam::Cluster& cluster_;
  IndexConfig config_;
  Partitioner partitioner_;
  uint16_t rpc_service_;
  TraversalEngine engine_;
  std::vector<std::unique_ptr<ServerTree>> trees_;
  rdma::RemotePtr first_leaf_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_HYBRID_H_
