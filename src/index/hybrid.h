#ifndef NAMTREE_INDEX_HYBRID_H_
#define NAMTREE_INDEX_HYBRID_H_

#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/index.h"
#include "index/leaf_chain.h"
#include "index/partition.h"
#include "index/server_tree.h"
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
/// The per-op code lives in LeafChainIndex; this design is the route
/// policy {one global round-robin chain (engine tree 0, no root), find-leaf
/// RPC, install RPC, route-RPC scan directory, upper-level image cache}.
/// With a client cache (IndexConfig::client_cache_pages), the point form
/// of the find-leaf RPC also returns the images of the upper pages its
/// handler searched, from the partition root down to level 1; the client
/// keeps them in its machine's inner-image cache and resolves later keys
/// of that partition locally (TraversalEngine::ResolveCached), sending the
/// RPC only on a miss (docs/traversal.md). A stale image is B-link safe —
/// it routes at worst too far left along the leaf chain, the chase
/// recovers, and the level-1 image that routed the walk is dropped.
class HybridIndex : public LeafChainIndex {
 public:
  enum Op : uint16_t {
    kFindLeaf = 1,
    kInstallSep = 2,
  };

  HybridIndex(nam::Cluster& cluster, IndexConfig config);

  Status BulkLoad(std::span<const btree::KV> sorted) override;

  const Partitioner& partitioner() const { return partitioner_; }

  /// A walk of the key's partition's cached upper-level images.
  rdma::RemotePtr PredictLeaf(uint32_t client_id, uint32_t tree,
                              btree::Key key) const override;

  /// Every server's upper-level root: they all route into the one chain.
  std::vector<std::pair<rdma::RemotePtr, uint8_t>> UpperRoots(
      uint32_t tree) const override;

 protected:
  /// The cached upper-level images of `key`'s partition, else the
  /// find-leaf RPC to its owner.
  sim::Task<Status> FindLeaf(RemoteOps& ops, btree::Key key,
                             Route* route) override;
  /// The install RPC to the server owning the separator's range (§5.2).
  sim::Task<Status> AnnounceSplit(RemoteOps& ops, const Route& route,
                                  const LeafLevel::SplitInfo& split) override;
  /// The leaf chain is global, so one traversal covers the whole range even
  /// across partition boundaries (§5.2); the range form of the find-leaf RPC
  /// names its leaves, starting with the one covering `lo`.
  sim::Task<Status> StartScan(
      RemoteOps& ops, uint32_t tree, btree::Key lo, rdma::RemotePtr* start,
      std::unique_ptr<LeafLevel::ScanDirectory>* directory) override;

 private:
  /// Range scans' prefetch directory: the range form of the find-leaf RPC.
  class RouteDirectory;

  sim::Task<> Handle(nam::MemoryServer& server, rdma::IncomingRpc rpc);

  /// The find-leaf RPC to the owner of `key`: the point form (`hi` = 0)
  /// answers the leaf covering `key` in `resp->arg0`, and with `images`
  /// set lists the pages it was found through in the payload (see
  /// btree::BLinkTree::FindLeafChild); the range form lists further leaves
  /// below `hi` in the payload.
  sim::Task<Status> CallFindLeaf(nam::ClientContext& ctx, btree::Key key,
                                 btree::Key hi, bool images,
                                 rdma::RpcResponse* resp);

  /// The partition roots `client_id`'s machine learned from find-leaf
  /// responses, indexed by server (null: none learned yet).
  std::vector<rdma::RemotePtr>& LearnedRoots(uint32_t client_id);

  Partitioner partitioner_;
  uint16_t rpc_service_;
  std::vector<std::unique_ptr<ServerTree>> trees_;
  /// LearnedRoots, keyed by compute machine.
  std::unordered_map<uint32_t, std::vector<rdma::RemotePtr>> learned_roots_;
  /// The find-leaf RPCs in flight for a cache miss, keyed (compute
  /// machine, server, raw pointer of the missing page; 0 = the partition
  /// root is not learned yet). Set when the response's images are cached.
  std::map<std::tuple<uint32_t, uint32_t, uint64_t>,
           std::shared_ptr<sim::SimEvent>>
      pending_misses_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_HYBRID_H_
