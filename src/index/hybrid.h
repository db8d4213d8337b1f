#ifndef NAMTREE_INDEX_HYBRID_H_
#define NAMTREE_INDEX_HYBRID_H_

#include <memory>
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
/// RPC, install RPC, route-RPC scan directory, leaf-route cache}. Leaf
/// resolution goes through TraversalEngine's RPC root policy
/// (docs/traversal.md): the engine fronts the find-leaf RPC with a
/// leaf-route cache (key -> leaf pointer) per compute machine. A stale
/// route is B-link safe — leaf coverage only ever moves right (splits,
/// drain-merges), so the leaf-chain chase recovers, and the walk re-seeds
/// the route where it landed.
class HybridIndex : public LeafChainIndex {
 public:
  enum Op : uint16_t {
    kFindLeaf = 1,
    kInstallSep = 2,
  };

  HybridIndex(nam::Cluster& cluster, IndexConfig config);

  Status BulkLoad(std::span<const btree::KV> sorted) override;

  const Partitioner& partitioner() const { return partitioner_; }

  /// Every server's upper-level root: they all route into the one chain.
  std::vector<std::pair<rdma::RemotePtr, uint8_t>> UpperRoots(
      uint32_t tree) const override;

 protected:
  /// The find-leaf RPC to the owner of `key`, fronted by the engine's
  /// leaf-route cache.
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
  /// answers the leaf covering `key` in `resp->arg0`; the range form lists
  /// further leaves below `hi` in the payload.
  sim::Task<Status> CallFindLeaf(nam::ClientContext& ctx, btree::Key key,
                                 btree::Key hi, rdma::RpcResponse* resp);

  Partitioner partitioner_;
  uint16_t rpc_service_;
  std::vector<std::unique_ptr<ServerTree>> trees_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_HYBRID_H_
