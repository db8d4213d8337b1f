#ifndef NAMTREE_INDEX_COARSE_ONE_SIDED_H_
#define NAMTREE_INDEX_COARSE_ONE_SIDED_H_

#include <vector>

#include "index/index.h"
#include "index/leaf_level.h"
#include "index/node_cache.h"
#include "index/partition.h"
#include "index/remote_ops.h"
#include "index/traversal.h"
#include "nam/cluster.h"
#include "rdma/remote_ptr.h"

namespace namtree::index {

/// Design 4: coarse-grained distribution + one-sided access — the fourth
/// corner of the paper's §2.2 design matrix (distribution x RDMA
/// primitives), which the paper discusses but does not implement.
///
/// The key space is range- or hash-partitioned exactly as in Design 1, but
/// each partition's B-link tree is traversed and modified by the *clients*
/// with one-sided verbs (the Design 2 protocol, confined to one server per
/// operation). This isolates the two design axes experimentally:
///
///   vs. Design 1 (CG/2-sided): same data placement, no remote CPU — shows
///       what the access primitive alone contributes;
///   vs. Design 2 (FG/1-sided): same access protocol, partitioned
///       placement — shows what the distribution alone contributes (e.g.
///       under skew this design collapses like Design 1, because one
///       server's NIC serves 80% of all one-sided reads).
///
/// Section 7's shared-nothing discussion maps onto this design directly:
/// "use the coarse-grained index design to make indexes built locally per
/// partition accessible via RDMA from other nodes".
///
/// The descent/lock/retry protocol lives in TraversalEngine
/// (docs/traversal.md); this design is the policy triple {one tree per
/// partition, fixed-server allocation, catalog slot on server s} + the
/// same inner-image cache as the fine-grained design.
class CoarseOneSidedIndex : public DistributedIndex {
 public:
  CoarseOneSidedIndex(nam::Cluster& cluster, IndexConfig config);

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

  /// Sorts the keys and groups consecutive ones by (partition, locally
  /// predicted leaf); each group is served by one chain walk
  /// (LeafLevel::SearchChainMulti), the rest by single lookups.
  sim::Task<void> MultiGet(nam::ClientContext& ctx,
                           std::span<const btree::Key> keys,
                           LookupResult* results) override;

  std::string name() const override { return "coarse-one-sided"; }
  uint32_t page_size() const override { return config_.page_size; }

  const Partitioner& partitioner() const { return partitioner_; }
  rdma::RemotePtr root_of(uint32_t server) const {
    return engine_.root(server);
  }
  uint8_t root_level_of(uint32_t server) const {
    return engine_.root_level(server);
  }
  rdma::RemotePtr first_leaf_of(uint32_t server) const {
    return first_leaves_[server];
  }

  /// The inner-node cache of the client's compute machine (the same cache
  /// policy as the fine-grained design, through the engine), or nullptr
  /// when disabled.
  NodeCache* CacheFor(uint32_t client_id) {
    return engine_.CacheFor(client_id);
  }

 private:
  nam::Cluster& cluster_;
  IndexConfig config_;
  Partitioner partitioner_;
  uint32_t catalog_slot_;
  // Tree id s in the engine is partition s's tree.
  TraversalEngine engine_;
  std::vector<rdma::RemotePtr> first_leaves_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_COARSE_ONE_SIDED_H_
