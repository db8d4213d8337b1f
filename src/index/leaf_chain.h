#ifndef NAMTREE_INDEX_LEAF_CHAIN_H_
#define NAMTREE_INDEX_LEAF_CHAIN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/index.h"
#include "index/leaf_level.h"
#include "index/node_cache.h"
#include "index/remote_ops.h"
#include "index/traversal.h"
#include "nam/cluster.h"
#include "rdma/remote_ptr.h"

namespace namtree::index {

/// The designs with a one-sided leaf level — fine-grained (Design 2),
/// coarse-grained one-sided and the hybrid (Design 3) — written once over
/// TraversalEngine + LeafLevel. Every op finds a leaf, walks the chain from
/// it with one-sided verbs, and repairs the route that led there; an insert
/// that split a leaf announces the split. A design is a *route policy*: it
/// supplies only what really differs (docs/traversal.md):
///
///   tree for a key - TreeFor/TreesFor: the one global tree (default), or
///                    one tree per partition (CG-one-sided);
///   leaf resolution - FindLeaf: a one-sided descent of the key's tree
///                    (default), or the hybrid's walk of its cached
///                    upper-level images, falling back to the find-leaf
///                    RPC; PredictLeaf is its await-free twin;
///   split announce - AnnounceSplit: a one-sided separator install
///                    (default), or the hybrid's install RPC;
///   scan directory - StartScan: the level-1 image the descent routed
///                    through (default), or the hybrid's route RPC;
///   bulk load      - the design's BulkLoad (LoadTree places one tree).
///
/// Each engine tree owns one leaf chain: one for FG and the hybrid, one per
/// partition for CG-one-sided. Epoch GC runs over every chain.
class LeafChainIndex : public DistributedIndex {
 public:
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

  /// Sorts the keys and groups consecutive ones by (tree, locally predicted
  /// leaf) — TraversalEngine::PredictLeaf over the machine's cache; each
  /// group is served by one chain walk (LeafLevel::SearchChainMulti), the
  /// keys the cache cannot place by single lookups.
  sim::Task<void> MultiGet(nam::ClientContext& ctx,
                           std::span<const btree::Key> keys,
                           LookupResult* results) override;

  std::string name() const override { return name_; }
  uint32_t page_size() const override { return config_.page_size; }

  /// Engine trees, each with its own leaf chain.
  uint32_t num_trees() const { return engine_.num_trees(); }
  /// Tree `tree`'s root and its level (null for the hybrid, whose upper
  /// levels live on the servers: see UpperRoots).
  rdma::RemotePtr root(uint32_t tree = 0) const { return engine_.root(tree); }
  uint8_t root_level(uint32_t tree = 0) const {
    return engine_.root_level(tree);
  }
  rdma::RemotePtr first_leaf(uint32_t tree = 0) const {
    return first_leaves_[tree];
  }
  /// Tree `tree`'s root mirrors, indexed by server id (empty: not
  /// mirrored; see TraversalEngine::SetRoot).
  const std::vector<rdma::RemotePtr>& mirrors(uint32_t tree = 0) const {
    return engine_.mirrors(tree);
  }

  /// The roots (with their levels) of the inner levels that route into tree
  /// `tree`'s leaf chain, for offline inspection: the tree's own root, or
  /// the hybrid's per-server upper levels.
  virtual std::vector<std::pair<rdma::RemotePtr, uint8_t>> UpperRoots(
      uint32_t tree) const {
    return {{root(tree), root_level(tree)}};
  }

  /// Re-reads every tree's root pointer from its catalog slot with an RDMA
  /// READ — how a freshly connected compute server bootstraps (§4.2: the
  /// root pointer lives in the database's catalog service) — and refreshes
  /// the cached root levels from the page headers. Unsupported for a tree
  /// without a catalog slot.
  sim::Task<Status> BootstrapFromCatalog(nam::ClientContext& ctx);

  /// The inner-image cache of the client's compute machine, or nullptr
  /// when caching is disabled. Created lazily per machine.
  NodeCache* CacheFor(uint32_t client_id) {
    return engine_.CacheFor(client_id);
  }

  /// The leaf the cache of `client_id`'s machine alone predicts for `key`
  /// in tree `tree` (null: it cannot tell), without a verb or a cache
  /// mutation — MultiGet's grouping key. Default: a walk of the tree's
  /// cached inner images from its root.
  virtual rdma::RemotePtr PredictLeaf(uint32_t client_id, uint32_t tree,
                                      btree::Key key) const {
    return engine_.PredictLeaf(client_id, tree, key);
  }

 protected:
  /// The design registers its trees.
  LeafChainIndex(nam::Cluster& cluster, IndexConfig config, std::string name);

  /// Registers a tree (TraversalEngine::AddTree) with an empty leaf chain;
  /// returns its id.
  uint32_t AddTree(int32_t alloc_server, rdma::RemotePtr catalog);

  /// Where an op's leaf walk starts and what routed it there.
  struct Route {
    uint32_t tree = 0;
    rdma::RemotePtr leaf;
    TraversalEngine::DescentPrefetch descent;
  };

  // ---- Route policy ---------------------------------------------------------

  /// The tree whose chain holds `key`.
  virtual uint32_t TreeFor(btree::Key /*key*/) const { return 0; }

  /// The trees a scan over [lo, hi) visits, in key order.
  virtual std::vector<uint32_t> TreesFor(btree::Key /*lo*/,
                                         btree::Key /*hi*/) const {
    return {0};
  }

  /// Resolves `route->leaf` for `key` (and any descent state in
  /// `route->descent` it wants repaired). Default: a one-sided descent of
  /// TreeFor(key); a null leaf means this client died mid-descent.
  virtual sim::Task<Status> FindLeaf(RemoteOps& ops, btree::Key key,
                                     Route* route);

  /// Announces a split of a leaf that `route` led to. Default: installs the
  /// separator into level 1 of the route's tree.
  virtual sim::Task<Status> AnnounceSplit(RemoteOps& ops, const Route& route,
                                          const LeafLevel::SplitInfo& split);

  /// Finds where a scan of tree `tree` from `lo` starts: `*start` (null: the
  /// directory names it) and the prefetch directory (null: walk the chain
  /// one READ per leaf). Default: a one-sided descent whose level-1 image
  /// is the directory (LeafLevel::ParentDirectory).
  virtual sim::Task<Status> StartScan(
      RemoteOps& ops, uint32_t tree, btree::Key lo, rdma::RemotePtr* start,
      std::unique_ptr<LeafLevel::ScanDirectory>* directory);

  /// Bulk-load placement of one tree: builds its leaf chain and inner
  /// levels over `sorted` (round-robin, or on the tree's allocation server),
  /// records its root, mirrors and first leaf, and publishes the root in
  /// its catalog slot. Replicas are the caller's to seed.
  Status LoadTree(uint32_t tree, std::span<const btree::KV> sorted);

  nam::Cluster& cluster_;
  IndexConfig config_;
  TraversalEngine engine_;
  /// First leaf of each tree's chain, indexed by tree id.
  std::vector<rdma::RemotePtr> first_leaves_;

 private:
  std::string name_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_LEAF_CHAIN_H_
