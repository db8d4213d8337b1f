#ifndef NAMTREE_INDEX_COARSE_ONE_SIDED_H_
#define NAMTREE_INDEX_COARSE_ONE_SIDED_H_

#include <vector>

#include "index/index.h"
#include "index/leaf_chain.h"
#include "index/partition.h"
#include "nam/cluster.h"

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
/// The per-op code lives in LeafChainIndex and the descent/lock/retry
/// protocol in TraversalEngine (docs/traversal.md); this design is the
/// route policy {tree s = partition s, fixed-server allocation, catalog
/// slot on server s, inner-image cache}. Tree s is partition s's tree.
class CoarseOneSidedIndex : public LeafChainIndex {
 public:
  CoarseOneSidedIndex(nam::Cluster& cluster, IndexConfig config);

  Status BulkLoad(std::span<const btree::KV> sorted) override;

  const Partitioner& partitioner() const { return partitioner_; }

 protected:
  uint32_t TreeFor(btree::Key key) const override {
    return partitioner_.ServerFor(key);
  }
  /// Every partition intersecting the range (all of them under hash
  /// partitioning, Table 2).
  std::vector<uint32_t> TreesFor(btree::Key lo, btree::Key hi) const override {
    return partitioner_.ServersFor(lo, hi);
  }

 private:
  Partitioner partitioner_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_COARSE_ONE_SIDED_H_
