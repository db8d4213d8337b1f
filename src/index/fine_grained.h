#ifndef NAMTREE_INDEX_FINE_GRAINED_H_
#define NAMTREE_INDEX_FINE_GRAINED_H_

#include "index/index.h"
#include "index/leaf_chain.h"
#include "nam/cluster.h"

namespace namtree::index {

/// Design 2 (paper §4): fine-grained distribution + one-sided access.
///
/// One global B-link tree whose nodes (inner and leaf) are scattered
/// round-robin over all memory servers and connected by remote pointers.
/// Compute servers traverse and modify the tree themselves using only
/// one-sided verbs: READ for traversal, CAS to acquire node locks, WRITE +
/// FETCH_AND_ADD to install modifications and release, FETCH_AND_ADD on the
/// region cursor for RDMA_ALLOC. Range scans prefetch leaves through the
/// leaf-parent inner node (§4.3, see LeafLevel::ScanChain); epoch GC runs
/// from a compute server.
///
/// The per-op code lives in LeafChainIndex and the descent/lock/retry
/// protocol in TraversalEngine (docs/traversal.md); this design is the
/// route policy {one global tree with root mirrors, round-robin
/// allocation, catalog slot on server 0, inner-image cache}.
class FineGrainedIndex : public LeafChainIndex {
 public:
  FineGrainedIndex(nam::Cluster& cluster, IndexConfig config);

  Status BulkLoad(std::span<const btree::KV> sorted) override;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_FINE_GRAINED_H_
