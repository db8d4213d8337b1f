#ifndef NAMTREE_INDEX_INSPECTOR_H_
#define NAMTREE_INDEX_INSPECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/leaf_chain.h"
#include "rdma/fabric.h"

namespace namtree::index {

/// Offline structural validator: walks an index's physical pages directly
/// through the registered regions (host-side, quiescent use only — run it
/// between simulated workloads, not during one) and checks the B-link
/// invariants every design maintains:
///
///   * page-local: entries/separators sorted, counts within capacity,
///     version words unlocked, level bytes consistent;
///   * fences: keys lie within [low, high] (duplicates may sit exactly on
///     the high fence) and fences ascend along every sibling chain;
///   * chains: each level's chain is connected and terminates at the +inf
///     fence;
///   * reachability: every leaf referenced from the inner levels is on the
///     leaf chain (the converse may legitimately fail transiently in a
///     B-link tree: a freshly split page is chain-reachable before its
///     separator is installed).
///
/// Violations are human-readable strings; an empty list means the
/// structure is sound. A fine-grained root mirror that differs from the
/// root is counted in `stale_mirrors`, not listed as a violation: routing
/// never depends on a mirror being fresh, and a client that crashed while
/// refreshing one may legitimately leave it stale.
class IndexInspector {
 public:
  struct Report {
    uint64_t leaf_pages = 0;
    uint64_t inner_pages = 0;
    uint64_t live_entries = 0;
    uint64_t tombstones = 0;
    uint64_t height = 0;  ///< levels of the (tallest) tree
    /// Live, unlocked root mirrors whose level, fence, sibling, separators
    /// or children differ from the root's.
    uint64_t stale_mirrors = 0;
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
    std::string ToString() const;
  };

  /// Validates every partition tree of a coarse-grained index.
  static Report Inspect(rdma::Fabric& fabric, CoarseGrainedIndex& index);

  /// Validates a design with a one-sided leaf level (fine-grained,
  /// coarse-grained one-sided, hybrid): per tree, the inner levels that
  /// route into its leaf chain (LeafChainIndex::UpperRoots), the chain, and
  /// the root mirrors of a mirrored tree.
  static Report Inspect(rdma::Fabric& fabric, const LeafChainIndex& index);

 private:
  /// Validates the inner levels of a B-link subtree from `root_raw` down to
  /// `bottom_level` (> 0). Children of bottom-level nodes are appended to
  /// `bottom_children` (leaf references).
  static void InspectInnerLevels(rdma::Fabric& fabric, uint64_t root_raw,
                                 uint32_t page_size, uint8_t bottom_level,
                                 Report* report,
                                 std::vector<uint64_t>* bottom_children);

  /// Validates the leaf sibling chain from `first_raw` and collects leaf
  /// pointers + entry statistics.
  static void InspectLeafChain(rdma::Fabric& fabric, uint64_t first_raw,
                               uint32_t page_size, Report* report,
                               std::vector<uint64_t>* chain_leaves);

  /// Counts the live, unlocked `mirrors` whose routing content differs from
  /// the page at `root` into `report->stale_mirrors`.
  static void CompareMirrors(rdma::Fabric& fabric, uint32_t page_size,
                             rdma::RemotePtr root,
                             const std::vector<rdma::RemotePtr>& mirrors,
                             Report* report);

  /// Checks `referenced` (from inner levels) against the leaf chain set;
  /// references to drained pages are allowed (searches chase through them).
  static void CheckReachability(rdma::Fabric& fabric, uint32_t page_size,
                                const std::vector<uint64_t>& referenced,
                                const std::vector<uint64_t>& chain,
                                Report* report);
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_INSPECTOR_H_
