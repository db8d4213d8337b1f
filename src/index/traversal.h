#ifndef NAMTREE_INDEX_TRAVERSAL_H_
#define NAMTREE_INDEX_TRAVERSAL_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "btree/page.h"
#include "common/status.h"
#include "index/node_cache.h"
#include "index/remote_ops.h"
#include "nam/cluster.h"
#include "rdma/remote_ptr.h"
#include "sim/task.h"

namespace namtree::index {

/// The shared one-sided B-link traversal engine: one implementation of the
/// descend -> chase -> validate -> lock -> retry state machine that the
/// paper's one-sided designs (FG, CG-one-sided) and the hybrid design's
/// leaf resolution are built on. LeafChainIndex writes the per-op code over
/// it once; a design is a *policy triple* over this engine instead of its
/// own copy of the protocol:
///
///   root policy  - which tree to start in and where its root lives. The
///                  engine owns a table of trees: FG registers one global
///                  tree (round-robin allocation, catalog slot on server
///                  0); CG-one-sided registers one tree per partition
///                  (fixed-server allocation, catalog slot on server s);
///                  the hybrid registers its global leaf chain as one
///                  round-robin tree without a root and resolves leaves
///                  by RPC instead, fronted by ResolveCached over the
///                  upper-level images its RPC responses carry.
///   cache policy - no cache, or (Options::cache_pages > 0) an inner-node
///                  image cache keyed by remote pointer (Appendix A.4):
///                  one-sided descents and separator installs consult and
///                  seed it, splits seed both halves, and an RPC design
///                  seeds it with the server-side upper-level images its
///                  resolver's responses carry. One cache per compute
///                  machine, shared by its client threads. Stale images
///                  only route too far left: the chase recovers, and the
///                  image that routed a walk which had to chase right is
///                  dropped (RepairRoute).
///   lock policy  - the RemoteOps facade passed into every call: OLC
///                  version validation, CAS lock acquire with capped
///                  backoff and lease-based steal from dead holders, and
///                  doorbell-chained {page WRITE, unlock} /
///                  {sibling, page, unlock} publication.
///
/// Every fence decision goes through PageView::NeedsChase, which encodes
/// the inclusive-inner / exclusive-leaf fence contract in one place.
///
/// Crash faults surface as Status::Unavailable (descents return a null
/// leaf); the tree is valid at every step — B-link: a split is reachable
/// via the left sibling pointer before its separator is installed, and an
/// orphaned lock is lease-stolen.
class TraversalEngine {
 public:
  struct Options {
    uint32_t page_size = 0;
    /// Page budget of each compute machine's inner-image cache (0 = no
    /// cache).
    size_t cache_pages = 0;
    /// One-RTT speculative descent (needs the cache; default off —
    /// bit-identical to the level-by-level loop). Before awaiting
    /// anything, DescendToLeaf walks the cached inner images locally —
    /// including the sibling-chase hops their fences imply — to predict
    /// the root→leaf path. It issues one doorbell-batched READ: the first
    /// predicted page missing from the cache or, when the cache resolves
    /// the whole path and the caller passes a DescentPrefetch with a leaf
    /// buffer, the predicted leaf itself. It then validates top-down,
    /// falling back to the level-by-level loop from the first mispredicted
    /// hop. Staleness
    /// degrades exactly as in the plain loop: a stale image routes too far
    /// left and the chase recovers — speculation can waste batched reads,
    /// never correctness.
    bool speculative_descent = false;
  };

  /// Optional leaf handoff for speculative descents: when the predictor
  /// resolves a full path, the predicted leaf's image rides the same
  /// batch into `leaf_buf` (caller-owned, page-sized). On return,
  /// `leaf_image_valid` says the descent confirmed the predicted leaf and
  /// the image is consistent (unlocked, live server) — the caller may hand
  /// it to LeafLevel::SearchChain as its first-iteration preread and skip
  /// one more round trip.
  ///
  /// Independently of speculation, `parent_buf` (caller-owned,
  /// page-sized), when set, receives a copy of the consistent level-1 image
  /// the descent chose the leaf from — a range scan's prefetch directory
  /// (LeafLevel::ParentDirectory). `parent_valid` says the copy was made;
  /// it is false when the descent ended without a level-1 hop (single-leaf
  /// tree, stale root metadata landing on a leaf).
  ///
  /// Always, `parent` receives the level-1 page the descent chose the leaf
  /// from (null without a level-1 hop): the entry RepairRoute drops when
  /// the leaf walk has to chase right.
  struct DescentPrefetch {
    uint8_t* leaf_buf = nullptr;
    bool leaf_image_valid = false;
    uint8_t* parent_buf = nullptr;
    bool parent_valid = false;
    rdma::RemotePtr parent;
  };

  /// `fabric` maps clients to compute machines and hosts the caches'
  /// `client.cache.*` counters.
  TraversalEngine(rdma::Fabric& fabric, Options opts)
      : fabric_(fabric), opts_(opts) {}

  // ---- Root policy: the tree table ----------------------------------------

  /// Registers a one-sided tree. `alloc_server` < 0 scatters split
  /// allocations round-robin (fine-grained placement); >= 0 pins them to
  /// one server (partitioned placement). `catalog_ptr` is where the root
  /// pointer is published for remote bootstrap (null = unpublished).
  /// Returns the tree id.
  uint32_t AddTree(int32_t alloc_server, rdma::RemotePtr catalog_ptr);

  /// Sets a tree's root after a bulk load (the catalog slot itself is
  /// written by the loader at setup time). `mirrors` (round-robin trees
  /// only; see Tree::mirrors) holds one copy of the root page per memory
  /// server, indexed by server id, null on the root's own server; empty
  /// means the tree is not mirrored.
  void SetRoot(uint32_t tree, rdma::RemotePtr root, uint8_t root_level,
               std::vector<rdma::RemotePtr> mirrors = {});

  uint32_t num_trees() const { return static_cast<uint32_t>(trees_.size()); }
  rdma::RemotePtr root(uint32_t tree) const { return trees_[tree].root; }
  uint8_t root_level(uint32_t tree) const { return trees_[tree].root_level; }
  /// The tree's split placement (see AddTree).
  int32_t alloc_server(uint32_t tree) const {
    return trees_[tree].alloc_server;
  }
  /// Where the tree's root pointer is published (null = unpublished).
  rdma::RemotePtr catalog(uint32_t tree) const {
    return trees_[tree].catalog_ptr;
  }
  /// The tree's root mirrors, indexed by server id (see SetRoot).
  const std::vector<rdma::RemotePtr>& mirrors(uint32_t tree) const {
    return trees_[tree].mirrors;
  }

  // ---- One-sided descent ---------------------------------------------------

  /// Descends tree `tree`'s inner levels one-sided (paper Listing 2) to a
  /// leaf candidate for `key`, consulting/seeding the inner-image cache.
  /// Null means this client died mid-descent. With
  /// Options::speculative_descent the descent is prefixed by the
  /// predict→batch→validate pass (see Options); `prefetch`, when non-null,
  /// additionally requests the predicted leaf's image in the same batch
  /// and/or the level-1 image (see DescentPrefetch). A chase past an inner
  /// node drops the cached image that routed the descent down to it.
  sim::Task<rdma::RemotePtr> DescendToLeaf(RemoteOps& ops, uint32_t tree,
                                           btree::Key key,
                                           DescentPrefetch* prefetch = nullptr);

  /// Route repair after a leaf walk from `leaf`, the route's answer, that
  /// `landed` on another page (LeafLevel walks report the leftmost leaf
  /// that may still hold the key): the level-1 image `descent.parent`
  /// routed the walk to a leaf whose range has since shrunk, so it is
  /// dropped from the machine's cache and the next descent through it
  /// re-reads only that page.
  void RepairRoute(RemoteOps& ops, const DescentPrefetch& descent,
                   rdma::RemotePtr leaf, rdma::RemotePtr landed);

  /// Locally predicts the leaf for `key` from the cached inner images of
  /// the client's machine alone, walking from tree `tree`'s root — Peek
  /// only: no verbs, no LRU touch, no stat skew. Null when the cache
  /// cannot resolve a complete path. Stale predictions are safe for
  /// grouping (MultiGet): they can only name a leaf too far left, and the
  /// chain chase recovers.
  rdma::RemotePtr PredictLeaf(uint32_t client_id, uint32_t tree,
                              btree::Key key) const;
  /// PredictLeaf from an RPC design's partition `root`, a page whose image
  /// (and level) the machine learned from its server.
  rdma::RemotePtr PredictLeaf(uint32_t client_id, rdma::RemotePtr root,
                              btree::Key key) const;

  /// Installs separator `sep` / right child `right` at inner `level` of
  /// tree `tree` after a split of `left`, growing the root through the
  /// catalog when the tree is too short. Unavailable means this client
  /// died mid-install; the tree stays valid via the sibling chain.
  sim::Task<Status> InstallSeparator(RemoteOps& ops, uint32_t tree,
                                     uint8_t level, btree::Key sep,
                                     rdma::RemotePtr left,
                                     rdma::RemotePtr right);

  /// Re-reads tree `tree`'s root pointer from its catalog slot with an
  /// RDMA READ — how a freshly connected compute server bootstraps (§4.2)
  /// — and refreshes the root level from the page header.
  sim::Task<Status> BootstrapFromCatalog(RemoteOps& ops, uint32_t tree);

  // ---- RPC leaf resolution (hybrid root policy) ----------------------------

  /// Resolves `key` to a leaf from the inner images cached on `client_id`'s
  /// machine alone, walking from an RPC design's partition `root` without
  /// a verb: the leaf, with the level-1 page that named it in
  /// `descent->parent` (the image RepairRoute drops if the leaf walk has
  /// to chase). Every page walked is a counted Get. Null sends the caller
  /// to its RPC, with one counted miss at `*frontier`, the first page
  /// without a cached image (null after a garbage route).
  rdma::RemotePtr ResolveCached(uint32_t client_id, rdma::RemotePtr root,
                                btree::Key key, DescentPrefetch* descent,
                                rdma::RemotePtr* frontier);

  // ---- Cache policy --------------------------------------------------------

  /// The inner-image cache of `client_id`'s compute machine, or nullptr
  /// when caching is disabled. Created lazily per machine; its counters
  /// are registered as `client.cache.*` labeled {machine}.
  NodeCache* CacheFor(uint32_t client_id);

 private:
  struct Tree {
    rdma::RemotePtr root;
    uint8_t root_level = 0;
    int32_t alloc_server = -1;
    rdma::RemotePtr catalog_ptr;
    /// Root mirrors of a round-robin tree, indexed by server id: ordinary
    /// pages (own version word and lock) carrying the current root's
    /// entries, so the first READ of an uncached descent spreads over every
    /// server's NIC instead of queueing at the root's. Null on the root's
    /// own server. A mirror is only ever a routing hint: any image of a
    /// page that once was the root routes at worst too far left.
    std::vector<rdma::RemotePtr> mirrors;
  };

  /// Publishes a grown root through the tree's catalog slot. True = done
  /// (or gave up soundly); false = lost the race, caller re-examines.
  sim::Task<bool> TryGrowRoot(RemoteOps& ops, uint32_t tree,
                              uint8_t new_level, btree::Key sep,
                              rdma::RemotePtr left, rdma::RemotePtr right);

  /// The page a routing hop at `ptr` reads: when `ptr` is a mirrored
  /// tree's root, the client's copy — the one on its own machine when
  /// co-located, else the one its client id names, moved to the next live
  /// mirror below it when that server is dead — and else `ptr` itself.
  rdma::RemotePtr HopTarget(nam::ClientContext& ctx, uint32_t tree,
                            rdma::RemotePtr ptr) const;

  /// Reads the image of `ptr` that routes a hop above `level` into `buf`.
  /// At a mirrored root this is one READ of the client's mirror, accepted
  /// when it arrives unlocked from a live server with a level above
  /// `level`; anything else falls back to the primary root. The returned
  /// version is the read page's own: never lock through a mirror's image.
  sim::Task<PageReadResult> ReadHop(RemoteOps& ops, uint32_t tree,
                                    rdma::RemotePtr ptr, uint8_t level,
                                    uint8_t* buf);

  /// Brings every live mirror of `tree` up to its current root: per mirror,
  /// lock it, read the root, write that image under the mirror's own
  /// version and unlock. Each refresh reads the root after taking the
  /// mirror's lock, so concurrent refreshers converge on the latest root.
  /// Call after every publication that changes the current root. Failures
  /// leave a mirror stale, which only costs routing hops.
  sim::Task<void> RefreshMirrors(RemoteOps& ops, uint32_t tree);

  /// Seeds `cache` with a just-published image, patched from the locked
  /// word to the post-release version so later descents validate cleanly.
  void SeedPublishedImage(NodeCache* cache, rdma::RemotePtr ptr,
                          uint8_t* buf);

  /// What one speculative prediction walked through, plus the image its
  /// batch fetched.
  struct SpecState {
    /// Every page pointer the local prediction walked through.
    std::vector<uint64_t> predicted;
    /// First predicted page without a cached image (null when the cache
    /// resolved the whole path); its image rides the batch.
    rdma::RemotePtr frontier;
    /// The page the batch read for the frontier (a root mirror for a
    /// mirrored root, else the frontier itself).
    rdma::RemotePtr frontier_read;
    std::vector<uint8_t> frontier_image;
    /// The frontier image arrived unlocked from a live server.
    bool frontier_valid = false;
    bool attempted = false;       ///< a prediction (with or w/o batch) ran
    bool complete = false;        ///< prediction reached a leaf pointer
    bool leaf_in_batch = false;   ///< predicted leaf rode the batch
    rdma::RemotePtr predicted_leaf;
  };

  /// Walks `cache`'s inner images for `key` from `root`, a level
  /// `root_level` page, without an await (Peek only: no cache mutation,
  /// and the images stay valid throughout because other clients of the
  /// machine touch the cache only while this one is suspended). Returns
  /// the leaf pointer a complete walk reaches, with the level-1 page that
  /// named it in `*parent`; null when a pointer is null, the hop budget
  /// runs out, or a page has no cached inner image — that page is then the
  /// `frontier`. `visited` receives every page walked.
  rdma::RemotePtr WalkCached(const NodeCache& cache, rdma::RemotePtr root,
                             uint8_t root_level, btree::Key key,
                             rdma::RemotePtr* frontier,
                             std::vector<uint64_t>* visited,
                             rdma::RemotePtr* parent = nullptr) const;

  /// The predict→batch half of a speculative descent: walks cached images
  /// locally (Peek — no cache mutation), then issues one doorbell-batched
  /// READ for the first missing page or (optionally) the predicted leaf.
  sim::Task<void> SpeculatePath(RemoteOps& ops, uint32_t tree,
                                btree::Key key, NodeCache* cache,
                                DescentPrefetch* prefetch, SpecState* spec);

  rdma::Fabric& fabric_;
  Options opts_;
  std::vector<Tree> trees_;
  /// Keyed by compute machine (Fabric::ClientMachine).
  std::unordered_map<uint32_t, std::unique_ptr<NodeCache>> caches_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_TRAVERSAL_H_
