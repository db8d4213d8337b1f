#ifndef NAMTREE_INDEX_LEAF_LEVEL_H_
#define NAMTREE_INDEX_LEAF_LEVEL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "btree/bulk_load.h"
#include "btree/page.h"
#include "btree/types.h"
#include "common/status.h"
#include "index/index.h"
#include "index/remote_ops.h"
#include "rdma/fabric.h"
#include "rdma/remote_ptr.h"
#include "sim/task.h"

namespace namtree::index {

/// The fine-grained leaf level shared by Design 2 (FG) and Design 3
/// (hybrid): a globally linked B-link chain of leaf pages scattered
/// round-robin over all memory servers, accessed purely with one-sided
/// verbs. Range scans prefetch leaves in doorbell batches named by the
/// leaf-parent level (paper §4.3; see ScanDirectory).
///
/// All functions are stateless: chain state lives entirely in the memory
/// servers' regions.
class LeafLevel {
 public:
  /// A range scan's prefetch directory: the leaf-parent level, which lists
  /// consecutive leaves in chain order. ScanChain asks it for a run of
  /// leaf pointers, reads the whole run as one doorbell batch, and
  /// consumes the images in chain order, so a directory that is out of
  /// date (a split it does not list yet, a drained leaf) costs extra reads
  /// but never correctness.
  class ScanDirectory {
   public:
    virtual ~ScanDirectory() = default;

    /// Fills `run` with the leaf pointers, in chain order, that the scan
    /// should read next. `next` is the chain's next unread leaf (null
    /// before the first one: the directory then names the start), and
    /// [`cursor`, `hi`) is what is left of the range. A run that does not
    /// start at `next` (or an empty one) makes the scan read `next` alone.
    /// `extra`, when set, names one more page for the same batch; its
    /// consistent image is handed back through Absorb. A non-OK status
    /// ends the scan with that status.
    virtual sim::Task<Status> NextRun(RemoteOps ops, btree::Key cursor,
                                      btree::Key hi, rdma::RemotePtr next,
                                      std::vector<uint64_t>* run,
                                      rdma::RemotePtr* extra) = 0;

    /// Receives the image of the last run's `extra` page.
    virtual void Absorb(const uint8_t* /*image*/) {}
  };

  /// The one-sided designs' directory: the level-1 inner node the descent
  /// routed through. A run is that node's children from `next` up to the
  /// last one whose range starts below `hi`. When the range runs past the
  /// node's high fence, its right sibling rides the batch as `extra` and
  /// becomes the directory for the following run.
  class ParentDirectory : public ScanDirectory {
   public:
    /// `parent` is a consistent level-1 image of `page_size` bytes; it is
    /// copied.
    ParentDirectory(const uint8_t* parent, uint32_t page_size);

    sim::Task<Status> NextRun(RemoteOps ops, btree::Key cursor,
                              btree::Key hi, rdma::RemotePtr next,
                              std::vector<uint64_t>* run,
                              rdma::RemotePtr* extra) override;
    void Absorb(const uint8_t* image) override;

   private:
    uint32_t page_size_;
    std::vector<uint8_t> parent_;
    std::vector<uint8_t> sibling_;
    bool has_sibling_ = false;
  };

  /// Outcome of `InsertAt` when the target leaf had to be split.
  struct SplitInfo {
    bool split = false;
    btree::Key separator = 0;
    rdma::RemotePtr right;
  };

  struct BuildResult {
    /// (low key, pointer) of every leaf, for building upper levels.
    std::vector<btree::ChildRef> leaf_refs;
    /// First page of the chain (the leftmost leaf).
    rdma::RemotePtr first;
    /// The tree's root and its level (with `inner_levels` only).
    rdma::RemotePtr root;
    uint8_t root_level = 0;
    /// Copies of an inner root, one per memory server indexed by server id,
    /// null on the root's own server (round-robin trees with
    /// `inner_levels` only; see TraversalEngine::SetRoot).
    std::vector<rdma::RemotePtr> mirrors;
  };

  /// Builds the chain over `sorted` at setup time (direct region writes):
  /// leaves round-robin across servers from server 0, or all on
  /// `fixed_server` when >= 0 (coarse-grained one-sided partitions). With
  /// `inner_levels`, also builds the inner levels above it, placed the same
  /// way but round-robin from server 1 so the levels interleave; a
  /// round-robin tree whose root is an inner page also gets a root mirror
  /// on every other server.
  static Status Build(rdma::Fabric& fabric, std::span<const btree::KV> sorted,
                      const IndexConfig& config, BuildResult* out,
                      int32_t fixed_server = -1, bool inner_levels = false);

  /// Point search starting at the leaf that covers `key` (chases
  /// siblings). Listing 2's leaf phase. `preread`, when non-null,
  /// is a consistent (unlocked) image of the page at `start` the caller
  /// already holds — a speculative-descent prefetch — consumed in place of
  /// the first remote read; chases past it read remotely as usual.
  ///
  /// `landed`, here and in the other single-key walks, when non-null
  /// receives where the walk landed: the leftmost visited leaf that may
  /// still hold `key`. That is `start` unless the walk chased past leaves
  /// whose high fence is strictly below `key` (a fence equal to `key` may
  /// keep duplicates of it, see PageView::SplitLeafInto). Any other landing
  /// proves the route to `start` stale (TraversalEngine::RepairRoute).
  static sim::Task<LookupResult> SearchChain(
      RemoteOps ops, rdma::RemotePtr start, btree::Key key,
      const uint8_t* preread = nullptr, rdma::RemotePtr* landed = nullptr);

  /// Multi-point search (Index::MultiGet): serves `keys` — ascending, all
  /// routed to the chain position at `start` by the caller's grouping —
  /// with one READ per *visited page* instead of one chain walk per key:
  /// every key covered by the current image is answered locally, and the
  /// walk chases right only once the next key is beyond the current fence.
  /// `results[i]` corresponds to `keys[i]`. Stops on the first failed read
  /// (remaining results carry its status).
  static sim::Task<Status> SearchChainMulti(RemoteOps ops,
                                            rdma::RemotePtr start,
                                            std::span<const btree::Key> keys,
                                            LookupResult* results);

  /// Range scan over [lo, hi) starting at the leaf `start` covering `lo`
  /// (null: `directory` names the start). With a `directory`, every run it
  /// lists is read as one selectively-signaled doorbell batch (§4.3); each
  /// member is consumed only if it is the leaf the chain names next, so a
  /// split the directory does not know yet or a drained leaf falls back to
  /// single reads (counted in client.scan_prefetch_fallbacks). Without a
  /// directory the scan walks the chain one READ per leaf. Appends to
  /// `out` if non-null; returns the hit count. `status`, when non-null,
  /// receives OK on a complete pass or the failing read's status
  /// (kUnavailable for a dead client/server, kTimedOut for an exhausted
  /// flaky-net retry budget) when the count is partial.
  static sim::Task<uint64_t> ScanChain(RemoteOps ops, rdma::RemotePtr start,
                                       btree::Key lo, btree::Key hi,
                                       std::vector<btree::KV>* out,
                                       Status* status = nullptr,
                                       ScanDirectory* directory = nullptr);

  /// One-sided insert into the chain at the leaf covering `key` (Listing 2
  /// leaf phase): remote CAS lock, local modify, WRITE + FAA unlock. On a
  /// split, the new right page is allocated via RDMA_ALLOC — round-robin
  /// across servers, or on `alloc_server` when >= 0 — and reported through
  /// `split` so the caller can install the separator.
  static sim::Task<Status> InsertAt(RemoteOps ops, rdma::RemotePtr start,
                                    btree::Key key, btree::Value value,
                                    SplitInfo* split,
                                    int32_t alloc_server = -1,
                                    rdma::RemotePtr* landed = nullptr);

  /// One-sided in-place value update of the first live entry with `key`.
  static sim::Task<Status> UpdateAt(RemoteOps ops, rdma::RemotePtr start,
                                    btree::Key key, btree::Value value,
                                    rdma::RemotePtr* landed = nullptr);

  /// Collects the values of all live entries with `key`, chasing the chain
  /// across duplicate runs. Returns the number found.
  static sim::Task<uint64_t> CollectAt(RemoteOps ops, rdma::RemotePtr start,
                                       btree::Key key,
                                       std::vector<btree::Value>* out,
                                       rdma::RemotePtr* landed = nullptr);

  /// One-sided tombstone delete at the leaf covering `key`.
  static sim::Task<Status> DeleteAt(RemoteOps ops, rdma::RemotePtr start,
                                    btree::Key key,
                                    rdma::RemotePtr* landed = nullptr);

  /// Epoch-GC pass run from a compute server: compacts tombstoned entries
  /// out of every leaf using the one-sided lock protocol. Returns the
  /// number of reclaimed entries.
  static sim::Task<uint64_t> CompactChain(RemoteOps ops,
                                          rdma::RemotePtr first);

  /// Epoch rebalancing (the paper's "removing and re-balancing the index
  /// in regular intervals"): migrates adjacent underfull leaf pairs into a
  /// fresh round-robin page (preserving the chain's server scatter), marks
  /// the pair drained (empty, high fence 0, rerouted to the absorber, so
  /// every search chases into it), and unlinks previously drained pages.
  /// Merging happens when the combined live entries fit within
  /// `max_fill_percent` of a leaf and never straddles a duplicate run.
  /// Intended to run from the single epoch-GC thread (it holds two page
  /// locks left-to-right). Returns the number of pages drained or unlinked.
  static sim::Task<uint64_t> RebalanceChain(RemoteOps ops,
                                            rdma::RemotePtr first,
                                            uint32_t max_fill_percent);

  /// Collects the pointers of all leaves by walking the chain
  /// (diagnostics / maintenance).
  static sim::Task<uint64_t> CountChain(RemoteOps ops, rdma::RemotePtr first,
                                        uint64_t* live_entries,
                                        uint64_t* tombstones);

 private:
  /// The walk every single-key writer starts with: chases from `*ptr` to
  /// the leaf to modify for `key` — the first that needs no chase or, with
  /// `live`, the first holding a live entry of `key` — and locks it at the
  /// version read. The locked image is left in page_a, stamped locked.
  /// NotFound (with `live`) when no leaf that may hold `key` has a live
  /// entry of it.
  static sim::Task<Status> LockLeafFor(RemoteOps& ops, rdma::RemotePtr* ptr,
                                       btree::Key key, bool live,
                                       rdma::RemotePtr* landed);

  /// The shared walk of UpdateAt and DeleteAt: chases to the leaf holding a
  /// live entry with `key`, locks it at the version read, applies `modify`
  /// to the image and publishes it with one {WRITE, unlock} chain.
  /// NotFound when no leaf that may hold `key` has a live entry of it.
  static sim::Task<Status> ModifyLiveAt(
      RemoteOps ops, rdma::RemotePtr start, btree::Key key,
      rdma::RemotePtr* landed, std::function<bool(btree::PageView)> modify);

  /// Locks (left, right) in chain order, migrates both pages' live entries
  /// into a fresh round-robin page (preserving the chain's server scatter),
  /// drains the pair, and bypasses it from `prev` when possible. Returns
  /// false (all locks released, nothing changed) when the chain moved or
  /// the merge preconditions fail under the locks.
  static sim::Task<bool> TryMerge(RemoteOps ops, rdma::RemotePtr prev,
                                  rdma::RemotePtr left, rdma::RemotePtr right,
                                  rdma::RemotePtr* replacement,
                                  bool* relinked, uint64_t* changed);
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_LEAF_LEVEL_H_
