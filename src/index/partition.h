#ifndef NAMTREE_INDEX_PARTITION_H_
#define NAMTREE_INDEX_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "btree/types.h"
#include "index/index.h"

namespace namtree::index {

/// Maps keys to memory servers for the coarse-grained and hybrid designs.
///
/// Range partitioning derives its split points from the bulk-loaded data
/// and a weight vector (so the paper's 80/12/5/3 attribute-value-skew
/// placement is expressed as weights); hash partitioning scatters keys and
/// therefore requires fan-out to all servers for range queries (Table 2).
class Partitioner {
 public:
  Partitioner(PartitionKind kind, uint32_t num_servers)
      : kind_(kind), num_servers_(num_servers) {}

  PartitionKind kind() const { return kind_; }
  uint32_t num_servers() const { return num_servers_; }

  /// Fixes range boundaries from the sorted bulk-load data: server i
  /// receives `weights[i]` (default: uniform) of the entries. No-op for
  /// hash partitioning.
  void FitBoundaries(std::span<const btree::KV> sorted,
                     std::span<const double> weights);

  /// Overrides range boundaries explicitly (`boundaries[i]` = exclusive
  /// upper bound of server i; size num_servers - 1). The hybrid design uses
  /// this to align partition edges with leaf fences.
  void SetBoundaries(std::vector<btree::Key> boundaries) {
    boundaries_ = std::move(boundaries);
  }

  /// The memory server owning `key`.
  uint32_t ServerFor(btree::Key key) const;

  /// Servers whose partitions intersect [lo, hi), in ascending key order
  /// for range partitioning; all servers for hash partitioning.
  std::vector<uint32_t> ServersFor(btree::Key lo, btree::Key hi) const;

  /// Splits the bulk-load data `sorted` into one run per server, in key
  /// order within each run: contiguous sub-spans of `sorted` under range
  /// partitioning, scattered copies kept in `*scattered` under hash
  /// partitioning (the spans point into it).
  std::vector<std::span<const btree::KV>> Slice(
      std::span<const btree::KV> sorted,
      std::vector<std::vector<btree::KV>>* scattered) const;

  /// Exclusive upper bound of server `s`'s range (range partitioning).
  btree::Key UpperBoundOf(uint32_t s) const {
    return s < boundaries_.size() ? boundaries_[s] : btree::kInfinityKey;
  }

 private:
  static uint64_t HashKey(btree::Key key);

  PartitionKind kind_;
  uint32_t num_servers_;
  // boundaries_[i] = exclusive upper bound of server i (size num_servers-1).
  std::vector<btree::Key> boundaries_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_PARTITION_H_
