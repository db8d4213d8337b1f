#include "index/coarse_one_sided.h"

#include "rdma/memory_region.h"

namespace namtree::index {

using btree::KV;

CoarseOneSidedIndex::CoarseOneSidedIndex(nam::Cluster& cluster,
                                         IndexConfig config)
    : LeafChainIndex(cluster, std::move(config), "coarse-one-sided"),
      partitioner_(config_.partition, cluster.num_memory_servers()) {
  // One tree per partition: splits allocate on the partition's server and
  // the root is published in that server's catalog slot.
  const uint32_t catalog_slot = cluster.AllocateCatalogSlot();
  for (uint32_t s = 0; s < cluster.num_memory_servers(); ++s) {
    AddTree(static_cast<int32_t>(s),
            rdma::RemotePtr::Make(
                s, rdma::MemoryRegion::CatalogSlotOffset(catalog_slot)));
  }
}

Status CoarseOneSidedIndex::BulkLoad(std::span<const KV> sorted) {
  partitioner_.FitBoundaries(sorted, config_.partition_weights);
  std::vector<std::vector<KV>> scattered;
  const std::vector<std::span<const KV>> slices =
      partitioner_.Slice(sorted, &scattered);
  for (uint32_t s = 0; s < num_trees(); ++s) {
    const Status status = LoadTree(s, slices[s]);
    if (!status.ok()) return status;
  }
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

}  // namespace namtree::index
