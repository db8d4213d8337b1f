#include "index/fine_grained.h"

#include "rdma/memory_region.h"

namespace namtree::index {

FineGrainedIndex::FineGrainedIndex(nam::Cluster& cluster, IndexConfig config)
    : LeafChainIndex(cluster, std::move(config), "fine-grained") {
  AddTree(/*alloc_server=*/-1,
          rdma::RemotePtr::Make(0, rdma::MemoryRegion::CatalogSlotOffset(
                                       cluster.AllocateCatalogSlot())));
}

Status FineGrainedIndex::BulkLoad(std::span<const btree::KV> sorted) {
  const Status status = LoadTree(0, sorted);
  if (!status.ok()) return status;
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

}  // namespace namtree::index
