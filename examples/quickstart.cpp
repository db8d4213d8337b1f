// Quickstart: bring up a simulated NAM cluster, bulk-load the hybrid
// distributed index, and run point queries, a range scan, inserts and a
// delete from a compute-server client.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "index/hybrid.h"
#include "nam/cluster.h"
#include "sim/task.h"

using namespace namtree;

namespace {

// Client logic runs as a coroutine in simulated time: every co_await is a
// real protocol step (RPCs and one-sided verbs) against the memory servers.
sim::Task<> ClientMain(index::DistributedIndex& index,
                       nam::ClientContext& ctx) {
  // Point lookup.
  index::LookupResult hit = co_await index.Lookup(ctx, 4200);
  std::printf("lookup(4200)  -> %s (value=%llu)\n",
              hit.found ? "found" : "missing",
              static_cast<unsigned long long>(hit.value));

  // Insert a new key, then find it.
  (void)co_await index.Insert(ctx, 4201, 999);
  hit = co_await index.Lookup(ctx, 4201);
  std::printf("insert(4201) + lookup -> %s (value=%llu)\n",
              hit.found ? "found" : "missing",
              static_cast<unsigned long long>(hit.value));

  // Range scan [4000, 4250).
  std::vector<btree::KV> out;
  const uint64_t n = co_await index.Scan(ctx, 4000, 4250, &out);
  std::printf("scan[4000,4250) -> %llu entries, first=(%llu,%llu) "
              "last=(%llu,%llu)\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(out.front().key),
              static_cast<unsigned long long>(out.front().value),
              static_cast<unsigned long long>(out.back().key),
              static_cast<unsigned long long>(out.back().value));

  // Delete (tombstone) and verify.
  (void)co_await index.Delete(ctx, 4200);
  hit = co_await index.Lookup(ctx, 4200);
  std::printf("delete(4200) + lookup -> %s\n",
              hit.found ? "still there?!" : "gone");

  // Epoch GC reclaims the tombstone.
  const uint64_t reclaimed = co_await index.GarbageCollect(ctx);
  std::printf("garbage collect -> reclaimed %llu entries\n",
              static_cast<unsigned long long>(reclaimed));

  std::printf("client issued %llu network round trips in %s of virtual "
              "time\n",
              static_cast<unsigned long long>(ctx.round_trips),
              FormatDuration(ctx.fabric().simulator().now()).c_str());
}

}  // namespace

int main() {
  // A NAM cluster: 4 memory servers (64 MiB registered memory each) behind
  // a simulated FDR-4x fabric. Compute clients are coroutines.
  rdma::FabricConfig fabric_config;  // paper §6.1 defaults
  nam::Cluster cluster(fabric_config, /*region_bytes_per_server=*/64 << 20);

  // Design 3 (hybrid): range-partitioned inner levels accessed by RPC,
  // globally scattered leaf level accessed one-sided.
  index::IndexConfig index_config;  // 1KB pages (the paper's default)
  index::HybridIndex index(cluster, index_config);

  // Bulk-load 100K sequential keys: key = 2*i, value = i.
  std::vector<btree::KV> data;
  for (uint64_t i = 0; i < 100000; ++i) data.push_back({i * 2, i});
  Status status = index.BulkLoad(data);
  if (!status.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu keys into '%s' across %u memory servers\n\n",
              data.size(), index.name().c_str(),
              cluster.num_memory_servers());

  nam::ClientContext ctx(/*client_id=*/0, cluster.fabric(),
                         index.page_size());
  sim::Spawn(cluster.simulator(), ClientMain(index, ctx));
  cluster.simulator().Run();
  return 0;
}
