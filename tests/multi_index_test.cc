// Multi-index deployments: several indexes (RPC-based and one-sided) share
// one NAM cluster — memory servers route RPCs by service id, catalog slots
// are allocated per index, and the regions hold all structures side by
// side. This is the composability a real database needs (one table has
// many secondary indexes).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "index/coarse_grained.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/inspector.h"
#include "nam/cluster.h"
#include "ycsb/workload.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

rdma::FabricConfig Config() {
  rdma::FabricConfig config;
  config.num_memory_servers = 4;
  return config;
}

IndexConfig SmallPages() {
  IndexConfig config;
  config.page_size = 256;
  return config;
}

TEST(MultiIndexTest, TwoRpcIndexesShareTheWorkerPool) {
  Cluster cluster(Config(), 64 << 20);
  CoarseGrainedIndex primary(cluster, SmallPages());
  HybridIndex secondary(cluster, SmallPages());

  // "Primary": key -> row id. "Secondary": a different key space (as if
  // indexing another column) -> row id.
  std::vector<KV> primary_data;
  std::vector<KV> secondary_data;
  for (uint64_t i = 0; i < 5000; ++i) {
    primary_data.push_back({i * 2, i});
    secondary_data.push_back({1'000'000 + i * 3, i});
  }
  ASSERT_TRUE(primary.BulkLoad(primary_data).ok());
  ASSERT_TRUE(secondary.BulkLoad(secondary_data).ok());

  cluster.fabric().SetNumClients(4);
  struct Driver {
    static Task<> Go(DistributedIndex& a, DistributedIndex& b,
                     ClientContext& ctx, uint64_t seed) {
      Rng rng(seed);
      for (int i = 0; i < 300; ++i) {
        const uint64_t row = rng.NextBelow(5000);
        const LookupResult pa = co_await a.Lookup(ctx, row * 2);
        EXPECT_TRUE(pa.found);
        EXPECT_EQ(pa.value, row);
        const LookupResult pb =
            co_await b.Lookup(ctx, 1'000'000 + row * 3);
        EXPECT_TRUE(pb.found);
        EXPECT_EQ(pb.value, row);
        // Cross-index writes interleave freely.
        EXPECT_TRUE((co_await a.Insert(ctx, row * 2 + 1, row)).ok());
        EXPECT_TRUE(
            (co_await b.Insert(ctx, 1'000'000 + row * 3 + 1, row)).ok());
      }
    }
  };
  std::vector<std::unique_ptr<ClientContext>> ctxs;
  for (uint32_t c = 0; c < 4; ++c) {
    ctxs.push_back(std::make_unique<ClientContext>(c, cluster.fabric(), 256,
                                                   c + 1));
    Spawn(cluster.simulator(),
          Driver::Go(primary, secondary, *ctxs[c], c + 1));
  }
  cluster.simulator().Run();

  // Both structures stay sound, and neither index tripped the fabric's
  // verb-protocol auditor while interleaving on shared memory servers.
  const auto ra = IndexInspector::Inspect(cluster.fabric(), primary);
  EXPECT_TRUE(ra.ok()) << ra.ToString();
  const auto rb = IndexInspector::Inspect(cluster.fabric(), secondary);
  EXPECT_TRUE(rb.ok()) << rb.ToString();
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

TEST(MultiIndexTest, OneSidedIndexesGetDistinctCatalogSlots) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex a(cluster, SmallPages());
  FineGrainedIndex b(cluster, SmallPages());

  std::vector<KV> data_a;
  std::vector<KV> data_b;
  for (uint64_t i = 0; i < 3000; ++i) {
    data_a.push_back({i * 2, i});
    data_b.push_back({i * 5, 100000 + i});
  }
  ASSERT_TRUE(a.BulkLoad(data_a).ok());
  ASSERT_TRUE(b.BulkLoad(data_b).ok());
  EXPECT_NE(a.root().raw(), b.root().raw());

  // Force root growth in both (splits all the way up) and verify their
  // catalog updates never clobber each other.
  ClientContext ctx(0, cluster.fabric(), 256, 1);
  struct Driver {
    static Task<> Go(FineGrainedIndex& a, FineGrainedIndex& b,
                     ClientContext& ctx) {
      for (uint64_t i = 0; i < 3000; ++i) {
        EXPECT_TRUE((co_await a.Insert(ctx, i * 2 + 1, i)).ok());
        EXPECT_TRUE((co_await b.Insert(ctx, i * 5 + 1, i)).ok());
      }
      // Both still fully queryable.
      EXPECT_EQ(co_await a.Scan(ctx, 0, btree::kInfinityKey, nullptr),
                6000u);
      EXPECT_EQ(co_await b.Scan(ctx, 0, btree::kInfinityKey, nullptr),
                6000u);
      const LookupResult ra = co_await a.Lookup(ctx, 99);
      EXPECT_TRUE(ra.found);
      const LookupResult rb = co_await b.Lookup(ctx, 96);
      EXPECT_TRUE(rb.found);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(a, b, ctx));
  cluster.simulator().Run();

  const auto report_a = IndexInspector::Inspect(cluster.fabric(), a);
  EXPECT_TRUE(report_a.ok()) << report_a.ToString();
  const auto report_b = IndexInspector::Inspect(cluster.fabric(), b);
  EXPECT_TRUE(report_b.ok()) << report_b.ToString();
}

TEST(MultiIndexTest, UnknownServiceGetsUnsupported) {
  Cluster cluster(Config(), 64 << 20);
  CoarseGrainedIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad({}).ok());
  cluster.fabric().SetNumClients(1);

  struct Driver {
    static Task<> Go(Cluster& cluster, uint16_t* status) {
      rdma::RpcRequest req;
      req.service = 999;  // never registered
      req.op = 1;
      rdma::RpcResponse resp =
          co_await cluster.fabric().Call(0, 0, std::move(req));
      *status = resp.status;
    }
  };
  uint16_t status = 0;
  Spawn(cluster.simulator(), Driver::Go(cluster, &status));
  cluster.simulator().Run();
  EXPECT_EQ(status, static_cast<uint16_t>(StatusCode::kUnsupported));
}

}  // namespace
}  // namespace namtree::index
