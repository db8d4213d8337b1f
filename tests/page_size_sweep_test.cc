// Parameterized page-size sweep through the full distributed stack: every
// design must be correct at every supported node size (the layout math,
// fences and split logic all depend on P).

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/inspector.h"
#include "nam/cluster.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

class PageSizeSweepTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<int, uint32_t>>& info) {
  static const char* kNames[] = {"Coarse", "Fine", "Hybrid",
                                 "CoarseOneSided"};
  return std::string(kNames[std::get<0>(info.param)]) + "_P" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndSizes, PageSizeSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(256u, 512u, 1024u, 4096u)),
    SweepName);

TEST_P(PageSizeSweepTest, EndToEndCorrectness) {
  const auto [design, page_size] = GetParam();
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig config;
  config.page_size = page_size;
  std::unique_ptr<DistributedIndex> index;
  switch (design) {
    case 0:
      index = std::make_unique<CoarseGrainedIndex>(cluster, config);
      break;
    case 1:
      index = std::make_unique<FineGrainedIndex>(cluster, config);
      break;
    case 2:
      index = std::make_unique<HybridIndex>(cluster, config);
      break;
    default:
      index = std::make_unique<CoarseOneSidedIndex>(cluster, config);
      break;
  }

  const uint64_t n = 8000;
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index->BulkLoad(data).ok());

  ClientContext ctx(0, cluster.fabric(), page_size, 1);
  struct Driver {
    static Task<> Go(DistributedIndex& index, ClientContext& ctx,
                     uint64_t n) {
      // Reads.
      for (uint64_t i = 0; i < n; i += 37) {
        const LookupResult hit = co_await index.Lookup(ctx, i * 4);
        EXPECT_TRUE(hit.found);
        EXPECT_EQ(hit.value, i);
        EXPECT_FALSE((co_await index.Lookup(ctx, i * 4 + 2)).found);
      }
      // Split-heavy inserts.
      for (uint64_t i = 0; i < n; i += 2) {
        EXPECT_TRUE((co_await index.Insert(ctx, i * 4 + 1, i)).ok());
      }
      // Deletes + GC.
      for (uint64_t i = 0; i < n; i += 4) {
        EXPECT_TRUE((co_await index.Delete(ctx, i * 4)).ok());
      }
      (void)co_await index.GarbageCollect(ctx);
      // Full scan: n - n/4 originals + n/2 inserts.
      const uint64_t count =
          co_await index.Scan(ctx, 0, btree::kInfinityKey, nullptr);
      EXPECT_EQ(count, n - n / 4 + n / 2);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(*index, ctx, n));
  cluster.simulator().Run();
}

}  // namespace
}  // namespace namtree::index
