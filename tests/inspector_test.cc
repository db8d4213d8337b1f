// Tests for the structural invariant inspector, and inspector-backed
// stress validation: after heavy concurrent mutation, every design's
// physical structure must still satisfy all B-link invariants.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "index/inspector.h"
#include "nam/cluster.h"
#include "ycsb/runner.h"
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

std::vector<KV> MakeData(uint64_t n) {
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  return data;
}

IndexConfig SmallPages() {
  IndexConfig config;
  config.page_size = 256;
  return config;
}

TEST(InspectorTest, FreshFineGrainedIndexIsSound) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad(MakeData(20000)).ok());
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.live_entries, 20000u);
  EXPECT_EQ(report.tombstones, 0u);
  EXPECT_GT(report.leaf_pages, 0u);
  EXPECT_GE(report.height, 3u);
}

TEST(InspectorTest, FreshCoarseGrainedIndexIsSound) {
  Cluster cluster(Config(), 64 << 20);
  IndexConfig config = SmallPages();
  config.partition_weights = {0.80, 0.12, 0.05, 0.03};
  CoarseGrainedIndex index(cluster, config);
  ASSERT_TRUE(index.BulkLoad(MakeData(20000)).ok());
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.live_entries, 20000u);
}

TEST(InspectorTest, FreshHybridIndexIsSound) {
  Cluster cluster(Config(), 64 << 20);
  HybridIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad(MakeData(20000)).ok());
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.live_entries, 20000u);
}

TEST(InspectorTest, FreshCoarseOneSidedIndexIsSound) {
  Cluster cluster(Config(), 64 << 20);
  CoarseOneSidedIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad(MakeData(20000)).ok());
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.live_entries, 20000u);
}

TEST(InspectorTest, CoarseOneSidedSurvivesMixedWorkload) {
  Cluster cluster(Config(), 64 << 20);
  CoarseOneSidedIndex index(cluster, SmallPages());
  const uint64_t keys = 5000;
  ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());
  ycsb::RunConfig run;
  run.num_clients = 24;
  run.warmup = 0;
  run.duration = 30 * kMillisecond;
  run.gc_interval = 5 * kMillisecond;
  ycsb::WorkloadMix mix;
  mix.point = 0.30;
  mix.range = 0.10;
  mix.insert = 0.35;
  mix.update = 0.10;
  mix.remove = 0.15;
  mix.range_selectivity = 0.01;
  run.mix = mix;
  const auto result = ycsb::RunWorkload(cluster, index, keys, run);
  ASSERT_GT(result.ops(), 1000u);
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InspectorTest, DetectsCorruptedFence) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad(MakeData(1000)).ok());
  // Corrupt a leaf: smash the high fence of the first leaf below its keys.
  const rdma::RemotePtr first = index.first_leaf();
  btree::PageView page(
      cluster.fabric().region(first.server_id())->at(first.offset()),
      SmallPages().page_size);
  page.header().high_key = 0;
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_FALSE(report.ok());
}

TEST(InspectorTest, DetectsDanglingLock) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad(MakeData(1000)).ok());
  const rdma::RemotePtr first = index.first_leaf();
  btree::PageView page(
      cluster.fabric().region(first.server_id())->at(first.offset()),
      SmallPages().page_size);
  page.header().version_lock |= 1;  // leaked lock
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_FALSE(report.ok());
}

TEST(InspectorTest, DetectsOutOfOrderEntries) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad(MakeData(1000)).ok());
  const rdma::RemotePtr first = index.first_leaf();
  btree::PageView page(
      cluster.fabric().region(first.server_id())->at(first.offset()),
      SmallPages().page_size);
  ASSERT_GE(page.count(), 2u);
  std::swap(page.leaf_entries()[0], page.leaf_entries()[1]);
  page.leaf_entries()[0].key = 1'000'000;  // way out of order
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_FALSE(report.ok());
}

// ---- Inspector-backed stress: run a heavy mixed workload, then validate
// the physical structure of every design. -----------------------------------

class InspectorStressTest
    : public ::testing::TestWithParam<std::pair<int, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    DesignsAndSeeds, InspectorStressTest,
    ::testing::Values(std::make_pair(0, 1u), std::make_pair(1, 2u),
                      std::make_pair(2, 3u), std::make_pair(0, 4u),
                      std::make_pair(1, 5u), std::make_pair(2, 6u)));

TEST_P(InspectorStressTest, StructureSurvivesMixedWorkload) {
  const auto [design, seed] = GetParam();
  Cluster cluster(Config(), 64 << 20);
  IndexConfig config = SmallPages();
  std::unique_ptr<DistributedIndex> index;
  CoarseGrainedIndex* cg = nullptr;
  FineGrainedIndex* fg = nullptr;
  HybridIndex* hy = nullptr;
  switch (design) {
    case 0:
      cg = new CoarseGrainedIndex(cluster, config);
      index.reset(cg);
      break;
    case 1:
      fg = new FineGrainedIndex(cluster, config);
      index.reset(fg);
      break;
    default:
      hy = new HybridIndex(cluster, config);
      index.reset(hy);
      break;
  }
  const uint64_t keys = 5000;
  ASSERT_TRUE(index->BulkLoad(MakeData(keys)).ok());

  ycsb::RunConfig run;
  run.num_clients = 24;
  run.warmup = 0;
  run.duration = 30 * kMillisecond;
  run.seed = seed;
  run.gc_interval = 5 * kMillisecond;
  ycsb::WorkloadMix mix;
  mix.point = 0.30;
  mix.range = 0.10;
  mix.insert = 0.35;
  mix.update = 0.10;
  mix.remove = 0.15;
  mix.range_selectivity = 0.01;
  run.mix = mix;
  const auto result = ycsb::RunWorkload(cluster, *index, keys, run);
  ASSERT_GT(result.ops(), 1000u);

  IndexInspector::Report report;
  if (cg != nullptr) {
    report = IndexInspector::Inspect(cluster.fabric(), *cg);
  } else if (fg != nullptr) {
    report = IndexInspector::Inspect(cluster.fabric(), *fg);
  } else {
    report = IndexInspector::Inspect(cluster.fabric(), *hy);
  }
  EXPECT_TRUE(report.ok()) << index->name() << " seed " << seed << ": "
                           << report.ToString();
  EXPECT_GT(report.live_entries, 0u);
}

}  // namespace
}  // namespace namtree::index
