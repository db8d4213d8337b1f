// Tests for seeded schedule exploration (src/sim/simulator.h): the
// schedule seed must permute equal-timestamp tie-breaks deterministically,
// ScheduleExplorer must shrink to the minimal failing seed and confirm
// deterministic replay, and the real index designs must stay audit-clean —
// no kRemoteRace, no protocol findings — across a family of legal
// schedules, with and without crash injection and bounded delay injection.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "fabric_verbs.h"
#include "index/fine_grained.h"
#include "nam/cluster.h"
#include "rdma/audit.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace namtree::sim {
namespace {

using rdma::ViolationKind;

/// Seeds explored by the workload tests below; NAMTREE_EXPLORE_SEEDS widens
/// the sweep (the CI schedule-exploration job and check.sh --explore also
/// pass seeds to the full suite via NAMTREE_SCHEDULE_SEED).
uint32_t ExploreSeeds() {
  if (const char* env = std::getenv("NAMTREE_EXPLORE_SEEDS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return static_cast<uint32_t>(n);
  }
  return 8;
}

Task<> ArriveTogether(Simulator& simulator, int id, std::vector<int>& order) {
  // Every spawned instance resumes at the same virtual instant: the firing
  // order among them is exactly the tie-break the schedule seed permutes.
  co_await Delay(simulator, 100);
  order.push_back(id);
}

std::vector<int> OrderUnderSeed(uint64_t seed) {
  Simulator simulator;
  simulator.ConfigureSchedule(seed);
  std::vector<int> order;
  for (int id = 0; id < 6; ++id) {
    Spawn(simulator, ArriveTogether(simulator, id, order));
  }
  simulator.Run();
  return order;
}

TEST(ScheduleSeedTest, PermutesEqualTimestampTiesDeterministically) {
  // Seed 0 is the legacy FIFO tie-break: schedule order.
  const std::vector<int> fifo = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(OrderUnderSeed(0), fifo);

  std::set<std::vector<int>> distinct;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const std::vector<int> order = OrderUnderSeed(seed);
    // Determinism: the same seed always yields the same order.
    EXPECT_EQ(order, OrderUnderSeed(seed)) << "seed " << seed;
    distinct.insert(order);
  }
  // The seed is a real degree of freedom, not a no-op relabeling.
  EXPECT_GE(distinct.size(), 4u)
      << "16 seeds must explore several equal-time firing orders";
}

TEST(ScheduleExplorerTest, FindsMinimalSeedAndConfirmsReplay) {
  // Synthetic body with a known failure frontier: seeds >= 13 fail.
  const auto body = [](uint64_t seed) {
    return seed >= 13 ? Status::Corruption("boom") : Status::OK();
  };

  ScheduleExplorer::Options options;
  options.base_seed = 10;
  options.num_seeds = 8;  // seeds 10..17
  const auto report = ScheduleExplorer::Explore(options, body);

  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.first_failing_seed, 13u);
  // Ascending exploration + stop_at_first_failure: 10, 11, 12, 13.
  EXPECT_EQ(report.seeds_run, 4u);
  ASSERT_EQ(report.failing_seeds.size(), 1u);
  EXPECT_TRUE(report.replay_deterministic);
  EXPECT_EQ(report.first_failure.code(), StatusCode::kCorruption);
  EXPECT_NE(report.ToString().find("13"), std::string::npos)
      << report.ToString();

  // Without early stop the whole range runs and every failure is listed.
  options.stop_at_first_failure = false;
  const auto full = ScheduleExplorer::Explore(options, body);
  EXPECT_EQ(full.seeds_run, 8u);
  EXPECT_EQ(full.failing_seeds.size(), 5u);
  EXPECT_EQ(full.first_failing_seed, 13u);
}

TEST(ScheduleExplorerTest, CleanBodyRunsEverySeed) {
  ScheduleExplorer::Options options;
  options.base_seed = 0;
  options.num_seeds = 5;
  const auto report = ScheduleExplorer::Explore(
      options, [](uint64_t) { return Status::OK(); });
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.seeds_run, 5u);
  EXPECT_TRUE(report.first_failure.ok());
  EXPECT_TRUE(report.replay_deterministic);
  EXPECT_NE(report.ToString().find("clean"), std::string::npos)
      << report.ToString();
}

Task<> RoguePageWrite(rdma::Fabric& fabric, uint32_t client,
                      rdma::RemotePtr page, uint64_t word) {
  std::vector<uint8_t> image(256, 0);
  std::memcpy(image.data(), &word, 8);
  co_await PostWrite(fabric, client, page, image.data(), image.size());
}

Task<> LockedCycle(rdma::Fabric& fabric, uint32_t client,
                   rdma::RemotePtr page) {
  (void)co_await PostCas(fabric, client, page, 0, 1);
  std::vector<uint8_t> image(256, 0);
  const uint64_t locked = 1;
  std::memcpy(image.data(), &locked, 8);
  co_await PostWrite(fabric, client, page, image.data(), image.size());
  (void)co_await PostFaa(fabric, client, page, 1);
}

TEST(ScheduleExplorerTest, InjectedRaceFailsEverySeedAndReplays) {
  // An actually-broken protocol (two unsynchronized writers) must fail on
  // the very first seed, and CI's one-command reproduction contract — the
  // failing seed replays to the same verdict — must hold. The verb trace
  // gives the artifact CI uploads next to the seed.
  std::string trace;
  const auto body = [&trace](uint64_t seed) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 1;
    fc.schedule_seed = seed;
    nam::Cluster cluster(fc, 1 << 20);
    cluster.fabric().SetNumClients(3);
    rdma::VerbAuditor* auditor = cluster.fabric().auditor();
    if (auditor == nullptr) return Status::OK();  // audit compiled out
    const rdma::RemotePtr page =
        cluster.memory_server(0).region().AllocateLocal(256);

    Spawn(cluster.simulator(), LockedCycle(cluster.fabric(), 0, page));
    cluster.simulator().Run();
    Spawn(cluster.simulator(),
          RoguePageWrite(cluster.fabric(), 1, page, /*word=*/2));
    Spawn(cluster.simulator(),
          RoguePageWrite(cluster.fabric(), 2, page, /*word=*/2));
    cluster.simulator().Run();

    const Status status = cluster.fabric().CheckAuditClean();
    if (!status.ok() && trace.empty()) trace = auditor->DumpTrace();
    return status;
  };

  ScheduleExplorer::Options options;
  options.base_seed = 1;
  options.num_seeds = 4;
  const auto report = ScheduleExplorer::Explore(options, body);
  if (report.clean()) GTEST_SKIP() << "built with -DNAMTREE_AUDIT=OFF";

  EXPECT_EQ(report.first_failing_seed, 1u);
  EXPECT_EQ(report.seeds_run, 1u);
  EXPECT_TRUE(report.replay_deterministic)
      << "a failing seed must reproduce on replay: " << report.ToString();
  EXPECT_EQ(report.first_failure.code(), StatusCode::kCorruption);
  EXPECT_NE(trace.find("WRITE"), std::string::npos)
      << "the trace artifact must carry the racing verbs:\n"
      << trace;
}

/// One differential-style multi-client run of the fine-grained design under
/// `schedule_seed`; OK iff the run is audit-clean with zero kRemoteRace.
Status RunFineGrainedUnderSeed(uint64_t schedule_seed, SimTime jitter_ns,
                               bool inject_crashes) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.schedule_seed = schedule_seed;
  fc.schedule_jitter_ns = jitter_ns;
  if (inject_crashes) {
    fc.lock_lease_ns = 100 * kMicrosecond;
    fc.crash_points = {{1, 400}, {3, 1500}};
  }
  nam::Cluster cluster(fc, 64ull << 20);
  index::IndexConfig ic;
  ic.page_size = 256;
  index::FineGrainedIndex index(cluster, ic);
  const uint64_t keys = 4000;
  Status load = index.BulkLoad(ycsb::GenerateDataset(keys));
  if (!load.ok()) return load;

  ycsb::RunConfig rc;
  rc.num_clients = 6;
  rc.warmup = kMillisecond;
  rc.duration = 4 * kMillisecond;
  rc.mix = ycsb::WorkloadD();  // insert-heavy: splits, locks, hand-offs
  rc.gc_interval = 2 * kMillisecond;
  const ycsb::RunResult result = ycsb::RunWorkload(cluster, index, keys, rc);
  if (result.ops() == 0) return Status::Corruption("no ops completed");

  const Status audit = cluster.fabric().CheckAuditClean();
  if (!audit.ok()) return audit;
  if (rdma::VerbAuditor* auditor = cluster.fabric().auditor()) {
    if (auditor->CountOfKind(ViolationKind::kRemoteRace) != 0) {
      return Status::Corruption("kRemoteRace on a clean protocol");
    }
  }
  return Status::OK();
}

TEST(ScheduleExplorerTest, FineGrainedStaysRaceFreeAcrossSeeds) {
  // The tentpole claim: the one-sided protocol is race-free under *every*
  // legal schedule, not just the FIFO one. Seed 0 (legacy) is included.
  ScheduleExplorer::Options options;
  options.base_seed = 0;
  options.num_seeds = ExploreSeeds();
  const auto report = ScheduleExplorer::Explore(options, [](uint64_t seed) {
    return RunFineGrainedUnderSeed(seed, /*jitter_ns=*/0,
                                   /*inject_crashes=*/false);
  });
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.seeds_run, options.num_seeds);
}

TEST(ScheduleExplorerTest, CrashInjectionStaysRaceFreeAcrossSeeds) {
  // Crash points are verb-count based, so each seed deterministically
  // crashes the same clients at (seed-dependent) protocol states: dropped
  // in-flight writes and sanctioned lease steals must not surface as
  // races under any explored schedule.
  ScheduleExplorer::Options options;
  options.base_seed = 0;
  options.num_seeds = 4;
  const auto report = ScheduleExplorer::Explore(options, [](uint64_t seed) {
    return RunFineGrainedUnderSeed(seed, /*jitter_ns=*/0,
                                   /*inject_crashes=*/true);
  });
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(ScheduleExplorerTest, BoundedDelayInjectionStaysRaceFree) {
  // Jitter stretches NIC/queue timings by a seed-deterministic amount in
  // [0, 200ns] per event — a different (still legal) fabric. The protocol
  // must not care.
  const Status status = RunFineGrainedUnderSeed(/*schedule_seed=*/7,
                                                /*jitter_ns=*/200,
                                                /*inject_crashes=*/false);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace namtree::sim
