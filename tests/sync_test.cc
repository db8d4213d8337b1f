// Tests for the coroutine synchronization primitives (Semaphore, Barrier,
// Gate) and for verb-ordering guarantees of the fabric that the index
// protocols rely on (WRITE before FAA visibility, CAS serialization).

#include <gtest/gtest.h>

#include <vector>

#include "fabric_verbs.h"
#include "nam/cluster.h"
#include "rdma/fabric.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace namtree::sim {
namespace {

Task<> UseSemaphore(Simulator& s, Semaphore& sem, SimTime hold,
                    std::vector<SimTime>* done) {
  co_await sem.Acquire();
  co_await Delay(s, hold);
  sem.Release();
  done->push_back(s.now());
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator s;
  Semaphore sem(s, 3);
  std::vector<SimTime> done;
  for (int i = 0; i < 9; ++i) Spawn(s, UseSemaphore(s, sem, 50, &done));
  s.Run();
  EXPECT_EQ(done, (std::vector<SimTime>{50, 50, 50, 100, 100, 100, 150, 150,
                                        150}));
  EXPECT_EQ(sem.available(), 3u);
}

TEST(SemaphoreTest, TryAcquire) {
  Simulator s;
  Semaphore sem(s, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

Task<> AcquireTagged(Simulator& s, Semaphore& sem, int id, SimTime arrive,
                     SimTime hold, std::vector<int>* order) {
  co_await Delay(s, arrive);
  co_await sem.Acquire();
  order->push_back(id);
  co_await Delay(s, hold);
  sem.Release();
}

TEST(SemaphoreTest, WakeupOrderIsFifo) {
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<int> order;
  // Stagger arrivals so the wait queue builds up in a known order while
  // the first holder sleeps; each release must hand the unit to the
  // longest-waiting coroutine, not the most recent or an arbitrary one.
  Spawn(s, AcquireTagged(s, sem, 0, 0, 100, &order));
  Spawn(s, AcquireTagged(s, sem, 1, 5, 10, &order));
  Spawn(s, AcquireTagged(s, sem, 2, 4, 10, &order));
  Spawn(s, AcquireTagged(s, sem, 3, 3, 10, &order));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
  EXPECT_EQ(sem.available(), 1u);
  EXPECT_EQ(sem.waiters(), 0u);
}

Task<> TryAcquireProbe(Simulator& s, Semaphore& sem, SimTime at,
                       std::vector<bool>* results) {
  co_await Delay(s, at);
  const bool got = sem.TryAcquire();
  results->push_back(got);
  if (got) sem.Release();
}

TEST(SemaphoreTest, TryAcquireCannotBargePastWaiters) {
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<int> order;
  std::vector<bool> probes;
  Spawn(s, AcquireTagged(s, sem, 0, 0, 100, &order));   // holds [0, 100)
  Spawn(s, AcquireTagged(s, sem, 1, 10, 100, &order));  // queued at 10
  // While the unit is held: TryAcquire must fail.
  Spawn(s, TryAcquireProbe(s, sem, 50, &probes));
  // Just after the release at t=100 the unit transfers *directly* to the
  // queued waiter, so a TryAcquire at t=150 must still fail (no barging).
  Spawn(s, TryAcquireProbe(s, sem, 150, &probes));
  // After the last holder releases with an empty queue, it succeeds.
  Spawn(s, TryAcquireProbe(s, sem, 250, &probes));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(probes, (std::vector<bool>{false, false, true}));
}

Task<> MeetAtBarrier(Simulator& s, Barrier& barrier, SimTime arrive_at,
                     std::vector<SimTime>* released) {
  co_await Delay(s, arrive_at);
  co_await barrier.Arrive();
  released->push_back(s.now());
}

TEST(BarrierTest, AllPartiesReleaseTogether) {
  Simulator s;
  Barrier barrier(s, 3);
  std::vector<SimTime> released;
  Spawn(s, MeetAtBarrier(s, barrier, 10, &released));
  Spawn(s, MeetAtBarrier(s, barrier, 70, &released));
  Spawn(s, MeetAtBarrier(s, barrier, 40, &released));
  s.Run();
  ASSERT_EQ(released.size(), 3u);
  for (SimTime t : released) EXPECT_EQ(t, 70);
  EXPECT_EQ(barrier.generation(), 1u);
}

Task<> BarrierRounds(Simulator& s, Barrier& barrier, int rounds,
                     SimTime step, std::vector<SimTime>* stamps) {
  for (int r = 0; r < rounds; ++r) {
    co_await Delay(s, step);
    co_await barrier.Arrive();
    stamps->push_back(s.now());
  }
}

TEST(BarrierTest, ReusableAcrossGenerations) {
  Simulator s;
  Barrier barrier(s, 2);
  std::vector<SimTime> a;
  std::vector<SimTime> b;
  Spawn(s, BarrierRounds(s, barrier, 3, 10, &a));
  Spawn(s, BarrierRounds(s, barrier, 3, 25, &b));
  s.Run();
  ASSERT_EQ(a.size(), 3u);
  // Both meet at the slower party's schedule: 25, 50, 75.
  EXPECT_EQ(a, (std::vector<SimTime>{25, 50, 75}));
  EXPECT_EQ(b, (std::vector<SimTime>{25, 50, 75}));
  EXPECT_EQ(barrier.generation(), 3u);
}

Task<> WaitGate(Simulator& s, Gate& gate, std::vector<SimTime>* stamps) {
  co_await gate.Wait();
  stamps->push_back(s.now());
}

Task<> OperateGate(Simulator& s, Gate& gate) {
  co_await Delay(s, 100);
  gate.Open();
  co_await Delay(s, 10);
  gate.Close();
}

TEST(GateTest, BlocksUntilOpenAndCanReclose) {
  Simulator s;
  Gate gate(s);
  std::vector<SimTime> stamps;
  Spawn(s, WaitGate(s, gate, &stamps));
  Spawn(s, OperateGate(s, gate));
  s.Run();
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0], 100);
  EXPECT_FALSE(gate.is_open());
  // A new waiter blocks again (queue drains only on the next Open).
  Spawn(s, WaitGate(s, gate, &stamps));
  s.Run();
  EXPECT_EQ(stamps.size(), 1u);
  gate.Open();
  s.Run();
  EXPECT_EQ(stamps.size(), 2u);
}

}  // namespace
}  // namespace namtree::sim

namespace namtree::rdma {
namespace {

using nam::Cluster;
using sim::Spawn;
using sim::Task;

// The FG unlock protocol depends on same-target ordering: the page WRITE
// must be visible before the FAA clears the lock bit.
Task<> WriteThenUnlock(Fabric& fabric, RemotePtr page, uint64_t payload) {
  std::vector<uint8_t> image(64, 0);
  const uint64_t locked = 1;  // version 0 locked
  std::memcpy(image.data(), &locked, 8);
  std::memcpy(image.data() + 8, &payload, 8);
  co_await PostWrite(fabric, 0, page, image.data(), 64);
  co_await PostFaa(fabric, 0, page, 1);
}

Task<> SpinReadPayload(Fabric& fabric, RemotePtr page, uint64_t* payload) {
  std::vector<uint8_t> image(64, 0);
  for (;;) {
    co_await PostRead(fabric, 1, page, image.data(), 64);
    uint64_t word;
    std::memcpy(&word, image.data(), 8);
    if ((word & 1) == 0 && word > 0) {  // unlocked and version bumped
      std::memcpy(payload, image.data() + 8, 8);
      co_return;
    }
    co_await sim::Delay(fabric.simulator(), 200);
  }
}

TEST(FabricOrderingTest, WriteVisibleBeforeUnlockFaa) {
  FabricConfig config;
  config.num_memory_servers = 1;
  Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(2);
  RemotePtr page = cluster.memory_server(0).region().AllocateLocal(64);
  // Pre-lock the page so the reader must observe the full unlock protocol.
  cluster.memory_server(0).region().WriteU64(page.offset(), 1);

  uint64_t payload = 0;
  Spawn(cluster.simulator(),
        SpinReadPayload(cluster.fabric(), page, &payload));
  Spawn(cluster.simulator(),
        WriteThenUnlock(cluster.fabric(), page, 0xFEEDF00Dull));
  cluster.simulator().Run();
  EXPECT_EQ(payload, 0xFEEDF00Dull)
      << "reader observed the unlock before the page content";
}

Task<> RacingCas(Fabric& fabric, uint32_t client, RemotePtr word,
                 uint64_t desired, uint64_t* wins) {
  const uint64_t old =
      co_await PostCas(fabric, client, word, 0, desired);
  if (old == 0) (*wins)++;
}

TEST(FabricOrderingTest, ManyRacingCasExactlyOneWinner) {
  FabricConfig config;
  config.num_memory_servers = 1;
  Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(16);
  RemotePtr word = cluster.memory_server(0).region().AllocateLocal(8);
  uint64_t wins = 0;
  for (uint32_t c = 0; c < 16; ++c) {
    Spawn(cluster.simulator(),
          RacingCas(cluster.fabric(), c, word, 100 + c, &wins));
  }
  cluster.simulator().Run();
  EXPECT_EQ(wins, 1u);
  const uint64_t final = cluster.memory_server(0).region().ReadU64(
      word.offset());
  EXPECT_GE(final, 100u);
  EXPECT_LT(final, 116u);
}

}  // namespace
}  // namespace namtree::rdma
