// Tests for the simulated RDMA fabric: verb semantics (READ/WRITE/CAS/FAA),
// remote pointers, memory regions, SRQ delivery, RPC round trips, and the
// cost model (latency composition, engine serialization, co-location).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nam/cluster.h"
#include "nam/memory_server.h"
#include "rdma/fabric.h"
#include "rdma/memory_region.h"
#include "rdma/remote_ptr.h"
#include "sim/task.h"

namespace namtree::rdma {
namespace {

using nam::Cluster;
using sim::Spawn;
using sim::Task;

FabricConfig TestConfig() {
  FabricConfig config;
  config.num_memory_servers = 2;
  config.workers_per_server = 2;
  return config;
}

TEST(RemotePtrTest, PackAndUnpack) {
  RemotePtr p = RemotePtr::Make(5, 123456);
  EXPECT_FALSE(p.is_null());
  EXPECT_EQ(p.server_id(), 5u);
  EXPECT_EQ(p.offset(), 123456u);
  EXPECT_EQ(sizeof(p), 8u);
}

TEST(RemotePtrTest, NullIsZero) {
  RemotePtr null;
  EXPECT_TRUE(null.is_null());
  EXPECT_EQ(null.raw(), 0u);
  EXPECT_EQ(RemotePtr(0).raw(), RemotePtr::Null().raw());
}

TEST(RemotePtrTest, ExtremesRoundTrip) {
  RemotePtr p = RemotePtr::Make(127, RemotePtr::kOffsetMask);
  EXPECT_EQ(p.server_id(), 127u);
  EXPECT_EQ(p.offset(), RemotePtr::kOffsetMask);
  RemotePtr q = RemotePtr::Make(0, 0);
  EXPECT_FALSE(q.is_null());
  EXPECT_EQ(q.server_id(), 0u);
  EXPECT_EQ(q.offset(), 0u);
}

TEST(RemotePtrTest, PlusDisplacesWithinServer) {
  RemotePtr p = RemotePtr::Make(3, 1000);
  RemotePtr q = p.Plus(24);
  EXPECT_EQ(q.server_id(), 3u);
  EXPECT_EQ(q.offset(), 1024u);
}

TEST(MemoryRegionTest, LocalAllocationBumpsCursor) {
  MemoryRegion region(0, 1 << 20);
  const uint64_t before = region.allocated();
  RemotePtr p = region.AllocateLocal(1024);
  ASSERT_FALSE(p.is_null());
  EXPECT_EQ(p.offset(), before);
  EXPECT_EQ(region.allocated(), before + 1024);
}

TEST(MemoryRegionTest, ExhaustionReturnsNull) {
  MemoryRegion region(0, 4096);
  RemotePtr p = region.AllocateLocal(8192);
  EXPECT_TRUE(p.is_null());
}

Task<> DoReadWrite(Fabric& fabric, RemotePtr ptr, bool* ok) {
  uint64_t value = 0xDEADBEEFCAFEF00Dull;
  co_await fabric.Write(0, ptr, &value, sizeof(value));
  uint64_t readback = 0;
  co_await fabric.Read(0, ptr, &readback, sizeof(readback));
  *ok = (readback == value);
}

TEST(FabricTest, WriteThenReadRoundTrips) {
  Cluster cluster(TestConfig(), 1 << 20);
  RemotePtr ptr = cluster.memory_server(1).region().AllocateLocal(64);
  bool ok = false;
  Spawn(cluster.simulator(), DoReadWrite(cluster.fabric(), ptr, &ok));
  cluster.simulator().Run();
  EXPECT_TRUE(ok);
}

Task<> DoCas(Fabric& fabric, RemotePtr ptr, std::vector<uint64_t>* results) {
  results->push_back((co_await fabric.CompareAndSwap(0, ptr, 0, 111)).value);
  results->push_back((co_await fabric.CompareAndSwap(0, ptr, 0, 222)).value);
  results->push_back((co_await fabric.CompareAndSwap(0, ptr, 111, 333)).value);
}

TEST(FabricTest, CompareAndSwapSemantics) {
  Cluster cluster(TestConfig(), 1 << 20);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(8);
  std::vector<uint64_t> results;
  Spawn(cluster.simulator(), DoCas(cluster.fabric(), ptr, &results));
  cluster.simulator().Run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], 0u);    // swap succeeded
  EXPECT_EQ(results[1], 111u);  // failed: returns current
  EXPECT_EQ(results[2], 111u);  // swap succeeded again
  EXPECT_EQ(cluster.memory_server(0).region().ReadU64(ptr.offset()), 333u);
}

Task<> DoFaa(Fabric& fabric, RemotePtr ptr, uint32_t client, int n) {
  for (int i = 0; i < n; ++i) {
    co_await fabric.FetchAndAdd(client, ptr, 1);
  }
}

TEST(FabricTest, ConcurrentFetchAndAddIsAtomic) {
  Cluster cluster(TestConfig(), 1 << 20);
  cluster.fabric().SetNumClients(4);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(8);
  for (uint32_t c = 0; c < 4; ++c) {
    Spawn(cluster.simulator(), DoFaa(cluster.fabric(), ptr, c, 25));
  }
  cluster.simulator().Run();
  EXPECT_EQ(cluster.memory_server(0).region().ReadU64(ptr.offset()), 100u);
}

// Remote allocation via FETCH_AND_ADD on the region's allocation cursor
// (the paper's RDMA_ALLOC).
Task<> RemoteAlloc(Fabric& fabric, uint32_t client, uint32_t server,
                   uint64_t bytes, std::vector<uint64_t>* offsets) {
  RemotePtr cursor =
      RemotePtr::Make(server, MemoryRegion::kAllocCursorOffset);
  const uint64_t offset =
      (co_await fabric.FetchAndAdd(client, cursor, bytes)).value;
  offsets->push_back(offset);
}

TEST(FabricTest, RemoteAllocationYieldsDisjointPages) {
  Cluster cluster(TestConfig(), 1 << 20);
  cluster.fabric().SetNumClients(8);
  std::vector<uint64_t> offsets;
  for (uint32_t c = 0; c < 8; ++c) {
    Spawn(cluster.simulator(),
          RemoteAlloc(cluster.fabric(), c, 0, 1024, &offsets));
  }
  cluster.simulator().Run();
  ASSERT_EQ(offsets.size(), 8u);
  std::sort(offsets.begin(), offsets.end());
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i] - offsets[i - 1], 1024u) << "overlapping pages";
  }
}

Task<> MeasuredRead(Fabric& fabric, RemotePtr ptr, uint32_t len,
                    SimTime* latency) {
  std::vector<uint8_t> buf(len);
  const SimTime start = fabric.simulator().now();
  co_await fabric.Read(0, ptr, buf.data(), len);
  *latency = fabric.simulator().now() - start;
}

TEST(FabricTest, ReadLatencyMatchesCostModel) {
  FabricConfig config = TestConfig();
  Cluster cluster(config, 1 << 20);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(1024);
  SimTime latency = 0;
  Spawn(cluster.simulator(),
        MeasuredRead(cluster.fabric(), ptr, 1024, &latency));
  cluster.simulator().Run();
  // post + request wire + engine + payload + response wire (+ link time of
  // the 16-byte request, a few ns).
  const SimTime payload =
      static_cast<SimTime>(1024 / (config.link_bandwidth_bytes_per_sec / 1e9));
  const SimTime expected_min = config.nic_post_ns + 2 * config.wire_latency_ns +
                               config.onesided_engine_ns + payload;
  EXPECT_GE(latency, expected_min);
  EXPECT_LE(latency, expected_min + 100);
}

TEST(FabricTest, EngineSerializesConcurrentReadsToOneServer) {
  FabricConfig config = TestConfig();
  Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(8);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(1024);
  // 8 concurrent 1KB reads from different clients to the same server: the
  // engine (1 op at a time) makes total time ~ 8 * engine occupancy.
  struct Runner {
    static Task<> Read(Fabric& fabric, uint32_t client, RemotePtr ptr) {
      std::vector<uint8_t> buf(1024);
      co_await fabric.Read(client, ptr, buf.data(), 1024);
    }
  };
  for (uint32_t c = 0; c < 8; ++c) {
    Spawn(cluster.simulator(), Runner::Read(cluster.fabric(), c, ptr));
  }
  const SimTime end = cluster.simulator().Run();
  EXPECT_GE(end, 8 * config.onesided_engine_ns);
  const auto stats = cluster.fabric().server_stats(0);
  EXPECT_EQ(stats.tx_bytes, 8u * 1024u);
}

// ---- Two-sided RPC ----------------------------------------------------------

Task<> EchoHandler(nam::MemoryServer& server, IncomingRpc rpc) {
  co_await sim::Delay(server.fabric().simulator(), server.RequestOverhead());
  RpcResponse resp;
  resp.status = 0;
  resp.arg0 = rpc.request.arg0 + 1;
  resp.payload = rpc.request.payload;
  server.fabric().Respond(server.server_id(), rpc, std::move(resp));
}

Task<> CallEcho(Fabric& fabric, uint32_t client, uint32_t server,
                uint64_t arg, std::vector<uint64_t>* replies) {
  RpcRequest req;
  req.op = 7;
  req.arg0 = arg;
  RpcResponse resp = co_await fabric.Call(client, server, std::move(req));
  replies->push_back(resp.arg0);
}

TEST(RpcTest, EchoRoundTrip) {
  Cluster cluster(TestConfig(), 1 << 20);
  cluster.fabric().SetNumClients(1);
  cluster.memory_server(0).Start(EchoHandler);
  std::vector<uint64_t> replies;
  Spawn(cluster.simulator(),
        CallEcho(cluster.fabric(), 0, 0, 41, &replies));
  cluster.simulator().Run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], 42u);
}

TEST(RpcTest, WorkerPoolBoundsConcurrency) {
  // With 2 workers and a fixed handler cost, 10 requests take ~5 waves.
  FabricConfig config = TestConfig();
  config.per_client_poll_ns = 0;
  config.qpi_penalty = 1.0;
  Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(10);
  cluster.memory_server(0).Start(EchoHandler);
  std::vector<uint64_t> replies;
  for (uint32_t c = 0; c < 10; ++c) {
    Spawn(cluster.simulator(), CallEcho(cluster.fabric(), c, 0, c, &replies));
  }
  const SimTime end = cluster.simulator().Run();
  EXPECT_EQ(replies.size(), 10u);
  EXPECT_GE(end, 5 * config.rpc_fixed_ns);  // waves serialized on 2 workers
  EXPECT_EQ(cluster.memory_server(0).requests_handled(), 10u);
}

TEST(RpcTest, RequestsToDistinctServersRunInParallel) {
  FabricConfig config = TestConfig();
  config.per_client_poll_ns = 0;
  config.qpi_penalty = 1.0;
  Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(2);
  cluster.memory_server(0).Start(EchoHandler);
  cluster.memory_server(1).Start(EchoHandler);
  std::vector<uint64_t> replies;
  Spawn(cluster.simulator(), CallEcho(cluster.fabric(), 0, 0, 1, &replies));
  Spawn(cluster.simulator(), CallEcho(cluster.fabric(), 1, 1, 2, &replies));
  const SimTime end = cluster.simulator().Run();
  EXPECT_EQ(replies.size(), 2u);
  // Both finish in about one RPC latency (they do not share a server).
  EXPECT_LT(end, 2 * (config.rpc_fixed_ns + 2 * config.wire_latency_ns) + 4000);
}

// ---- Batched (selectively signaled) reads -----------------------------------

Task<> BatchRead(Fabric& fabric, std::vector<Fabric::ChainOp> reqs,
                 SimTime* latency) {
  const SimTime start = fabric.simulator().now();
  co_await fabric.PostChain(0, std::move(reqs));
  *latency = fabric.simulator().now() - start;
}

TEST(FabricTest, BatchedReadsAreCheaperThanSequentialReads) {
  FabricConfig config = TestConfig();
  Cluster cluster(config, 1 << 20);
  auto& region = cluster.memory_server(0).region();
  std::vector<Fabric::ChainOp> reqs;
  std::vector<std::vector<uint8_t>> bufs(8, std::vector<uint8_t>(1024));
  for (int i = 0; i < 8; ++i) {
    RemotePtr p = region.AllocateLocal(1024);
    region.WriteU64(p.offset(), 1000 + i);
    reqs.push_back(Fabric::ChainOp::Read(p, bufs[i].data(), 1024));
  }
  SimTime batch_latency = 0;
  Spawn(cluster.simulator(),
        BatchRead(cluster.fabric(), reqs, &batch_latency));
  cluster.simulator().Run();
  // Contents arrived.
  for (int i = 0; i < 8; ++i) {
    uint64_t v;
    std::memcpy(&v, bufs[i].data(), 8);
    EXPECT_EQ(v, 1000u + i);
  }
  // The batch pipelines: far cheaper than 8 full round trips.
  const SimTime sequential = 8 * (config.nic_post_ns +
                                  2 * config.wire_latency_ns +
                                  config.onesided_engine_ns);
  EXPECT_LT(batch_latency, sequential);
}

// ---- Posting: chains with atomics, the unchained mode -----------------------

Task<> PostOrdered(Fabric& fabric, std::vector<Fabric::ChainOp> ops,
                   Fabric::PostResult* out) {
  *out = co_await fabric.PostChain(0, std::move(ops));
}

// An ordered chain {WRITE, FAA} with verb chaining on rides one doorbell:
// the FAA adds on top of the WRITE's value and delivers that pre-image.
// With chaining off the same chain posts one signaled verb per member, in
// order, to the same memory effect.
TEST(FabricTest, FaaChainMemberAndUnchainedPostingMode) {
  for (const bool chaining : {true, false}) {
    FabricConfig config = TestConfig();
    config.verb_chaining = chaining;
    Cluster cluster(config, 1 << 20);
    auto& region = cluster.memory_server(0).region();
    const RemotePtr word = region.AllocateLocal(8);
    const uint64_t seed = 40;
    uint64_t pre = 0;
    Fabric::PostResult result;
    Spawn(cluster.simulator(),
          PostOrdered(cluster.fabric(),
                      {Fabric::ChainOp::Write(word, &seed, 8),
                       Fabric::ChainOp::Faa(word, 2, &pre)},
                      &result));
    cluster.simulator().Run();

    EXPECT_TRUE(result.ok());
    EXPECT_EQ(pre, 40u);
    EXPECT_EQ(region.ReadU64(word.offset()), 42u);
    const auto& m = cluster.fabric().metrics();
    EXPECT_EQ(result.round_trips, chaining ? 1u : 2u);
    EXPECT_EQ(m.Value("fabric.doorbells"), chaining ? 1u : 2u);
    EXPECT_EQ(m.Value("fabric.signaled_verbs"), chaining ? 1u : 2u);
    EXPECT_EQ(m.Value("fabric.unsignaled_verbs"), chaining ? 1u : 0u);
  }
}

// ---- Co-location -------------------------------------------------------------

TEST(FabricTest, ColocatedAccessSkipsTheWire) {
  FabricConfig config = TestConfig();
  config.colocate = true;
  config.memory_servers_per_machine = 1;
  config.clients_per_compute_machine = 40;
  Cluster cluster(config, 1 << 20);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(1024);

  SimTime local_latency = 0;
  // Client 0 lives on compute machine 0 == memory machine 0.
  Spawn(cluster.simulator(),
        MeasuredRead(cluster.fabric(), ptr, 1024, &local_latency));
  cluster.simulator().Run();
  EXPECT_LT(local_latency, config.wire_latency_ns);
  EXPECT_TRUE(cluster.fabric().IsLocal(0, 0));
  EXPECT_FALSE(cluster.fabric().IsLocal(0, 1));
}

}  // namespace
}  // namespace namtree::rdma
