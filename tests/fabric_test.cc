// Tests for the simulated RDMA fabric: verb semantics (READ/WRITE/CAS/FAA),
// remote pointers, memory regions, SRQ delivery, RPC round trips, and the
// cost model (latency composition, engine serialization, co-location).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fabric_verbs.h"
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
  co_await PostWrite(fabric, 0, ptr, &value, sizeof(value));
  uint64_t readback = 0;
  co_await PostRead(fabric, 0, ptr, &readback, sizeof(readback));
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
  results->push_back(co_await PostCas(fabric, 0, ptr, 0, 111));
  results->push_back(co_await PostCas(fabric, 0, ptr, 0, 222));
  results->push_back(co_await PostCas(fabric, 0, ptr, 111, 333));
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
    co_await PostFaa(fabric, client, ptr, 1);
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
      co_await PostFaa(fabric, client, cursor, bytes);
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
  co_await PostRead(fabric, 0, ptr, buf.data(), len);
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
      co_await PostRead(fabric, client, ptr, buf.data(), 1024);
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
  co_await PostChain(fabric, 0, std::move(reqs));
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
  *out = co_await PostChain(fabric, 0, std::move(ops));
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


// ---- Machine-wide read combining -------------------------------------------

constexpr uint32_t kCombinedPage = 1024;

// One combinable READ that `client` posts at virtual time `at`; records its
// outcome and when it was posted and completed.
struct CombinedPost {
  CombinedPost(uint32_t c, SimTime t, size_t len)
      : client(c), at(t), buf(len) {}
  uint32_t client;
  SimTime at;
  std::vector<uint8_t> buf;
  Fabric::PostResult result;
  SimTime posted = 0;
  SimTime done = 0;
};

Task<> PostCombinedAt(Fabric& fabric, RemotePtr src, CombinedPost* post) {
  co_await sim::DelayUntil(fabric.simulator(), post->at);
  post->posted = fabric.simulator().now();
  const Fabric::ChainOp op = Fabric::ChainOp::Read(
      src, post->buf.data(), static_cast<uint32_t>(post->buf.size()));
  post->result = co_await fabric.Post(post->client, {&op, 1},
                                      Fabric::Posting::kCombined);
  post->done = fabric.simulator().now();
}

Task<> PostWriteAt(Fabric& fabric, uint32_t client, SimTime at,
                   RemotePtr dst, const std::vector<uint8_t>* src,
                   SimTime* done) {
  co_await sim::DelayUntil(fabric.simulator(), at);
  co_await PostWrite(fabric, client, dst, src->data(),
                     static_cast<uint32_t>(src->size()));
  *done = fabric.simulator().now();
}

// Overwrites the page at `ptr` with `byte` at virtual time `at`, outside
// the fabric.
Task<> FillAt(sim::Simulator& simulator, MemoryRegion& region, RemotePtr ptr,
              SimTime at, uint8_t byte) {
  co_await sim::DelayUntil(simulator, at);
  std::memset(region.at(ptr.offset()), byte, kCombinedPage);
}

// Clients 0, 1 and 2 share compute machine 0; client 40 sits on machine 1.
FabricConfig CombiningConfig() {
  FabricConfig config;
  config.num_memory_servers = 1;
  config.read_combining = true;
  return config;
}

TEST(FabricTest, MachineMateNeverAttachesToAReadAlreadyExecuted) {
  Cluster cluster(CombiningConfig(), 4 << 20);
  Fabric& fabric = cluster.fabric();
  MemoryRegion& region = cluster.memory_server(0).region();
  const RemotePtr page = region.AllocateLocal(kCombinedPage);
  std::memset(region.at(page.offset()), 0x11, kCombinedPage);
  // A large READ from another machine occupies the server's transmit link,
  // so client 2's READ of the page executes early but completes late.
  const RemotePtr bulk = region.AllocateLocal(1 << 20);
  CombinedPost big(40, 0, 1 << 20);
  CombinedPost z(2, 10, kCombinedPage);
  // Client 0's WRITE is acknowledged while client 2's READ is in flight;
  // client 1 then reads the page through combining.
  const std::vector<uint8_t> fresh(kCombinedPage, 0x22);
  SimTime written = 0;
  CombinedPost y(1, 0, kCombinedPage);
  Spawn(cluster.simulator(), PostCombinedAt(fabric, bulk, &big));
  Spawn(cluster.simulator(), PostCombinedAt(fabric, page, &z));
  Spawn(cluster.simulator(),
        PostWriteAt(fabric, 0, 20, page, &fresh, &written));
  struct AfterWrite {
    static Task<> Go(Fabric& fabric, RemotePtr page, const SimTime* written,
                     CombinedPost* y) {
      // Poll in 100 ns steps until the WRITE is acknowledged.
      while (*written == 0) co_await sim::Delay(fabric.simulator(), 100);
      y->at = fabric.simulator().now();
      co_await PostCombinedAt(fabric, page, y);
    }
  };
  Spawn(cluster.simulator(), AfterWrite::Go(fabric, page, &written, &y));
  cluster.simulator().Run();

  ASSERT_GT(written, 0);
  EXPECT_LT(written, z.done) << "the WRITE was not acknowledged mid-READ";
  EXPECT_LT(y.posted, z.done) << "client 2's READ was no longer in flight";
  EXPECT_TRUE(z.result.ok());
  EXPECT_TRUE(y.result.ok());
  EXPECT_EQ(z.buf, std::vector<uint8_t>(kCombinedPage, 0x11));
  EXPECT_EQ(y.buf, fresh) << "client 1 saw bytes older than its call";
  EXPECT_EQ(y.result.round_trips, 1u) << "client 1 attached to a stale READ";
}

TEST(FabricTest, MateOfAPosterKilledMidReadStillReadsCurrentBytes) {
  FabricConfig config = CombiningConfig();
  // Client 0's second post (its WRITE) kills it with its READ in flight.
  config.crash_points = {{0, 1}};
  Cluster cluster(config, 1 << 20);
  Fabric& fabric = cluster.fabric();
  MemoryRegion& region = cluster.memory_server(0).region();
  const RemotePtr page = region.AllocateLocal(kCombinedPage);
  std::memset(region.at(page.offset()), 0x33, kCombinedPage);
  const RemotePtr other = region.AllocateLocal(64);
  const std::vector<uint8_t> scribble(64, 0x44);
  CombinedPost poster(0, 0, kCombinedPage);
  CombinedPost mate(1, 10, kCombinedPage);
  SimTime scribbled = 0;
  Spawn(cluster.simulator(), PostCombinedAt(fabric, page, &poster));
  Spawn(cluster.simulator(), PostCombinedAt(fabric, page, &mate));
  Spawn(cluster.simulator(),
        PostWriteAt(fabric, 0, 20, other, &scribble, &scribbled));
  cluster.simulator().Run();

  EXPECT_FALSE(fabric.ClientAlive(0));
  EXPECT_LT(mate.posted, poster.done);
  EXPECT_TRUE(mate.result.ok());
  EXPECT_EQ(mate.result.round_trips, 1u) << "the mate kept the dead READ";
  EXPECT_EQ(mate.buf, std::vector<uint8_t>(kCombinedPage, 0x33));
  EXPECT_EQ(fabric.metrics().Value("fabric.combined_reads"), 0u);
}

TEST(FabricTest, LinkFaultOnThePosterDoesNotFailItsMate) {
  FabricConfig config = CombiningConfig();
  // Every verb on client 0's link to the server is lost, either before
  // the NIC or with its acknowledgement.
  config.link_faults = {{0, 0, /*drop_prob=*/1.0, 0, 0}};
  Cluster cluster(config, 1 << 20);
  Fabric& fabric = cluster.fabric();
  MemoryRegion& region = cluster.memory_server(0).region();
  const RemotePtr page = region.AllocateLocal(kCombinedPage);
  constexpr int kRounds = 8;
  std::vector<CombinedPost> posters;
  std::vector<CombinedPost> mates;
  for (int r = 0; r < kRounds; ++r) {
    const SimTime at = 1000 + r * 200'000;
    posters.emplace_back(0, at, kCombinedPage);
    mates.emplace_back(1, at + 10, kCombinedPage);
  }
  for (int r = 0; r < kRounds; ++r) {
    // Each round reads its own byte pattern, written just before it.
    Spawn(cluster.simulator(),
          FillAt(cluster.simulator(), region, page, posters[r].at - 1,
                 static_cast<uint8_t>(0x50 + r)));
    Spawn(cluster.simulator(), PostCombinedAt(fabric, page, &posters[r]));
    Spawn(cluster.simulator(), PostCombinedAt(fabric, page, &mates[r]));
  }
  cluster.simulator().Run();

  for (int r = 0; r < kRounds; ++r) {
    EXPECT_FALSE(posters[r].result.ok()) << "round " << r;
    EXPECT_TRUE(mates[r].result.ok()) << "round " << r;
    EXPECT_EQ(mates[r].buf, std::vector<uint8_t>(kCombinedPage, 0x50 + r))
        << "round " << r;
  }
  // Some rounds lost only the acknowledgement: the mate had attached to a
  // READ that executed, and still posted its own.
  EXPECT_GT(fabric.metrics().Value("fabric.net.dropped_completions"), 0u);
  EXPECT_EQ(fabric.metrics().Value("fabric.combined_reads"), 0u);
}

TEST(FabricTest, LanesOfOneClientPostNoDuplicateRead) {
  Cluster cluster(CombiningConfig(), 1 << 20);
  Fabric& fabric = cluster.fabric();
  MemoryRegion& region = cluster.memory_server(0).region();
  const RemotePtr page = region.AllocateLocal(kCombinedPage);
  std::memset(region.at(page.offset()), 0x66, kCombinedPage);
  // Four lanes of client 0 and two of its machine-mate client 1.
  std::vector<CombinedPost> posts;
  for (uint32_t lane = 0; lane < 4; ++lane) {
    posts.emplace_back(0, lane, kCombinedPage);
  }
  for (uint32_t lane = 0; lane < 2; ++lane) {
    posts.emplace_back(1, 5 + lane, kCombinedPage);
  }
  for (CombinedPost& post : posts) {
    Spawn(cluster.simulator(), PostCombinedAt(fabric, page, &post));
  }
  cluster.simulator().Run();

  for (const CombinedPost& post : posts) {
    EXPECT_TRUE(post.result.ok());
    EXPECT_EQ(post.buf, std::vector<uint8_t>(kCombinedPage, 0x66));
  }
  EXPECT_EQ(posts[0].result.round_trips, 1u);
  EXPECT_EQ(fabric.server_stats(0).reads, 1u);
  EXPECT_EQ(fabric.metrics().Value("fabric.combined_reads"), 5u);
  EXPECT_EQ(fabric.metrics().Value("fabric.duplicate_inflight_reads"), 0u);
}

// ---- Post timing golden -----------------------------------------------------

// One post of the golden schedule: issued by `client` at virtual time
// `start` (or as soon as the lane's previous post returned).
struct GoldenStep {
  std::string name;
  uint32_t client;
  SimTime start;
  std::vector<Fabric::ChainOp> ops;
  Fabric::Posting posting = Fabric::Posting::kVerbs;
};

// Runs one lane's posts in order and logs each completion: when it
// returned, how it completed, and how many round trips it waited on.
Task<> RunGoldenLane(Fabric& fabric, std::vector<GoldenStep> lane,
                     std::vector<std::string>* log) {
  for (const GoldenStep& step : lane) {
    co_await sim::DelayUntil(fabric.simulator(), step.start);
    const Fabric::PostResult r =
        co_await fabric.Post(step.client, step.ops, step.posting);
    log->push_back(step.name + " @" + std::to_string(fabric.simulator().now()) +
                   (r.ok() ? " ok" : " lost") + " rt=" +
                   std::to_string(r.round_trips));
  }
}

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) h = (h ^ data[i]) * 0x100000001b3ull;
  return h;
}

// The whole golden run under one posting mode: the per-post log, then
// every page and word of the region, every landing buffer and pre-image
// sink, the server's target-side stats and the fabric's verb counters.
std::string RunPostGolden(bool verb_chaining) {
  FabricConfig config;
  config.num_memory_servers = 1;
  config.memory_servers_per_machine = 1;
  config.colocate = true;
  config.clients_per_compute_machine = 2;  // clients 0, 1 are co-located
  config.latency_jitter = 0.25;            // pins the wire-latency draws
  config.read_combining = true;
  config.verb_chaining = verb_chaining;
  using Kind = FabricConfig::VerbFaultPoint::Kind;
  config.verb_fault_points = {{4, 0, Kind::kDropVerb},
                              {4, 1, Kind::kDropCompletion},
                              {4, 2, Kind::kDuplicate},
                              {4, 3, Kind::kDropCompletion},
                              {4, 4, Kind::kDropVerb},
                              {4, 5, Kind::kDuplicate}};
  Cluster cluster(config, 1 << 20);
  Fabric& fabric = cluster.fabric();
  MemoryRegion& region = cluster.memory_server(0).region();

  constexpr uint32_t kPage = 1024;
  std::vector<RemotePtr> page;
  for (int i = 0; i < 8; ++i) {
    page.push_back(region.AllocateLocal(kPage));
    std::memset(region.at(page.back().offset()), i + 1, kPage);
  }
  std::vector<RemotePtr> word;
  for (int i = 0; i < 4; ++i) {
    word.push_back(region.AllocateLocal(8));
    region.WriteU64(word.back().offset(), 100 * (i + 1));
  }
  // Source images and landing buffers outlive the run.
  std::vector<std::vector<uint8_t>> src;
  for (int i = 0; i < 6; ++i) src.emplace_back(kPage, 0xA0 + i);
  std::vector<std::vector<uint8_t>> buf(16, std::vector<uint8_t>(kPage, 0));
  std::vector<uint64_t> pre(8, 0);

  using Op = Fabric::ChainOp;
  const auto batch = Fabric::Posting::kBatch;
  const auto combined = Fabric::Posting::kCombined;
  // Client 2 (remote): every verb kind, both ordered chains, a batch.
  std::vector<GoldenStep> lane_a = {
      {"a.read", 2, 0, {Op::Read(page[0], buf[0].data(), kPage)}},
      {"a.write", 2, 0, {Op::Write(page[1], src[0].data(), 512)}},
      {"a.cas", 2, 0, {Op::Cas(word[0], 100, 101, &pre[0])}},
      {"a.faa", 2, 0, {Op::Faa(word[1], 5, &pre[1])}},
      {"a.chain2", 2, 0,
       {Op::Write(page[2], src[1].data(), 256), Op::Faa(word[1], 1)}},
      {"a.chain3", 2, 0,
       {Op::Cas(word[2], 300, 301), Op::Write(page[3], src[2].data(), 128),
        Op::Faa(word[2], 1)}},
      {"a.batch4", 2, 0,
       {Op::Read(page[0], buf[1].data(), 512),
        Op::Read(page[1], buf[2].data(), 512),
        Op::Read(page[2], buf[3].data(), 512),
        Op::Read(page[3], buf[4].data(), 512)},
       batch}};
  // Client 3 (remote), contending for the same engine and links.
  std::vector<GoldenStep> lane_b = {
      {"b.write", 3, 100, {Op::Write(page[4], src[3].data(), kPage)}},
      {"b.read", 3, 0, {Op::Read(page[1], buf[5].data(), 512)}},
      {"b.cas", 3, 0, {Op::Cas(word[0], 101, 102, &pre[2])}},
      {"b.faa", 3, 0, {Op::Faa(word[3], 7, &pre[3])}}};
  // Two more lanes of client 3: the second identical combined READ rides
  // the first one's verb.
  std::vector<GoldenStep> lane_c = {
      {"c.combined", 3, 0, {Op::Read(page[5], buf[6].data(), kPage)},
       combined}};
  std::vector<GoldenStep> lane_d = {
      {"d.combined", 3, 10, {Op::Read(page[5], buf[7].data(), kPage)},
       combined}};
  // Client 0, co-located with the server: the local bus and loopback
  // atomics.
  std::vector<GoldenStep> lane_e = {
      {"e.read", 0, 0, {Op::Read(page[0], buf[8].data(), kPage)}},
      {"e.write", 0, 0, {Op::Write(page[6], src[4].data(), 64)}},
      {"e.cas", 0, 0, {Op::Cas(word[3], 400, 401, &pre[4])}},
      {"e.faa", 0, 0, {Op::Faa(word[3], 2, &pre[5])}},
      {"e.chain2", 0, 0,
       {Op::Write(page[6], src[4].data(), 64), Op::Faa(word[3], 1)}},
      {"e.batch2", 0, 0,
       {Op::Read(page[0], buf[9].data(), 256),
        Op::Read(page[6], buf[10].data(), 64)},
       batch},
      {"e.combined", 0, 0, {Op::Read(page[7], buf[11].data(), kPage)},
       combined}};
  // Client 5 (remote) dies with its WRITE in flight, then posts again.
  std::vector<GoldenStep> lane_f = {
      {"f.write", 5, 0, {Op::Write(page[7], src[5].data(), kPage)}},
      {"f.faa_dead", 5, 0, {Op::Faa(word[1], 1000)}}};
  // Client 1 (co-located) is dead before it posts its chain.
  std::vector<GoldenStep> lane_g = {
      {"g.chain_dead", 1, 300,
       {Op::Write(page[6], src[5].data(), 64), Op::Faa(word[3], 1000)}}};
  // Client 4 (remote) meets one exact fault point per post.
  std::vector<GoldenStep> lane_h = {
      {"h.read_dropverb", 4, 50, {Op::Read(page[2], buf[12].data(), kPage)}},
      {"h.write_dropcompletion", 4, 0,
       {Op::Write(page[7], src[5].data(), 256)}},
      {"h.faa_duplicate", 4, 0, {Op::Faa(word[1], 10, &pre[6])}},
      {"h.cas_dropcompletion", 4, 0, {Op::Cas(word[2], 302, 303, &pre[7])}},
      {"h.chain_dropverb", 4, 0,
       {Op::Write(page[4], src[5].data(), 256),
        Op::Write(page[5], src[5].data(), 256)}},
      {"h.read_duplicate", 4, 0, {Op::Read(page[3], buf[13].data(), kPage)}}};
  // Client 2 again, overlapping client 4's duplicated and dropped verbs.
  std::vector<GoldenStep> lane_i = {
      {"i.read", 2, 103300, {Op::Read(page[3], buf[14].data(), kPage)}},
      {"i.cas", 2, 0, {Op::Cas(word[0], 102, 103)}},
      {"i.read2", 2, 214000, {Op::Read(page[4], buf[15].data(), kPage)}}};

  fabric.KillClient(5, 500);
  fabric.KillClient(1, 200);
  std::vector<std::string> log;
  for (auto* lane :
       {&lane_a, &lane_b, &lane_c, &lane_d, &lane_e, &lane_f, &lane_g,
        &lane_h, &lane_i}) {
    Spawn(cluster.simulator(), RunGoldenLane(fabric, *lane, &log));
  }
  const SimTime end = cluster.simulator().Run();

  std::string out;
  for (const std::string& line : log) out += line + "\n";
  out += "end @" + std::to_string(end) + "\n";
  for (size_t i = 0; i < page.size(); ++i) {
    out += "page" + std::to_string(i) + " " +
           std::to_string(Fnv1a(region.at(page[i].offset()), kPage)) + "\n";
  }
  for (size_t i = 0; i < word.size(); ++i) {
    out += "word" + std::to_string(i) + " " +
           std::to_string(region.ReadU64(word[i].offset())) + "\n";
  }
  for (size_t i = 0; i < buf.size(); ++i) {
    out += "buf" + std::to_string(i) + " " +
           std::to_string(Fnv1a(buf[i].data(), kPage)) + "\n";
  }
  for (size_t i = 0; i < pre.size(); ++i) {
    out += "pre" + std::to_string(i) + " " + std::to_string(pre[i]) + "\n";
  }
  const Fabric::ServerStats st = fabric.server_stats(0);
  out += "server tx=" + std::to_string(st.tx_bytes) +
         " rx=" + std::to_string(st.rx_bytes) +
         " verbs=" + std::to_string(st.verbs) +
         " engine_busy=" + std::to_string(st.engine_busy) +
         " reads=" + std::to_string(st.reads) +
         " writes=" + std::to_string(st.writes) +
         " atomics=" + std::to_string(st.atomics) +
         " sends=" + std::to_string(st.sends) + "\n";
  for (const char* family :
       {"fabric.doorbells", "fabric.signaled_verbs", "fabric.unsignaled_verbs",
        "fabric.combined_reads", "fabric.duplicate_inflight_reads",
        "fabric.dropped_verbs", "fabric.net.dropped_verbs",
        "fabric.net.dropped_completions", "fabric.net.duplicates"}) {
    out += std::string(family) + " " +
           std::to_string(fabric.metrics().Value(family)) + "\n";
  }
  return out;
}

// One fixed, contended schedule against one memory server: remote clients
// 2, 3, 4 and 5, co-located clients 0 and 1, every verb kind alone, 2- and
// 3-member ordered chains, READ batches, a combined READ, dead-client posts
// and one exact network fault point of each kind. Every completion time,
// PostResult, memory effect and server counter is pinned under both
// posting modes, so a change in when a post reserves the NIC engine, the
// links or the local bus — or in when it draws wire-latency jitter — fails
// here before it moves a BENCH file.
// Recorded outputs, not derived ones: a changed line is a changed
// reservation order, memory effect or counter, never noise.
const char* const kPostGoldenChained = R"golden(e.read @291 ok rt=1
e.write @544 ok rt=1
g.chain_dead @600 ok rt=1
a.read @4525 ok rt=1
f.write @4810 ok rt=1
f.faa_dead @5110 ok rt=1
c.combined @5387 ok rt=1
d.combined @5387 ok rt=0
b.write @7142 ok rt=1
e.cas @7460 ok rt=1
a.write @9667 ok rt=1
e.faa @11672 ok rt=1
a.cas @14426 ok rt=1
b.read @14502 ok rt=1
e.chain2 @14542 ok rt=1
e.batch2 @14842 ok rt=1
e.combined @15133 ok rt=1
a.faa @18924 ok rt=1
b.cas @20578 ok rt=1
a.chain2 @23904 ok rt=1
b.faa @25446 ok rt=1
a.chain3 @30276 ok rt=1
a.batch4 @34187 ok rt=1
h.read_dropverb @50350 lost rt=1
h.write_dropcompletion @103273 lost rt=1
h.faa_duplicate @107999 ok rt=1
i.read @112964 ok rt=1
i.cas @117581 ok rt=1
h.cas_dropcompletion @161308 lost rt=1
h.chain_dropverb @214910 lost rt=1
i.read2 @218162 ok rt=1
h.read_duplicate @220197 ok rt=1
end @220197
page0 17479198609009211173
page1 17878086841290181413
page2 334006936315748133
page3 5502197979924117285
page4 12295132282117609253
page5 3279006218162877221
page6 11126495298758147557
page7 9746828853586576421
word0 103
word1 226
word2 303
word3 411
buf0 17479198609009211173
buf1 10040302805091857701
buf2 6667177654205969189
buf3 6178726158107782437
buf4 12640102911673806629
buf5 6667177654205969189
buf6 3279006218162877221
buf7 3279006218162877221
buf8 17479198609009211173
buf9 16456408806243701797
buf10 16853585106050520101
buf11 9288300609671492389
buf12 5897611217847481125
buf13 5502197979924117285
buf14 5502197979924117285
buf15 12295132282117609253
pre0 100
pre1 200
pre2 101
pre3 404
pre4 400
pre5 401
pre6 206
pre7 0
server tx=7864 rx=4320 verbs=33 engine_busy=31560 reads=13 writes=9 atomics=14 sends=0
fabric.doorbells 29
fabric.signaled_verbs 29
fabric.unsignaled_verbs 9
fabric.combined_reads 1
fabric.duplicate_inflight_reads 0
fabric.dropped_verbs 3
fabric.net.dropped_verbs 3
fabric.net.dropped_completions 2
fabric.net.duplicates 2
)golden";

const char* const kPostGoldenUnchained = R"golden(e.read @291 ok rt=1
e.write @544 ok rt=1
g.chain_dead @900 ok rt=2
a.read @4525 ok rt=1
f.write @4810 ok rt=1
f.faa_dead @5110 ok rt=1
c.combined @5387 ok rt=1
d.combined @5387 ok rt=0
b.write @7142 ok rt=1
e.cas @7460 ok rt=1
a.write @9667 ok rt=1
e.faa @11672 ok rt=1
a.cas @14426 ok rt=1
b.read @14502 ok rt=1
e.chain2 @14542 ok rt=2
e.batch2 @14842 ok rt=1
e.combined @15133 ok rt=1
a.faa @18924 ok rt=1
b.cas @20578 ok rt=1
b.faa @25035 ok rt=1
a.chain2 @28249 ok rt=2
a.chain3 @41912 ok rt=3
a.batch4 @45823 ok rt=1
h.read_dropverb @50350 lost rt=1
h.write_dropcompletion @103273 lost rt=1
h.faa_duplicate @107999 ok rt=1
i.read @112964 ok rt=1
i.cas @117581 ok rt=1
h.cas_dropcompletion @161308 lost rt=1
h.chain_dropverb @211608 lost rt=1
h.read_duplicate @216983 ok rt=1
i.read2 @218401 ok rt=1
end @218401
page0 17479198609009211173
page1 17878086841290181413
page2 334006936315748133
page3 5502197979924117285
page4 12295132282117609253
page5 3279006218162877221
page6 11126495298758147557
page7 9746828853586576421
word0 103
word1 226
word2 303
word3 411
buf0 17479198609009211173
buf1 10040302805091857701
buf2 6667177654205969189
buf3 6178726158107782437
buf4 12640102911673806629
buf5 6667177654205969189
buf6 3279006218162877221
buf7 3279006218162877221
buf8 17479198609009211173
buf9 16456408806243701797
buf10 16853585106050520101
buf11 9288300609671492389
buf12 5897611217847481125
buf13 5502197979924117285
buf14 5502197979924117285
buf15 12295132282117609253
pre0 100
pre1 200
pre2 101
pre3 404
pre4 400
pre5 401
pre6 206
pre7 0
server tx=7872 rx=3776 verbs=31 engine_busy=33080 reads=13 writes=6 atomics=14 sends=0
fabric.doorbells 33
fabric.signaled_verbs 33
fabric.unsignaled_verbs 4
fabric.combined_reads 1
fabric.duplicate_inflight_reads 0
fabric.dropped_verbs 4
fabric.net.dropped_verbs 2
fabric.net.dropped_completions 2
fabric.net.duplicates 2
)golden";

TEST(FabricTest, PostTimingGolden) {
  EXPECT_EQ(RunPostGolden(/*verb_chaining=*/true), kPostGoldenChained);
  EXPECT_EQ(RunPostGolden(/*verb_chaining=*/false), kPostGoldenUnchained);
}

}  // namespace
}  // namespace namtree::rdma
