// Google-benchmark microbenchmarks for the simulation substrate itself:
// raw event throughput of the discrete-event core and the cost of simulated
// verbs. These bound how much virtual-time experimentation the harness can
// do per wall-clock second.

#include <benchmark/benchmark.h>

#include "nam/cluster.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace namtree {
namespace {

sim::Task<> DelayLoop(sim::Simulator& s, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim::Delay(s, 10);
  }
}

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int c = 0; c < 16; ++c) sim::Spawn(s, DelayLoop(s, 1000));
    s.Run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 16 * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

sim::Task<> ReadLoop(rdma::Fabric& fabric, rdma::RemotePtr ptr, int n,
                     uint32_t len) {
  std::vector<uint8_t> buf(len);
  const rdma::Fabric::ChainOp read =
      rdma::Fabric::ChainOp::Read(ptr, buf.data(), len);
  for (int i = 0; i < n; ++i) {
    (void)co_await fabric.Post(0, {&read, 1}, rdma::Fabric::Posting::kVerbs);
  }
}

void BM_SimulatedRead(benchmark::State& state) {
  const uint32_t len = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    rdma::FabricConfig config;
    config.num_memory_servers = 1;
    nam::Cluster cluster(config, 1 << 20);
    rdma::RemotePtr ptr =
        cluster.memory_server(0).region().AllocateLocal(len);
    sim::Spawn(cluster.simulator(),
               ReadLoop(cluster.fabric(), ptr, 1000, len));
    cluster.simulator().Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetBytesProcessed(state.iterations() * 1000 * len);
}
BENCHMARK(BM_SimulatedRead)->Arg(64)->Arg(1024)->Arg(4096);

sim::Task<> CasLoop(rdma::Fabric& fabric, rdma::RemotePtr ptr, int n) {
  uint64_t expected = 0;
  for (int i = 0; i < n; ++i) {
    uint64_t pre = 0;
    const rdma::Fabric::ChainOp cas =
        rdma::Fabric::ChainOp::Cas(ptr, expected, expected + 1, &pre);
    (void)co_await fabric.Post(0, {&cas, 1}, rdma::Fabric::Posting::kVerbs);
    expected = pre + 1;
  }
}

void BM_SimulatedCas(benchmark::State& state) {
  for (auto _ : state) {
    rdma::FabricConfig config;
    config.num_memory_servers = 1;
    nam::Cluster cluster(config, 1 << 20);
    rdma::RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(8);
    sim::Spawn(cluster.simulator(), CasLoop(cluster.fabric(), ptr, 1000));
    cluster.simulator().Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatedCas);

}  // namespace
}  // namespace namtree

BENCHMARK_MAIN();
