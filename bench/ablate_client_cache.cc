// Ablation for the Appendix A.4 client-side caching extension: fine-grained
// point-query throughput and per-op round trips with the inner-node cache
// disabled vs enabled (one cache per compute machine, entries valid until a
// fence check fails), for read-only and insert-heavy workloads (staleness
// never breaks correctness, it only costs extra hops).

#include <cstdio>

#include "bench_common.h"
#include <memory>

#include "index/fine_grained.h"
#include "nam/cluster.h"

using namespace namtree;
using namtree::bench::Num;
using namtree::bench::PrintRow;

int main(int argc, char** argv) {
  namtree::ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 500000));
  const uint32_t clients =
      static_cast<uint32_t>(args.GetInt("clients", 120));

  namtree::bench::PrintPreamble(
      "Ablation: client cache (Appendix A.4)",
      "Fine-grained index with per-machine inner-node caching",
      Num(static_cast<double>(keys)) + " keys, " + Num(clients) + " clients");

  struct Config {
    const char* label;
    uint32_t pages;
  };
  const Config configs[] = {{"off", 0}, {"on", 1 << 16}};

  for (const char* workload : {"A_point", "D_50pct_insert"}) {
    std::printf("\n# subplot: workload_%s\n", workload);
    PrintRow({"cache", "ops_per_s", "round_trips_per_op", "hit_rate"});
    for (const Config& cache_config : configs) {
      rdma::FabricConfig fabric_config;
      const uint64_t region_bytes =
          (keys / 40 + 1024) * 1024ull * 3 + (16ull << 20);
      nam::Cluster cluster(fabric_config, region_bytes);
      namtree::index::IndexConfig ic;
      ic.client_cache_pages = cache_config.pages;
      auto index = std::make_unique<namtree::index::FineGrainedIndex>(
          cluster, ic);
      const auto data = namtree::ycsb::GenerateDataset(keys);
      if (!index->BulkLoad(data).ok()) return 1;

      namtree::ycsb::RunConfig run;
      run.num_clients = clients;
      run.mix = workload[0] == 'A' ? namtree::ycsb::WorkloadA()
                                   : namtree::ycsb::WorkloadD();
      run.duration = 20 * namtree::kMillisecond;
      run.warmup = 2 * namtree::kMillisecond;
      const auto result =
          namtree::ycsb::RunWorkload(cluster, *index, keys, run);
      const double hits =
          static_cast<double>(result.counters.Value("client.cache.hits"));
      const double lookups =
          hits +
          static_cast<double>(result.counters.Value("client.cache.misses"));
      PrintRow({cache_config.label, Num(result.ops_per_sec),
                Num(static_cast<double>(result.round_trips()) /
                    std::max<uint64_t>(1, result.ops())),
                lookups > 0 ? Num(hits / lookups) : "n/a"});
    }
  }
  return 0;
}
