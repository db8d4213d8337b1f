// Reproduces Figure 11: throughput when varying the number of memory
// servers (2..8) at 120 clients for the coarse-grained and fine-grained
// schemes: (a) point uniform, (b) range sel=0.01 uniform, (c) point skew,
// (d) range sel=0.01 skew. (The paper omits the hybrid here because it
// tracks CG for point and FG for range queries.) `--subplot <label>` runs
// one subplot alone.

#include <cstdio>
#include <string>

#include "bench_common.h"

using namtree::bench::DesignKind;
using namtree::bench::ExperimentConfig;
using namtree::bench::MakeExperiment;
using namtree::bench::Num;
using namtree::bench::PrintRow;

int main(int argc, char** argv) {
  namtree::ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 1000000));
  const uint32_t clients =
      static_cast<uint32_t>(args.GetInt("clients", 120));
  const std::string only = args.GetString("subplot", "");

  namtree::bench::PrintPreamble(
      "Figure 11", "Varying # of Memory Servers for Workloads A and B",
      Num(static_cast<double>(keys)) + " keys, " + Num(clients) +
          " clients; paper scale is 100M keys");

  struct Subplot {
    const char* label;
    namtree::ycsb::WorkloadMix mix;
    bool skew;
  };
  const Subplot subplots[] = {
      {"point_uniform", namtree::ycsb::WorkloadA(), false},
      {"range_sel_0.01_uniform", namtree::ycsb::WorkloadB(0.01), false},
      {"point_skew", namtree::ycsb::WorkloadA(), true},
      {"range_sel_0.01_skew", namtree::ycsb::WorkloadB(0.01), true},
  };

  for (const Subplot& subplot : subplots) {
    if (!only.empty() && only != subplot.label) continue;
    std::printf("\n# subplot: %s\n", subplot.label);
    PrintRow({"memory_servers", "coarse-grained", "fine-grained"});
    for (uint32_t servers = 2; servers <= 8; servers += 2) {
      std::vector<std::string> row = {Num(servers)};
      for (DesignKind design : {DesignKind::kCoarse, DesignKind::kFine}) {
        ExperimentConfig config;
        config.design = design;
        config.num_keys = keys;
        config.num_memory_servers = servers;
        config.skewed_data = subplot.skew;
        auto exp = MakeExperiment(config);
        namtree::ycsb::RunConfig run;
        run.num_clients = clients;
        run.mix = subplot.mix;
        run.duration = namtree::bench::DurationFor(subplot.mix, keys, run.num_clients);
        run.warmup = run.duration / 10;
        row.push_back(Num(exp.Run(run).ops_per_sec));
      }
      PrintRow(row);
    }
  }
  return 0;
}
