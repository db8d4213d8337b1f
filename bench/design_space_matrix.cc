// Extension experiment: the full §2.2 design matrix — distribution
// (coarse/fine) x access primitive (one-/two-sided) — measured on the same
// workloads. The paper implements three corners (Designs 1-3); Design 4
// (coarse-grained one-sided) completes the matrix and isolates the axes:
// comparing columns isolates the primitive, comparing rows isolates the
// distribution. Under skew, both coarse rows collapse regardless of the
// primitive — placement, not access method, is what skew punishes.

#include <cstdio>

#include "bench_common.h"

using namtree::bench::DesignKind;
using namtree::bench::ExperimentConfig;
using namtree::bench::JsonReport;
using namtree::bench::MakeExperiment;
using namtree::bench::MaybeWriteJson;
using namtree::bench::Num;
using namtree::bench::PrintRow;

int main(int argc, char** argv) {
  namtree::ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 500000));
  const uint32_t clients =
      static_cast<uint32_t>(args.GetInt("clients", 240));

  namtree::bench::PrintPreamble(
      "Design-space matrix (§2.2)",
      "distribution x RDMA primitive; hybrid shown for reference",
      Num(static_cast<double>(keys)) + " keys, " + Num(clients) +
          " clients, 4 memory servers");

  struct Cell {
    const char* label;
    const char* json_key;
    namtree::ycsb::WorkloadMix mix;
    bool skew;
  };
  const Cell cells[] = {
      {"point_uniform", "point_uniform", namtree::ycsb::WorkloadA(), false},
      {"point_skew", "point_skew", namtree::ycsb::WorkloadA(), true},
      {"range_0.01_uniform", "range_1pct_uniform", namtree::ycsb::WorkloadB(0.01),
       false},
      {"range_0.01_skew", "range_1pct_skew", namtree::ycsb::WorkloadB(0.01),
       true},
      {"insert_heavy_uniform", "insert_heavy_uniform", namtree::ycsb::WorkloadD(),
       false},
  };

  const struct {
    const char* label;
    const char* json_key;
    DesignKind design;
  } designs[] = {
      {"coarse/2-sided (D1)", "coarse_grained", DesignKind::kCoarse},
      {"coarse/1-sided (D4)", "coarse_one_sided", DesignKind::kCoarseOneSided},
      {"fine/1-sided   (D2)", "fine_grained", DesignKind::kFine},
      {"hybrid         (D3)", "hybrid", DesignKind::kHybrid},
  };

  JsonReport report;
  report.Set("bench", std::string("design_space_matrix"));
  report.Set("config.keys", keys);
  report.Set("config.clients", static_cast<uint64_t>(clients));

  PrintRow({"design", "point_unif", "point_skew", "range_unif", "range_skew",
            "insert_unif"});
  for (const auto& d : designs) {
    std::vector<std::string> row = {d.label};
    for (const Cell& cell : cells) {
      ExperimentConfig config;
      config.design = d.design;
      config.num_keys = keys;
      config.skewed_data = cell.skew;
      auto exp = MakeExperiment(config);
      namtree::ycsb::RunConfig run;
      run.num_clients = clients;
      run.mix = cell.mix;
      run.duration =
          namtree::bench::DurationFor(cell.mix, keys, run.num_clients);
      run.warmup = run.duration / 10;
      const namtree::ycsb::RunResult result = exp.Run(run);
      const double ops_per_sec = result.ops_per_sec;
      report.Set(std::string(d.json_key) + "." + cell.json_key, ops_per_sec);
      report.Set(std::string("scan_prefetch_fallbacks.") + d.json_key + "." +
                     cell.json_key,
                 result.scan_prefetch_fallbacks());
      row.push_back(Num(ops_per_sec));
    }
    PrintRow(row);
  }
  if (!MaybeWriteJson(args, report)) return 1;
  return 0;
}
