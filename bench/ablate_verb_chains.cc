// Ablation for doorbell-batched verb chains (multi-member Fabric::Post):
// how many signaled verbs and doorbells a fine-grained insert costs with
// chaining on vs off, and what the chained write paths buy in
// Figure-12-style insert throughput. `--json <path>` additionally writes
// the machine-readable report the CI smoke-bench archives (BENCH_pr3.json).

#include <cstdio>

#include "bench_common.h"
#include "rdma/fabric.h"
#include "sim/task.h"

using namtree::bench::DesignKind;
using namtree::bench::ExperimentConfig;
using namtree::bench::JsonReport;
using namtree::bench::MakeExperiment;
using namtree::bench::Num;
using namtree::bench::PrintRow;

namespace {

// Right-edge appends: every insert lands on the rightmost leaf, so the run
// is split-heavy — the workload shape the chained split publication
// (WriteSiblingAndUnlockPage) is built for.
// namtree-lint: safe-coro-ref(referents live in RunVerbPhase's frame, which blocks on simulator.Run() until this task finishes)
namtree::sim::Task<> InsertLoop(namtree::index::DistributedIndex& index,
                                namtree::nam::ClientContext& ctx,
                                namtree::btree::Key first_key,
                                uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    (void)co_await index.Insert(ctx, first_key + i * namtree::ycsb::kKeyStride,
                                i);
  }
}

struct VerbPhaseResult {
  double signaled_per_op = 0;
  double unsignaled_per_op = 0;
  double doorbells_per_op = 0;
};

/// Single-client sequential inserts against a fine-grained index with the
/// inner-node cache warm, counting fabric-level verbs per insert. The small
/// page size keeps leaves shallow so splits — where chaining saves the
/// most — happen every few inserts, as in the paper's insert-heavy tail.
VerbPhaseResult RunVerbPhase(bool chained, uint64_t keys, uint64_t inserts,
                             uint32_t page_size, uint32_t cache_pages) {
  ExperimentConfig config;
  config.design = DesignKind::kFine;
  config.num_keys = keys;
  config.page_size = page_size;
  config.verb_chaining = chained;
  config.client_cache_pages = cache_pages;
  namtree::bench::Experiment exp = MakeExperiment(config);
  namtree::rdma::Fabric& fabric = exp.cluster->fabric();
  namtree::sim::Simulator& simulator = exp.cluster->simulator();
  fabric.SetNumClients(1);
  namtree::nam::ClientContext ctx(0, fabric, exp.index->page_size(), 7);

  // Warm the traversal cache (and take the first splits) off the books.
  const namtree::btree::Key edge = keys * namtree::ycsb::kKeyStride;
  const uint64_t warmup = inserts / 4 + 1;
  namtree::sim::Spawn(simulator, InsertLoop(*exp.index, ctx, edge, warmup));
  simulator.Run();
  fabric.ResetStats();

  namtree::sim::Spawn(
      simulator,
      InsertLoop(*exp.index, ctx,
                 edge + warmup * namtree::ycsb::kKeyStride, inserts));
  simulator.Run();

  VerbPhaseResult r;
  const double n = static_cast<double>(inserts);
  r.signaled_per_op = static_cast<double>(fabric.metrics().Value("fabric.signaled_verbs")) / n;
  r.unsignaled_per_op = static_cast<double>(fabric.metrics().Value("fabric.unsignaled_verbs")) / n;
  r.doorbells_per_op = static_cast<double>(fabric.metrics().Value("fabric.doorbells")) / n;
  return r;
}

/// Figure-12-style closed-loop insert workload (D: 50% inserts) on the
/// fine-grained design at paper page size, chained vs unchained.
double RunThroughputPhase(bool chained, uint64_t keys, uint32_t clients) {
  ExperimentConfig config;
  config.design = DesignKind::kFine;
  config.num_keys = keys;
  config.verb_chaining = chained;
  namtree::bench::Experiment exp = MakeExperiment(config);
  namtree::ycsb::RunConfig run;
  run.num_clients = clients;
  run.mix = namtree::ycsb::WorkloadD();
  run.duration = namtree::bench::DurationFor(run.mix, keys, clients);
  run.warmup = run.duration / 10;
  return exp.Run(run).ops_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  namtree::ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 20000));
  const uint64_t inserts =
      static_cast<uint64_t>(args.GetInt("inserts", 4000));
  // Verb-phase defaults: small pages make the append run split-heavy
  // (where chains collapse 3 signaled verbs into 1) and the warm A.4
  // inner-node cache keeps traversal reads — identical in both modes —
  // from diluting the ratio.
  const uint32_t page_size =
      static_cast<uint32_t>(args.GetInt("page", 128));
  const uint32_t cache_pages =
      static_cast<uint32_t>(args.GetInt("cache", 1 << 16));
  const uint32_t clients =
      static_cast<uint32_t>(args.GetInt("clients", 120));

  namtree::bench::PrintPreamble(
      "Ablation: verb chains",
      "Doorbell-batched write+unlock and split chains (Fabric::Post)",
      Num(static_cast<double>(keys)) + " keys; verb phase: sequential FG "
          "inserts, page=" + Num(page_size) + ", warm inner-node cache; "
          "throughput phase: workload D, " + Num(clients) + " clients, "
          "page=1024");

  std::printf("\n# subplot: signaled_verbs_per_insert\n");
  PrintRow({"mode", "signaled_per_op", "unsignaled_per_op",
            "doorbells_per_op"});
  const VerbPhaseResult unchained =
      RunVerbPhase(false, keys, inserts, page_size, cache_pages);
  PrintRow({"unchained", Num(unchained.signaled_per_op),
            Num(unchained.unsignaled_per_op),
            Num(unchained.doorbells_per_op)});
  const VerbPhaseResult chained =
      RunVerbPhase(true, keys, inserts, page_size, cache_pages);
  PrintRow({"chained", Num(chained.signaled_per_op),
            Num(chained.unsignaled_per_op), Num(chained.doorbells_per_op)});
  const double signaled_reduction =
      unchained.signaled_per_op > 0
          ? 100.0 * (1.0 - chained.signaled_per_op / unchained.signaled_per_op)
          : 0;
  const double doorbell_reduction =
      unchained.doorbells_per_op > 0
          ? 100.0 * (1.0 - chained.doorbells_per_op / unchained.doorbells_per_op)
          : 0;
  std::printf("# signaled verbs per insert: %.3f -> %.3f (-%.1f%%)\n",
              unchained.signaled_per_op, chained.signaled_per_op,
              signaled_reduction);

  std::printf("\n# subplot: workload_d_throughput\n");
  PrintRow({"mode", "ops_per_s"});
  const double tput_unchained = RunThroughputPhase(false, keys, clients);
  PrintRow({"unchained", Num(tput_unchained)});
  const double tput_chained = RunThroughputPhase(true, keys, clients);
  PrintRow({"chained", Num(tput_chained)});
  const double speedup =
      tput_unchained > 0 ? tput_chained / tput_unchained : 0;
  std::printf("# workload D throughput: x%.3f\n", speedup);

  JsonReport report;
  report.Set("bench", std::string("ablate_verb_chains"));
  report.Set("config.keys", keys);
  report.Set("config.inserts", inserts);
  report.Set("config.verb_phase_page_size", static_cast<uint64_t>(page_size));
  report.Set("config.verb_phase_cache_pages",
             static_cast<uint64_t>(cache_pages));
  report.Set("config.throughput_clients", static_cast<uint64_t>(clients));
  report.Set("unchained.signaled_per_op", unchained.signaled_per_op);
  report.Set("unchained.unsignaled_per_op", unchained.unsignaled_per_op);
  report.Set("unchained.doorbells_per_op", unchained.doorbells_per_op);
  report.Set("unchained.workload_d_ops_per_s", tput_unchained);
  report.Set("chained.signaled_per_op", chained.signaled_per_op);
  report.Set("chained.unsignaled_per_op", chained.unsignaled_per_op);
  report.Set("chained.doorbells_per_op", chained.doorbells_per_op);
  report.Set("chained.workload_d_ops_per_s", tput_chained);
  report.Set("signaled_verbs_reduction_percent", signaled_reduction);
  report.Set("doorbell_reduction_percent", doorbell_reduction);
  report.Set("workload_d_speedup", speedup);
  if (!namtree::bench::MaybeWriteJson(args, report)) return 1;
  return 0;
}
