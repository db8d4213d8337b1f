// namtree_perf: the repo benchmark. Runs one workload against all four
// designs and prints every metric by name with its unit; the last stdout
// line is one JSON object {correct, attempted, failed, metrics}.
//
//   namtree_perf --workload point_uniform --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
// the per-layer metrics from an untraced RunWorkload run plus separate
// untraced and traced runs of the benchmark's own closed loop.
// See README.md in this directory for the workloads and metric map.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench.h"

namespace {

using perfbench::Cell;
using perfbench::Design;
using perfbench::kDesigns;
using perfbench::RunOutcome;

/// Seed reserved for confirming a performance claim; never used while
/// tuning the benchmark or a change.
constexpr uint64_t kHeldOutSeed = 1000003;
/// Windows pooled per design in a --trace 0 run. Each window is a fresh
/// cluster driven with its own workload seed (WindowSeed), so one run
/// averages over several request trajectories: hot spots and server queues
/// make single windows differ by up to ~10% between seeds.
constexpr int kWindows = 8;

/// Windows a --trace 1 run pools per design: the first 3 of the --trace 0
/// windows, each run three times, keep a traced run near a plain one's
/// length.
constexpr int kTracedWindows = 3;

/// The workload seed of window `w` of a run with --seed `seed`; the windows
/// of different --seed values never share a workload seed.
uint64_t WindowSeed(uint64_t seed, int w) { return seed * kWindows + w; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "namtree_perf: %s\nusage: namtree_perf --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const auto& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.trace != 0 && args.trace != 1) Usage("--trace takes 0 or 1");
  return args;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Metrics in emission order, each printed as a "metric" line and then in
/// the final JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
    std::printf("metric %-34s %s %s\n", name.c_str(), Num(value).c_str(),
                unit);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + Num(e.value) +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Accumulates attempted/failed ops and check failures over every cell.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Checks(Design d, const char* run, const std::vector<std::string>& f) {
    for (const std::string& s : f) {
      failures.push_back(std::string(perfbench::DesignSuffix(d)) + " " + run +
                         ": " + s);
    }
  }
  void Ops(const RunOutcome& r) {
    attempted += r.virt.ops;
    failed += r.virt.failed;
  }
  void Require(bool ok, Design d, const std::string& what) {
    if (!ok) failures.push_back(perfbench::DesignSuffix(d) + (": " + what));
  }
};

/// p99 is reported only where at least ten samples lie beyond it.
void CheckTail(Verdict& verdict, Design d,
               const perfbench::VirtualResult& v) {
  std::printf("cell %-6s ops=%llu failed=%llu samples_beyond_p99=%llu\n",
              perfbench::DesignSuffix(d),
              static_cast<unsigned long long>(v.ops),
              static_cast<unsigned long long>(v.failed),
              static_cast<unsigned long long>(v.ops / 100));
  verdict.Require(v.ops >= 1000, d,
                  "fewer than 1000 ops: p99 has under 10 samples beyond it");
}

std::string Suffixed(const char* family, Design d) {
  return std::string(family) + "." + perfbench::DesignSuffix(d);
}

void RunEndToEnd(const Args& args, const perfbench::Workload& workload,
                 const perfbench::Scale& scale, Verdict& verdict,
                 Report& report) {
  std::map<Design, perfbench::Samples> pooled;
  std::map<std::pair<int, Design>, perfbench::VirtualResult> first;
  std::vector<double> setup_s, setup_cpu_s;
  const double begin = perfbench::WallSeconds();
  double rep_s = 0;  // wall time of the latest repetition
  // The first kWindows repetitions are pooled. Later ones replay the same
  // window seeds, at least once and then while another fits in --seconds,
  // for more set-up samples; each must reproduce its window's virtual
  // metrics.
  int reps = 0;
  for (; reps <= kWindows ||
         perfbench::WallSeconds() - begin + rep_s < args.seconds;
       ++reps) {
    const double rep_begin = perfbench::WallSeconds();
    const int w = reps % kWindows;
    const uint64_t seed = WindowSeed(args.seed, w);
    double setup = 0, setup_cpu = 0;
    std::printf("repetition %d seed %llu host_ns_per_op", reps,
                static_cast<unsigned long long>(seed));
    for (Design d : kDesigns) {
      Cell cell(d, workload, scale);
      setup += cell.setup_s();
      setup_cpu += cell.setup_cpu_s();
      const RunOutcome r = cell.RunUntraced(seed);
      const double ns_per_op =
          Ratio(r.host_cpu_s * 1e9, static_cast<double>(r.ops_issued));
      std::printf(" %s=%s", perfbench::DesignSuffix(d), Num(ns_per_op).c_str());
      verdict.Ops(r);
      if (reps < kWindows) {
        pooled[d].Merge(r.samples);
        first[{w, d}] = r.virt;
        verdict.Checks(d, "run", cell.Check(seed));
      } else {
        verdict.Require(r.virt == first[{w, d}], d,
                        "virtual metrics differ between two runs of seed " +
                            std::to_string(seed) + ": " + r.virt.ToString() +
                            " vs " + first[{w, d}].ToString());
      }
    }
    setup_s.push_back(setup);
    setup_cpu_s.push_back(setup_cpu);
    std::printf(" setup_wall_s=%s setup_cpu_s=%s\n", Num(setup).c_str(),
                Num(setup_cpu).c_str());
    rep_s = perfbench::WallSeconds() - rep_begin;
  }
  std::printf("repetitions %d (windows pooled %d)\n", reps, kWindows);
  std::map<Design, perfbench::VirtualResult> virt;
  for (Design d : kDesigns) {
    virt[d] = pooled[d].Summary();
    CheckTail(verdict, d, virt[d]);
  }
  for (Design d : kDesigns) {
    report.Add(Suffixed("vops_per_s", d), virt[d].vops_per_s, "1/s");
  }
  for (Design d : kDesigns) {
    report.Add(Suffixed("p99_us", d), virt[d].p99_us, "us");
  }
  std::printf("setup_wall_s median %s\n", Num(Median(setup_s)).c_str());
  report.Add("setup_s", Median(setup_cpu_s), "s");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");
}

void RunPerLayer(const Args& args, const perfbench::Workload& workload,
                 const perfbench::Scale& scale, Verdict& verdict,
                 Report& report) {
  // Each window runs on three fresh clusters: through RunWorkload, which
  // gives the layer counters, and through the benchmark's closed loop with
  // tracing off and on, whose host times give trace.host_overhead.
  for (Design d : kDesigns) {
    RunOutcome plain, loop, traced;
    std::vector<double> bulk_load_s;
    for (int w = 0; w < kTracedWindows; ++w) {
      const uint64_t seed = WindowSeed(args.seed, w);
      RunOutcome p, l, t;
      {
        Cell cell(d, workload, scale);
        bulk_load_s.push_back(cell.bulk_load_s());
        p = cell.RunUntraced(seed);
        verdict.Checks(d, "untraced", cell.Check(seed));
      }
      {
        Cell cell(d, workload, scale);
        l = cell.RunClosedLoop(seed, /*traced=*/false);
        verdict.Checks(d, "closed loop", cell.Check(seed));
      }
      {
        Cell cell(d, workload, scale);
        t = cell.RunClosedLoop(seed, /*traced=*/true);
        verdict.Checks(d, "traced", cell.Check(seed));
      }
      for (const RunOutcome* r : {&p, &l, &t}) verdict.Ops(*r);
      verdict.Require(l.virt == p.virt, d,
                      "closed-loop virtual metrics differ from RunWorkload's "
                      "for seed " + std::to_string(seed) + ": " +
                          l.virt.ToString() + " vs " + p.virt.ToString());
      verdict.Require(t.virt == p.virt, d,
                      "traced virtual metrics differ from untraced for seed " +
                          std::to_string(seed) + ": " + t.virt.ToString() +
                          " vs " + p.virt.ToString());
      plain.Add(p);
      loop.Add(l);
      traced.Add(t);
    }
    CheckTail(verdict, d, plain.virt);
    verdict.Require(traced.bad_spans == 0, d,
                    std::to_string(traced.bad_spans) +
                        " traced spans whose split does not sum to their "
                        "latency, that dropped events or went missing, or "
                        "that do not cover the window's ops");

    const double ops = static_cast<double>(plain.virt.ops);
    const double issued = static_cast<double>(plain.ops_issued);
    auto add = [&](const char* family, double value, const char* unit) {
      report.Add(Suffixed(family, d), value, unit);
    };
    add("sim.host_ns_per_op", Ratio(plain.host_cpu_s * 1e9, issued), "ns/op");
    add("sim.events_per_op", Ratio(plain.events, issued), "events/op");
    add("sim.host_ns_per_event", Ratio(plain.host_cpu_s * 1e9, plain.events),
        "ns/event");
    add("rdma.reads_per_op", Ratio(plain.reads, ops), "verbs/op");
    add("rdma.writes_per_op", Ratio(plain.writes, ops), "verbs/op");
    add("rdma.atomics_per_op", Ratio(plain.atomics, ops), "verbs/op");
    add("rdma.sends_per_op", Ratio(plain.sends, ops), "verbs/op");
    add("rdma.doorbells_per_op", Ratio(plain.doorbells, ops), "doorbells/op");
    add("rdma.bytes_per_op", Ratio(plain.bytes, ops), "B/op");
    add("rdma.nic_busy_max", Ratio(plain.nic_busy_max, plain.reset_window),
        "ratio");
    add("nam.rpcs_per_op", Ratio(plain.rpcs_handled, issued), "rpcs/op");
    add("nam.hot_server_share",
        Ratio(plain.hot_server_verbs, plain.server_verbs), "ratio");
    add("index.rtt_per_op", Ratio(plain.round_trips, issued), "rtt/op");
    add("index.restarts_per_op", Ratio(plain.restarts, issued), "1/op");
    add("index.lock_waits_per_op", Ratio(plain.lock_waits, issued), "1/op");
    add("index.backoff_per_op", Ratio(plain.backoff, issued), "1/op");
    add("index.spec_hit_ratio",
        Ratio(plain.spec_hits, plain.spec_hits + plain.mispredicts), "ratio");
    add("index.combined_reads_per_op", Ratio(plain.combined_reads, issued),
        "1/op");
    add("index.bulk_load_s", Median(bulk_load_s), "s");
    add("ycsb.ops", ops, "count");
    for (size_t i = 0; i < perfbench::kReportedOps.size(); ++i) {
      const std::string op =
          namtree::ycsb::OpTypeName(perfbench::kReportedOps[i]);
      add(("ycsb.p50_us." + op).c_str(), plain.virt.op_p50_us[i], "us");
      add(("ycsb.p99_us." + op).c_str(), plain.virt.op_p99_us[i], "us");
    }
    perfbench::SimTime split_total = 0;
    for (perfbench::SimTime ns : traced.split) split_total += ns;
    for (perfbench::Layer layer :
         {perfbench::Layer::kRpc, perfbench::Layer::kRead,
          perfbench::Layer::kWrite, perfbench::Layer::kAtomic,
          perfbench::Layer::kClient}) {
      const std::string name =
          std::string("trace.share.") + perfbench::LayerName(layer);
      add(name.c_str(),
          Ratio(traced.split[static_cast<size_t>(layer)], split_total),
          "ratio");
    }
    add("trace.host_overhead", Ratio(traced.host_cpu_s, loop.host_cpu_s),
        "ratio");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays in this process's heap, so every cluster after the
  // first is built on pages that are already mapped. Set-up then measures
  // the program's own work (zeroing the server regions, generating and
  // loading the data) rather than the kernel's first-touch page faults,
  // whose cost swung by 25% with other processes' memory traffic.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  const Args args = Parse(argc, argv);
  const auto workload = perfbench::FindWorkload(args.workload);
  if (!workload) Usage(("unknown workload " + args.workload).c_str());
  const perfbench::Scale scale;

  std::printf("# namtree perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace);
  std::printf("# build type=%s audit=%d\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_AUDIT);
  std::printf("# scale keys=%llu servers=%u clients=%u warmup_ns=%lld "
              "window_ns=%lld\n",
              static_cast<unsigned long long>(scale.keys), perfbench::kServers,
              scale.clients, static_cast<long long>(perfbench::kWarmup),
              static_cast<long long>(workload->window));
  std::printf("# held-out seed for checking claims: %llu\n",
              static_cast<unsigned long long>(kHeldOutSeed));

  Verdict verdict;
  Report report;
  if (args.trace == 0) {
    RunEndToEnd(args, *workload, scale, verdict, report);
  } else {
    RunPerLayer(args, *workload, scale, verdict, report);
  }
  if (verdict.failed > 0) {
    verdict.failures.push_back(std::to_string(verdict.failed) +
                               " operations failed");
  }
  const bool correct = verdict.failures.empty();
  for (const std::string& f : verdict.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              correct ? report.Json().c_str() : "{}");
  return correct ? 0 : 1;
}
