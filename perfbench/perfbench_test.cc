// The benchmark's own tests, at a reduced scale:
//   python3 perfbench/run.py --test
#include "perfbench.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

namespace perfbench {
namespace {

using namtree::metrics::SpanRecord;
using namtree::metrics::TraceEvent;
using namtree::metrics::TraceVerb;

Scale SmallScale() {
  Scale s;
  s.keys = 20'000;
  s.clients = 24;
  s.window = 20 * namtree::kMillisecond;
  return s;
}

TraceEvent Verb(TraceVerb verb, SimTime start, SimTime finish) {
  TraceEvent e;
  e.verb = verb;
  e.start = start;
  e.finish = finish;
  return e;
}

SimTime Sum(const LayerSplit& split) {
  SimTime total = 0;
  for (SimTime ns : split) total += ns;
  return total;
}

TEST(SplitSpanTest, OverlapsGoToTheHigherLayerAndGapsToClient) {
  SpanRecord span;
  span.start = 100;
  span.finish = 200;
  span.events = {Verb(TraceVerb::kRead, 110, 150),
                 Verb(TraceVerb::kWrite, 140, 170),
                 Verb(TraceVerb::kFaa, 160, 175),
                 // Clamped to the span.
                 Verb(TraceVerb::kReadBatch, 190, 260)};
  const LayerSplit split = SplitSpan(span);
  EXPECT_EQ(split[static_cast<size_t>(Layer::kRead)], 30 + 10);
  EXPECT_EQ(split[static_cast<size_t>(Layer::kWrite)], 20);
  EXPECT_EQ(split[static_cast<size_t>(Layer::kAtomic)], 15);
  EXPECT_EQ(split[static_cast<size_t>(Layer::kRpc)], 0);
  EXPECT_EQ(split[static_cast<size_t>(Layer::kClient)], 10 + 15);
  EXPECT_EQ(Sum(split), span.duration());
}

TEST(SplitSpanTest, EmptySpanIsAllClient) {
  SpanRecord span;
  span.start = 5;
  span.finish = 42;
  const LayerSplit split = SplitSpan(span);
  EXPECT_EQ(split[static_cast<size_t>(Layer::kClient)], 37);
  EXPECT_EQ(Sum(split), 37);
}

class CellTest : public ::testing::TestWithParam<
                     std::tuple<std::string, Design>> {
 protected:
  Workload workload() const { return *FindWorkload(std::get<0>(GetParam())); }
  Design design() const { return std::get<1>(GetParam()); }
};

// Tracing charges no virtual time: the closed loop, traced or not,
// reproduces the untraced RunWorkload window exactly, every traced op's
// split sums to its latency, and every cluster passes every output check.
TEST_P(CellTest, TracedRunMatchesUntracedAndSplitsEveryOp) {
  const Scale scale = SmallScale();
  Cell plain_cell(design(), workload(), scale);
  const RunOutcome plain = plain_cell.RunUntraced(7);
  EXPECT_EQ(plain_cell.Check(7), std::vector<std::string>{});

  Cell loop_cell(design(), workload(), scale);
  const RunOutcome loop = loop_cell.RunClosedLoop(7, /*traced=*/false);
  EXPECT_EQ(loop_cell.Check(7), std::vector<std::string>{});

  Cell traced_cell(design(), workload(), scale);
  const RunOutcome traced = traced_cell.RunClosedLoop(7, /*traced=*/true);
  EXPECT_EQ(traced_cell.Check(7), std::vector<std::string>{});

  EXPECT_EQ(loop.virt.ToString(), plain.virt.ToString());
  EXPECT_EQ(loop.bad_spans, 0u);
  EXPECT_EQ(Sum(loop.split), 0);
  EXPECT_EQ(traced.virt.ToString(), plain.virt.ToString());
  EXPECT_EQ(traced.bad_spans, 0u);
  EXPECT_GT(Sum(traced.split), 0);
  EXPECT_EQ(plain.virt.failed, 0u);
  // p99 needs at least ten samples beyond it.
  EXPECT_GE(plain.virt.ops, 1000u);
}

// Two runs with one seed give byte-identical virtual metrics.
TEST_P(CellTest, SameSeedIsByteIdentical) {
  const Scale scale = SmallScale();
  Cell a(design(), workload(), scale);
  Cell b(design(), workload(), scale);
  EXPECT_EQ(a.RunUntraced(11).virt.ToString(),
            b.RunUntraced(11).virt.ToString());
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, CellTest,
    ::testing::Combine(::testing::Values("point_uniform", "insert_zipf",
                                         "scan_skew", "cached_zipf"),
                       ::testing::ValuesIn(kDesigns)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             DesignSuffix(std::get<1>(info.param));
    });

TEST(SeedTest, DifferentSeedsDrawDifferentOps) {
  const Scale scale = SmallScale();
  const Workload w = *FindWorkload("point_uniform");
  Cell a(Design::kFg, w, scale);
  Cell b(Design::kFg, w, scale);
  EXPECT_NE(a.RunUntraced(1).virt.ToString(), b.RunUntraced(2).virt.ToString());
}

}  // namespace
}  // namespace perfbench
