#include "cost/layout_cost.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/space.h"
#include "cost/batch_coalescer.h"
#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "cost/rtl_cost_model.h"
#include "rtl/macro_builder.h"
#include "test_support.h"

namespace sega {
namespace {

using test::expect_same_metrics;
using test::int8_point;

/// One temp dir for the whole binary (removed at exit).
std::string temp_path(const char* name) {
  static test::ScopedTempDir dir("sega_cost_layout");
  return dir.file(name);
}

EvalConditions paper_conditions() {
  EvalConditions cond;
  cond.supply_v = 0.8;
  cond.input_sparsity = 0.1;
  cond.activity = 0.7;
  return cond;
}

TEST(LayoutCostTest, EstimateIsPositiveAndDeterministic) {
  const Technology tech = Technology::tsmc28();
  const EvalContext ctx(tech, paper_conditions());
  const DesignPoint dp = int8_point(32, 128, 16, 8);
  const LayoutCost a = estimate_layout_cost(ctx, dp);
  const LayoutCost b = estimate_layout_cost(ctx, dp);
  EXPECT_GT(a.nets, 0u);
  EXPECT_GT(a.wire_total_um, 0.0);
  EXPECT_GT(a.wire_max_um, 0.0);
  EXPECT_GT(a.wire_delay_ns, 0.0);
  EXPECT_GT(a.wire_energy_fj, 0.0);
  EXPECT_EQ(a.wire_total_um, b.wire_total_um);
  EXPECT_EQ(a.wire_delay_ns, b.wire_delay_ns);
  EXPECT_EQ(a.wire_energy_fj, b.wire_energy_fj);

  // The elaborated reference is deterministic too.
  const DcimMacro macro = build_dcim_macro(dp);
  const LayoutCost c = estimate_layout_cost(ctx, macro);
  EXPECT_GT(c.nets, 0u);
  EXPECT_EQ(c.wire_total_um, estimate_layout_cost(ctx, macro).wire_total_um);
}

TEST(LayoutCostTest, FoldStrictlyIncreasesDelayAndEnergy) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond = paper_conditions();
  const AnalyticCostModel off(tech, cond);
  const AnalyticCostModel on(tech, cond, nullptr, /*layout=*/true);
  for (const DesignPoint& dp :
       {int8_point(16, 64, 8, 8), int8_point(32, 128, 16, 8),
        int8_point(64, 128, 8, 4)}) {
    const MacroMetrics base = off.evaluate(dp);
    const MacroMetrics folded = on.evaluate(dp);
    EXPECT_GT(folded.delay_ns, base.delay_ns);
    EXPECT_GT(folded.energy_per_cycle_fj, base.energy_per_cycle_fj);
    EXPECT_LT(folded.freq_ghz, base.freq_ghz);
    EXPECT_LT(folded.throughput_tops, base.throughput_tops);
    // Wire parasitics change timing and energy, never silicon area.
    EXPECT_EQ(folded.area_um2, base.area_um2);
    EXPECT_EQ(folded.area_mm2, base.area_mm2);
    EXPECT_EQ(folded.gates, base.gates);
    EXPECT_EQ(folded.cycles_per_input, base.cycles_per_input);
  }
}

TEST(LayoutCostTest, FoldMatchesHandAppliedEstimate) {
  // The model's layout path is exactly "evaluate without layout, then
  // apply_layout_cost of the standalone closed-form estimate" — bit for
  // bit.
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond = paper_conditions();
  const EvalContext ctx(tech, cond);
  const AnalyticCostModel off(tech, cond);
  const AnalyticCostModel on(tech, cond, nullptr, /*layout=*/true);
  const DesignPoint dp = int8_point(32, 128, 16, 8);
  MacroMetrics by_hand = off.evaluate(dp);
  apply_layout_cost(estimate_layout_cost(ctx, dp), &by_hand);
  expect_same_metrics(on.evaluate(dp), by_hand);
}

TEST(LayoutCostTest, DerivedMetricsStayInternallyConsistent) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel on(tech, paper_conditions(), nullptr, true);
  const MacroMetrics m = on.evaluate(int8_point(32, 128, 16, 8));
  EXPECT_EQ(m.freq_ghz, 1.0 / m.delay_ns);
  EXPECT_EQ(m.power_w, m.energy_per_cycle_fj * 1e-15 / (m.delay_ns * 1e-9));
  EXPECT_EQ(m.tops_per_w, m.throughput_tops / m.power_w);
  EXPECT_EQ(m.tops_per_mm2, m.throughput_tops / m.area_mm2);
}

TEST(LayoutCostTest, BatchIsBitIdenticalToScalarWithLayoutOn) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel on(tech, paper_conditions(), nullptr, true);
  const DesignSpace space(1 << 13, precision_int8());
  const auto points = space.enumerate_all();
  ASSERT_FALSE(points.empty());
  std::vector<MacroMetrics> batched(points.size());
  on.evaluate_batch(Span<const DesignPoint>(points),
                    Span<MacroMetrics>(batched));
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_same_metrics(batched[i], on.evaluate(points[i]));
  }
}

TEST(LayoutCostTest, MakeCostModelRespectsLayoutToggle) {
  const Technology tech = Technology::tsmc28();
  const auto off = make_cost_model(CostModelKind::kAnalytic, tech,
                                   EvalConditions{}, nullptr, false);
  const auto on = make_cost_model(CostModelKind::kAnalytic, tech,
                                  EvalConditions{}, nullptr, true);
  EXPECT_FALSE(off->layout_enabled());
  EXPECT_TRUE(on->layout_enabled());

  // Decorators must propagate the identity bit unchanged.
  CostCache cache(make_cost_model(CostModelKind::kAnalytic, tech,
                                  EvalConditions{}, nullptr, true));
  EXPECT_TRUE(cache.layout_enabled());
  BatchCoalescer coalescer(make_cost_model(CostModelKind::kAnalytic, tech,
                                           EvalConditions{}, nullptr, true));
  EXPECT_TRUE(coalescer.layout_enabled());
}

TEST(LayoutCostTest, MemoCrossLoadRejectedBothDirections) {
  // A layout-on memo and a layout-off memo hold different metrics under the
  // same keys; the fingerprint key must keep them apart in both directions.
  const Technology tech = Technology::tsmc28();
  const DesignPoint dp = int8_point(32, 128, 16, 8);

  CostCache on_writer(make_cost_model(CostModelKind::kAnalytic, tech,
                                      EvalConditions{}, nullptr, true));
  (void)on_writer.evaluate(dp);
  const std::string on_path = temp_path("layout_on.memo.jsonl");
  ASSERT_TRUE(on_writer.save(on_path));

  CostCache off_writer(tech);
  (void)off_writer.evaluate(dp);
  const std::string off_path = temp_path("layout_off.memo.jsonl");
  ASSERT_TRUE(off_writer.save(off_path));

  std::string error;
  CostCache off_reader(tech);
  EXPECT_FALSE(off_reader.load(on_path, &error));
  EXPECT_NE(error.find("different cost model"), std::string::npos) << error;
  CostCache on_reader(make_cost_model(CostModelKind::kAnalytic, tech,
                                      EvalConditions{}, nullptr, true));
  EXPECT_FALSE(on_reader.load(off_path, &error));

  // Sanity: matching identities still round-trip.
  CostCache on_ok(make_cost_model(CostModelKind::kAnalytic, tech,
                                  EvalConditions{}, nullptr, true));
  EXPECT_TRUE(on_ok.load(on_path, &error)) << error;
  EXPECT_EQ(on_ok.size(), 1u);
}

TEST(LayoutCostTest, MemoFromAnOlderWireModelIsRejected) {
  // A layout memo written under wire-model version 1 carries "layout":1 in
  // its header; the current model must refuse it rather than serve its
  // numbers.
  const Technology tech = Technology::tsmc28();
  CostCache writer(make_cost_model(CostModelKind::kAnalytic, tech,
                                   EvalConditions{}, nullptr, true));
  (void)writer.evaluate(int8_point(32, 128, 16, 8));
  const std::string path = temp_path("layout_v1.memo.jsonl");
  ASSERT_TRUE(writer.save(path));
  std::string text = test::read_file(path);
  const std::string current =
      "\"layout\":" + std::to_string(kLayoutCostVersion);
  const std::size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  ASSERT_LT(at, text.find('\n'));  // in the header line
  text.replace(at, current.size(), "\"layout\":1");
  test::write_file(path, text);

  CostCache reader(make_cost_model(CostModelKind::kAnalytic, tech,
                                   EvalConditions{}, nullptr, true));
  std::string error;
  EXPECT_FALSE(reader.load(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(reader.size(), 0u);
}

TEST(LayoutCostTest, RtlBackendFoldsTheSameLayoutStage) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond = paper_conditions();
  const DesignPoint dp = int8_point(8, 16, 4, 8);  // small: RTL sim is slow

  RtlCostModelOptions off_opts;
  const RtlCostModel off(tech, cond, off_opts);
  RtlCostModelOptions on_opts;
  on_opts.layout = true;
  const RtlCostModel on(tech, cond, on_opts);
  EXPECT_FALSE(off.layout_enabled());
  EXPECT_TRUE(on.layout_enabled());

  const MacroMetrics base = off.evaluate(dp);
  const MacroMetrics folded = on.evaluate(dp);
  EXPECT_GT(folded.delay_ns, base.delay_ns);
  EXPECT_GT(folded.energy_per_cycle_fj, base.energy_per_cycle_fj);
  EXPECT_EQ(folded.area_um2, base.area_um2);

  // Both backends fold the same closed-form estimate, so the RTL deltas
  // equal the standalone estimate and the analytic model's deltas.
  const EvalContext ctx(tech, cond);
  const LayoutCost lc = estimate_layout_cost(ctx, dp);
  const AnalyticCostModel analytic_off(tech, cond);
  const AnalyticCostModel analytic_on(tech, cond, nullptr, true);
  EXPECT_EQ(analytic_on.evaluate(dp).energy_per_cycle_fj,
            analytic_off.evaluate(dp).energy_per_cycle_fj + lc.wire_energy_fj);
  EXPECT_EQ(folded.delay_ns, base.delay_ns + lc.wire_delay_ns);
  EXPECT_EQ(folded.energy_per_cycle_fj,
            base.energy_per_cycle_fj + lc.wire_energy_fj);
}

}  // namespace
}  // namespace sega
