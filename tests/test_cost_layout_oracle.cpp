// The closed-form wire model checked against the elaborated reference.
//
// estimate_layout_cost(ctx, DesignPoint) derives the macro's wirelength
// without building a netlist; estimate_layout_cost(ctx, DcimMacro)
// floorplans the generated netlist and measures HPWL net by net.  Both cost
// backends fold the closed form, so its fidelity to the reference is a
// contract: over a deterministic stratified sample of valid (N, H, L, k)
// points — all eight precisions, the corners of each space, pipelined trees
// and signed weights — total HPWL and the longest net stay within
// kOracleBound of the elaborated values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>
#include <vector>

#include "arch/space.h"
#include "cost/layout_cost.h"
#include "rtl/macro_builder.h"

namespace sega {
namespace {

/// Relative bound on wire_total_um and wire_max_um.
constexpr double kOracleBound = 0.10;

using Key = std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                       bool, bool>;

/// Every corner of the space (extreme N, H, L, k; first and last in
/// enumeration order) plus @p strata evenly spaced points in between.  With
/// @p variants, every third pick is repeated with a pipelined adder tree,
/// and (integer precisions) with signed weights.
std::vector<DesignPoint> stratified_sample(std::int64_t wstore,
                                           const Precision& precision,
                                           std::size_t strata, bool variants) {
  const std::vector<DesignPoint> all =
      DesignSpace(wstore, precision).enumerate_all();
  std::vector<std::size_t> picks = {0, all.size() - 1};
  for (std::size_t i = 1; i < strata; ++i) {
    picks.push_back(i * all.size() / strata);
  }
  const auto extreme = [&](auto field) {
    const auto [lo, hi] = std::minmax_element(
        all.begin(), all.end(), [&](const DesignPoint& a,
                                    const DesignPoint& b) {
          return field(a) < field(b);
        });
    picks.push_back(static_cast<std::size_t>(lo - all.begin()));
    picks.push_back(static_cast<std::size_t>(hi - all.begin()));
  };
  extreme([](const DesignPoint& p) { return p.n; });
  extreme([](const DesignPoint& p) { return p.h; });
  extreme([](const DesignPoint& p) { return p.l; });
  extreme([](const DesignPoint& p) { return p.k; });

  std::set<Key> seen;
  std::vector<DesignPoint> out;
  int nth = 0;
  for (const std::size_t i : picks) {
    for (int variant = 0; variant < (variants ? 3 : 1); ++variant) {
      DesignPoint dp = all[i];
      if (variant == 1) {
        if (nth % 3 != 0) continue;
        dp.pipelined_tree = true;
      }
      if (variant == 2) {
        if (nth % 3 != 1 || dp.arch != ArchKind::kMulCim) continue;
        dp.signed_weights = true;
      }
      const Key key{dp.n, dp.h, dp.l, dp.k, dp.pipelined_tree,
                    dp.signed_weights};
      if (!seen.insert(key).second) continue;
      out.push_back(dp);
    }
    ++nth;
  }
  return out;
}

double rel_err(double model, double reference) {
  return std::fabs(model - reference) / reference;
}

TEST(LayoutOracleTest, ClosedFormTracksElaboratedWirelength) {
  const Technology tech = Technology::tsmc28();
  const EvalContext ctx(tech, EvalConditions{});
  double worst_total = 0.0, worst_max = 0.0;
  std::string worst_total_at, worst_max_at;
  int points = 0;
  for (const Precision& precision : all_precisions()) {
    // Strata and variants over the 1K-weight space, corners of the 2K one.
    for (const std::int64_t wstore : {1024, 2048}) {
      const bool strata = wstore == 1024;
      for (const DesignPoint& dp :
           stratified_sample(wstore, precision, strata ? 8 : 0, strata)) {
        const LayoutCost model = estimate_layout_cost(ctx, dp);
        const LayoutCost ref = estimate_layout_cost(ctx, build_dcim_macro(dp));
        const std::string where =
            dp.to_string() + (dp.pipelined_tree ? " pipelined" : "") +
            (dp.signed_weights ? " signed" : "");
        const double et = rel_err(model.wire_total_um, ref.wire_total_um);
        const double em = rel_err(model.wire_max_um, ref.wire_max_um);
        EXPECT_LE(et, kOracleBound)
            << where << ": total " << model.wire_total_um << " vs "
            << ref.wire_total_um;
        EXPECT_LE(em, kOracleBound) << where << ": max " << model.wire_max_um
                                    << " vs " << ref.wire_max_um;
        if (et > worst_total) {
          worst_total = et;
          worst_total_at = where;
        }
        if (em > worst_max) {
          worst_max = em;
          worst_max_at = where;
        }
        ++points;
      }
    }
  }
  EXPECT_GE(points, 150);
  std::printf("[          ] %d points; worst total %.2f%% (%s), worst max "
              "%.2f%% (%s)\n",
              points, 100 * worst_total, worst_total_at.c_str(),
              100 * worst_max, worst_max_at.c_str());
}

TEST(LayoutOracleTest, ParasiticsConvertLikeTheReference) {
  // Same wirelength in, same parasitics out: the two estimators share the
  // conversion, so only the wire figures can differ.
  const Technology tech = Technology::tsmc28();
  EvalConditions cond;
  cond.supply_v = 0.8;
  cond.activity = 0.7;
  const EvalContext ctx(tech, cond);
  DesignPoint dp;
  dp.precision = precision_fp8_e4m3();
  dp.arch = arch_for(dp.precision);
  dp.n = 16;
  dp.h = 32;
  dp.l = 4;
  dp.k = 2;
  const LayoutCost lc = estimate_layout_cost(ctx, dp);
  EXPECT_EQ(lc.wire_delay_ns,
            ctx.delay_ns(kWireDelayGatesPerUm2 * lc.wire_max_um *
                         lc.wire_max_um));
  EXPECT_EQ(lc.wire_energy_fj,
            ctx.energy_fj(kWireEnergyGatesPerUm * lc.wire_total_um));
}

}  // namespace
}  // namespace sega
