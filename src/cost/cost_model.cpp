#include "cost/cost_model.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cost/calibrate.h"
#include "cost/layout_cost.h"
#include "cost/rtl_cost_model.h"
#include "util/assert.h"
#include "util/strings.h"

namespace sega {

const char* cost_model_kind_name(CostModelKind kind) {
  switch (kind) {
    case CostModelKind::kAnalytic: return "analytic";
    case CostModelKind::kRtl: return "rtl";
  }
  SEGA_ASSERT(false);
  return "";
}

std::optional<CostModelKind> cost_model_kind_from_name(
    const std::string& name) {
  const std::string n = to_lower(trim(name));
  for (const CostModelKind kind :
       {CostModelKind::kAnalytic, CostModelKind::kRtl}) {
    if (n == cost_model_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<CostModel> make_cost_model(CostModelKind kind,
                                           const Technology& tech,
                                           EvalConditions cond) {
  switch (kind) {
    case CostModelKind::kAnalytic:
      return std::make_unique<AnalyticCostModel>(tech, cond);
    case CostModelKind::kRtl:
      return std::make_unique<RtlCostModel>(tech, cond);
  }
  SEGA_ASSERT(false);
  return nullptr;
}

std::unique_ptr<CostModel> make_cost_model(
    CostModelKind kind, const Technology& tech, EvalConditions cond,
    std::shared_ptr<const Calibration> cal) {
  if (!cal) return make_cost_model(kind, tech, cond);
  if (kind != CostModelKind::kAnalytic) {
    throw std::runtime_error(
        "a calibration artifact only applies to the analytic cost model; "
        "the rtl backend is the measurement it was fitted against");
  }
  return std::make_unique<AnalyticCostModel>(tech, cond, std::move(cal));
}

std::unique_ptr<CostModel> make_cost_model(
    CostModelKind kind, const Technology& tech, EvalConditions cond,
    std::shared_ptr<const Calibration> cal, bool layout) {
  if (!layout) return make_cost_model(kind, tech, cond, std::move(cal));
  if (cal && kind != CostModelKind::kAnalytic) {
    throw std::runtime_error(
        "a calibration artifact only applies to the analytic cost model; "
        "the rtl backend is the measurement it was fitted against");
  }
  switch (kind) {
    case CostModelKind::kAnalytic:
      return std::make_unique<AnalyticCostModel>(tech, cond, std::move(cal),
                                                 true);
    case CostModelKind::kRtl: {
      RtlCostModelOptions options;
      options.layout = true;
      return std::make_unique<RtlCostModel>(tech, cond, options);
    }
  }
  SEGA_ASSERT(false);
  return nullptr;
}

void CostModel::evaluate_batch(Span<const DesignPoint> points,
                               Span<MacroMetrics> out) const {
  SEGA_EXPECTS(points.size() == out.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[i] = evaluate(points[i]);
  }
}

AnalyticCostModel::AnalyticCostModel(const Technology& tech,
                                     EvalConditions cond)
    : ctx_(tech, cond) {}

AnalyticCostModel::AnalyticCostModel(const Technology& tech,
                                     EvalConditions cond,
                                     std::shared_ptr<const Calibration> cal)
    : ctx_(tech, cond), cal_(std::move(cal)) {}

AnalyticCostModel::AnalyticCostModel(const Technology& tech,
                                     EvalConditions cond,
                                     std::shared_ptr<const Calibration> cal,
                                     bool layout)
    : ctx_(tech, cond), cal_(std::move(cal)), layout_(layout) {}

MacroMetrics AnalyticCostModel::evaluate(const DesignPoint& dp) const {
  const MacroCensus census = census_macro(tech(), dp);
  MacroMetrics m =
      cal_ ? derive_metrics_calibrated(ctx_, census, cost_components(census),
                                       *cal_)
           : derive_metrics(ctx_, census, cost_components(census));
  if (layout_) {
    apply_layout_cost(estimate_layout_cost(ctx_, dp), &m);
  }
  return m;
}

void AnalyticCostModel::evaluate_batch(Span<const DesignPoint> points,
                                       Span<MacroMetrics> out) const {
  SEGA_EXPECTS(points.size() == out.size());
  const std::size_t n = points.size();
  if (n == 0) return;
  if (cal_) {
    // Calibrated path: fixed-order scalar derivation per point, sharing one
    // module-cost memo across the batch.  Per-point pure, so the result is
    // independent of batching and thread count, and bit-identical to the
    // fitter's own re-evaluation of the corpus.
    ModuleCostMemo memo(tech());
    for (std::size_t i = 0; i < n; ++i) {
      const MacroCensus census = census_macro(tech(), points[i], &memo);
      out[i] =
          derive_metrics_calibrated(ctx_, census, cost_components(census),
                                    *cal_);
      if (layout_) {
        apply_layout_cost(estimate_layout_cost(ctx_, points[i]), &out[i]);
      }
    }
    return;
  }
  if (n == 1) {
    // Nothing to amortize — skip the batch scratch entirely.
    out[0] = evaluate(points[0]);
    return;
  }

  // Census + costing per point, sharing one module-cost memo: neighbouring
  // points reuse the same selectors/trees/accumulators, so most Table II/IV
  // closed forms are computed once per batch instead of once per point.
  ModuleCostMemo memo(tech());
  std::vector<MacroCensus> census(n);
  std::vector<CostedMacro> costed(n);
  for (std::size_t i = 0; i < n; ++i) {
    census[i] = census_macro(tech(), points[i], &memo);
    costed[i] = cost_components(census[i]);
  }

  // Absolute-metric derivation, structure-of-arrays: one tight loop per
  // derived field over the whole batch (contiguous doubles, no maps — the
  // loops vectorize).  Each per-point operation sequence is exactly
  // derive_metrics', so the results are bit-identical to the scalar path.
  std::vector<double> area_g(n), delay_g(n), energy_g(n), cycles(n);
  std::vector<double> area_um2(n), area_mm2(n), delay_ns(n), freq_ghz(n);
  std::vector<double> energy_cycle(n), power_w(n), energy_mvm(n);
  std::vector<double> tops(n), tops_w(n), tops_mm2(n);
  for (std::size_t i = 0; i < n; ++i) {
    area_g[i] = costed[i].area;
    delay_g[i] = std::max({census[i].array_path_delay, census[i].accu_delay,
                           census[i].fusion_delay});
    energy_g[i] = costed[i].energy_per_cycle;
    cycles[i] = static_cast<double>(census[i].cycles);
  }
  for (std::size_t i = 0; i < n; ++i) area_um2[i] = ctx_.area_um2(area_g[i]);
  for (std::size_t i = 0; i < n; ++i) area_mm2[i] = area_um2[i] * 1e-6;
  for (std::size_t i = 0; i < n; ++i) delay_ns[i] = ctx_.delay_ns(delay_g[i]);
  for (std::size_t i = 0; i < n; ++i) {
    SEGA_ASSERT(delay_ns[i] > 0.0);
    freq_ghz[i] = 1.0 / delay_ns[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    energy_cycle[i] = ctx_.energy_fj(energy_g[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    power_w[i] = energy_cycle[i] * 1e-15 / (delay_ns[i] * 1e-9);
  }
  for (std::size_t i = 0; i < n; ++i) {
    energy_mvm[i] = energy_cycle[i] * cycles[i] * 1e-6;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double macs_per_cycle = static_cast<double>(census[i].n) *
                                  static_cast<double>(census[i].h) /
                                  (static_cast<double>(census[i].bw) *
                                   cycles[i]);
    const double ops_per_s = 2.0 * macs_per_cycle / (delay_ns[i] * 1e-9);
    tops[i] = ops_per_s * 1e-12;
  }
  for (std::size_t i = 0; i < n; ++i) tops_w[i] = tops[i] / power_w[i];
  for (std::size_t i = 0; i < n; ++i) tops_mm2[i] = tops[i] / area_mm2[i];

  // Materialize the metrics structs (maps and census copies last, off the
  // arithmetic loops).
  for (std::size_t i = 0; i < n; ++i) {
    MacroMetrics& m = out[i];
    m = MacroMetrics{};
    m.gates = costed[i].gates;
    m.area_gates = area_g[i];
    m.delay_gates = delay_g[i];
    m.energy_gates = energy_g[i];
    for (int c = 0; c < kMacroComponentCount; ++c) {
      const auto slot = static_cast<std::size_t>(c);
      if (!costed[i].present[slot]) continue;
      const char* key = macro_component_name(static_cast<MacroComponent>(c));
      m.area_breakdown[key] = costed[i].area_by[slot];
      m.energy_breakdown[key] = costed[i].energy_by[slot];
    }
    m.cycles_per_input = census[i].cycles;
    m.area_um2 = area_um2[i];
    m.area_mm2 = area_mm2[i];
    m.delay_ns = delay_ns[i];
    m.freq_ghz = freq_ghz[i];
    m.energy_per_cycle_fj = energy_cycle[i];
    m.power_w = power_w[i];
    m.energy_per_mvm_nj = energy_mvm[i];
    m.throughput_tops = tops[i];
    m.tops_per_w = tops_w[i];
    m.tops_per_mm2 = tops_mm2[i];
  }

  // Layout/interconnect stage, per point after derivation.  The fold is
  // pure in (ctx_, point), so the batch stays bit-identical to a serial
  // loop of evaluate() regardless of batch split or thread count.
  if (layout_) {
    for (std::size_t i = 0; i < n; ++i) {
      apply_layout_cost(estimate_layout_cost(ctx_, points[i]), &out[i]);
    }
  }
}

}  // namespace sega
