// Layout/interconnect cost — the optional third stage of the layered
// evaluation pipeline (EvalContext -> gate census -> component costing ->
// layout/interconnect -> metric derivation).
//
// The paper's macro flow merges three layout regions — memory array, DCIM
// compute, digital peripherals — yet the closed forms of Tables II-VI price
// only gates, never the wire between them.  This stage estimates the
// half-perimeter wirelength of the floorplanned macro and folds the wire
// parasitics into the delay/energy metrics:
//
//   delay   — an Elmore-style term on the *longest* net: wire delay grows
//             with both resistance and capacitance, each linear in length,
//             so the term is quadratic in max_net_um.
//   energy  — switched wire capacitance, linear in the *total* routed
//             length.  Routing toggles are not traced by the RTL backend's
//             gate-level simulation (it meters cell output switching, not
//             wires), so BOTH backends fold the same closed-form estimate —
//             their divergence stays a pure gate-level quantity.
//
// Two estimators share the parasitic conversion:
//
//   closed form  — estimate_layout_cost(ctx, DesignPoint): derives the
//                  floorplan geometry (memory tile, region widths and row
//                  counts) and the wirelength of every net class of the
//                  regular (N, H, L, k) tiling without building a netlist.
//                  This is what both cost backends fold.
//   elaborated   — estimate_layout_cost(ctx, DcimMacro): floorplans the
//                  generated netlist (layout/floorplan.h) and measures HPWL
//                  net by net (layout/wirelength.h).  It is the reference
//                  the closed form is tested against, in the fast-path-
//                  checked-against-reference style of GateSimWide/GateSim.
//
// Both parasitics are expressed in NOR-gate equivalents per micron and
// converted through the model's EvalContext, so wire delay/energy scale
// with supply, activity and sparsity exactly like gate delay/energy and no
// new Technology constants are needed.
//
// The stage is a pure function of (Technology, EvalConditions, DesignPoint),
// so layout-enabled metrics are bit-identical at any thread count, and the
// folded delay and energy are *strictly* greater than the layout-off
// metrics.  The toggle is model identity (CostModel::layout_enabled()): it
// joins memo headers and sweep config fingerprints so layout-on and
// layout-off state never cross-load.
#pragma once

#include <cstddef>

#include "cost/eval_context.h"
#include "cost/macro_model.h"

namespace sega {

struct DcimMacro;

/// Version of the wire model and parasitic formulas below.  Emitted (only
/// when the stage is enabled) as the "layout" key of memo headers and the
/// "layout_version" key of sweep checkpoint fingerprints — bump whenever a
/// constant or formula changes, so stale layout artifacts are rejected
/// rather than silently served.
///
/// v2: the folded wirelength comes from the closed-form model instead of
/// the elaborated floorplan.
inline constexpr int kLayoutCostVersion = 2;

/// Switched wire capacitance per routed micron, in NOR-gate energy
/// equivalents: total HPWL is multiplied by this and converted through
/// EvalContext::energy_fj (which applies the V^2 / activity / sparsity
/// derating — wires toggle with the datapath driving them).
inline constexpr double kWireEnergyGatesPerUm = 0.04;

/// Elmore wire-delay coefficient, in NOR-gate delay equivalents per um^2:
/// applied to the square of the longest net's HPWL (R and C are each linear
/// in length) and converted through EvalContext::delay_ns (which applies
/// the supply-dependent alpha-power scale, like any gate on the path).
inline constexpr double kWireDelayGatesPerUm2 = 4.0e-5;

/// The wirelength summary and its absolute parasitic cost for one macro.
struct LayoutCost {
  double wire_total_um = 0.0;  ///< summed HPWL over routed nets
  double wire_max_um = 0.0;    ///< longest net's HPWL
  std::size_t nets = 0;        ///< routed (non-degenerate) nets
  double wire_delay_ns = 0.0;  ///< Elmore term on the longest net
  double wire_energy_fj = 0.0; ///< switched wire cap per cycle
};

/// Closed-form estimate for a structurally valid design point: no netlist
/// is built.  Deterministic and pure in (ctx, dp).
LayoutCost estimate_layout_cost(const EvalContext& ctx, const DesignPoint& dp);

/// Elaborated estimate: floorplan the generated macro and measure HPWL net
/// by net.  The reference the closed form is checked against.
LayoutCost estimate_layout_cost(const EvalContext& ctx,
                                const DcimMacro& macro);

/// Fold @p lc into fully derived metrics: delay and per-cycle energy grow
/// by the wire terms and every downstream metric (frequency, power, energy
/// per MVM, throughput, TOPS/W, TOPS/mm^2) is re-derived with the same
/// arithmetic shape derive_metrics uses.  Area is unchanged — the census
/// already counts every cell the floorplan places.
void apply_layout_cost(const LayoutCost& lc, MacroMetrics* m);

}  // namespace sega
