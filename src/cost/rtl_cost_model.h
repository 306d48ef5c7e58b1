// RtlCostModel — the measured CostModel backend.
//
// Where AnalyticCostModel evaluates the paper's Table II-VI closed forms,
// this model evaluates the *hardware*: per design point it elaborates the
// full macro netlist through the src/rtl template generators, then
//
//   area    — leaf-cell census of the generated netlist, costed against the
//             technology (the quantity the closed forms approximate),
//   delay   — static timing analysis of the netlist (src/rtl/sta.h): the
//             real longest register-to-register / register-to-output path,
//   energy  — gate-level switching-activity measurement (GateSim energy
//             tracing) while the macro computes representative MVM workload
//             vectors through the DcimHarness streaming protocol.
//
// It implements the same batched CostModel interface, so every consumer —
// explore/compile/sweep, the CostCache decorator and its persistent memo,
// the `validate` divergence command — composes unchanged; only the memo
// fingerprint differs (model_name() "rtl"), so analytic and RTL memos can
// never cross-contaminate.
//
// Semantics vs the analytic model (the divergences `sega_dcim validate`
// quantifies):
//  * Area and delay convert through the same EvalContext scaling, so their
//    divergence is purely model-vs-netlist structure (census drift, glue
//    logic on the critical path).
//  * Energy is *measured* activity: the workload vectors embed the
//    conditions' input sparsity (bits are zeroed with that probability) and
//    the traced toggle counts embody the real datapath activity, so the
//    absolute conversion applies only the supply (V^2) scale — never the
//    analytic activity/sparsity derating, which would double-count.  The
//    analytic model (activity = 1) is therefore an upper bound on the
//    measured per-cycle energy.
//
// Determinism: the workload RNG is seeded from the design point alone, each
// point's measurement is self-contained, and evaluate_batch writes
// per-index slots — results are bit-identical at any thread count and for
// any batch split (asserted in test_rtl_cost_model).
#pragma once

#include <atomic>
#include <cstdint>

#include "cost/cost_model.h"

namespace sega {

/// Version of the RTL-backed measurement procedure (netlist templates, STA,
/// workload-vector generation).  Bump whenever a change alters any produced
/// metric; persistent memos are fingerprinted with it.
///
/// v2: operands are traced from the canonical (all-DFF-cleared, barrier
/// -baselined) harness state, forced programming/reset writes are no longer
/// billed as compute switching, and the workload grew from 4 to 64 operands
/// (one full GateSimWide lane block).
inline constexpr int kRtlCostModelVersion = 2;

/// MVM operand batches streamed per measurement — one full 64-lane block of
/// the bit-parallel engine, so the packed trace settles the whole workload
/// in a single pass.  Part of the measurement definition (not a tuning
/// knob): changing it changes the measured energy, which is why it is a
/// constant folded into kRtlCostModelVersion rather than an option.
inline constexpr int kRtlWorkloadOperands = 64;

/// Which simulation engine traces the workload energy.  Both are exactly
/// the same measurement — toggle counts, per-group attribution and every
/// derived metric are bit-identical (asserted in test_rtl_sim_wide and the
/// checked bench) — so they share memo fingerprints; only the wall-clock
/// differs by the ~64x lane packing.
enum class RtlSimEngine {
  kAuto,    ///< resolve SEGA_RTL_SIM ("scalar"|"wide"); wide when unset
  kScalar,  ///< GateSim, one operand per settle pass (verification path)
  kWide,    ///< GateSimWide, 64 operands per settle pass (production path)
};

struct RtlCostModelOptions {
  /// Thread-pool size for evaluate_batch: 0 = the process-global pool
  /// (SEGA_THREADS / hardware concurrency), 1 = serial, n = a private pool
  /// of n threads.  Scheduling only — never affects any metric.
  int threads = 0;
  /// Energy-trace engine (never affects any metric, only wall-clock).
  RtlSimEngine sim_engine = RtlSimEngine::kAuto;
  /// Fold the layout/interconnect stage (layout_cost.h) into the measured
  /// metrics: the closed-form wire parasitics — bit-identical to the ones
  /// the analytic backend folds — are applied after derivation.  Model
  /// identity (see CostModel::layout_enabled()) — changes every produced
  /// metric.
  bool layout = false;
};

class RtlCostModel final : public CostModel {
 public:
  /// The model keeps a pointer to @p tech; the technology must outlive it.
  explicit RtlCostModel(const Technology& tech, EvalConditions cond = {},
                        RtlCostModelOptions options = {});

  const Technology& tech() const override { return ctx_.tech(); }
  const EvalConditions& conditions() const override {
    return ctx_.conditions();
  }
  const char* model_name() const override { return "rtl"; }
  int model_version() const override { return kRtlCostModelVersion; }
  bool layout_enabled() const override { return options_.layout; }

  /// Elaborate + STA + simulate one design point.  Precondition (as for
  /// evaluate_macro): dp is structurally valid for its own wstore().
  MacroMetrics evaluate(const DesignPoint& dp) const override;

  /// Batch entry: points are measured independently on the thread pool
  /// (inline serially when already inside a pool task) into per-index
  /// slots — bit-identical to a serial loop of evaluate().
  void evaluate_batch(Span<const DesignPoint> points,
                      Span<MacroMetrics> out) const override;

  /// Number of netlists elaborated so far — the expensive unit of work.
  /// Tests assert a warm persistent memo serves a whole grid with zero
  /// elaborations.
  std::uint64_t elaborations() const { return elaborations_.load(); }

  /// The engine evaluate() actually uses (kAuto already resolved).
  RtlSimEngine sim_engine() const { return engine_; }

 private:
  EvalContext ctx_;
  RtlCostModelOptions options_;
  RtlSimEngine engine_ = RtlSimEngine::kWide;
  mutable std::atomic<std::uint64_t> elaborations_{0};
};

}  // namespace sega
