// CostModel — the first-class evaluation interface of the layered engine.
//
// Everything that consumes macro metrics (NSGA-II, the exhaustive/random/
// weighted-sum baselines, the sweep grid) talks to a CostModel rather than
// to the free evaluate_macro function.  The interface is batch-oriented:
// evaluate_batch() is the hot entry point, and pool tasks submit whole
// batches of design points instead of single ones, so an implementation can
// amortize per-batch work (hoisted EvalContext, module-cost memoization,
// structure-of-arrays metric derivation) across many points.
//
// AnalyticCostModel is the paper's Table II-VI model.  Its batched path is
// bit-identical to the scalar evaluate_macro reference — same stages, same
// arithmetic, same order — which tests cross-check point by point.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cost/macro_model.h"
#include "util/span.h"

namespace sega {

class Calibration;

class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual const Technology& tech() const = 0;
  virtual const EvalConditions& conditions() const = 0;

  /// Stable identity of the model's *formulas* — folded (with
  /// model_version) into persistent cost-memo fingerprints so memos written
  /// by different backends can never cross-contaminate.  Decorators
  /// delegate to the wrapped model; instrumented test wrappers around the
  /// analytic model keep the default.
  virtual const char* model_name() const { return "analytic"; }
  virtual int model_version() const { return kCostModelVersion; }

  /// The calibration this model evaluates under, or nullptr for the
  /// uncalibrated formulas.  Like model_name(), this is model *identity*:
  /// its fingerprint() joins persistent memo headers and sweep config
  /// fingerprints, so calibrated and uncalibrated results can never
  /// cross-contaminate.  Decorators delegate to the wrapped model.
  virtual std::shared_ptr<const Calibration> calibration() const {
    return nullptr;
  }

  /// Whether the layout/interconnect stage (layout_cost.h) is folded into
  /// this model's metrics.  Model *identity* like calibration(): the memo
  /// header and sweep config fingerprint gain a "layout" key only when
  /// enabled, so layout-on and layout-off state never cross-load while
  /// pre-existing layout-off artifacts stay byte-identical.  Decorators
  /// delegate to the wrapped model.
  virtual bool layout_enabled() const { return false; }

  /// Evaluate one design point.
  virtual MacroMetrics evaluate(const DesignPoint& dp) const = 0;

  /// Evaluate points[i] into out[i] for every i.  Precondition: the spans
  /// have equal size.  The default implementation loops evaluate();
  /// implementations override it to amortize work across the batch.
  /// Must be safe to call concurrently from several threads.
  virtual void evaluate_batch(Span<const DesignPoint> points,
                              Span<MacroMetrics> out) const;
};

/// The selectable evaluation backends (spec key "cost_model", CLI
/// --cost-model): the closed-form analytic model, or the measured RTL/STA/
/// gate-sim reference (rtl_cost_model.h).
enum class CostModelKind {
  kAnalytic,
  kRtl,
};

/// "analytic" / "rtl" — the model_name() of the backend, and the spelling
/// accepted by specs and the CLI.
const char* cost_model_kind_name(CostModelKind kind);
std::optional<CostModelKind> cost_model_kind_from_name(const std::string& name);

/// Construct the chosen backend.  The model keeps a pointer to @p tech; the
/// technology must outlive it.
std::unique_ptr<CostModel> make_cost_model(CostModelKind kind,
                                           const Technology& tech,
                                           EvalConditions cond = {});

/// Construct the chosen backend with a calibration applied.  Only the
/// analytic backend accepts one (the RTL model *is* the measurement);
/// kind == kRtl with a non-null @p cal is a hard error.  A null @p cal is
/// exactly make_cost_model(kind, tech, cond).
std::unique_ptr<CostModel> make_cost_model(
    CostModelKind kind, const Technology& tech, EvalConditions cond,
    std::shared_ptr<const Calibration> cal);

/// Construct the chosen backend with a calibration and the layout/
/// interconnect stage toggle.  @p layout == false is exactly the four-arg
/// overload.  Either backend accepts the layout stage; the calibration rule
/// of the four-arg overload is unchanged.
std::unique_ptr<CostModel> make_cost_model(
    CostModelKind kind, const Technology& tech, EvalConditions cond,
    std::shared_ptr<const Calibration> cal, bool layout);

/// The analytic model of Tables II-VI: EvalContext -> gate census ->
/// component costing -> absolute-metric derivation.  The context is hoisted
/// to construction; the batch path additionally shares a module-cost memo
/// across the batch and derives the absolute metrics with structure-of-
/// arrays loops over the whole batch.
class AnalyticCostModel final : public CostModel {
 public:
  /// The model keeps a pointer to @p tech; the technology must outlive it.
  explicit AnalyticCostModel(const Technology& tech, EvalConditions cond = {});

  /// The calibrated analytic model: derive_metrics_calibrated per point.
  /// A null @p cal is exactly the uncalibrated model.  The calibrated batch
  /// path is per-point pure (fixed-order scalar derivation under a shared
  /// module-cost memo), so results are bit-identical at any thread count
  /// and to fit-time re-evaluation.
  AnalyticCostModel(const Technology& tech, EvalConditions cond,
                    std::shared_ptr<const Calibration> cal);

  /// The full-identity constructor: calibration plus the layout stage
  /// toggle.  With @p layout, every evaluation path (scalar, calibrated
  /// loop, SoA batch) folds the closed-form wire parasitics (layout_cost.h)
  /// after metric derivation — no netlist is built; the fold is per-point
  /// pure, so batches stay bit-identical to the scalar path.
  AnalyticCostModel(const Technology& tech, EvalConditions cond,
                    std::shared_ptr<const Calibration> cal, bool layout);

  const Technology& tech() const override { return ctx_.tech(); }
  const EvalConditions& conditions() const override {
    return ctx_.conditions();
  }
  std::shared_ptr<const Calibration> calibration() const override {
    return cal_;
  }
  bool layout_enabled() const override { return layout_; }

  MacroMetrics evaluate(const DesignPoint& dp) const override;
  void evaluate_batch(Span<const DesignPoint> points,
                      Span<MacroMetrics> out) const override;

 private:
  EvalContext ctx_;
  std::shared_ptr<const Calibration> cal_;
  bool layout_ = false;
};

}  // namespace sega
