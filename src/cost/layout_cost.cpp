#include "cost/layout_cost.h"

#include <algorithm>
#include <cmath>

#include "cost/components.h"
#include "layout/floorplan.h"
#include "layout/wirelength.h"
#include "rtl/macro_builder.h"
#include "util/assert.h"
#include "util/math.h"

namespace sega {

namespace {

LayoutCost parasitics(const EvalContext& ctx, double total_um, double max_um,
                      std::size_t nets) {
  LayoutCost lc;
  lc.wire_total_um = total_um;
  lc.wire_max_um = max_um;
  lc.nets = nets;
  // Both parasitics go through the EvalContext conversions so they pick up
  // the same supply / activity / sparsity derating as the gates that drive
  // the wires.
  lc.wire_delay_ns = ctx.delay_ns(kWireDelayGatesPerUm2 * max_um * max_um);
  lc.wire_energy_fj = ctx.energy_fj(kWireEnergyGatesPerUm * total_um);
  return lc;
}

// ===========================================================================
// Closed-form wire model.
//
// The floorplanner stacks three regions: peripherals (row-placed, bottom),
// compute (row-placed), memory (tiled, top).  The row placer packs each
// region's cells greedily in netlist order into rows of a common width, so
// a cell's position is a function of its *track offset* — the summed widths
// of the cells before it in its region.  The macro builder emits cells in a
// fixed regular order (per column: H compute units, the adder tree level by
// level, the shift accumulator; per fusion group: the fusion adders, then
// the INT-to-FP converter), so every net class is a family of nets whose
// track offsets are arithmetic progressions.
//
// A 2-pin net spanning track distance d = qR + r (R = row capacity) crosses
// q or q+1 row breaks; its HPWL is r + rho*q on the same row phase, or
// (R - r) + rho*(q+1) when it crosses the extra break.  Summed over a
// progression whose start offsets cover the row uniformly, the expectation
// integrates in closed form.  When blocks repeat with a period close to a
// simple fraction of the row (columns resonate with rows), the break
// positions cluster instead; the model then simulates the greedy packing at
// block granularity — one step per block, breaks located on cell starts —
// and weighs each net by the histogram of break offsets.
// ===========================================================================

constexpr int kBins = 64;
// Kuiper distance below which a phase histogram counts as uniform.
constexpr double kUniformPhases = 0.12;

// One row-placed region.
struct Rows {
  double y0 = 0.0;   // region origin
  double R = 1.0;    // mean row capacity (row width minus greedy waste)
  double rho = 1.2;  // row height

  // Centre y of the cell at track offset s, and its mean over row phases.
  double y(double s) const { return y0 + rho * (std::floor(s / R) + 0.5); }
  double ymean(double s) const { return y0 + rho * (s / R); }

  // Expected HPWL of a 2-pin net spanning track distance d, uniform phase.
  double f(double d) const {
    d = std::fabs(d);
    const double q = std::floor(d / R);
    const double r = d - q * R;
    return 2.0 * r * (R - r) / R + rho * d / R;
  }
  // Odd antiderivative of f.
  double F(double d) const {
    const double a = std::fabs(d);
    const double q = std::floor(a / R);
    const double r = a - q * R;
    const double v = q * R * R / 3.0 + r * r - 2.0 * r * r * r / (3.0 * R) +
                     rho * a * a / (2.0 * R);
    return d < 0 ? -v : v;
  }
  // Sum of f(d0 + i*dd) for i in [0, n): midpoint rule on F, or an exact
  // loop when the step is coarse against the row.
  double fsum(double d0, double dd, double n) const {
    if (n <= 0) return 0.0;
    if (std::fabs(dd) * 4.0 >= R && n <= 64) {
      double s = 0.0;
      for (int i = 0; i < static_cast<int>(n); ++i) s += f(d0 + i * dd);
      return s;
    }
    if (std::fabs(dd) < 1e-9) return n * f(d0);
    return (F(d0 + (n - 0.5) * dd) - F(d0 - 0.5 * dd)) / dd;
  }
  // x-extent of a multi-pin net spread evenly over a track span l.
  double spread(double l) const {
    if (l >= R) return R + rho * l / R;
    return l * (1 - l / R) + (l / R) * (R + rho);
  }
};

// A block's cells as runs of a two-part pattern — na cells of width wa,
// then nb cells of width wb — repeated count times.
struct Run {
  double off = 0.0;
  double count = 0.0;
  double na = 0.0, wa = 0.0, nb = 0.0, wb = 0.0;
  double period() const { return na * wa + nb * wb; }
  double len() const { return count * period(); }
};

struct Block {
  static constexpr int kMaxRuns = 32;
  Run runs[kMaxRuns];
  int n = 0;
  double len = 0.0;

  void add(double count, double na, double wa, double nb = 0.0,
           double wb = 0.0) {
    if (count <= 0 || na * wa + nb * wb <= 0) return;
    SEGA_ASSERT(n < kMaxRuns);
    runs[n] = {len, count, na, wa, nb, wb};
    len += runs[n].len();
    ++n;
  }
  // Start offset of the cell covering offset t.
  double cell_start(double t) const {
    for (int i = 0; i < n; ++i) {
      const Run& r = runs[i];
      if (t >= r.off + r.len() && i + 1 < n) continue;
      const double per = r.period();
      const double p =
          std::min(std::max(std::floor((t - r.off) / per), 0.0), r.count - 1);
      const double o = t - r.off - p * per;
      const double a = r.na * r.wa;
      const double s =
          o < a ? std::floor(o / r.wa) * r.wa
                : a + std::min(std::floor((o - a) / r.wb), r.nb - 1) * r.wb;
      return r.off + p * per + s;
    }
    return 0.0;
  }
  // Mean greedy waste per row break: a break lands in a cell with
  // probability proportional to its width and wastes the part of that cell
  // left of the break, w/2 on average.
  double mean_waste() const {
    double s = 0.0;
    for (int i = 0; i < n; ++i) {
      const Run& r = runs[i];
      s += r.count * (r.na * r.wa * r.wa + r.nb * r.wb * r.wb);
    }
    return len > 0 ? s / (2 * len) : 0.0;
  }
};

// A histogram over [0, span) with a piecewise-linear cumulative.
struct Histogram {
  double span = 1.0;
  double cdf[kBins + 1] = {};
  double w[kBins] = {};
  double sum[kBins] = {};    // summed samples, for each bin's mean
  int occupied[kBins] = {};  // indices of the non-empty bins
  int n_occupied = 0;

  void add(double x) {
    const int b = std::min(kBins - 1,
                           std::max(0, static_cast<int>(x / span * kBins)));
    w[b] += 1.0;
    sum[b] += x;
  }
  // Normalize; returns the Kuiper distance to the uniform law.
  double finish() {
    double total = 0.0;
    for (const double x : w) total += x;
    double lo = 0.0, hi = 0.0;
    for (int b = 0; b < kBins; ++b) {
      if (w[b] > 0) sum[b] /= w[b];
      w[b] = total > 0 ? w[b] / total : 0.0;
      cdf[b + 1] = cdf[b] + w[b];
      if (w[b] > 0) occupied[n_occupied++] = b;
      const double dev = cdf[b + 1] - static_cast<double>(b + 1) / kBins;
      lo = std::min(lo, dev);
      hi = std::max(hi, dev);
    }
    return total > 0 ? hi - lo : 1.0;
  }
  double C(double x) const {
    const double u = x / span * kBins;
    const int b = static_cast<int>(u);
    if (b >= kBins) return 1.0;
    if (b < 0) return 0.0;
    return cdf[b] + w[b] * (u - b);
  }
  double mean(int b) const { return sum[b]; }  // after finish()
};

// Row placement of a periodic block sequence (the compute columns, the
// fusion groups) under greedy row packing: where the blocks start on their
// row, and where inside a block the row breaks fall.
struct Phases {
  double Reff = 1.0;  // mean row capacity
  double rows = 1.0;  // rows the region occupies
  double P = 1.0;     // block length
  // Start x of each block on its row, over [0, width).
  bool uniform = true;
  Histogram start;
  // Row-break offsets inside a block, over [0, P); breaks per block.
  bool breaks_uniform = true;
  Histogram breaks;
  double per_block = 0.0;

  void build(const Block& blk, double s0, std::int64_t count, double width) {
    P = blk.len;
    Reff = width - blk.mean_waste();
    start.span = Reff;
    // Short blocks repeated over many rows sweep every phase evenly.
    uniform = P * kBins <= Reff && count * P >= 4.0 * Reff;
    breaks_uniform = uniform;
    if (uniform) {
      rows = std::max(1.0, std::ceil((s0 + count * P) / Reff));
      return;
    }
    start.span = width;
    breaks.span = P;
    double x = std::fmod(s0, Reff);
    double n_rows = 0.0, n_inside = 0.0;
    // A long sequence is simulated over a prefix and its rows scaled: the
    // prefix already spans hundreds of rows.
    const std::int64_t simulated = std::min<std::int64_t>(count, 4096);
    for (std::int64_t c = 0; c < simulated; ++c) {
      const double room = width - x;
      if (room >= P) {
        start.add(x);
        x += P;
        continue;
      }
      // The first cell that does not fit opens the next row; when that is
      // the block's first cell, the whole block starts the new row.
      double row0 = blk.cell_start(room);
      n_rows += 1;
      if (row0 > 0) {
        start.add(x);
        breaks.add(row0);
        n_inside += 1;
      } else {
        start.add(0.0);
      }
      while (P - row0 > width) {
        const double next = blk.cell_start(row0 + width);
        if (next <= row0) break;
        row0 = next;
        breaks.add(row0);
        n_rows += 1;
        n_inside += 1;
      }
      x = P - row0;
    }
    const double scale = static_cast<double>(count) / simulated;
    per_block = n_inside / static_cast<double>(simulated);
    rows = std::floor(s0 / Reff) + std::round(n_rows * scale) + 1;
    // Distributions this close to uniform keep the closed forms.
    uniform = start.finish() <= kUniformPhases;
    if (uniform) start.span = Reff;
    breaks_uniform = breaks.finish() <= kUniformPhases;
  }
  // Expected row breaks inside block offsets (p, p + d].
  double crossings(double p, double d) const {
    if (breaks_uniform) return d / Reff;
    const double a = std::max(p, 0.0), b = std::min(p + d, P);
    const double inside = b > a ? per_block * (breaks.C(b) - breaks.C(a)) : 0.0;
    return inside + std::max(0.0, d - (b - a)) / Reff;
  }
};

// Expected HPWL of the 2-pin net whose left end sits at block offset p:
// q or q+1 row breaks inside, by the expected break count.
double hpwl(const Rows& rows, const Phases& ph, double p, double d) {
  d = std::fabs(d);
  const double q = std::floor(d / rows.R);
  const double r = d - q * rows.R;
  const double extra = std::min(1.0, std::max(0.0, ph.crossings(p, d) - q));
  return r + rows.rho * q + (rows.R - 2 * r + rows.rho) * extra;
}

// Nets i in [0, n): left end at p0 + i*a, length d0 + i*dd; per block.
double prog(const Rows& rows, const Phases& ph, double p0, double a,
            double d0, double dd, double n) {
  if (n <= 0) return 0.0;
  if (ph.breaks_uniform || n * std::fabs(a) >= rows.R) {
    return rows.fsum(d0, dd, n);
  }
  constexpr int kCap = 32;
  if (n <= kCap) {
    double s = 0.0;
    for (int i = 0; i < static_cast<int>(n); ++i) {
      s += hpwl(rows, ph, p0 + i * a, d0 + i * dd);
    }
    return s;
  }
  const double stride = n / kCap;
  double s = 0.0;
  for (int t = 0; t < kCap; ++t) {
    const double i = (t + 0.5) * stride;
    s += hpwl(rows, ph, p0 + i * a, d0 + i * dd);
  }
  return s * stride;
}

// n short-net blocks of length len at offsets p0 + i*a, whose nets (cnt of
// them) sum to sum_d of track distance: each row break inside a block turns
// the nets crossing it into full-row detours.  Per column/group block.
double block_local(const Rows& rows, const Phases& ph, double p0, double a,
                   double n, double len, double sum_d, double cnt) {
  if (n <= 0 || len <= 0 || cnt <= 0) return 0.0;
  double cross = 0.0;
  if (ph.breaks_uniform || n * std::fabs(a) >= rows.R) {
    cross = n * len / rows.R;
  } else {
    const int m = static_cast<int>(std::min(n, 32.0));
    const double stride = n / m;
    for (int t = 0; t < m; ++t) {
      cross += ph.crossings(p0 + (t + 0.5) * stride * a, len);
    }
    cross *= stride;
  }
  const double dbar = sum_d / cnt;
  return n * sum_d + (rows.R + rows.rho - 2 * dbar) * (sum_d / len) * cross;
}

double mean_abs_uniform(double a, double b, double c) {
  if (b <= a) return std::fabs(a - c);
  if (c <= a) return (a + b) / 2 - c;
  if (c >= b) return c - (a + b) / 2;
  return ((c - a) * (c - a) + (b - c) * (b - c)) / (2 * (b - a));
}

// E|x - c| over cells spread evenly over block offsets [a, a + len).
double mean_abs_x(const Phases& ph, double a, double len, double c) {
  if (ph.uniform) return mean_abs_uniform(0, ph.start.span, c);
  const double R = ph.start.span;
  auto I = [&](double v) {  // integral of |t - c| over [0, v], v <= R
    return v <= c ? c * v - v * v / 2 : c * c / 2 + (v - c) * (v - c) / 2;
  };
  auto G = [&](double u) {
    const double q = std::floor(u / R);
    return q * I(R) + I(u - q * R);
  };
  double s = 0.0;
  for (int i = 0; i < ph.start.n_occupied; ++i) {
    const int b = ph.start.occupied[i];
    const double phi = ph.start.mean(b) + a;
    s += ph.start.w[b] * (G(phi + len) - G(phi)) / len;
  }
  return s;
}

// Expected x-range of one cell per block (count blocks), at a uniformly
// distributed common offset: the row minus the empty phase gaps.
double phase_range(const Phases& ph, double count) {
  if (ph.uniform || ph.start.n_occupied >= kBins) {
    return ph.start.span * count / (count + 1);
  }
  const double binw = ph.start.span / kBins;
  int start = 0;
  while (ph.start.w[start] <= 0) ++start;
  double gap2 = 0.0, run = 0.0;
  for (int i = 1; i <= kBins; ++i) {
    if (ph.start.w[(start + i) % kBins] <= 0) {
      run += binw;
    } else {
      gap2 += (run + binw) * (run + binw);
      run = 0.0;
    }
  }
  return std::max(0.0, ph.start.span - gap2 / ph.start.span);
}

// Expected x-extent of a block segment [a, a + l) joined with a point
// uniformly placed on the row (another region's sink).
double segment_span(const Phases& ph, double a, double l) {
  const double R = ph.start.span;
  if (l >= R) return R;
  if (ph.uniform) {
    const double nonwrap = l + (R - l) * (R - l) / (3 * R);
    return (1 - l / R) * nonwrap + l;
  }
  double s = 0.0;
  for (int i = 0; i < ph.start.n_occupied; ++i) {
    const int b = ph.start.occupied[i];
    const double u = ph.start.mean(b) + a;
    const double x = u - std::floor(u / R) * R;
    s += ph.start.w[b] *
         (x + l > R ? R : l + (x * x + (R - x - l) * (R - x - l)) / (2 * R));
  }
  return s;
}

// Local nets of a selector_rec mux tree over n leaves: summed track
// distance (in units of the mux width) and count.
struct TreeNets {
  double sum = 0.0;
  double nets = 0.0;
};
int tree_rec(int n, int m, TreeNets* out, int base) {
  if (n == 1) return -1;
  const int half = 1 << (m - 1);
  if (n <= half) return tree_rec(n, m - 1, out, base);
  const int lo = tree_rec(half, m - 1, out, base);
  const int hi = tree_rec(n - half, m - 1, out, base + half - 1);
  const int me = base + n - 2;
  for (const int child : {lo, hi}) {
    if (child < 0) continue;
    out->sum += me - child;
    out->nets += 1;
  }
  return me;
}
TreeNets selector_tree(int n, double w_mux) {
  constexpr int kTabled = 64;  // every selector the builders emit (n <= 64)
  static const auto table = [] {
    std::array<TreeNets, kTabled + 1> tab{};
    for (int m = 2; m <= kTabled; ++m) {
      tree_rec(m, ceil_log2(static_cast<std::uint64_t>(m)), &tab[m], 0);
    }
    return tab;
  }();
  TreeNets t;
  if (n <= kTabled) {
    t = table[static_cast<std::size_t>(std::max(n, 0))];
  } else {
    tree_rec(n, ceil_log2(static_cast<std::uint64_t>(n)), &t, 0);
  }
  t.sum *= w_mux;
  return t;
}

struct CellWidths {
  double mux, nor, ha, fa, dff, inv, orc;
  double adder(int bits) const { return ha + (bits - 1) * fa; }
};

// Result-fusion tree (fuse_rec) over m columns of width w: track length,
// result width, and (with rows) the wire of its adder-to-adder nets.
struct Fusion {
  double len = 0.0;
  int width = 0;
  double wire = 0.0;
  double nets = 0.0;
};
Fusion fusion_tree(int m, int w, const CellWidths& cw, const Rows* rows) {
  if (m == 1) return {0.0, w, 0.0, 0.0};
  const int lo_cols = (m + 1) / 2;
  const Fusion lo = fusion_tree(lo_cols, w, cw, rows);
  const Fusion hi = fusion_tree(m - lo_cols, w, cw, rows);
  Fusion f;
  f.width = std::max(lo.width, lo_cols + hi.width) + 1;
  f.len = lo.len + hi.len + cw.adder(f.width);
  f.wire = lo.wire + hi.wire;
  f.nets = lo.nets + hi.nets + (f.width - 1) + (lo.len > 0 ? lo.width : 0) +
           (hi.len > 0 ? hi.width : 0);
  if (rows) {
    f.wire += rows->f((cw.ha + cw.fa) / 2) + (f.width - 2) * rows->f(cw.fa);
    if (lo.len > 0) f.wire += lo.width * rows->f(hi.len + cw.adder(lo.width));
    if (hi.len > 0) {
      f.wire += hi.width * rows->f(cw.adder(hi.width) + lo_cols * cw.fa);
    }
  }
  return f;
}

// One fusion group (m columns) plus its INT-to-FP converter: track lengths.
struct Group {
  int m = 0;
  bool is_signed = false;
  Fusion fusion;
  int br = 0;  // fused width
  int pw = 0;  // converter shift-amount bits
  double fus_len = 0.0;
  double or_len = 0.0, lead_len = 0.0, shamt_len = 0.0, sel_len = 0.0;
  double shift_len = 0.0, exp_len = 0.0, gate_len = 0.0;
  double conv_len = 0.0;
  double len() const { return fus_len + conv_len; }
};
Group group_shape(int m, int w, bool is_signed, bool fp, int be, int bm,
                  const CellWidths& cw) {
  Group g;
  g.m = m;
  g.is_signed = is_signed && m >= 2;
  g.fusion = fusion_tree(g.is_signed ? m - 1 : m, w, cw, nullptr);
  g.br = g.fusion.width;
  g.fus_len = g.fusion.len;
  if (g.is_signed) {
    g.br = std::max(g.fusion.width, m - 1 + w) + 1;
    g.fus_len += g.br * (cw.inv + cw.fa);
  }
  if (!fp) return g;
  g.pw = std::max(1, ceil_log2(static_cast<std::uint64_t>(g.br)));
  g.or_len = (g.br - 1) * cw.orc;
  g.lead_len = (g.br - 1) * (cw.inv + cw.nor);
  for (int b = 0; b < g.pw; ++b) {
    int terms = 0;
    for (int i = 0; i < g.br; ++i) terms += ((g.br - 1 - i) >> b) & 1;
    if (terms > 1) g.shamt_len += (terms - 1) * cw.orc;
  }
  g.sel_len = ((1 << g.pw) - 1) * cw.mux;
  g.shift_len = g.br * g.sel_len;
  g.exp_len = 2 * be * cw.inv + cw.adder(be);
  g.gate_len = cw.inv + (bm + be) * (cw.inv + cw.nor);
  g.conv_len = g.or_len + g.lead_len + g.shamt_len + g.shift_len + g.exp_len +
               g.gate_len;
  return g;
}

// Running wirelength totals over the net classes.
struct Tally {
  double total = 0.0, max = 0.0, nets = 0.0;
  void add(double class_total, double class_max, double class_nets) {
    total += class_total;
    max = std::max(max, class_max);
    nets += class_nets;
  }
};

// Wire of one group's fusion and converter nets (periphery rows, uniform
// phase: groups are few and long, or many and short).
void group_wires(const Group& g, int w, int be, int bm, const CellWidths& cw,
                 const Rows& periph, double copies, Tally* t) {
  if (copies <= 0) return;
  Fusion f = fusion_tree(g.is_signed ? g.m - 1 : g.m, w, cw, &periph);
  if (g.is_signed) {
    f.wire += f.width * periph.f(g.br * (cw.inv + cw.fa) / 2) +
              g.br * periph.f(cw.inv + cw.fa);
    f.nets += f.width + g.br;
  }
  t->add(copies * f.wire, 0.0, copies * f.nets);
  if (g.conv_len <= 0) return;
  const int br = g.br;
  double wire = 0.0, nets = 0.0;
  // Fused bits: fusion root -> prefix OR, leader, normalizing shifter.
  for (int i = 0; i < br; ++i) {
    const int last = std::min(br - 1, i + (1 << g.pw) - 1);
    wire += periph.spread((br - i) * cw.fa + g.or_len + g.lead_len +
                          g.shamt_len +
                      (last + 0.5) * g.sel_len);
  }
  nets += br;
  // Prefix-OR chain -> leader, leader -> shift-amount encoder.
  wire += periph.fsum(g.or_len + cw.inv, cw.inv + cw.nor + cw.orc, br - 1);
  wire += periph.fsum(g.lead_len + g.shamt_len / 2, -(cw.inv + cw.nor), br);
  nets += 2 * br - 1;
  // Shift amount -> every shifter select and the exponent subtractor.
  wire += g.pw * periph.spread(g.shift_len + g.exp_len / 2);
  nets += g.pw;
  // Shifter trees, outputs -> gating, exponent arithmetic, zero gating.
  const TreeNets tree = selector_tree(1 << g.pw, cw.mux);
  wire += br * (tree.sum + tree.nets * periph.f(2 * cw.mux)) / 2;
  nets += br * tree.nets;
  wire += bm * periph.f(bm * g.sel_len / 2 + g.exp_len);
  nets += bm;
  wire += 3 * be * periph.f(cw.adder(be) / 2);
  nets += 3 * be;
  wire += periph.spread((bm + be) * (cw.inv + cw.nor)) +
          (bm + be) * periph.f(cw.inv);
  nets += 1 + bm + be;
  t->add(copies * wire, 0.0, copies * nets);
}

}  // namespace

LayoutCost estimate_layout_cost(const EvalContext& ctx,
                                const DesignPoint& dp) {
  SEGA_EXPECTS(dp.n >= 1 && dp.h >= 2 && dp.l >= 1 && dp.k >= 1);
  SEGA_EXPECTS(dp.arch == arch_for(dp.precision));
  const Technology& tech = ctx.tech();
  const FloorplanOptions fo;
  const double rho = fo.placer.row_height_um;
  auto tile = [&](CellKind kind) {
    return cell_tile_width(tech, kind, rho);
  };
  const CellWidths cw{tile(CellKind::kMux2), tile(CellKind::kNor),
                      tile(CellKind::kHa),   tile(CellKind::kFa),
                      tile(CellKind::kDff),  tile(CellKind::kInv),
                      tile(CellKind::kOr)};

  const std::int64_t N = dp.n, H = dp.h, L = dp.l;
  const int k = static_cast<int>(dp.k);
  const int bx = dp.precision.input_bits();
  const int bw = dp.precision.weight_bits();
  SEGA_EXPECTS(k <= bx);
  const bool fp = dp.arch == ArchKind::kFpCim;
  const bool pipe = dp.pipelined_tree;
  const int cycles = static_cast<int>(ceil_div(static_cast<std::uint64_t>(bx),
                                               static_cast<std::uint64_t>(k)));
  const int J = ilog2(static_cast<std::uint64_t>(H));

  // --- region geometry ----------------------------------------------------
  // Each region's cell area is the census's per-component area (Tables II
  // and IV) plus the glue the census omits — the accumulator's barrel
  // shifter padded to 2^ceil(log2 w) candidates per bit, the FP flush and
  // encoder logic (builders.h).  Both are summed here per module as track
  // lengths (area / row height), in builder emission order, so the same
  // numbers give the region sizes and every cell's track offset.
  const MemoryTile mem = memory_tile(tech, N, H, L, fo);

  // Compute column: H units (L:1 weight selector + k NORs), the adder tree
  // level by level (+ register banks when pipelined), the shift accumulator.
  const double Wsel = static_cast<double>(L - 1) * cw.mux;
  const double Wu = Wsel + k * cw.nor;
  double A[32] = {}, lvl[32] = {}, bank[32] = {};
  double tree_w = 0.0;
  for (int j = 1; j <= J; ++j) {
    const double nj = static_cast<double>(H >> j);
    A[j] = cw.adder(k + j - 1);
    lvl[j] = tree_w;
    bank[j] = (pipe && j < J) ? nj * (k + j) * cw.dff : 0.0;
    tree_w += nj * A[j] + bank[j];
  }
  const int w = accumulator_width(bx, static_cast<int>(H));
  const int sb = ceil_log2(static_cast<std::uint64_t>(w));
  const double S = static_cast<double>((1 << sb) - 1);  // muxes per bit
  const double Wsh = w * S * cw.mux;
  const double Aacc = cw.adder(w);
  const double Wacc = Wsh + Aacc + w * cw.dff + (pipe ? w * cw.mux : 0.0);
  const double tree0 = H * Wu;
  const double acc0 = tree0 + tree_w;
  const double Wc = acc0 + Wacc;

  Block column;
  column.add(static_cast<double>(H), static_cast<double>(L - 1), cw.mux, k,
             cw.nor);
  for (int j = 1; j <= J; ++j) {
    const double nj = static_cast<double>(H >> j);
    column.add(nj, 1, cw.ha, k + j - 2, cw.fa);
    if (bank[j] > 0) column.add(1, nj * (k + j), cw.dff);
  }
  column.add(1, w * S, cw.mux);
  column.add(1, 1, cw.ha, w - 1, cw.fa);
  if (pipe) {
    column.add(w, 1, cw.mux, 1, cw.dff);
  } else {
    column.add(1, w, cw.dff);
  }

  // Periphery: [FP pre-alignment | inversion block] input buffer | groups.
  const int be = fp ? dp.precision.exp_bits : 0;
  const int bm = bx;
  const int sba = fp ? ceil_log2(static_cast<std::uint64_t>(bm)) : 0;
  const double node_mt = fp ? be * cw.inv + cw.adder(be) + be * cw.mux : 0.0;
  const double sel_a = ((1 << sba) - 1) * cw.mux;
  const double flush = be > sba
                           ? (be - sba - 1) * cw.orc + bm * (cw.inv + cw.nor)
                                : 0.0;
  const double row_pa =
      fp ? 2 * be * cw.inv + cw.adder(be) + bm * sel_a + flush : 0.0;
  const double P_mt = fp ? (H - 1) * node_mt : 0.0;
  const double P_align = P_mt + H * row_pa;
  const double P_inv = fp ? static_cast<double>(H) * bx * cw.inv : 0.0;
  const double P_ib0 = P_align + P_inv;
  const double U_ib = bx * cw.dff + k * (cycles - 1) * cw.mux;
  const double P_fus0 = P_ib0 + H * U_ib;
  const std::int64_t full_groups = N / bw;
  const int last_cols = static_cast<int>(N % bw);
  const Group g_full =
      group_shape(bw, w, dp.signed_weights && !fp, fp, be, bm, cw);
  const Group g_last =
      group_shape(std::max(last_cols, 1), w, dp.signed_weights && !fp, fp, be,
                  bm, cw);
  const double Tp =
      P_fus0 + full_groups * g_full.len() + (last_cols ? g_last.len() : 0.0);
  Block group;
  group.add(1, g_full.fus_len / cw.fa, cw.fa);
  if (fp) group.add(1, g_full.conv_len / cw.mux, cw.mux);

  // --- floorplan geometry (floorplan_macro's arithmetic) -------------------
  const double Tc = static_cast<double>(N) * Wc;
  const double est_total = mem.width_um * mem.height_um +
                           (Tc + Tp) * rho / fo.placer.target_utilization;
  const double width = std::max(mem.width_um,
                                std::sqrt(est_total * fo.target_aspect));
  Phases col;
  col.build(column, 0.0, N, width);
  Phases grp;
  grp.build(group, P_fus0, full_groups > 0 ? full_groups : 1, width);
  const double rows_p = std::max(grp.rows, std::ceil(Tp / grp.Reff));
  const double Hc = col.rows * rho, Hp = rows_p * rho;
  const double channel = fo.channel_fraction * (mem.height_um + Hc + Hp);
  const Rows periph{0.0, grp.Reff, rho};
  const Rows comp{Hp + channel, col.Reff, rho};
  const double cx = mem.width_um / 2;
  const double cy = Hp + Hc + 2 * channel + mem.height_um / 2;
  const double xr = std::min(width, Tc);  // occupied compute x range
  const double Nd = static_cast<double>(N), Hd = static_cast<double>(H);

  Tally t;

  // Bit cells (tile centre) -> the first selector level (the NORs, L = 1).
  {
    const double sbar = (Nd - 1) / 2 * Wc + (Hd - 1) / 2 * Wu + Wsel / 2;
    const double ex = Tc < comp.R ? mean_abs_uniform(0, Tc, cx)
                                : mean_abs_x(col, 0.0, tree0, cx);
    const double ey = cy - comp.ymean(sbar);
    const double nets = Nd * Hd * static_cast<double>(L);
    double wire = nets * (ex + ey);
    // Longest: the unit run farthest from the tile centre.  Runs of the
    // lowest columns sit lowest; each spans [c*Wc, c*Wc + tree0).
    double longest = 0.0;
    for (std::int64_t c = 0; c < std::min<std::int64_t>(N, 64); ++c) {
      const double a = static_cast<double>(c) * Wc;
      const double row = std::floor(a / comp.R);
      const double xa = a - row * comp.R;
      const double end = xa + tree0;
      const double far = std::max(std::fabs(xa - cx),
                                  std::fabs(std::min(end, xr) - cx));
      longest = std::max(longest, far + cy - comp.y0 - rho * (row + 0.5));
      if (end > comp.R) {
        const double far2 =
            std::max(cx, std::fabs(std::min(end - comp.R, xr) - cx));
        longest = std::max(longest, far2 + cy - comp.y0 - rho * (row + 1.5));
      }
    }
    if (L == 1) {
      // The bit cell drives its unit's k NORs directly; a row break among
      // them stretches that net across the whole row.
      wire += nets * (k - 1) * cw.nor / 2;
      const double splits = (col.rows - 1) * (tree0 / Wc) * (k - 1.0) / k;
      if (splits > 0) {
        wire += splits * (width - ex);
        // The lowest row that ends inside a unit run.
        for (int m = 1; m < std::min(col.rows, 64.0); ++m) {
          if (std::fmod(m * comp.R, Wc) < tree0) {
            longest = std::max(longest, width + cy - comp.y0 - rho * (m - 0.5));
            break;
          }
        }
      }
    }
    t.add(wire, longest, nets);
  }
  // Weight selectors, selector -> NORs, and the wsel broadcast.
  if (L >= 2) {
    const TreeNets tree = selector_tree(static_cast<int>(L), cw.mux);
    double wire =
        block_local(comp, col, 0.0, Wu, Hd, Wsel, tree.sum, tree.nets);
    wire += prog(comp, col, Wsel - cw.mux / 2, Wu,
                 cw.mux / 2 + (k - 0.5) * cw.nor, 0.0, Hd);
    t.add(Nd * wire, 0.0, Nd * Hd * (tree.nets + 1));
    const double span = (xr - cw.mux) - comp.y(0) +
                        comp.y((Nd - 1) * Wc + (Hd - 1) * Wu + Wsel);
    const int bits = ceil_log2(static_cast<std::uint64_t>(L));
    t.add(bits * span, span, bits);
  }
  // NOR products -> first tree level (even/odd unit rows feed one adder).
  {
    double pbar = 0.0;
    for (int j = 0; j < k; ++j) {
      pbar += j == 0 ? cw.ha / 2 : cw.ha + (j - 0.5) * cw.fa;
    }
    pbar /= k;
    const double src = Wsel + k * cw.nor / 2.0;
    const double d0 = tree0 + pbar - src;
    const double step = A[1] - 2 * Wu;
    const double wire = prog(comp, col, src, 2 * Wu, d0, step, Hd / 2) +
                        prog(comp, col, src + Wu, 2 * Wu, d0 - Wu, step,
                             Hd / 2);
    t.add(Nd * k * wire, 0.0, Nd * Hd * k);
  }
  // Adder tree: carry chains, level -> level (through the banks).
  {
    double wire = 0.0, nets = 0.0;
    for (int j = 1; j <= J; ++j) {
      const double nj = static_cast<double>(H >> j);
      const int bj = k + j - 1;
      const double base = tree0 + lvl[j];
      if (bj >= 2) {
        const double chain = (cw.ha + cw.fa) / 2 + (bj - 2) * cw.fa;
        wire += block_local(comp, col, base, A[j], nj, A[j], chain, bj - 1);
        nets += nj * (bj - 1);
      }
      if (j == J) continue;
      const double half = nj / 2, pm = A[j] / 2, bits = bj + 1;
      if (!pipe) {
        const double step = A[j + 1] - 2 * A[j];
        const double d0 = nj * A[j];
        wire += bits * (prog(comp, col, base + pm, 2 * A[j], d0, step, half) +
                        prog(comp, col, base + A[j] + pm, 2 * A[j], d0 - A[j],
                             step, half));
        nets += nj * bits;
      } else {
        const double q = bits * cw.dff;  // one adder's register slice
        wire += bits * prog(comp, col, base + pm, A[j],
                            nj * A[j] - pm + q / 2, q - A[j], nj);
        const double bank0 = base + nj * A[j];
        const double d2 = bank[j] - q / 2 + A[j + 1] / 2;
        const double step = A[j + 1] - 2 * q;
        wire += bits * (prog(comp, col, bank0 + q / 2, 2 * q, d2, step, half) +
                        prog(comp, col, bank0 + 1.5 * q, 2 * q, d2 - q, step,
                             half));
        nets += 2 * nj * bits;
      }
    }
    t.add(Nd * wire, 0.0, Nd * nets);
    const double bits = k + J;
    const double d = A[J] / 2 + Wsh + Aacc / 2;
    t.add(Nd * bits * prog(comp, col, tree0 + lvl[J] + A[J] / 2, 0, d, 0, 1),
          0.0, Nd * bits);
  }
  // Shift accumulator: shifter trees, shifter -> adder, carries, -> DFFs.
  {
    const double sel = S * cw.mux;
    const TreeNets tree = selector_tree(1 << sb, cw.mux);
    double wire =
        block_local(comp, col, acc0, sel, w, sel, tree.sum, tree.nets);
    double nets = w * tree.nets;
    wire += prog(comp, col, acc0 + sel - cw.mux / 2, sel,
                 Wsh - sel + cw.mux / 2 + cw.ha / 2, cw.fa - sel, w);
    wire += block_local(comp, col, acc0 + Wsh, 0, 1, Aacc,
                        (cw.ha + cw.fa) / 2 + (w - 2) * cw.fa, w - 1);
    const double cell = pipe ? cw.mux + cw.dff : cw.dff;
    wire += prog(comp, col, acc0 + Wsh + cw.ha / 2, cw.fa,
                 Aacc - cw.ha / 2 + cell / 2, cell - cw.fa, w);
    nets += 2 * w + w - 1;
    if (pipe) {
      wire += w * comp.f(cell / 2);
      nets += w;
    }
    t.add(Nd * wire, 0.0, Nd * nets);
  }
  // Accumulator outputs: own shifter segment + DFF + the fusion adder in
  // the periphery below.
  {
    double x = 0.0;
    for (int src = 0; src < w; ++src) {
      x += segment_span(col, acc0 + src * S * cw.mux, Wacc - src * S * cw.mux);
    }
    const double dy =
        comp.ymean((Nd + 1) / 2 * Wc) - periph.ymean((P_fus0 + Tp) / 2);
    const double nets = Nd * w;
    t.add(Nd * x + nets * dy,
          width + comp.y(Tc) - periph.y(P_fus0), nets);
  }
  // Input buffer: row slice -> the NOR of that row in all N columns.
  {
    const double xs = Tc < comp.R ? Tc : phase_range(col, Nd);
    const double yc = comp.ymean((Nd - 1) * Wc + (Hd - 1) / 2 * Wu + Wsel);
    const double yd = periph.ymean(P_ib0 + Hd / 2 * U_ib);
    const double nets = Hd * k;
    t.add(nets * (xs + yc - yd),
          xr + comp.y((Nd - 1) * Wc + Hd * Wu) -
              periph.y(P_ib0 + (Hd - 1) * U_ib),
          nets);
    if (cycles >= 2) {
      const TreeNets tree = selector_tree(cycles, cw.mux);
      const double sel = (cycles - 1) * cw.mux;
      t.add(Hd * k * tree.sum +
                Hd * bx * periph.f(bx * cw.dff / 2 + k * sel / 2),
            0.0, Hd * (bx + k * tree.nets));
      const int bits =
          std::max(1, ceil_log2(static_cast<std::uint64_t>(cycles)));
      const double span = periph.spread(Hd * U_ib);
      t.add(bits * span, span, bits);
    }
  }
  // Fusion groups and INT-to-FP converters.
  group_wires(g_full, w, be, bm, cw, periph, static_cast<double>(full_groups),
              &t);
  if (last_cols) group_wires(g_last, w, be, bm, cw, periph, 1.0, &t);
  // FP pre-alignment: ports, max tree, per-row subtract/shift/flush, the
  // inversion block and its hand-off to the input buffer.
  if (fp) {
    double wire = be * (periph.fsum(P_mt, row_pa - node_mt, Hd / 2) +
                        periph.fsum(P_mt + row_pa, row_pa - node_mt, Hd / 2));
    for (int s = 0; s < bm; ++s) wire += Hd * periph.spread((s + 0.5) * sel_a);
    double nets = Hd * (be + bm);
    wire += (Hd - 1) * be * (periph.f(node_mt / 2) + periph.f(cw.mux));
    wire += (Hd - 2) * be * periph.f(2 * node_mt);
    wire += be * periph.spread(Hd * row_pa);
    nets += (Hd - 1) * 2 * be + (Hd - 2) * be + be;
    const TreeNets tree = selector_tree(1 << sba, cw.mux);
    const double row = 3 * be * periph.f(cw.adder(be) / 2) +
                       sba * periph.spread(bm * sel_a) + bm * tree.sum +
                       periph.spread(bm * (cw.inv + cw.nor)) +
                       bm * periph.f(bm * sel_a / 2 +
                                     bm * (cw.inv + cw.nor) / 2);
    wire += Hd * row;
    nets += Hd * (3 * be + sba + bm * tree.nets + 1 + bm);
    wire += bx * periph.fsum(row_pa / 2 + P_inv / 2 + (Hd - 1) * row_pa,
                         bx * cw.inv - row_pa, Hd);
    wire += bx * periph.fsum(P_inv, U_ib - bx * cw.inv, Hd);
    nets += 2 * Hd * bx;
    t.add(wire, 0.0, nets);
  }
  // The constant nets reach every accumulator and the periphery's users;
  // a pipelined tree's valid gates every accumulator.
  {
    const double low = fp ? periph.y(0) : periph.y(P_fus0);
    const double span = xr + comp.y((Nd - 1) * Wc + acc0) - low;
    t.add(2 * span, span, 2);
    if (pipe) {
      const double v =
          xr + comp.y((Nd - 1) * Wc + acc0 + Wsh + Aacc) - comp.y(acc0);
      t.add(v, v, 1);
    }
  }

  return parasitics(ctx, t.total, t.max,
                    static_cast<std::size_t>(std::llround(t.nets)));
}

LayoutCost estimate_layout_cost(const EvalContext& ctx,
                                const DcimMacro& macro) {
  const MacroLayout layout = floorplan_macro(ctx.tech(), macro);
  const WirelengthReport report =
      estimate_wirelength(layout, macro.netlist);
  return parasitics(ctx, report.total_um, report.max_net_um, report.nets);
}

void apply_layout_cost(const LayoutCost& lc, MacroMetrics* m) {
  SEGA_EXPECTS(m != nullptr);
  SEGA_EXPECTS(lc.wire_delay_ns >= 0.0 && lc.wire_energy_fj >= 0.0);
  const double old_delay_ns = m->delay_ns;
  m->delay_ns += lc.wire_delay_ns;
  m->energy_per_cycle_fj += lc.wire_energy_fj;

  // Re-derive everything downstream of delay/energy with the exact
  // arithmetic shape of derive_metrics (macro_model.cpp); area is
  // unchanged, so tops_per_mm2 moves only through throughput.
  m->freq_ghz = 1.0 / m->delay_ns;
  m->power_w = m->energy_per_cycle_fj * 1e-15 / (m->delay_ns * 1e-9);
  m->energy_per_mvm_nj = m->energy_per_cycle_fj *
                         static_cast<double>(m->cycles_per_input) * 1e-6;
  m->throughput_tops *= old_delay_ns / m->delay_ns;
  m->tops_per_w = m->throughput_tops / m->power_w;
  m->tops_per_mm2 = m->throughput_tops / m->area_mm2;
}

}  // namespace sega
