// Gate-level builders for every logic module and DCIM component.
//
// Census contract: for the modules of Table II and the INT-datapath
// components of Table IV, the cells these builders emit match the cost
// model's GateCount *exactly* (tests assert it) at power-of-two widths.  A
// barrel shifter of non-power-of-two width w pads every output bit to a
// 2^ceil_log2(w):1 selector, so it and the shift accumulator built on it
// carry w*(2^ceil_log2(w) - w) MUX2 beyond the model's w*(w-1).  The FP
// front/back-end builders (pre-alignment, INT-to-FP) additionally emit a
// small amount of glue the paper's first-order model omits — offset-overflow
// flush gating and the leading-one encoder.  Tests pin those documented
// deltas.
//
// All buses are LSB-first.  Multi-bit values are unsigned; see DESIGN.md for
// the signed-operand discussion.
#pragma once

#include <vector>

#include "rtl/netlist.h"

namespace sega {

using Bus = std::vector<NetId>;

/// Zero-extend (or truncate) a bus to @p width using const0 nets.
Bus zext(Netlist& nl, const Bus& bus, int width);

/// 1-bit x k-bit multiplier (Fig. 5): product[i] = NOR(inb[i], wb), where
/// inb is the *inverted* input slice and wb the *inverted* weight bit.
Bus build_mul(Netlist& nl, const Bus& inb, NetId wb);

/// w-bit ripple adder of equal-width operands, no carry-in: HA at bit 0,
/// FA above.  Returns w+1 bits; the MSB is the carry out.
Bus build_adder(Netlist& nl, const Bus& a, const Bus& b);

/// n:1 single-bit selector with binary select (ceil_log2(n) bits).
/// Uses exactly n-1 MUX2 (the Table II census) for any n >= 1.
NetId build_selector(Netlist& nl, const Bus& data, const Bus& sel);

/// w-bit barrel shifter; shift amount @p sh is sb >= ceil_log2(w) bits and
/// shifts in zeros.  Built as w parallel 2^sb:1 selectors — w*(2^sb - 1)
/// MUX2, which is the Table II census w*(w-1) only when w is a power of two
/// and sb = log2(w).  Shift amounts wrap at 2^sb >= w; callers that can
/// exceed w-1 must flush (see build_pre_alignment).
Bus build_right_shifter(Netlist& nl, const Bus& data, const Bus& sh);
Bus build_left_shifter(Netlist& nl, const Bus& data, const Bus& sh);

/// a > b over equal-width buses, computed as carry_out(a + ~b).
/// Cells: one w-bit adder (the Table II comparator census) + w INV.
NetId build_greater(Netlist& nl, const Bus& a, const Bus& b);

/// a - b assuming a >= b, computed as ~(~a + b) (w bits, carry dropped).
/// Cells: one w-bit adder + 2w INV.
Bus build_sub_assume_ge(Netlist& nl, const Bus& a, const Bus& b);

/// a - b in two's complement, modulo 2^w (a + ~b + 1 via a full-adder
/// carry-in).  Cells: w FA + w INV.  Result width w (wraps; callers size w
/// to cover the value range).
Bus build_subtractor(Netlist& nl, const Bus& a, const Bus& b);

/// Adder tree over h equal-width inputs (h a power of two).  Output width
/// k + log2(h).  Matches adder_tree_cost exactly.
Bus build_adder_tree(Netlist& nl, const std::vector<Bus>& inputs);

/// Pipelined adder tree: DFF banks after every level but the last; the
/// result arrives log2(h)-1 cycles after its inputs.  Matches
/// adder_tree_pipelined_cost exactly.  @p latency_out receives the depth.
Bus build_adder_tree_pipelined(Netlist& nl, const std::vector<Bus>& inputs,
                               int* latency_out = nullptr);

/// Max tree over h equal-width values (h a power of two >= 1): (h-1)
/// comparators + (h-1)*w selection MUX2 (+ INVs from the comparators).
Bus build_max_tree(Netlist& nl, const std::vector<Bus>& values);

/// Shift accumulator (one column): registers acc (width w), updates
/// acc' = (acc << k) + zext(partial) every clock (MSB-first bit-serial
/// streaming).  The shift is a full barrel shifter with the amount tied to
/// the constant k: the Table IV census (w DFF + w-bit shifter + w-bit adder),
/// plus the shifter's padding MUX2 when w is not a power of two.  Returns the
/// registered accumulator outputs.
/// The accumulator is cleared by the simulator between operands (a reset
/// mux is deliberately not modeled; see DESIGN.md).
Bus build_shift_accumulator(Netlist& nl, const Bus& partial, int w, int k);

/// Gated shift accumulator: like build_shift_accumulator but the update is
/// enabled by @p valid (acc' = valid ? (acc << k) + partial : acc), so
/// pipeline fill/drain cycles do not disturb the value.  Census adds w MUX2.
Bus build_shift_accumulator_gated(Netlist& nl, const Bus& partial, int w,
                                  int k, NetId valid);

/// Result fusion over bw column results of equal width: the balanced-tree
/// recursion of result_fusion_cost, with the bit-significance shifts as
/// wiring.  Returns the fused bus of width fusion_output_width(bw, w).
Bus build_result_fusion(Netlist& nl, const std::vector<Bus>& columns);

/// Signed result fusion: column j carries significance +2^j except the MSB
/// column, which carries -2^(bw-1) (two's-complement weights).  The low
/// bw-1 columns fuse as usual; the MSB column is subtracted.  Result is
/// two's complement, one bit wider than the unsigned fusion of the low
/// columns plus the MSB span (callers read it sign-extended).
Bus build_result_fusion_signed(Netlist& nl, const std::vector<Bus>& columns);

/// FP pre-alignment for one input batch: given h exponents (be bits) and h
/// mantissas (bm bits), returns the h aligned mantissas (offset >= bm
/// flushes to zero) and, via @p max_exp_out, the max exponent.
/// Census: max tree + h subtractors + h bm-bit shifters (Table IV), plus
/// documented flush glue (OR/INV/NOR).
std::vector<Bus> build_pre_alignment(Netlist& nl,
                                     const std::vector<Bus>& exponents,
                                     const std::vector<Bus>& mantissas,
                                     Bus* max_exp_out);

/// INT-to-FP converter: normalizes a br-bit unsigned value to a floating
/// result {mantissa (bm bits, MSB-aligned incl. leading one), exponent
/// (be bits, bias @p bias)}.  A zero input produces all-zero outputs.
/// Census: br-bit left shifter + be-bit adder + OR-chain leading-one
/// detector (Table IV), plus the documented encoder/gating glue.
struct FpResult {
  Bus mantissa;
  Bus exponent;
};
FpResult build_int_to_fp(Netlist& nl, const Bus& value, int bm, int be,
                         int bias);

}  // namespace sega
