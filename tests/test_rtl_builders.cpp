#include "rtl/builders.h"

#include <gtest/gtest.h>

#include "cost/components.h"
#include "rtl/sim.h"
#include "util/math.h"
#include "util/rng.h"

namespace sega {
namespace {

// ---------- functional tests: gate-level vs reference arithmetic ----------

TEST(BuilderMulTest, NorMultiplicationExhaustive) {
  // product = IN & W with inverted inputs (Fig. 5), IN of 4 bits.
  Netlist nl("mul");
  const auto inb = nl.add_input("inb", 4);
  const auto wb = nl.add_input("wb", 1);
  nl.add_output("p", build_mul(nl, inb, wb[0]));
  GateSim sim(nl);
  for (std::uint64_t in = 0; in < 16; ++in) {
    for (std::uint64_t w = 0; w < 2; ++w) {
      sim.set_input("inb", ~in & 0xF);
      sim.set_input("wb", ~w & 0x1);
      EXPECT_EQ(sim.read_output("p"), w ? in : 0u);
    }
  }
}

TEST(BuilderAdderTest, ExhaustiveFourBit) {
  Netlist nl("add");
  const auto a = nl.add_input("a", 4);
  const auto b = nl.add_input("b", 4);
  nl.add_output("s", build_adder(nl, a, b));
  GateSim sim(nl);
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      sim.set_input("a", x);
      sim.set_input("b", y);
      EXPECT_EQ(sim.read_output("s"), x + y);
    }
  }
}

TEST(BuilderAdderTest, CensusMatchesTable2) {
  const Technology tech = Technology::tsmc28();
  for (int w : {1, 4, 8, 15}) {
    Netlist nl("add");
    const auto a = nl.add_input("a", w);
    const auto b = nl.add_input("b", w);
    nl.add_output("s", build_adder(nl, a, b));
    EXPECT_TRUE(nl.census() == add_cost(tech, w).gates) << "w=" << w;
  }
}

TEST(BuilderSelectorTest, SelectsEachLeaf) {
  for (int n : {1, 2, 3, 5, 8, 16}) {
    Netlist nl("sel");
    const auto data = nl.add_input("d", n);
    const int sb = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));
    const auto sel = nl.add_input("s", sb);
    nl.add_output("y", {build_selector(nl, data, sel)});
    GateSim sim(nl);
    for (std::uint64_t v = 0; v < static_cast<std::uint64_t>(n); ++v) {
      sim.set_input("d", std::uint64_t{1} << v);
      sim.set_input("s", v);
      EXPECT_EQ(sim.read_output("y"), 1u) << "n=" << n << " v=" << v;
      sim.set_input("d", ~(std::uint64_t{1} << v) & ((1ull << n) - 1));
      EXPECT_EQ(sim.read_output("y"), 0u) << "n=" << n << " v=" << v;
    }
  }
}

TEST(BuilderSelectorTest, CensusIsNMinus1Mux) {
  for (int n : {1, 2, 3, 5, 8, 11, 16}) {
    Netlist nl("sel");
    const auto data = nl.add_input("d", n);
    const auto sel =
        nl.add_input("s", std::max(1, ceil_log2(static_cast<std::uint64_t>(n))));
    build_selector(nl, data, sel);
    EXPECT_EQ(nl.census()[CellKind::kMux2], n - 1) << "n=" << n;
  }
}

TEST(BuilderShifterTest, RightShiftZeroFill) {
  Netlist nl("shr");
  const auto d = nl.add_input("d", 8);
  const auto sh = nl.add_input("sh", 3);
  nl.add_output("y", build_right_shifter(nl, d, sh));
  GateSim sim(nl);
  for (std::uint64_t v : {0x00ull, 0xFFull, 0xA5ull, 0x81ull}) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      sim.set_input("d", v);
      sim.set_input("sh", s);
      EXPECT_EQ(sim.read_output("y"), v >> s) << "v=" << v << " s=" << s;
    }
  }
}

TEST(BuilderShifterTest, LeftShiftDropsHighBits) {
  Netlist nl("shl");
  const auto d = nl.add_input("d", 8);
  const auto sh = nl.add_input("sh", 3);
  nl.add_output("y", build_left_shifter(nl, d, sh));
  GateSim sim(nl);
  for (std::uint64_t v : {0x01ull, 0xFFull, 0x3Cull}) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      sim.set_input("d", v);
      sim.set_input("sh", s);
      EXPECT_EQ(sim.read_output("y"), (v << s) & 0xFF);
    }
  }
}

TEST(BuilderShifterTest, PaddedRangeFlushesToZero) {
  // Width 5 data with a 3-bit shift amount: amounts 5..7 exceed the width
  // and must produce zero (the padded-candidate semantics).
  Netlist nl("shr");
  const auto d = nl.add_input("d", 5);
  const auto sh = nl.add_input("sh", 3);
  nl.add_output("y", build_right_shifter(nl, d, sh));
  GateSim sim(nl);
  sim.set_input("d", 0x1F);
  for (std::uint64_t s = 5; s < 8; ++s) {
    sim.set_input("sh", s);
    EXPECT_EQ(sim.read_output("y"), 0u);
  }
}

TEST(BuilderShifterTest, CensusExactForPow2Width) {
  const Technology tech = Technology::tsmc28();
  for (int w : {2, 4, 8, 16}) {
    Netlist nl("sh");
    const auto d = nl.add_input("d", w);
    const auto sh = nl.add_input("sh", ceil_log2(static_cast<std::uint64_t>(w)));
    build_right_shifter(nl, d, sh);
    EXPECT_TRUE(nl.census() == shift_cost(tech, w).gates) << "w=" << w;
  }
}

TEST(BuilderShifterTest, CensusBoundedForNonPow2Width) {
  // Documented delta: padded candidates cost w*(2^ceil(log2 w)-1) MUX2
  // instead of the model's w*(w-1); always within 2x.
  const Technology tech = Technology::tsmc28();
  for (int w : {3, 5, 11, 24}) {
    Netlist nl("sh");
    const auto d = nl.add_input("d", w);
    const auto sh = nl.add_input("sh", ceil_log2(static_cast<std::uint64_t>(w)));
    build_right_shifter(nl, d, sh);
    const auto model = shift_cost(tech, w).gates[CellKind::kMux2];
    const auto actual = nl.census()[CellKind::kMux2];
    EXPECT_GE(actual, model) << "w=" << w;
    EXPECT_LE(actual, 2 * model) << "w=" << w;
  }
}

TEST(BuilderCompareTest, GreaterExhaustive) {
  Netlist nl("gt");
  const auto a = nl.add_input("a", 4);
  const auto b = nl.add_input("b", 4);
  nl.add_output("gt", {build_greater(nl, a, b)});
  GateSim sim(nl);
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      sim.set_input("a", x);
      sim.set_input("b", y);
      EXPECT_EQ(sim.read_output("gt"), x > y ? 1u : 0u);
    }
  }
}

TEST(BuilderCompareTest, AdderCensusMatchesComparatorModel) {
  const Technology tech = Technology::tsmc28();
  Netlist nl("gt");
  const auto a = nl.add_input("a", 8);
  const auto b = nl.add_input("b", 8);
  build_greater(nl, a, b);
  const GateCount gc = nl.census();
  const GateCount model = comp_cost(tech, 8).gates;
  EXPECT_EQ(gc[CellKind::kFa], model[CellKind::kFa]);
  EXPECT_EQ(gc[CellKind::kHa], model[CellKind::kHa]);
  EXPECT_EQ(gc[CellKind::kInv], 8);  // glue the paper's model omits
}

TEST(BuilderSubTest, SubtractExhaustive) {
  Netlist nl("sub");
  const auto a = nl.add_input("a", 4);
  const auto b = nl.add_input("b", 4);
  nl.add_output("d", build_sub_assume_ge(nl, a, b));
  GateSim sim(nl);
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y <= x; ++y) {
      sim.set_input("a", x);
      sim.set_input("b", y);
      EXPECT_EQ(sim.read_output("d"), x - y);
    }
  }
}

TEST(BuilderAdderTreeTest, SumsRandomVectors) {
  Netlist nl("tree");
  std::vector<Bus> ins;
  for (int r = 0; r < 8; ++r) {
    ins.push_back(nl.add_input("x" + std::to_string(r), 4));
  }
  nl.add_output("sum", build_adder_tree(nl, ins));
  GateSim sim(nl);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint64_t expected = 0;
    for (int r = 0; r < 8; ++r) {
      const std::uint64_t v = static_cast<std::uint64_t>(rng.uniform_int(0, 15));
      sim.set_input("x" + std::to_string(r), v);
      expected += v;
    }
    EXPECT_EQ(sim.read_output("sum"), expected);
  }
}

TEST(BuilderAdderTreeTest, CensusMatchesTable4) {
  const Technology tech = Technology::tsmc28();
  for (const auto& [h, k] : {std::pair{4, 2}, {8, 4}, {16, 8}, {32, 1}}) {
    Netlist nl("tree");
    std::vector<Bus> ins;
    for (int r = 0; r < h; ++r) {
      ins.push_back(nl.add_input("x" + std::to_string(r), k));
    }
    build_adder_tree(nl, ins);
    EXPECT_TRUE(nl.census() == adder_tree_cost(tech, h, k).gates)
        << "h=" << h << " k=" << k;
  }
}

TEST(BuilderMaxTreeTest, FindsMaximum) {
  Netlist nl("max");
  std::vector<Bus> ins;
  for (int r = 0; r < 8; ++r) {
    ins.push_back(nl.add_input("x" + std::to_string(r), 5));
  }
  nl.add_output("m", build_max_tree(nl, ins));
  GateSim sim(nl);
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::uint64_t expected = 0;
    for (int r = 0; r < 8; ++r) {
      const std::uint64_t v = static_cast<std::uint64_t>(rng.uniform_int(0, 31));
      sim.set_input("x" + std::to_string(r), v);
      expected = std::max(expected, v);
    }
    EXPECT_EQ(sim.read_output("m"), expected);
  }
}

TEST(BuilderFusionTest, WeightedSumOfColumns) {
  // 4 columns of width 6, column j has significance 2^j.
  Netlist nl("fusion");
  std::vector<Bus> cols;
  for (int j = 0; j < 4; ++j) {
    cols.push_back(nl.add_input("c" + std::to_string(j), 6));
  }
  nl.add_output("f", build_result_fusion(nl, cols));
  GateSim sim(nl);
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::uint64_t expected = 0;
    for (int j = 0; j < 4; ++j) {
      const std::uint64_t v = static_cast<std::uint64_t>(rng.uniform_int(0, 63));
      sim.set_input("c" + std::to_string(j), v);
      expected += v << j;
    }
    EXPECT_EQ(sim.read_output("f"), expected);
  }
}

TEST(BuilderFusionTest, OddColumnCount) {
  Netlist nl("fusion");
  std::vector<Bus> cols;
  for (int j = 0; j < 3; ++j) {
    cols.push_back(nl.add_input("c" + std::to_string(j), 4));
  }
  nl.add_output("f", build_result_fusion(nl, cols));
  GateSim sim(nl);
  for (std::uint64_t a = 0; a < 16; a += 3) {
    for (std::uint64_t b = 0; b < 16; b += 5) {
      for (std::uint64_t c = 0; c < 16; c += 7) {
        sim.set_input("c0", a);
        sim.set_input("c1", b);
        sim.set_input("c2", c);
        EXPECT_EQ(sim.read_output("f"), a + (b << 1) + (c << 2));
      }
    }
  }
}

TEST(BuilderFusionTest, CensusMatchesTable4) {
  const Technology tech = Technology::tsmc28();
  for (const auto& [bw, w] : {std::pair{2, 8}, {4, 6}, {8, 10}, {3, 5}}) {
    Netlist nl("fusion");
    std::vector<Bus> cols;
    for (int j = 0; j < bw; ++j) {
      cols.push_back(nl.add_input("c" + std::to_string(j), w));
    }
    const Bus out = build_result_fusion(nl, cols);
    EXPECT_TRUE(nl.census() == result_fusion_cost(tech, bw, w).gates)
        << "bw=" << bw << " w=" << w;
    EXPECT_EQ(static_cast<int>(out.size()), fusion_output_width(bw, w));
  }
}

TEST(BuilderShiftAccumulatorTest, AccumulatesBitSerial) {
  // w=8, k=2: stream a 6-bit value MSB-first in 3 slices and check the
  // accumulator reconstructs it.
  Netlist nl("accu");
  const auto partial = nl.add_input("p", 2);
  const Bus acc = build_shift_accumulator(nl, partial, 8, 2);
  nl.add_output("acc", acc);
  GateSim sim(nl);
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint64_t value = static_cast<std::uint64_t>(rng.uniform_int(0, 63));
    sim.clear_registers();
    for (int c = 2; c >= 0; --c) {  // MSB-first slices
      sim.set_input("p", (value >> (2 * c)) & 0x3);
      sim.step();
    }
    EXPECT_EQ(sim.read_output("acc"), value);
  }
}

TEST(BuilderShiftAccumulatorTest, CensusMatchesTable4Pow2Width) {
  const Technology tech = Technology::tsmc28();
  // bx=4, h=16 -> w=8 (power of two): exact census.
  Netlist nl("accu");
  const auto partial = nl.add_input("p", 8);
  build_shift_accumulator(nl, partial, 8, 2);
  EXPECT_TRUE(nl.census() == shift_accumulator_cost(tech, 4, 16).gates);
}

TEST(BuilderShiftAccumulatorTest, CensusDeltaPinnedForNonPow2Width) {
  const Technology tech = Technology::tsmc28();
  // bx=4, h=256 -> w=12.  The shifter pads each bit to a 16:1 selector:
  // w*(16-1) = 180 MUX2 against the model's w*(w-1) = 132, so the census
  // carries w*(16-w) = 48 extra MUX2 and is otherwise exact.
  const int w = 12;
  Netlist nl("accu");
  const auto partial = nl.add_input("p", 8);
  build_shift_accumulator(nl, partial, w, 3);
  GateCount expected = shift_accumulator_cost(tech, 4, 256).gates;
  expected[CellKind::kMux2] += w * (16 - w);
  EXPECT_TRUE(nl.census() == expected);
  EXPECT_EQ(nl.census()[CellKind::kMux2], w * 15);
}

TEST(BuilderPreAlignTest, AlignsMantissas) {
  Netlist nl("align");
  std::vector<Bus> exps, mants;
  for (int r = 0; r < 4; ++r) {
    exps.push_back(nl.add_input("e" + std::to_string(r), 5));
    mants.push_back(nl.add_input("m" + std::to_string(r), 8));
  }
  Bus max_exp;
  const auto aligned = build_pre_alignment(nl, exps, mants, &max_exp);
  nl.add_output("max", max_exp);
  for (int r = 0; r < 4; ++r) {
    nl.add_output("a" + std::to_string(r), aligned[static_cast<std::size_t>(r)]);
  }
  GateSim sim(nl);
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    std::uint64_t e[4], m[4], emax = 0;
    for (int r = 0; r < 4; ++r) {
      e[r] = static_cast<std::uint64_t>(rng.uniform_int(0, 31));
      m[r] = static_cast<std::uint64_t>(rng.uniform_int(0, 255));
      sim.set_input("e" + std::to_string(r), e[r]);
      sim.set_input("m" + std::to_string(r), m[r]);
      emax = std::max(emax, e[r]);
    }
    EXPECT_EQ(sim.read_output("max"), emax);
    for (int r = 0; r < 4; ++r) {
      const std::uint64_t off = emax - e[r];
      const std::uint64_t expect = off >= 8 ? 0 : (m[r] >> off);
      EXPECT_EQ(sim.read_output("a" + std::to_string(r)), expect)
          << "off=" << off;
    }
  }
}

TEST(BuilderPreAlignTest, CoreCensusMatchesTable4) {
  // FA/HA (comparators + subtractors) must match the model exactly; MUX2
  // matches for power-of-two mantissas; OR/INV/NOR are documented glue.
  const Technology tech = Technology::tsmc28();
  Netlist nl("align");
  std::vector<Bus> exps, mants;
  for (int r = 0; r < 8; ++r) {
    exps.push_back(nl.add_input("e" + std::to_string(r), 8));
    mants.push_back(nl.add_input("m" + std::to_string(r), 8));  // BF16
  }
  build_pre_alignment(nl, exps, mants, nullptr);
  const GateCount gc = nl.census();
  const GateCount model = pre_alignment_cost(tech, 8, 8, 8).gates;
  EXPECT_EQ(gc[CellKind::kFa], model[CellKind::kFa]);
  EXPECT_EQ(gc[CellKind::kHa], model[CellKind::kHa]);
  EXPECT_EQ(gc[CellKind::kMux2], model[CellKind::kMux2]);
  EXPECT_GT(gc[CellKind::kInv], 0);  // comparator/flush glue
}

TEST(BuilderIntToFpTest, NormalizesValues) {
  Netlist nl("conv");
  const auto v = nl.add_input("v", 12);
  const FpResult fp = build_int_to_fp(nl, v, 5, 6, 15);
  nl.add_output("mant", fp.mantissa);
  nl.add_output("exp", fp.exponent);
  GateSim sim(nl);
  for (std::uint64_t value : {1ull, 2ull, 3ull, 37ull, 1024ull, 4095ull}) {
    sim.set_input("v", value);
    const int p = 63 - __builtin_clzll(value);
    const std::uint64_t mant = sim.read_output("mant");
    const std::uint64_t exp = sim.read_output("exp");
    EXPECT_EQ(exp, static_cast<std::uint64_t>(p + 15)) << "value=" << value;
    // Mantissa is the top 5 normalized bits, MSB = the leading one.
    const std::uint64_t norm = value << (11 - p);
    EXPECT_EQ(mant, (norm >> 7) & 0x1F) << "value=" << value;
  }
}

TEST(BuilderIntToFpTest, ZeroProducesZero) {
  Netlist nl("conv");
  const auto v = nl.add_input("v", 10);
  const FpResult fp = build_int_to_fp(nl, v, 4, 5, 7);
  nl.add_output("mant", fp.mantissa);
  nl.add_output("exp", fp.exponent);
  GateSim sim(nl);
  sim.set_input("v", 0);
  EXPECT_EQ(sim.read_output("mant"), 0u);
  EXPECT_EQ(sim.read_output("exp"), 0u);
}

TEST(BuilderIntToFpTest, AdderCensusMatchesModel) {
  const Technology tech = Technology::tsmc28();
  Netlist nl("conv");
  const auto v = nl.add_input("v", 16);
  build_int_to_fp(nl, v, 8, 8, 127);
  const GateCount gc = nl.census();
  const GateCount model = int_to_fp_cost(tech, 16, 8).gates;
  EXPECT_EQ(gc[CellKind::kFa], model[CellKind::kFa]);
  EXPECT_EQ(gc[CellKind::kHa], model[CellKind::kHa]);
  EXPECT_EQ(gc[CellKind::kMux2], model[CellKind::kMux2]);  // br=16 pow2
  // OR census: model says br; RTL spends more on the encoder (documented).
  EXPECT_GE(gc[CellKind::kOr], model[CellKind::kOr] - 1);
}

TEST(BuilderZextTest, PadAndTruncate) {
  Netlist nl("z");
  const auto in = nl.add_input("x", 4);
  const Bus padded = zext(nl, in, 6);
  EXPECT_EQ(padded.size(), 6u);
  EXPECT_TRUE(nl.is_const0(padded[5]));
  const Bus cut = zext(nl, in, 2);
  EXPECT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut[0], in[0]);
}

}  // namespace
}  // namespace sega
