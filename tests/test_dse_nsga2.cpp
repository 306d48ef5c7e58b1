#include "dse/nsga2.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "cost/macro_model.h"
#include "dse/explorer.h"

namespace sega {
namespace {

ObjectiveFn macro_objective(const Technology& tech) {
  return [&tech](const DesignPoint& dp) {
    const auto arr = evaluate_macro(tech, dp).objectives();
    return Objectives(arr.begin(), arr.end());
  };
}

TEST(Nsga2Test, ReturnsNonEmptyFront) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(8192, precision_int8());
  const auto front = nsga2_optimize(space, macro_objective(tech), {});
  EXPECT_FALSE(front.empty());
}

TEST(Nsga2Test, AllResultsAreValidDesigns) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(65536, precision_bf16());
  const auto front = nsga2_optimize(space, macro_objective(tech), {});
  for (const auto& dp : front) {
    const Validity v = validate_design(dp, 65536, space.limits());
    EXPECT_TRUE(v.ok) << dp.to_string() << ": " << v.reason;
  }
}

TEST(Nsga2Test, DeterministicForSeed) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(16384, precision_int4());
  Nsga2Options opt;
  opt.seed = 77;
  const auto a = nsga2_optimize(space, macro_objective(tech), opt);
  const auto b = nsga2_optimize(space, macro_objective(tech), opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]);
  }
}

TEST(Nsga2Test, ResultsAreMutuallyNonDominated) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(32768, precision_int8());
  const auto front = nsga2_optimize(space, macro_objective(tech), {});
  const auto obj = macro_objective(tech);
  for (const auto& a : front) {
    for (const auto& b : front) {
      if (a == b) continue;
      EXPECT_FALSE(dominates(obj(a), obj(b)))
          << a.to_string() << " dominates " << b.to_string();
    }
  }
}

TEST(Nsga2Test, NoDuplicatesInFront) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(16384, precision_int8());
  const auto front = nsga2_optimize(space, macro_objective(tech), {});
  std::set<std::string> seen;
  for (const auto& dp : front) {
    EXPECT_TRUE(seen.insert(dp.to_string()).second) << dp.to_string();
  }
}

TEST(Nsga2Test, TracksEvaluationStats) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(8192, precision_int8());
  Nsga2Options opt;
  opt.population = 16;
  opt.generations = 10;
  Nsga2Stats stats;
  nsga2_optimize(space, macro_objective(tech), opt, &stats);
  EXPECT_EQ(stats.generations_run, 10);
  // Distinct genomes are evaluated once (archive caching), so the count is
  // bounded by initial population + offspring, and at least the population.
  EXPECT_GE(stats.evaluations, 16);
  EXPECT_LE(stats.evaluations, 16 * 11);
}

// Golden pin of the optimizer's exact output: for each run, the returned
// front in order (DesignPoint::to_string() and the four objectives as %a
// hex-floats) and the run's Nsga2Stats.  Recorded from the std::map-archive
// implementation; any change to the RNG stream, repair, ranking, crowding
// tie-breaks, selection or front extraction shows up here.  Threads 1 and 2
// must both reproduce it.
struct GoldenCell {
  std::int64_t wstore;
  const char* precision;
};

std::string render_golden_runs(int threads) {
  const Technology tech = Technology::tsmc28();
  // INT and FP cells.  Most in-range genomes are infeasible (140 of 484 at
  // 1024 INT4 decode), so genome repair is exercised in every cell.
  const GoldenCell cells[] = {{1024, "INT4"},   {2048, "INT8"},
                              {2048, "FP8"},    {8192, "INT16"},
                              {16384, "BF16"},  {32768, "INT2"},
                              {65536, "FP16"},  {131072, "FP32"}};
  const int shapes[][2] = {{64, 64}, {16, 8}, {4, 1}};
  std::string out;
  char buf[160];
  std::uint64_t seed = 11;
  for (const GoldenCell& cell : cells) {
    DesignSpace space(cell.wstore, *precision_from_name(cell.precision));
    for (const auto& shape : shapes) {
      Nsga2Options opt;
      opt.population = shape[0];
      opt.generations = shape[1];
      opt.seed = seed++;
      opt.threads = threads;
      Nsga2Stats stats;
      const auto front =
          nsga2_optimize(space, macro_objective(tech), opt, &stats);
      std::snprintf(buf, sizeof buf,
                    "== %s %lld pop=%d gen=%d seed=%llu evals=%lld gens=%d\n",
                    cell.precision, static_cast<long long>(cell.wstore),
                    opt.population, opt.generations,
                    static_cast<unsigned long long>(opt.seed),
                    static_cast<long long>(stats.evaluations),
                    stats.generations_run);
      out += buf;
      for (const DesignPoint& dp : front) {
        const auto o = evaluate_macro(tech, dp).objectives();
        std::snprintf(buf, sizeof buf, " | %a %a %a %a\n", o[0], o[1], o[2],
                      o[3]);
        out += dp.to_string() + buf;
      }
    }
  }
  return out;
}

constexpr const char* kGoldenRuns =
#include "nsga2_golden_fronts.inc"
    ;

TEST(Nsga2GoldenTest, FrontsAndStatsArePinned) {
  for (const int threads : {1, 2}) {
    EXPECT_EQ(render_golden_runs(threads), kGoldenRuns)
        << "threads=" << threads;
  }
}

// The key quality bar: on every paper precision at 64K weights, NSGA-II must
// recover (a subset of) the exhaustive ground-truth front and cover most of
// its hypervolume.
class Nsga2VsExhaustiveTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Nsga2VsExhaustiveTest, RecoversExhaustiveFront) {
  const Technology tech = Technology::tsmc28();
  const auto precision = precision_from_name(GetParam());
  ASSERT_TRUE(precision.has_value());
  DesignSpace space(65536, *precision);

  const auto truth = explore_exhaustive(space, tech);
  ASSERT_FALSE(truth.empty());
  std::set<std::string> truth_keys;
  std::vector<Objectives> truth_objs;
  for (const auto& ed : truth) {
    truth_keys.insert(ed.point.to_string());
    truth_objs.push_back(ed.objectives());
  }

  Nsga2Options opt;
  opt.population = 96;
  opt.generations = 96;
  opt.seed = 5;
  const auto found = explore_nsga2(space, tech, {}, opt);
  ASSERT_FALSE(found.empty());

  // (1) The large majority of GA designs must lie on the true front.  (A
  // point the GA reports can be off-front only when the GA never evaluated
  // any of its dominators; a handful of such near-misses is inherent to a
  // 4-objective GA, but they must stay rare.)
  std::vector<Objectives> found_objs;
  std::size_t on_front = 0;
  for (const auto& ed : found) {
    if (truth_keys.count(ed.point.to_string())) ++on_front;
    found_objs.push_back(ed.objectives());
  }
  EXPECT_GE(static_cast<double>(on_front),
            0.85 * static_cast<double>(found.size()))
      << "too many off-front designs: " << found.size() - on_front << "/"
      << found.size();

  // (2) Hypervolume coverage >= 95 % of ground truth.
  Objectives ref(4);
  for (std::size_t j = 0; j < 4; ++j) {
    double worst = truth_objs[0][j];
    for (const auto& o : truth_objs) worst = std::max(worst, o[j]);
    ref[j] = worst * 1.1 + 1.0;
  }
  const double hv_truth = hypervolume_monte_carlo(truth_objs, ref, 40000, 9);
  const double hv_found = hypervolume_monte_carlo(found_objs, ref, 40000, 9);
  EXPECT_GE(hv_found, 0.95 * hv_truth) << "GA covers too little hypervolume";
}

INSTANTIATE_TEST_SUITE_P(Precisions, Nsga2VsExhaustiveTest,
                         ::testing::Values("INT2", "INT4", "INT8", "INT16",
                                           "FP8", "FP16", "BF16", "FP32"));

}  // namespace
}  // namespace sega
