#include "dse/pareto.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "util/rng.h"

namespace sega {
namespace {

TEST(DominanceTest, StrictDominance) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {2.0, 2.0}));  // equal allowed in one
  EXPECT_FALSE(dominates({2.0, 2.0}, {1.0, 1.0}));
}

TEST(DominanceTest, EqualVectorsDoNotDominate) {
  EXPECT_FALSE(dominates({1.0, 2.0}, {1.0, 2.0}));
}

TEST(DominanceTest, IncomparableVectors) {
  EXPECT_FALSE(dominates({1.0, 3.0}, {3.0, 1.0}));
  EXPECT_FALSE(dominates({3.0, 1.0}, {1.0, 3.0}));
}

TEST(DominanceTest, FourObjectives) {
  EXPECT_TRUE(dominates({1, 2, 3, -5}, {1, 2, 4, -5}));
  EXPECT_FALSE(dominates({1, 2, 3, -5}, {1, 2, 3, -6}));
}

TEST(NonDominatedTest, SimpleFront) {
  const std::vector<Objectives> pts = {
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {2.5, 3.5}, {4.0, 1.0}, {5.0, 5.0}};
  const auto front = non_dominated_indices(pts);
  const std::set<std::size_t> s(front.begin(), front.end());
  EXPECT_EQ(s, (std::set<std::size_t>{0, 1, 2, 4}));
}

TEST(NonDominatedTest, AllEqualPointsAllSurvive) {
  const std::vector<Objectives> pts = {{1, 1}, {1, 1}, {1, 1}};
  EXPECT_EQ(non_dominated_indices(pts).size(), 3u);
}

TEST(NonDominatedTest, EmptyInput) {
  EXPECT_TRUE(non_dominated_indices({}).empty());
}

TEST(FastSortTest, PartitionsAllPoints) {
  Rng rng(3);
  std::vector<Objectives> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const auto fronts = fast_non_dominated_sort(pts);
  std::set<std::size_t> seen;
  for (const auto& f : fronts) {
    for (const auto i : f) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(seen.size(), pts.size());
}

TEST(FastSortTest, FirstFrontMatchesNonDominatedFilter) {
  Rng rng(11);
  std::vector<Objectives> pts;
  for (int i = 0; i < 80; ++i) {
    pts.push_back({rng.uniform(), rng.uniform()});
  }
  const auto fronts = fast_non_dominated_sort(pts);
  auto expected = non_dominated_indices(pts);
  auto got = fronts[0];
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(FastSortTest, LaterFrontsAreDominatedByEarlier) {
  Rng rng(17);
  std::vector<Objectives> pts;
  for (int i = 0; i < 50; ++i) pts.push_back({rng.uniform(), rng.uniform()});
  const auto fronts = fast_non_dominated_sort(pts);
  for (std::size_t f = 1; f < fronts.size(); ++f) {
    for (const auto q : fronts[f]) {
      bool dominated_by_prev = false;
      for (const auto p : fronts[f - 1]) {
        if (dominates(pts[p], pts[q])) {
          dominated_by_prev = true;
          break;
        }
      }
      EXPECT_TRUE(dominated_by_prev);
    }
  }
}

TEST(FastSortTest, ChainOfDominatedPoints) {
  // Strictly ordered chain -> every point its own front.
  const std::vector<Objectives> pts = {{3, 3}, {1, 1}, {2, 2}, {4, 4}};
  const auto fronts = fast_non_dominated_sort(pts);
  ASSERT_EQ(fronts.size(), 4u);
  EXPECT_EQ(fronts[0], std::vector<std::size_t>{1});
  EXPECT_EQ(fronts[3], std::vector<std::size_t>{3});
}

// --- ENS-BS vs. textbook dominance-count equivalence -----------------------

/// Partition equality up to intra-front order (the baseline lists later
/// fronts in traversal order; the ENS contract is ascending index).
void expect_same_partition(const std::vector<Objectives>& pts) {
  auto fast = fast_non_dominated_sort(pts);
  auto base = fast_non_dominated_sort_baseline(pts);
  ASSERT_EQ(fast.size(), base.size());
  for (std::size_t f = 0; f < fast.size(); ++f) {
    auto sorted_base = base[f];
    std::sort(sorted_base.begin(), sorted_base.end());
    EXPECT_EQ(fast[f], sorted_base) << "front " << f << " differs";
  }
}

TEST(EnsSortTest, MatchesBaselineOnRandomObjectives) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (const std::size_t dims : {2u, 3u, 4u}) {
      Rng rng(seed * 100 + dims);
      std::vector<Objectives> pts;
      for (int i = 0; i < 300; ++i) {
        Objectives o(dims);
        for (auto& v : o) v = rng.uniform();
        pts.push_back(std::move(o));
      }
      expect_same_partition(pts);
    }
  }
}

TEST(EnsSortTest, MatchesBaselineWithDuplicatesAndTies) {
  // Quantized coordinates force many exact per-objective ties and whole
  // duplicate vectors — the regime where a sort bug would hide.
  Rng rng(99);
  std::vector<Objectives> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({static_cast<double>(rng.uniform_int(0, 4)),
                   static_cast<double>(rng.uniform_int(0, 4)),
                   static_cast<double>(rng.uniform_int(0, 4))});
  }
  expect_same_partition(pts);
}

TEST(EnsSortTest, MatchesBaselineOnDegenerateInputs) {
  expect_same_partition({});                          // empty
  expect_same_partition({{1.0, 2.0}});                // single point
  expect_same_partition({{1, 1}, {1, 1}, {1, 1}});    // all identical
  expect_same_partition({{1, 1}, {2, 2}, {3, 3}});    // strict chain
  expect_same_partition({{1, 3}, {3, 1}, {2, 2}});    // one incomparable front
}

TEST(EnsSortTest, FrontsListIndicesAscending) {
  Rng rng(5);
  std::vector<Objectives> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                   rng.uniform()});
  }
  for (const auto& front : fast_non_dominated_sort(pts)) {
    EXPECT_TRUE(std::is_sorted(front.begin(), front.end()));
  }
}

TEST(EnsSortTest, EmptyInputYieldsNoFronts) {
  EXPECT_TRUE(fast_non_dominated_sort({}).empty());
  EXPECT_TRUE(fast_non_dominated_sort_baseline({}).empty());
}

// --- row views (the NSGA-II inner loop's entry points) ----------------------

/// @p pts stored in a buffer in reverse order, viewed in their original
/// order through the index, and again with every row listed twice.
struct ReversedRows {
  std::vector<double> data;
  std::vector<std::size_t> index;
  std::vector<std::size_t> twice;
  std::size_t stride;

  explicit ReversedRows(const std::vector<Objectives>& pts)
      : stride(pts.front().size()) {
    for (auto it = pts.rbegin(); it != pts.rend(); ++it) {
      data.insert(data.end(), it->begin(), it->end());
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
      index.push_back(pts.size() - 1 - i);
    }
    twice = index;
    twice.insert(twice.end(), index.begin(), index.end());
  }
  ObjectiveRows view(const std::vector<std::size_t>& rows) const {
    return {data.data(), stride, Span<const std::size_t>(rows)};
  }
};

std::vector<Objectives> quantized_points(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Objectives> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(rng.uniform_int(0, 5)),
                   static_cast<double>(rng.uniform_int(0, 5)),
                   static_cast<double>(rng.uniform_int(0, 5)),
                   static_cast<double>(rng.uniform_int(0, 5))});
  }
  return pts;
}

TEST(RowViewTest, RanksThroughAnIndexMatchTheBaselineAndCopiesShareAFront) {
  const auto pts = quantized_points(21, 150);
  const ReversedRows rows(pts);
  std::vector<int> rank(pts.size());
  const std::size_t count =
      non_dominated_ranks(rows.view(rows.index), Span<int>(rank));
  const auto base = fast_non_dominated_sort_baseline(pts);
  ASSERT_EQ(count, base.size());
  for (std::size_t f = 0; f < base.size(); ++f) {
    for (const std::size_t i : base[f]) EXPECT_EQ(rank[i], static_cast<int>(f));
  }
  std::vector<int> rank_twice(rows.twice.size());
  EXPECT_EQ(non_dominated_ranks(rows.view(rows.twice), Span<int>(rank_twice)),
            count);
  for (std::size_t i = 0; i < rows.twice.size(); ++i) {
    EXPECT_EQ(rank_twice[i], rank[i % pts.size()]) << i;
  }
}

TEST(RowViewTest, CrowdingThroughAnIndexIsBitIdenticalWithTies) {
  // Many exact per-objective ties: the tie order of the per-objective sort
  // must depend only on the sequence of values, not on the storage.
  for (const auto& pts : {quantized_points(7, 40), quantized_points(8, 97)}) {
    const ReversedRows rows(pts);
    std::vector<double> via_view(pts.size());
    crowding_distances(rows.view(rows.index), Span<double>(via_view));
    const auto via_vector = crowding_distances(pts);
    ASSERT_EQ(via_view.size(), via_vector.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(std::memcmp(&via_view[i], &via_vector[i], sizeof(double)), 0)
          << i;
    }
  }
}

TEST(CrowdingTest, BoundariesGetInfinity) {
  const std::vector<Objectives> front = {
      {1.0, 5.0}, {2.0, 4.0}, {3.0, 3.0}, {4.0, 2.0}, {5.0, 1.0}};
  const auto d = crowding_distances(front);
  EXPECT_TRUE(std::isinf(d[0]));
  EXPECT_TRUE(std::isinf(d[4]));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(d[i]));
    EXPECT_GT(d[i], 0.0);
  }
}

TEST(CrowdingTest, DenserRegionScoresLower) {
  // Points 1 and 2 are crowded together; point 3 is isolated mid-front.
  const std::vector<Objectives> front = {
      {0.0, 10.0}, {1.0, 8.9}, {1.2, 8.7}, {6.0, 2.0}, {10.0, 0.0}};
  const auto d = crowding_distances(front);
  EXPECT_LT(d[2], d[3]);
}

TEST(CrowdingTest, DegenerateEqualObjective) {
  const std::vector<Objectives> front = {{1.0, 1.0}, {1.0, 1.0}};
  const auto d = crowding_distances(front);
  EXPECT_EQ(d.size(), 2u);  // must not divide by zero
}

TEST(Hypervolume2dTest, SinglePointRectangle) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1.0, 1.0}}, {3.0, 4.0}), 2.0 * 3.0);
}

TEST(Hypervolume2dTest, StaircaseUnion) {
  // Two points: (1,3) and (2,1) w.r.t. ref (4,4):
  // (1,3): 3x1 strip; (2,1) adds 2x2 -> total 3 + 4 = 7.
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1, 3}, {2, 1}}, {4, 4}), 7.0);
}

TEST(Hypervolume2dTest, DominatedPointAddsNothing) {
  const double hv1 = hypervolume_2d({{1, 1}}, {4, 4});
  const double hv2 = hypervolume_2d({{1, 1}, {2, 2}}, {4, 4});
  EXPECT_DOUBLE_EQ(hv1, hv2);
}

TEST(Hypervolume2dTest, PointsOutsideRefIgnored) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({{5, 5}}, {4, 4}), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume_2d({}, {4, 4}), 0.0);
}

TEST(HypervolumeMcTest, MatchesExact2d) {
  const std::vector<Objectives> front = {{1, 3}, {2, 1}, {0.5, 3.5}};
  const Objectives ref = {4, 4};
  const double exact = hypervolume_2d(front, ref);
  const double mc = hypervolume_monte_carlo(front, ref, 200000, 42);
  EXPECT_NEAR(mc, exact, exact * 0.03);
}

TEST(HypervolumeMcTest, DeterministicForSeed) {
  const std::vector<Objectives> front = {{1, 2, 3}, {3, 2, 1}};
  const Objectives ref = {5, 5, 5};
  EXPECT_DOUBLE_EQ(hypervolume_monte_carlo(front, ref, 1000, 7),
                   hypervolume_monte_carlo(front, ref, 1000, 7));
}

TEST(HypervolumeMcTest, MoreCoverageMeansMoreVolume) {
  const Objectives ref = {10, 10, 10, 10};
  const std::vector<Objectives> small = {{9, 9, 9, 9}};
  const std::vector<Objectives> large = {{1, 1, 1, 1}};
  // Identical boxes are sampled relative to their own ideal; compare via
  // shared ideal by adding the ideal point to both fronts.
  const std::vector<Objectives> small_n = {{9, 9, 9, 9}, {1, 10, 10, 10}};
  const std::vector<Objectives> large_n = {{1, 1, 1, 1}, {1, 10, 10, 10}};
  EXPECT_LT(hypervolume_monte_carlo(small_n, ref, 50000, 3),
            hypervolume_monte_carlo(large_n, ref, 50000, 3));
}

}  // namespace
}  // namespace sega
