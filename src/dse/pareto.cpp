#include "dse/pareto.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/assert.h"
#include "util/rng.h"

namespace sega {

namespace {

/// dominates() over raw rows of @p m objectives.
bool dominates_row(const double* u, const double* v, std::size_t m) {
  bool strictly_better = false;
  for (std::size_t i = 0; i < m; ++i) {
    if (u[i] > v[i]) return false;
    if (u[i] < v[i]) strictly_better = true;
  }
  return strictly_better;
}

/// The std::vector<Objectives> entry points' input copied into one buffer
/// and viewed with the identity index.
struct FlatRows {
  std::vector<double> data;
  std::vector<std::size_t> index;
  std::size_t stride = 0;

  explicit FlatRows(const std::vector<Objectives>& points)
      : index(points.size()),
        stride(points.empty() ? 0 : points.front().size()) {
    data.reserve(points.size() * stride);
    for (const Objectives& p : points) {
      SEGA_EXPECTS(p.size() == stride);
      data.insert(data.end(), p.begin(), p.end());
    }
    std::iota(index.begin(), index.end(), std::size_t{0});
  }
  ObjectiveRows view() const {
    return {data.data(), stride, Span<const std::size_t>(index)};
  }
};

}  // namespace

bool dominates(const Objectives& u, const Objectives& v) {
  SEGA_EXPECTS(u.size() == v.size() && !u.empty());
  return dominates_row(u.data(), v.data(), u.size());
}

std::vector<std::size_t> non_dominated_indices(
    const std::vector<Objectives>& points) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (j != i && dominates(points[j], points[i])) dominated = true;
    }
    if (!dominated) out.push_back(i);
  }
  return out;
}

std::size_t non_dominated_ranks(const ObjectiveRows& rows, Span<int> rank) {
  const std::size_t n = rows.size();
  SEGA_EXPECTS(rank.size() == n);
  if (n == 0) return 0;
  const std::size_t m = rows.stride;

  // Lexicographic processing order (ties broken by view index so the pass
  // is deterministic).  Any dominator of a row strictly precedes it in this
  // order, so every row's potential dominators are placed before it and
  // placed ranks are final.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double* ra = rows.row(a);
    const double* rb = rows.row(b);
    for (std::size_t j = 0; j < m; ++j) {
      if (ra[j] < rb[j]) return true;
      if (rb[j] < ra[j]) return false;
    }
    return a < b;
  });

  // Rows copied in processing order, so the dominance scans below read one
  // contiguous buffer: sorted row p is view row order[p].
  std::vector<double> sorted(n * m);
  for (std::size_t p = 0; p < n; ++p) {
    std::copy_n(rows.row(order[p]), m, sorted.data() + p * m);
  }

  // Fronts as linked lists walked newest member first, because lex-close
  // members are the likeliest dominators (the standard ENS heuristic):
  // newest[f] is front f's last-placed sorted row, older[p] the sorted row
  // placed into p's front just before p.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> newest;
  std::vector<std::size_t> older(n, kNone);
  const auto front_dominates = [&](std::size_t front, const double* row) {
    for (std::size_t q = newest[front]; q != kNone; q = older[q]) {
      if (dominates_row(sorted.data() + q * m, row, m)) return true;
    }
    return false;
  };
  for (std::size_t p = 0; p < n; ++p) {
    // Smallest k with no dominator in front k; "has a dominator" is true on
    // a prefix of fronts (transitivity), so binary search applies.
    const double* row = sorted.data() + p * m;
    std::size_t lo = 0;
    std::size_t hi = newest.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (front_dominates(mid, row)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == newest.size()) newest.push_back(kNone);
    older[p] = newest[lo];
    newest[lo] = p;
    rank.data()[order[p]] = static_cast<int>(lo);
  }
  return newest.size();
}

std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Objectives>& points) {
  const FlatRows flat(points);
  std::vector<int> rank(points.size());
  const std::size_t count = non_dominated_ranks(flat.view(), Span<int>(rank));
  // Bucket by ascending original index (the public ordering contract).
  std::vector<std::vector<std::size_t>> fronts(count);
  for (std::size_t i = 0; i < points.size(); ++i) {
    fronts[static_cast<std::size_t>(rank[i])].push_back(i);
  }
  return fronts;
}

std::vector<std::vector<std::size_t>> fast_non_dominated_sort_baseline(
    const std::vector<Objectives>& points) {
  const std::size_t n = points.size();
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts;

  std::vector<std::size_t> first;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (dominates(points[p], points[q])) {
        dominated_by[p].push_back(q);
      } else if (dominates(points[q], points[p])) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) first.push_back(p);
  }
  fronts.push_back(std::move(first));

  while (!fronts.back().empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t p : fronts.back()) {
      for (const std::size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) next.push_back(q);
      }
    }
    fronts.push_back(std::move(next));
  }
  fronts.pop_back();  // drop the trailing empty front
  return fronts;
}

void crowding_distances(const ObjectiveRows& front, Span<double> dist) {
  const std::size_t n = front.size();
  SEGA_EXPECTS(dist.size() == n);
  std::fill(dist.begin(), dist.end(), 0.0);
  if (n == 0) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double* d = dist.data();

  // Per objective the values are gathered into key[] first; the comparator
  // sees exactly the values a sort over the rows would.
  std::vector<std::size_t> order(n);
  std::vector<double> key(n);
  for (std::size_t obj = 0; obj < front.stride; ++obj) {
    for (std::size_t i = 0; i < n; ++i) key[i] = front.row(i)[obj];
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
    d[order.front()] = kInf;
    d[order.back()] = kInf;
    const double span = key[order.back()] - key[order.front()];
    if (span <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      d[order[i]] += (key[order[i + 1]] - key[order[i - 1]]) / span;
    }
  }
}

std::vector<double> crowding_distances(const std::vector<Objectives>& front) {
  const FlatRows flat(front);
  std::vector<double> dist(front.size());
  crowding_distances(flat.view(), Span<double>(dist));
  return dist;
}

double hypervolume_2d(const std::vector<Objectives>& front,
                      const Objectives& ref) {
  SEGA_EXPECTS(ref.size() == 2);
  std::vector<Objectives> pts;
  for (const auto& p : front) {
    SEGA_EXPECTS(p.size() == 2);
    if (p[0] < ref[0] && p[1] < ref[1]) pts.push_back(p);
  }
  if (pts.empty()) return 0.0;
  std::sort(pts.begin(), pts.end());
  double volume = 0.0;
  double prev_y = ref[1];
  for (const auto& p : pts) {
    if (p[1] < prev_y) {
      volume += (ref[0] - p[0]) * (prev_y - p[1]);
      prev_y = p[1];
    }
  }
  return volume;
}

double hypervolume_monte_carlo(const std::vector<Objectives>& front,
                               const Objectives& ref, int samples,
                               std::uint64_t seed) {
  SEGA_EXPECTS(samples > 0);
  if (front.empty()) return 0.0;
  const std::size_t m = ref.size();

  // Bounding box: [component-wise ideal, ref].
  Objectives ideal = front[0];
  for (const auto& p : front) {
    SEGA_EXPECTS(p.size() == m);
    for (std::size_t i = 0; i < m; ++i) ideal[i] = std::min(ideal[i], p[i]);
  }
  double box = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double side = ref[i] - ideal[i];
    if (side <= 0.0) return 0.0;
    box *= side;
  }

  Rng rng(seed);
  int dominated = 0;
  Objectives sample(m);
  for (int s = 0; s < samples; ++s) {
    for (std::size_t i = 0; i < m; ++i) {
      sample[i] = ideal[i] + rng.uniform() * (ref[i] - ideal[i]);
    }
    for (const auto& p : front) {
      bool dom = true;
      for (std::size_t i = 0; i < m; ++i) {
        if (p[i] > sample[i]) {
          dom = false;
          break;
        }
      }
      if (dom) {
        ++dominated;
        break;
      }
    }
  }
  return box * static_cast<double>(dominated) / static_cast<double>(samples);
}

}  // namespace sega
