// Pareto-dominance utilities: dominance test (eq. (1) of the paper),
// non-dominated filtering, NSGA-II's fast non-dominated sort and crowding
// distance, and hypervolume indicators for comparing explorer quality.
//
// All objective vectors are in *minimization* form.
#pragma once

#include <cstdint>
#include <vector>

#include "util/span.h"

namespace sega {

using Objectives = std::vector<double>;

/// Read-only view of objective rows stored in one contiguous buffer with
/// stride m: view row i is the m doubles at data + index[i] * m.  The
/// NSGA-II inner loop views its archive this way (a population's distinct
/// rows, one front's members) without copying; the std::vector<Objectives>
/// entry points below copy their input into one buffer and view it with the
/// identity index.
struct ObjectiveRows {
  const double* data = nullptr;
  std::size_t stride = 0;         ///< objectives per row (m)
  Span<const std::size_t> index;  ///< buffer row of each view row

  std::size_t size() const { return index.size(); }
  const double* row(std::size_t i) const {
    return data + index.data()[i] * stride;
  }
};

/// Pareto dominance (minimization): u dominates v iff u is no worse in every
/// objective and strictly better in at least one — eq. (1).
bool dominates(const Objectives& u, const Objectives& v);

/// Indices of the non-dominated points among @p points (first Pareto front).
std::vector<std::size_t> non_dominated_indices(
    const std::vector<Objectives>& points);

/// Non-dominated ranks of a row view: rank[i] is the front of view row i
/// (0 = non-dominated, f+1 = non-dominated once fronts 0..f are removed).
/// Returns the number of fronts.  The front of a row depends only on its
/// objective values and the set of values present, so copies of one row
/// share a front and a caller may rank distinct rows only.
///
/// Implementation: ENS-BS (efficient non-dominated sort with binary search,
/// Zhang et al. 2015).  Rows are pre-sorted lexicographically so a row can
/// only be dominated by rows already placed; its front is then found by
/// binary search over the existing fronts (front membership of a placed row
/// is final, and "front k contains a dominator" is monotone in k by
/// dominance transitivity).  The rows are read through the view once, into
/// a contiguous copy in processing order, and each front is a newest-first
/// linked list over that copy, so the pass allocates a handful of flat
/// arrays and skips the O(n^2) dominated-by bookkeeping of the textbook
/// algorithm.
std::size_t non_dominated_ranks(const ObjectiveRows& rows, Span<int> rank);

/// NSGA-II fast non-dominated sort: partitions all points into fronts
/// F1, F2, ... where F1 is non-dominated and Fi+1 is non-dominated once
/// F1..Fi are removed.  Every index appears in exactly one front, and each
/// front lists its indices in ascending order.  A wrapper over
/// non_dominated_ranks.
std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Objectives>& points);

/// Textbook Deb et al. 2002 dominance-count implementation (O(n^2 *
/// objectives) time and memory).  Kept as the reference oracle for
/// equivalence tests and benchmarks; produces the same partition as
/// fast_non_dominated_sort, though later fronts may list indices in a
/// different (traversal) order.
std::vector<std::vector<std::size_t>> fast_non_dominated_sort_baseline(
    const std::vector<Objectives>& points);

/// Crowding distance of each view row within one front (Deb et al. 2002),
/// written to dist[i].  Boundary rows of every objective get +infinity.
/// Per objective the view indices 0..n-1 are ordered by std::sort on the
/// objective value, so ties break the same way for the same sequence of
/// values however the rows are stored.
void crowding_distances(const ObjectiveRows& front, Span<double> dist);

/// Crowding distance of each point within one front: a wrapper over the
/// row-view overload.
std::vector<double> crowding_distances(const std::vector<Objectives>& front);

/// Exact hypervolume for 2-objective fronts w.r.t. reference point @p ref
/// (every point must dominate ref).  Points not dominating ref contribute 0.
double hypervolume_2d(const std::vector<Objectives>& front,
                      const Objectives& ref);

/// Monte-Carlo hypervolume estimate for any dimension: the fraction of the
/// [ideal, ref] box dominated by the front, times the box volume.
/// Deterministic for a given @p seed.
double hypervolume_monte_carlo(const std::vector<Objectives>& front,
                               const Objectives& ref, int samples,
                               std::uint64_t seed);

}  // namespace sega
