#include "dse/nsga2.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "util/assert.h"
#include "util/threadpool.h"

namespace sega {

namespace {

struct Genome {
  int n_exp = 0;
  int h_exp = 0;
  std::int64_t k = 1;
};

/// Dense ids of the in-range genomes of a space (a few thousand at most),
/// ascending in (n_exp, h_exp, k) lexicographic order.  Crossover and
/// clamped mutation of in-range genomes stay in range, so every genome the
/// optimizer handles has an id.
class GenomeIds {
 public:
  explicit GenomeIds(const DesignSpace& space)
      : min_n_(space.min_n_exp()),
        min_h_(space.min_h_exp()),
        h_count_(space.max_h_exp() - space.min_h_exp() + 1),
        k_count_(space.max_k()),
        size_(static_cast<std::size_t>(space.max_n_exp() - min_n_ + 1) *
              static_cast<std::size_t>(h_count_) *
              static_cast<std::size_t>(k_count_)) {}

  std::size_t size() const { return size_; }

  std::int32_t id(const Genome& g) const {
    const std::int64_t id =
        (static_cast<std::int64_t>(g.n_exp - min_n_) * h_count_ +
         (g.h_exp - min_h_)) *
            k_count_ +
        (g.k - 1);
    SEGA_ASSERT(id >= 0 && static_cast<std::size_t>(id) < size_);
    return static_cast<std::int32_t>(id);
  }

  Genome genome(std::int32_t id) const {
    Genome g;
    g.k = id % k_count_ + 1;
    const std::int64_t nh = id / k_count_;
    g.h_exp = static_cast<int>(nh % h_count_) + min_h_;
    g.n_exp = static_cast<int>(nh / h_count_) + min_n_;
    return g;
  }

 private:
  int min_n_;
  int min_h_;
  std::int64_t h_count_;
  std::int64_t k_count_;
  std::size_t size_;
};

/// Local repair: if the exact genome is infeasible (derived L not integral
/// or out of range), walk outward over neighbouring (n,h) exponents until a
/// feasible decode is found and move @p g there.  False when none is.
bool repair(const DesignSpace& space, Genome* g) {
  if (space.decode(g->n_exp, g->h_exp, g->k)) return true;
  for (int radius = 1; radius <= 4; ++radius) {
    for (int dn = -radius; dn <= radius; ++dn) {
      for (int dh = -radius; dh <= radius; ++dh) {
        if (std::max(std::abs(dn), std::abs(dh)) != radius) continue;
        const int ne = g->n_exp + dn;
        const int he = g->h_exp + dh;
        if (space.decode(ne, he, g->k)) {
          g->n_exp = ne;
          g->h_exp = he;
          return true;
        }
      }
    }
  }
  return false;
}

Genome random_genome(const DesignSpace& space, Rng& rng) {
  Genome g;
  g.n_exp = static_cast<int>(
      rng.uniform_int(space.min_n_exp(), space.max_n_exp()));
  g.h_exp = static_cast<int>(
      rng.uniform_int(space.min_h_exp(), space.max_h_exp()));
  g.k = rng.uniform_int(1, space.max_k());
  return g;
}

/// A population member: a repaired genome, the archive row of its
/// objectives, and its NSGA-II rank and crowding distance.
struct Individual {
  std::int32_t id = 0;
  std::size_t row = 0;
  int rank = 0;
  double crowding = 0.0;
};

/// Binary tournament on (rank, crowding).
const Individual& tournament(const std::vector<Individual>& pop, Rng& rng) {
  const auto pick = [&]() -> const Individual& {
    return pop[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
  };
  const Individual& a = pick();
  const Individual& b = pick();
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

Genome crossover(const Genome& a, const Genome& b, Rng& rng) {
  // Uniform per-gene crossover — genes are weakly coupled through the
  // derived-L constraint, so gene exchange explores well.
  Genome child;
  child.n_exp = rng.chance(0.5) ? a.n_exp : b.n_exp;
  child.h_exp = rng.chance(0.5) ? a.h_exp : b.h_exp;
  child.k = rng.chance(0.5) ? a.k : b.k;
  return child;
}

void mutate(Genome* g, const DesignSpace& space, double per_gene_prob,
            Rng& rng) {
  if (rng.chance(per_gene_prob)) {
    g->n_exp += rng.chance(0.5) ? 1 : -1;
    g->n_exp = std::clamp(g->n_exp, space.min_n_exp(), space.max_n_exp());
  }
  if (rng.chance(per_gene_prob)) {
    g->h_exp += rng.chance(0.5) ? 1 : -1;
    g->h_exp = std::clamp(g->h_exp, space.min_h_exp(), space.max_h_exp());
  }
  if (rng.chance(per_gene_prob)) {
    // k mixes small steps with occasional uniform resets to jump between
    // divisor regimes.
    if (rng.chance(0.3)) {
      g->k = rng.uniform_int(1, space.max_k());
    } else {
      g->k += rng.chance(0.5) ? 1 : -1;
      g->k = std::clamp<std::int64_t>(g->k, 1, space.max_k());
    }
  }
}

/// The state of one run: the per-genome repair and archive tables, the
/// elitist archive of every distinct repaired genome evaluated (the returned
/// front is its non-dominated subset, so no generation's information is
/// lost), and reusable ranking scratch.
class Nsga2Run {
 public:
  Nsga2Run(const DesignSpace& space, const BatchObjectiveFn& objective,
           ThreadPool& pool, Nsga2Stats* stats)
      : space_(space),
        ids_(space),
        genomes_(ids_.size()),
        objective_(objective),
        pool_(pool),
        stats_(stats) {}

  const GenomeIds& ids() const { return ids_; }

  /// Id of @p g after repair, or -1 when it is infeasible even after repair.
  /// repair() consumes no randomness, so memoizing it per genome leaves the
  /// RNG stream untouched.
  std::int32_t repaired(const Genome& g) {
    Entry& e = genomes_[static_cast<std::size_t>(ids_.id(g))];
    if (e.repaired == kUnknown) {
      Genome r = g;
      e.repaired = repair(space_, &r) ? ids_.id(r) : kInfeasible;
    }
    return e.repaired;
  }

  /// Evaluate the ids of @p batch not yet archived — deduplicated in
  /// first-occurrence order, decoded contiguously, evaluated in pool-chunked
  /// batches and archived in that same fixed order, so archive contents and
  /// stats->evaluations are bit-identical for every thread count and
  /// chunking — and return the batch as individuals.
  std::vector<Individual> fold(const std::vector<std::int32_t>& batch) {
    std::vector<std::int32_t> cold_ids;
    for (const std::int32_t id : batch) {
      Entry& e = genomes_[static_cast<std::size_t>(id)];
      if (e.slot != kNoSlot) continue;
      e.slot = kPending;
      cold_ids.push_back(id);
    }
    std::vector<DesignPoint> cold;
    cold.reserve(cold_ids.size());
    for (const std::int32_t id : cold_ids) cold.push_back(decode(id));
    std::vector<Objectives> results(cold.size());
    pool_.parallel_for_chunks(
        cold.size(), kDseEvalChunk, [&](std::size_t begin, std::size_t end) {
          objective_(Span<const DesignPoint>(cold.data() + begin, end - begin),
                     Span<Objectives>(results.data() + begin, end - begin));
        });
    for (std::size_t j = 0; j < cold_ids.size(); ++j) {
      const Objectives& o = results[j];
      if (stride_ == 0) stride_ = o.size();
      SEGA_EXPECTS(!o.empty() && o.size() == stride_);
      genomes_[static_cast<std::size_t>(cold_ids[j])].slot =
          static_cast<std::int32_t>(archive_ids_.size());
      archive_ids_.push_back(cold_ids[j]);
      archive_rows_.insert(archive_rows_.end(), o.begin(), o.end());
      ++stats_->evaluations;
    }

    std::vector<Individual> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i].id = batch[i];
      out[i].row = static_cast<std::size_t>(
          genomes_[static_cast<std::size_t>(batch[i])].slot);
    }
    return out;
  }

  /// Assign ranks and crowding to @p pop in place.  Ranks come from one
  /// ENS-BS pass over the population's distinct archive rows (copies share a
  /// front).
  void rank(std::vector<Individual>* pop) {
    local_.resize(archive_ids_.size(), kNoLocal);
    distinct_.clear();
    for (const Individual& ind : *pop) {
      if (local_[ind.row] != kNoLocal) continue;
      local_[ind.row] = distinct_.size();
      distinct_.push_back(ind.row);
    }
    distinct_rank_.resize(distinct_.size());
    non_dominated_ranks(view(distinct_), Span<int>(distinct_rank_));
    for (Individual& ind : *pop) ind.rank = distinct_rank_[local_[ind.row]];
    for (const std::size_t row : distinct_) local_[row] = kNoLocal;
    crowd(pop);
  }

  /// Recompute crowding for the ranks already in @p pop: over every member
  /// of each front, listed in ascending population index, exactly as a
  /// per-individual sort would.  Environmental selection keeps whole fronts
  /// 0..r-1 and part of front r, and every dominator of a front-f member
  /// lies in a front < f, so the survivors' ranks are already their ranks
  /// among themselves and only their crowding changes.
  void crowd(std::vector<Individual>* pop) {
    int fronts = 0;
    for (const Individual& ind : *pop) fronts = std::max(fronts, ind.rank + 1);
    for (int f = 0; f < fronts; ++f) {
      members_.clear();
      front_rows_.clear();
      for (std::size_t i = 0; i < pop->size(); ++i) {
        if ((*pop)[i].rank != f) continue;
        members_.push_back(i);
        front_rows_.push_back((*pop)[i].row);
      }
      crowding_.resize(members_.size());
      crowding_distances(view(front_rows_), Span<double>(crowding_));
      for (std::size_t j = 0; j < members_.size(); ++j) {
        (*pop)[members_[j]].crowding = crowding_[j];
      }
    }
  }

  /// The non-dominated subset of the archive, in ascending genome id order.
  std::vector<DesignPoint> front() const {
    std::vector<std::size_t> rows;
    rows.reserve(archive_ids_.size());
    for (const Entry& e : genomes_) {
      if (e.slot >= 0) rows.push_back(static_cast<std::size_t>(e.slot));
    }
    std::vector<int> ranks(rows.size());
    non_dominated_ranks(view(rows), Span<int>(ranks));
    std::vector<DesignPoint> out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (ranks[i] == 0) out.push_back(decode(archive_ids_[rows[i]]));
    }
    return out;
  }

 private:
  static constexpr std::int32_t kUnknown = -2;     ///< repair not computed
  static constexpr std::int32_t kInfeasible = -1;  ///< no feasible repair
  static constexpr std::int32_t kNoSlot = -1;      ///< not archived
  static constexpr std::int32_t kPending = -2;     ///< queued in this fold
  static constexpr std::size_t kNoLocal = static_cast<std::size_t>(-1);

  struct Entry {
    std::int32_t repaired = kUnknown;
    std::int32_t slot = kNoSlot;
  };

  DesignPoint decode(std::int32_t id) const {
    const Genome g = ids_.genome(id);
    const auto dp = space_.decode(g.n_exp, g.h_exp, g.k);
    SEGA_ASSERT(dp.has_value());
    return *dp;
  }

  ObjectiveRows view(const std::vector<std::size_t>& rows) const {
    return {archive_rows_.data(), stride_, Span<const std::size_t>(rows)};
  }

  const DesignSpace& space_;
  GenomeIds ids_;
  std::vector<Entry> genomes_;  ///< by genome id
  const BatchObjectiveFn& objective_;
  ThreadPool& pool_;
  Nsga2Stats* stats_;

  // Archive: objective rows (stride_ doubles each) and their genome ids, in
  // evaluation order.
  std::size_t stride_ = 0;
  std::vector<double> archive_rows_;
  std::vector<std::int32_t> archive_ids_;

  // rank() and crowd() scratch, reused across calls.
  std::vector<std::size_t> local_;  ///< by archive row: index in distinct_
  std::vector<std::size_t> distinct_;
  std::vector<int> distinct_rank_;
  std::vector<std::size_t> members_;
  std::vector<std::size_t> front_rows_;
  std::vector<double> crowding_;
};

}  // namespace

std::vector<DesignPoint> nsga2_optimize(const DesignSpace& space,
                                        const ObjectiveFn& objective,
                                        const Nsga2Options& options,
                                        Nsga2Stats* stats) {
  SEGA_EXPECTS(objective != nullptr);
  const BatchObjectiveFn batched = [&objective](Span<const DesignPoint> points,
                                                Span<Objectives> out) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      out[i] = objective(points[i]);
    }
  };
  return nsga2_optimize(space, batched, options, stats);
}

std::vector<DesignPoint> nsga2_optimize(const DesignSpace& space,
                                        const BatchObjectiveFn& objective,
                                        const Nsga2Options& options,
                                        Nsga2Stats* stats) {
  SEGA_EXPECTS(options.population >= 4);
  SEGA_EXPECTS(options.generations >= 1);
  Rng rng(options.seed);
  Nsga2Stats local_stats;
  if (!stats) stats = &local_stats;

  // Default to the shared pool (one set of workers per process); a private
  // pool only for an explicit thread-count override.  A size-1 pool spawns
  // no workers and parallel_for runs inline, so the serial path is free.
  std::unique_ptr<ThreadPool> owned;
  if (options.threads > 0) owned = std::make_unique<ThreadPool>(options.threads);
  ThreadPool& pool = owned ? *owned : ThreadPool::global();

  Nsga2Run run(space, objective, pool, stats);
  const GenomeIds& ids = run.ids();

  // --- initial population ---
  std::vector<std::int32_t> init;
  for (int attempts = 0;
       static_cast<int>(init.size()) < options.population &&
       attempts < options.population * 64;
       ++attempts) {
    const std::int32_t id = run.repaired(random_genome(space, rng));
    if (id >= 0) init.push_back(id);
  }
  if (init.empty()) return {};
  std::vector<Individual> pop = run.fold(init);
  run.rank(&pop);

  // --- generational loop ---
  std::vector<std::int32_t> batch;
  for (int gen = 0; gen < options.generations; ++gen) {
    batch.clear();
    while (batch.size() < pop.size()) {
      const Individual& p1 = tournament(pop, rng);
      const Individual& p2 = tournament(pop, rng);
      const Genome g1 = ids.genome(p1.id);
      Genome child = rng.chance(options.crossover_prob)
                         ? crossover(g1, ids.genome(p2.id), rng)
                         : g1;
      mutate(&child, space, options.mutation_prob, rng);
      const std::int32_t id = run.repaired(child);
      if (id >= 0) {
        batch.push_back(id);
      } else {
        // Infeasible even after repair: inject a random immigrant to keep
        // population pressure up.
        const std::int32_t imm = run.repaired(random_genome(space, rng));
        if (imm >= 0) batch.push_back(imm);
      }
    }
    std::vector<Individual> offspring = run.fold(batch);

    // Environmental selection over parents + offspring.
    std::vector<Individual> merged = std::move(pop);
    merged.insert(merged.end(), offspring.begin(), offspring.end());
    run.rank(&merged);
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Individual& a, const Individual& b) {
                       if (a.rank != b.rank) return a.rank < b.rank;
                       return a.crowding > b.crowding;
                     });
    merged.resize(std::min(merged.size(),
                           static_cast<std::size_t>(options.population)));
    pop = std::move(merged);
    run.crowd(&pop);
    ++stats->generations_run;
  }

  // --- extract the non-dominated subset of everything evaluated ---
  return run.front();
}

}  // namespace sega
