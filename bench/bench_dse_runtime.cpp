// §IV runtime reproduction: "the MOGA-based design exploration for a
// particular array size and computing precision can be finished in 30
// minutes" on the authors' Xeon server.  Our design space is evaluated with
// closed-form models, so full NSGA-II runs complete in milliseconds; this
// google-benchmark binary reports the actual cost per configuration, plus
// the exhaustive-enumeration baseline.
//
// The serial/parallel pairs measure the ISSUE #1 thread-pool speedup: the
// two paths produce bit-identical Pareto fronts for the same seed (asserted
// on every iteration below and covered by test_dse_parallel_determinism),
// so any delta is pure evaluation concurrency.  Thread counts above
// hardware_concurrency just oversubscribe; run on >= 8 cores to see the
// acceptance-criterion speedup.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "cost/cost_cache.h"
#include "dse/explorer.h"

namespace {

using namespace sega;

void BM_Nsga2(benchmark::State& state, const char* precision_name,
              std::int64_t wstore) {
  const Technology tech = Technology::tsmc28();
  const Precision precision = *precision_from_name(precision_name);
  DesignSpace space(wstore, precision);
  Nsga2Options opt;
  opt.population = 64;
  opt.generations = 48;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    benchmark::DoNotOptimize(explore_nsga2(space, tech, {}, opt));
  }
}

/// One explorer run at a fixed thread count; threads == 1 is the serial
/// baseline for the speedup comparison.
void BM_Nsga2Threads(benchmark::State& state, const char* precision_name,
                     std::int64_t wstore) {
  const Technology tech = Technology::tsmc28();
  const Precision precision = *precision_from_name(precision_name);
  DesignSpace space(wstore, precision);
  Nsga2Options opt;
  opt.population = 64;
  opt.generations = 48;
  opt.threads = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    benchmark::DoNotOptimize(explore_nsga2(space, tech, {}, opt));
  }
}

/// Paranoia-in-the-loop variant: runs serial and parallel at the same seed
/// and aborts if the fronts differ, so a determinism regression cannot hide
/// behind a speedup number.
void BM_Nsga2ParallelChecked(benchmark::State& state,
                             const char* precision_name,
                             std::int64_t wstore) {
  const Technology tech = Technology::tsmc28();
  const Precision precision = *precision_from_name(precision_name);
  DesignSpace space(wstore, precision);
  Nsga2Options serial_opt;
  serial_opt.population = 64;
  serial_opt.generations = 48;
  serial_opt.threads = 1;
  Nsga2Options parallel_opt = serial_opt;
  parallel_opt.threads = 8;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    serial_opt.seed = parallel_opt.seed = seed++;
    const auto a = explore_nsga2(space, tech, {}, serial_opt);
    const auto b = explore_nsga2(space, tech, {}, parallel_opt);
    if (a.size() != b.size()) {
      state.SkipWithError("serial/parallel front size mismatch");
      break;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i].point == b[i].point) ||
          a[i].objectives() != b[i].objectives()) {
        state.SkipWithError("serial/parallel front mismatch");
        return;
      }
    }
    benchmark::DoNotOptimize(b);
  }
}

/// Warm explore: the cost cache is filled with every point of the space
/// before the timed loop, so each iteration (a new seed) times the NSGA-II
/// generation loop over cache hits — the layer a warm `serve` explore
/// request spends its time in.
void BM_Nsga2WarmCache(benchmark::State& state, const char* precision_name,
                       std::int64_t wstore) {
  const Technology tech = Technology::tsmc28();
  const Precision precision = *precision_from_name(precision_name);
  DesignSpace space(wstore, precision);
  CostCache cache(tech);
  for (const auto& dp : space.enumerate_all()) cache.evaluate(dp);
  Nsga2Options opt;
  opt.population = 64;
  opt.generations = 64;
  opt.threads = 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    benchmark::DoNotOptimize(explore_nsga2(space, cache, opt));
  }
}

void BM_Exhaustive(benchmark::State& state, const char* precision_name,
                   std::int64_t wstore) {
  const Technology tech = Technology::tsmc28();
  const Precision precision = *precision_from_name(precision_name);
  DesignSpace space(wstore, precision);
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore_exhaustive(space, tech));
  }
}

BENCHMARK_CAPTURE(BM_Nsga2, int8_8k, "INT8", 8192);
BENCHMARK_CAPTURE(BM_Nsga2, int8_64k, "INT8", 65536);
BENCHMARK_CAPTURE(BM_Nsga2, int8_128k, "INT8", 131072);
BENCHMARK_CAPTURE(BM_Nsga2, bf16_64k, "BF16", 65536);
BENCHMARK_CAPTURE(BM_Nsga2, fp32_64k, "FP32", 65536);
BENCHMARK_CAPTURE(BM_Nsga2Threads, int8_64k, "INT8", 65536)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_Nsga2Threads, fp32_64k, "FP32", 65536)
    ->Arg(1)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_Nsga2ParallelChecked, int8_64k, "INT8", 65536);
BENCHMARK_CAPTURE(BM_Nsga2WarmCache, int8_64k, "INT8", 65536);
BENCHMARK_CAPTURE(BM_Nsga2WarmCache, fp16_16k, "FP16", 16384);
BENCHMARK_CAPTURE(BM_Exhaustive, int8_64k, "INT8", 65536);
BENCHMARK_CAPTURE(BM_Exhaustive, fp32_64k, "FP32", 65536);

}  // namespace
