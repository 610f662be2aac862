// Pure helpers of the benchmark: seeded shuffling, latency summaries,
// operation counting and the time-accounting arithmetic. No simulator dependency, so the unit
// tests build them alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64 step: advances `state` and returns the next value.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Fisher-Yates shuffle driven by `seed` (same seed, same order on every
/// platform, unlike std::shuffle).
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[splitmix64(seed) % i]);
  }
}

/// Median and tail of a latency sample set.
///
/// The tail is the highest percentile, at most the 95th, that still has at
/// least ten samples beyond it (nearest-rank). Below twenty samples that
/// percentile would not lie above the median, so the tail is the maximum;
/// `tail_pct` says which percentile was reported so a reader can tell.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< percentile of `tail`, e.g. 95 or 100 (max)
};

/// Samples that must lie strictly beyond the reported tail percentile.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample set;
/// `pct` in (0, 100].
double nearest_rank(const std::vector<double>& sorted, double pct);

/// 1-based rank of the tail sample among `n` sorted samples.
std::size_t tail_rank(std::size_t n);

/// Percentile reported as the tail for `n` samples (see LatencySummary).
double tail_percentile(std::size_t n);

/// Summarise `samples` (any order). An empty set gives all zeros.
LatencySummary summarize(std::vector<double> samples);

/// Median of `v` (any order); 0 for an empty set.
double median(std::vector<double> v);

/// Operations of one run and how they ended. Every attempted operation is
/// exactly one of ok, failed (error answer or exception), refused
/// (`queue_full` backpressure) or wrong (answered, but the output check
/// rejected it).
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;

  /// Operations that did not produce a correct answer.
  [[nodiscard]] std::uint64_t not_ok() const {
    return failed + refused + wrong;
  }
  /// not_ok / attempted; 0 when nothing was attempted.
  [[nodiscard]] double fail_ratio() const;
  /// 1 - fail_ratio: the end-to-end metric, which is never 0 on a
  /// working benchmark (a ratio that is 0 on every good run cannot carry
  /// a relative regression bound).
  [[nodiscard]] double ok_ratio() const { return 1.0 - fail_ratio(); }
  OpCounts& operator+=(const OpCounts& o);
};

/// Time accounting of one runlab batch against its single-threaded layer
/// replay. All times in ms.
struct BatchAccounting {
  double wall_ms = 0.0;     ///< batch wall time at the run_jobs boundary
  std::size_t workers = 1;  ///< worker threads of the batch
  double busy_ms = 0.0;     ///< sum of job latencies seen at the boundary
  double arena_ms = 0.0;    ///< replay: workload::materialize
  double warmup_ms = 0.0;   ///< replay: sim::make_warmup_snapshot
  double measure_ms = 0.0;  ///< replay: sim::run_from_snapshot
};

/// Worker time the batch spent outside any job: workers * wall - busy
/// (pool start-up, dispatch, and workers idle at the tail).
double runlab_overhead_ms(const BatchAccounting& a);

/// Share of worker time doing the replayed layer work:
/// (arena + warmup + measure) / (workers * wall).
double runlab_utilization(const BatchAccounting& a);

/// Percent of the batch's worker time that neither the replayed layers
/// (arena + warmup + measure) nor the runlab overhead cover:
/// 100 * (workers*wall - overhead - arena - warmup - measure) /
/// (workers*wall). Contention between workers and waits on shared
/// arenas land here. 0 when the wall time is 0.
double unaccounted_pct(const BatchAccounting& a);

}  // namespace perfbench
