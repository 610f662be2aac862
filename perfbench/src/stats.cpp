#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double pct) {
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::size_t tail_rank(std::size_t n) {
  // Below 2 * 10 samples the rule would put the tail under the median.
  if (n < 2 * kTailSamplesBeyond) return n;
  // Nearest rank of the 95th percentile, ceil(0.95 n), lowered until
  // n - rank >= 10 samples lie beyond it. Integer arithmetic: no rounding.
  const std::size_t p95 = (95 * n + 99) / 100;
  return std::min(p95, n - kTailSamplesBeyond);
}

double tail_percentile(std::size_t n) {
  if (n == 0) return 100.0;
  return 100.0 * static_cast<double>(tail_rank(n)) / static_cast<double>(n);
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = nearest_rank(samples, 50.0);
  s.tail_pct = tail_percentile(samples.size());
  s.tail = samples[tail_rank(samples.size()) - 1];
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double OpCounts::fail_ratio() const {
  if (attempted == 0) return 0.0;
  return static_cast<double>(not_ok()) / static_cast<double>(attempted);
}

OpCounts& OpCounts::operator+=(const OpCounts& o) {
  attempted += o.attempted;
  failed += o.failed;
  refused += o.refused;
  wrong += o.wrong;
  return *this;
}

namespace {
double worker_ms(const BatchAccounting& a) {
  return a.wall_ms * static_cast<double>(a.workers);
}
}  // namespace

double runlab_overhead_ms(const BatchAccounting& a) {
  return worker_ms(a) - a.busy_ms;
}

double runlab_utilization(const BatchAccounting& a) {
  const double total = worker_ms(a);
  if (total <= 0.0) return 0.0;
  return (a.arena_ms + a.warmup_ms + a.measure_ms) / total;
}

double unaccounted_pct(const BatchAccounting& a) {
  const double total = worker_ms(a);
  if (total <= 0.0) return 0.0;
  const double covered =
      runlab_overhead_ms(a) + a.arena_ms + a.warmup_ms + a.measure_ms;
  return 100.0 * (total - covered) / total;
}

}  // namespace perfbench
