// Tests of the benchmark's own helpers: the serve-mixed request list, the
// latency percentile rule, operation counting and the time accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "servemix.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

std::vector<std::string> configs_of(const std::vector<MixStep>& steps,
                                    const std::vector<CatalogItem>& items) {
  std::vector<std::string> out;
  for (const MixStep& s : steps) {
    out.push_back(items[s.item].config + "#" + std::to_string(s.copies));
  }
  return out;
}

}  // namespace

TEST(ServeMix, SameSeedGivesSameRequestList) {
  const MixShape shape;
  const auto items = serve_catalog(shape);
  EXPECT_EQ(configs_of(make_serve_mix(11, shape), items),
            configs_of(make_serve_mix(11, shape), items));
  EXPECT_NE(configs_of(make_serve_mix(11, shape), items),
            configs_of(make_serve_mix(12, shape), items));
}

TEST(ServeMix, EverySeedSendsTheSameDistinctConfigs) {
  const MixShape shape;
  const auto items = serve_catalog(shape);
  std::set<std::string> first;
  for (const MixStep& s : make_serve_mix(1, shape)) {
    first.insert(items[s.item].config);
  }
  EXPECT_EQ(first.size(), items.size());
  for (std::uint64_t seed = 2; seed < 20; ++seed) {
    std::set<std::string> mine;
    for (const MixStep& s : make_serve_mix(seed, shape)) {
      mine.insert(items[s.item].config);
    }
    EXPECT_EQ(mine, first) << "seed " << seed;
  }
}

TEST(ServeMix, MissesFollowTheirPrerequisiteAndHitsTrailTheirFirstSend) {
  const MixShape shape;
  const auto items = serve_catalog(shape);
  for (std::uint64_t seed = 1; seed < 20; ++seed) {
    const auto steps = make_serve_mix(seed, shape);
    std::vector<long> first_at(items.size(), -1);
    std::size_t misses = 0;
    std::size_t hit_requests = 0;
    std::size_t miss_requests = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const MixStep& s = steps[i];
      if (s.kind == MixKind::Hit) {
        ASSERT_GE(first_at[s.item], 0) << "hit before first send";
        EXPECT_GE(i, static_cast<std::size_t>(first_at[s.item]) + kHitLag);
        EXPECT_EQ(s.copies, 1u);
        hit_requests += 1;
        continue;
      }
      ASSERT_EQ(first_at[s.item], -1) << "config sent twice as a miss";
      const int pre = items[s.item].prereq;
      if (pre >= 0) {
        EXPECT_GE(first_at[static_cast<std::size_t>(pre)], 0)
            << items[s.item].config << " before its prerequisite";
      }
      EXPECT_EQ(s.kind, items[s.item].kind);
      EXPECT_EQ(s.copies,
                s.kind == MixKind::Burst ? shape.connections : std::size_t{1});
      first_at[s.item] = static_cast<long>(i);
      ++misses;
      miss_requests += s.copies;
    }
    EXPECT_EQ(misses, items.size());
    // About half the requests are repeats.
    EXPECT_EQ(hit_requests, miss_requests);
  }
}

TEST(ServeMix, CatalogueCoversEveryMissKind) {
  const auto items = serve_catalog(MixShape{});
  for (MixKind k : {MixKind::Resume, MixKind::NewSnapshot, MixKind::NewArena,
                    MixKind::Burst}) {
    EXPECT_TRUE(std::any_of(items.begin(), items.end(),
                            [&](const CatalogItem& c) { return c.kind == k; }))
        << to_string(k);
  }
  // A resume differs from its prerequisite only in instructions=.
  for (const CatalogItem& c : items) {
    if (c.kind != MixKind::Resume) continue;
    const CatalogItem& base = items[static_cast<std::size_t>(c.prereq)];
    const auto strip = [](std::string s) {
      return s.substr(0, s.find(" instructions="));
    };
    EXPECT_EQ(strip(c.config), strip(base.config));
    EXPECT_LT(c.instructions, base.instructions);
    EXPECT_GT(c.instructions, MixShape{}.warmup);
  }
}

TEST(Percentile, TailIsHighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(5), 100.0);
  EXPECT_DOUBLE_EQ(tail_percentile(10), 100.0);
  EXPECT_DOUBLE_EQ(tail_percentile(19), 100.0);
  EXPECT_NEAR(tail_percentile(20), 50.0, 1e-12);
  EXPECT_NEAR(tail_percentile(40), 75.0, 1e-12);
  EXPECT_NEAR(tail_percentile(100), 90.0, 1e-12);
  EXPECT_DOUBLE_EQ(tail_percentile(200), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(10000), 95.0);
  for (std::size_t n = 20; n < 400; ++n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    const LatencySummary s = summarize(v);
    const auto beyond = static_cast<std::size_t>(std::count_if(
        v.begin(), v.end(), [&](double x) { return x > s.tail; }));
    EXPECT_GE(beyond, kTailSamplesBeyond) << "n=" << n;
    EXPECT_EQ(s.samples, n);
  }
}

TEST(Percentile, SummaryOfSmallAndEmptySets) {
  const LatencySummary s = summarize({5.0, 1.0, 3.0});
  EXPECT_EQ(s.samples, 3u);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.tail, 5.0);
  EXPECT_DOUBLE_EQ(s.tail_pct, 100.0);
  const LatencySummary e = summarize({});
  EXPECT_EQ(e.samples, 0u);
  EXPECT_DOUBLE_EQ(e.p50, 0.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(OpCounting, FailRatioCountsFailedRefusedAndWrong) {
  OpCounts c;
  EXPECT_DOUBLE_EQ(c.fail_ratio(), 0.0);
  c.attempted = 200;
  c.failed = 1;
  c.refused = 2;
  c.wrong = 1;
  EXPECT_EQ(c.not_ok(), 4u);
  EXPECT_DOUBLE_EQ(c.fail_ratio(), 0.02);
  EXPECT_DOUBLE_EQ(c.ok_ratio(), 0.98);
  OpCounts d;
  d.attempted = 200;
  c += d;
  EXPECT_DOUBLE_EQ(c.fail_ratio(), 0.01);
}

TEST(Accounting, UnaccountedIsWorkerTimeNoLayerOrOverheadCovers) {
  BatchAccounting a;
  a.wall_ms = 1000.0;
  a.workers = 2;
  a.busy_ms = 1900.0;  // 100 ms of worker time outside any job
  a.arena_ms = 300.0;
  a.warmup_ms = 500.0;
  a.measure_ms = 900.0;
  EXPECT_DOUBLE_EQ(runlab_overhead_ms(a), 100.0);
  EXPECT_DOUBLE_EQ(runlab_utilization(a), 1700.0 / 2000.0);
  // 2000 worker-ms - 100 overhead - 1700 layers = 200 -> 10%.
  EXPECT_DOUBLE_EQ(unaccounted_pct(a), 10.0);
  // When the layers explain every busy millisecond nothing is left.
  a.measure_ms = 1100.0;
  EXPECT_DOUBLE_EQ(unaccounted_pct(a), 0.0);
  BatchAccounting zero;
  EXPECT_DOUBLE_EQ(unaccounted_pct(zero), 0.0);
}
