#include "servemix.hpp"

#include <algorithm>
#include <array>

#include "stats.hpp"

namespace perfbench {

namespace {

// The paper's ten benchmarks (workload::benchmark_names(), Table 2
// order). Kept here so the generator and its tests need no simulator.
constexpr std::array<const char*, 10> kBenchmarks = {
    "bh", "em3d", "perimeter", "ijpeg", "fpppp",
    "gcc", "wave5", "gap", "gzip", "mcf"};

std::string config_string(const std::string& bench, std::uint64_t seed,
                          const std::string& machine,
                          std::uint64_t instructions, std::uint64_t warmup) {
  std::string s = "bench=" + bench + " " + machine +
                  " seed=" + std::to_string(seed) +
                  " instructions=" + std::to_string(instructions) +
                  " warmup=" + std::to_string(warmup);
  return s;
}

}  // namespace

const char* to_string(MixKind k) {
  switch (k) {
    case MixKind::Hit: return "hit";
    case MixKind::Resume: return "resume";
    case MixKind::NewSnapshot: return "new_snapshot";
    case MixKind::NewArena: return "new_arena";
    case MixKind::Burst: return "burst";
  }
  return "?";
}

std::vector<CatalogItem> serve_catalog(const MixShape& shape) {
  std::vector<CatalogItem> items;
  const std::uint64_t full = shape.instructions;
  const auto add = [&](const std::string& bench, std::uint64_t seed,
                       const std::string& machine, std::uint64_t instr,
                       MixKind kind, int prereq) {
    items.push_back({config_string(bench, seed, machine, instr, shape.warmup),
                     kind, prereq, instr});
    return static_cast<int>(items.size()) - 1;
  };
  for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
    const std::string bench = kBenchmarks[b];
    const std::uint64_t seed = shape.sim_seed;
    const int arena =
        add(bench, seed, "filter=none", full, MixKind::NewArena, -1);
    add(bench, seed, "filter=pa", full, MixKind::NewSnapshot, arena);
    const int pc = add(bench, seed, "filter=pc", full, MixKind::NewSnapshot,
                       arena);
    // Resumed windows stay longer than the warmup (or warmup would be
    // inactive) and no longer than the arena.
    add(bench, seed, "filter=pc", full * 3 / 4, MixKind::Resume, pc);
    add(bench, seed, "filter=none", full * 3 / 5, MixKind::Resume, arena);
    add(bench, seed, "filter=pc history_entries=1024", full,
        MixKind::NewSnapshot, arena);
    add(bench, seed, "filter=pa history_entries=1024", full, MixKind::Burst,
        arena);
    // Every other benchmark also gets a second trace (a new arena).
    if (b % 2 == 0) {
      add(bench, seed + 1, "filter=pc", full, MixKind::NewArena, -1);
    }
  }
  return items;
}

std::vector<MixStep> make_serve_mix(std::uint64_t seed, const MixShape& shape) {
  const std::vector<CatalogItem> items = serve_catalog(shape);
  const std::size_t burst_copies = std::max<std::size_t>(shape.connections, 1);
  std::vector<std::vector<std::size_t>> dependents(items.size());
  std::vector<std::size_t> ready;
  std::size_t miss_requests = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].prereq < 0) {
      ready.push_back(i);
    } else {
      dependents[static_cast<std::size_t>(items[i].prereq)].push_back(i);
    }
    miss_requests += items[i].kind == MixKind::Burst ? burst_copies : 1;
  }

  // Uniform in [0, n); n > 0.
  const auto below = [&seed](std::size_t n) {
    return static_cast<std::size_t>(splitmix64(seed) % n);
  };
  std::vector<MixStep> steps;
  std::vector<std::size_t> sent;  // catalogue items in first-send order
  std::vector<std::size_t> sent_at;  // step index of each first send
  std::size_t misses_left = items.size();
  std::size_t hits_left = miss_requests;
  while (misses_left > 0 || hits_left > 0) {
    // Configs first sent at least kHitLag steps ago are hit candidates.
    std::size_t eligible = 0;
    while (eligible < sent.size() &&
           sent_at[eligible] + kHitLag <= steps.size()) {
      ++eligible;
    }
    const bool take_hit =
        hits_left > 0 &&
        (misses_left == 0 ||
         (eligible > 0 &&
          below(hits_left + misses_left) < hits_left));
    if (take_hit) {
      // Only a catalogue shorter than kHitLag can run out of old configs.
      if (eligible == 0) eligible = sent.size();
      steps.push_back({MixKind::Hit, sent[below(eligible)], 1});
      --hits_left;
      continue;
    }
    const std::size_t pick = below(ready.size());
    const std::size_t item = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    for (std::size_t d : dependents[item]) ready.push_back(d);
    const MixKind kind = items[item].kind;
    steps.push_back(
        {kind, item, kind == MixKind::Burst ? burst_copies : std::size_t{1}});
    sent.push_back(item);
    sent_at.push_back(steps.size() - 1);
    --misses_left;
  }
  return steps;
}

}  // namespace perfbench
