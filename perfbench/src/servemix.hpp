// The serve-mixed request list: which configs a closed loop of clients
// sends to an in-process ppf_serve, in which order.
//
// The distinct configs (the catalogue) are fixed by the mix shape alone,
// so every seed simulates exactly the same machines and the workload's
// sim_digest does not depend on the seed. The seed chooses the order: which
// ready miss comes next, where the memo hits fall and which earlier config
// each hit repeats. Ordering constraints keep every miss of the kind it is
// catalogued as:
//   - new arena:    first request for a (benchmark, seed) trace;
//   - new snapshot: new filter / history_entries on a resident arena;
//   - resume:       only instructions= differs from a config already sent,
//                   so the daemon resumes its warmup snapshot;
//   - burst:        a new config sent on every connection at once, so the
//                   daemon sees concurrent identical misses.
// About half the requests repeat a config sent at least kHitLag steps
// earlier, which the daemon answers from its result memo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class MixKind : std::uint8_t { Hit, Resume, NewSnapshot, NewArena, Burst };

const char* to_string(MixKind k);

struct MixShape {
  std::size_t connections = 3;
  std::uint64_t sim_seed = 42;  ///< seed= of the first trace of each benchmark
  std::uint64_t instructions = 100'000;
  std::uint64_t warmup = 50'000;
};

/// One distinct config of the catalogue.
struct CatalogItem {
  std::string config;  ///< ppf_serve run-request config string
  MixKind kind = MixKind::NewArena;
  int prereq = -1;  ///< catalogue index that must be sent first; -1 = none
  std::uint64_t instructions = 0;  ///< measured window of the config
};

/// One step of the closed loop: `copies` identical requests, sent on
/// `copies` connections at once when copies > 1 (bursts).
struct MixStep {
  MixKind kind = MixKind::Hit;
  std::size_t item = 0;  ///< catalogue index of the config
  std::size_t copies = 1;
};

/// Steps a hit must trail the first request of the config it repeats.
inline constexpr std::size_t kHitLag = 6;

/// The catalogue for `shape`; independent of any seed.
std::vector<CatalogItem> serve_catalog(const MixShape& shape);

/// The seeded request order over serve_catalog(shape): every catalogue
/// item exactly once as a miss step (after its prereq), plus as many hit
/// steps as there are miss requests.
std::vector<MixStep> make_serve_mix(std::uint64_t seed, const MixShape& shape);

}  // namespace perfbench
