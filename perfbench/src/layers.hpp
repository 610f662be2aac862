// The traced run's per-layer pass, shared by every workload.
//
// Given a workload's distinct jobs, their reference results and the
// captured filter streams of its cold checks, it times each layer through
// that layer's public API, one layer at a time:
//   workload  workload::materialize per distinct trace
//   sim       sim::make_warmup_snapshot / sim::run_from_snapshot per job
//   mem       sim::MemoryHierarchy driven with each trace's loads/stores
//   filter    the captured admit/feedback stream replayed into a fresh
//             registry filter
//   runlab    runlab::run_jobs over the jobs (2 workers)
//   serve     serve::Service::handle over the request list; workloads
//             without TCP traffic of their own send their configs twice
//             (misses, then memo hits), both through handle() and over
//             loopback TCP
// and sums the simulated statistics (core, mem, prefetch, filter) of the
// reference results. Every layer result is checked against the reference.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve_harness.hpp"

namespace perfbench {

/// Client-side serve traffic a workload already measured over TCP.
struct ServeTraffic {
  /// Per answered request: client latency minus the daemon's own Request
  /// span for it (transport, parsing and connection-thread time).
  std::vector<double> wire_ms;
  double memo_hits = 0.0;
  double memo_misses = 0.0;
  double memo_inserts = 0.0;
  double rejected = 0.0;
  /// Add one daemon's counters (service_counters) to the totals.
  void add_counters(const std::map<std::string, double>& c) {
    memo_hits += c.at("serve.memo_hits");
    memo_misses += c.at("serve.memo_misses");
    memo_inserts += c.at("serve.memo_inserts");
    rejected += c.at("serve.rejected_queue_full");
  }
};

struct LayerInput {
  std::vector<runlab::Job> jobs;             ///< distinct jobs
  std::vector<sim::SimResult> reference;     ///< results of `jobs`
  std::vector<runlab::Job> cold_jobs;        ///< the cold checks
  const std::vector<ColdRun>* cold = nullptr;  ///< their runs + captures
  std::vector<LoopRequest> requests;         ///< serve request list
  const ServeTraffic* tcp = nullptr;         ///< null: measure it here
  double trace_overhead_pct = 0.0;           ///< from the timed loop
};

/// Run the per-layer pass and append every per-layer metric to `out`.
void layer_metrics(const LayerInput& in, Tracer& tr, RunResult& out);

}  // namespace perfbench
