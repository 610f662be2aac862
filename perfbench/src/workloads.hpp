// The three workloads. Each returns once it has measured for
// Options::seconds (at least one round), checked its outputs and, on
// traced runs, made the per-layer pass. With Options::setup_probe it
// returns right after set-up, with only ready_ns filled in.
#pragma once

#include "common.hpp"

namespace perfbench {

/// fig1-grid: the Figure-1 grid through runlab::run_jobs, 2 workers.
RunResult run_fig1_grid(const Options& o, Tracer& tr);
/// long-run: one long mcf run on the cold Simulator::run path.
RunResult run_long_run(const Options& o, Tracer& tr);
/// serve-mixed: in-process ppf_serve under a closed loop of 3 connections.
RunResult run_serve_mixed(const Options& o, Tracer& tr);

/// End-to-end metrics every workload reports besides setup_s: the paper
/// error of the model, computed from Figure-1 grid results.
void paper_metrics(const std::vector<runlab::JobResult>& grid, RunResult& out);

/// The Figure-1 grid run untimed on the check threads (workloads that do
/// not time the grid still report the model's paper error).
std::vector<runlab::JobResult> untimed_grid(std::uint64_t sim_seed,
                                            RunResult& out);

/// Latency summary metrics `<prefix>_p50<unit>` / `<prefix>_p95<unit>`,
/// plus a note with the sample count and the tail percentile used.
void latency_metrics(const std::string& prefix, const std::string& unit,
                     const std::vector<double>& samples, RunResult& out);

/// " v1 v2 ..." with six significant digits, for note lines.
std::string list_values(const std::vector<double>& v);

/// 100 * (median traced / median untraced - 1) over alternating rounds.
double trace_overhead_pct(const std::vector<double>& traced,
                          const std::vector<double>& untraced);

/// Whether round `r` of a traced run records spans (alternate rounds do
/// not, so the run can compare the two).
inline bool traced_round(const Options& o, std::size_t r) {
  return o.trace && r % 2 == 0;
}

/// Keep measuring: the time budget is not spent, or a traced run has not
/// yet seen both a traced and an untraced round.
bool more_rounds(const Options& o, Clock::time_point start, std::size_t done);

}  // namespace perfbench
