#include "workloads.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

void paper_metrics(const std::vector<runlab::JobResult>& grid, RunResult& out) {
  const PaperFidelity p = paper_fidelity(grid);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "paper: bad-prefetch share %.2f%% (paper %.0f%%), IPC gain "
                "PA %+.2f%% (paper %+.1f%%), PC %+.2f%% (paper %+.1f%%)",
                p.bad_frac_pct, kPaperBadFracPct, p.gain_pa_pct,
                kPaperGainPaPct, p.gain_pc_pct, kPaperGainPcPct);
  out.notes.emplace_back(buf);
  out.metric("paper_bad_frac_err_pp", p.bad_frac_err_pp, "pp");
  out.metric("paper_ipc_gain_err_pp", p.ipc_gain_err_pp, "pp");
}

std::vector<runlab::JobResult> untimed_grid(std::uint64_t sim_seed,
                                            RunResult& out) {
  Tracer off(Clock::now(), false);
  Batch b = run_batch(grid_jobs(sim_seed), kCheckThreads, nullptr, off, "");
  for (const runlab::JobResult& jr : b.report.results) {
    if (!jr.ok) out.problem("grid job failed: " + jr.error);
  }
  return std::move(b.report.results);
}

void latency_metrics(const std::string& prefix, const std::string& unit,
                     const std::vector<double>& samples, RunResult& out) {
  const LatencySummary s = summarize(samples);
  out.metric(prefix + "_p50_" + unit, s.p50, unit);
  out.metric(prefix + "_p95_" + unit, s.tail, unit);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: %zu samples, p50 %.6g %s, tail p%.1f %.6g %s",
                prefix.c_str(), s.samples, s.p50, unit.c_str(), s.tail_pct,
                s.tail, unit.c_str());
  out.notes.emplace_back(buf);
}

std::string list_values(const std::vector<double>& v) {
  std::string s;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.6g", x);
    s += buf;
  }
  return s;
}

double trace_overhead_pct(const std::vector<double>& traced,
                          const std::vector<double>& untraced) {
  const double base = median(untraced);
  if (traced.empty() || base <= 0.0) return 0.0;
  return 100.0 * (median(traced) / base - 1.0);
}

bool more_rounds(const Options& o, Clock::time_point start, std::size_t done) {
  if (done == 0) return true;
  if (o.trace && done < 2) return true;
  return ms_between(start, Clock::now()) < o.seconds * 1000.0;
}

}  // namespace perfbench
