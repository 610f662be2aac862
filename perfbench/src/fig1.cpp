// fig1-grid: the paper's Figure-1 grid (10 benchmarks x filter {none, pa,
// pc}, 1M measured + 500K warmup instructions) through runlab::run_jobs
// with arena and snapshot sharing on 2 workers.
//
// One round is a cold batch on a fresh runlab::ExecCache (every arena is
// built and every warmup run, as a ppf_batch user pays) followed by a warm
// batch of the same jobs on the same cache (arena and snapshot hits, as a
// long-lived daemon sees). sim_mips and the cold latencies come from the
// cold batches, the hit latencies from the warm ones.
//
// The seed orders the grid: the benchmarks, and the filters within each
// benchmark. It also picks which filter of each benchmark is re-run cold
// as the output check. The simulated machines never depend on it.
#include <algorithm>
#include <map>

#include "layers.hpp"
#include "workloads.hpp"
#include "workload/benchmarks.hpp"

namespace perfbench {

namespace {

std::vector<runlab::Job> ordered_grid(const Options& o) {
  const std::vector<runlab::Job> canon = grid_jobs(o.sim_seed);
  std::vector<std::string> benches = ppf::workload::benchmark_names();
  std::uint64_t s = o.seed;
  seeded_shuffle(benches, splitmix64(s));
  std::vector<runlab::Job> jobs;
  for (const std::string& b : benches) {
    std::vector<runlab::Job> mine;
    for (const runlab::Job& j : canon) {
      if (j.benchmark == b) mine.push_back(j);
    }
    seeded_shuffle(mine, splitmix64(s));
    for (runlab::Job& j : mine) {
      j.index = jobs.size();
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

double measured_instructions(const runlab::RunReport& rep) {
  double n = 0.0;
  for (const runlab::JobResult& jr : rep.results) {
    if (jr.ok) n += static_cast<double>(jr.result.core.instructions);
  }
  return n;
}

}  // namespace

RunResult run_fig1_grid(const Options& o, Tracer& tr) {
  RunResult out;
  const std::vector<runlab::Job> jobs = ordered_grid(o);
  const Clock::time_point ready = Clock::now();
  out.ready_ns = mono_ns(ready);
  if (o.setup_probe) return out;

  std::vector<double> cold_mips, cold_ms, hit_ms, round_traced, round_plain;
  std::vector<std::string> reference(jobs.size());  // round 0 signatures
  std::vector<runlab::JobResult> first;
  double batch_wall_ms = 0.0;
  double cold_instructions = 0.0;
  double cold_wall_ms = 0.0;
  double rss = 0.0;  // peak RSS after the first round, in a fresh process
  double completed = 0.0;
  for (std::size_t r = 0; more_rounds(o, ready, r); ++r) {
    tr.set_enabled(traced_round(o, r));
    runlab::ExecCache cache;
    const Clock::time_point t0 = Clock::now();
    Batch cold = run_batch(jobs, kWorkers, &cache, tr, "fig1.cold_job");
    Batch warm = run_batch(jobs, kWorkers, &cache, tr, "fig1.warm_job");
    (traced_round(o, r) ? round_traced : round_plain)
        .push_back(ms_between(t0, Clock::now()));

    cold_instructions += measured_instructions(cold.report);
    cold_wall_ms += cold.wall_ms;
    cold_mips.push_back(measured_instructions(cold.report) /
                        (cold.wall_ms * 1000.0));
    batch_wall_ms += cold.wall_ms + warm.wall_ms;
    for (const Batch* b : {&cold, &warm}) {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const runlab::JobResult& jr = b->report.results[i];
        ++out.ops.attempted;
        completed += 1.0;
        if (!jr.ok) {
          ++out.ops.failed;
          out.problem(jr.error);
          continue;
        }
        if (r == 0 && b == &cold) {
          reference[i] = signature(jr.result);
        } else if (signature(jr.result) != reference[i]) {
          ++out.ops.wrong;
          out.problem("result moved between batches: " +
                      job_config_string(jr.job));
        }
        (b == &cold ? cold_ms : hit_ms)
            .push_back(b == &cold ? cold.job_ms[i] : warm.job_ms[i] * 1000.0);
      }
    }
    if (r == 0) {
      first = cold.report.results;
      rss = peak_rss_mb();
    }
  }
  tr.set_enabled(o.trace);
  out.notes.push_back("cold MIPS per round:" + list_values(cold_mips));

  // Output check: one job per benchmark, re-run cold without any runlab
  // sharing, must equal the runlab result bit for bit.
  std::vector<runlab::Job> cold_jobs;
  std::vector<std::size_t> cold_index;
  std::uint64_t s = o.seed ^ 0x5eedc0deULL;
  for (const std::string& b : ppf::workload::benchmark_names()) {
    std::vector<std::size_t> mine;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].benchmark == b) mine.push_back(i);
    }
    const std::size_t pick = mine[splitmix64(s) % mine.size()];
    cold_jobs.push_back(jobs[pick]);
    cold_index.push_back(pick);
  }
  const std::vector<ColdRun> cold_runs = run_cold(cold_jobs);
  for (std::size_t k = 0; k < cold_runs.size(); ++k) {
    const std::string what = job_config_string(cold_jobs[k]);
    if (!cold_runs[k].error.empty()) {
      out.problem("cold run failed: " + what + ": " + cold_runs[k].error);
    } else if (first[cold_index[k]].ok &&
               signature(cold_runs[k].result) !=
                   signature(first[cold_index[k]].result)) {
      out.problem("runlab result differs from a cold Simulator::run: " + what);
    }
  }

  Digest digest;
  std::vector<std::pair<std::string, std::string>> sorted;
  for (const runlab::JobResult& jr : first) {
    sorted.emplace_back(job_config_string(jr.job), signature(jr.result));
  }
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [cfg, sig] : sorted) {
    digest.add(cfg);
    digest.add(sig);
  }
  out.sim_digest = digest.hex();

  if (!o.trace) {
    out.metric("sim_mips", cold_instructions / (cold_wall_ms * 1000.0), "MIPS");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("ok_ratio", out.ops.ok_ratio(), "ratio");
    out.metric("req_per_s", completed / (batch_wall_ms / 1000.0), "1/s");
    latency_metrics("cold", "ms", cold_ms, out);
    latency_metrics("hit", "us", hit_ms, out);
    paper_metrics(first, out);
    return out;
  }

  LayerInput in;
  in.jobs = grid_jobs(o.sim_seed);
  std::map<std::string, const sim::SimResult*> by_cfg;
  for (const runlab::JobResult& jr : first) {
    by_cfg[job_config_string(jr.job)] = &jr.result;
  }
  for (const runlab::Job& j : in.jobs) {
    in.reference.push_back(*by_cfg.at(job_config_string(j)));
    in.requests.push_back({job_config_string(j), 1});
  }
  in.cold_jobs = cold_jobs;
  in.cold = &cold_runs;
  in.trace_overhead_pct = trace_overhead_pct(round_traced, round_plain);
  layer_metrics(in, tr, out);
  return out;
}

}  // namespace perfbench
