// long-run: one long `bench=mcf filter=none` run on the cold
// Simulator::run path, the way ppf_sim runs it: materialize the whole trace
// into an arena, then simulate over a cursor. Trace synthesis and arena
// memory (~28 B per instruction) dominate, and the filter does almost
// nothing, so this workload shows arena work (windowed arenas) and should
// not move for a filter optimisation.
//
// Each round runs the job cold (materialize + run: sim_mips and the cold
// latency) and then again over the still-resident arena (run only: the hit
// latency), so the difference is the arena's cost.
//
// The input is fixed; the seed does not change it.
#include "layers.hpp"
#include "workloads.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace perfbench {

namespace {

/// Measured window of the long run; with the 500K warmup the arena holds
/// 4M records (about 115 MB). Long enough for arena work to dominate,
/// short enough for 20+ rounds in a 25-second run, so its latency tails
/// are percentiles rather than a single worst round.
constexpr std::uint64_t kLongInstructions = 3'500'000;

runlab::Job long_job(std::uint64_t sim_seed) {
  runlab::Job job;
  job.benchmark = "mcf";
  job.config = grid_base(sim_seed);
  job.config.max_instructions = kLongInstructions;
  job.config.filter = "none";
  job.filter_name = "none";
  job.seed = sim_seed;
  return job;
}

}  // namespace

RunResult run_long_run(const Options& o, Tracer& tr) {
  RunResult out;
  const runlab::Job job = long_job(o.sim_seed);
  const sim::SimConfig& cfg = job.config;
  const std::uint64_t records = cfg.max_instructions + cfg.warmup_instructions;
  const Clock::time_point ready = Clock::now();
  out.ready_ns = mono_ns(ready);
  if (o.setup_probe) return out;

  std::vector<double> cold_mips, cold_ms, hit_ms, round_traced, round_plain;
  std::string reference;
  sim::SimResult first;
  double busy_ms = 0.0;
  double completed = 0.0;
  double cold_instructions = 0.0;
  double rss = 0.0;  // peak RSS after the first round, in a fresh process
  for (std::size_t r = 0; more_rounds(o, ready, r); ++r) {
    tr.set_enabled(traced_round(o, r));
    const Clock::time_point t0 = Clock::now();
    auto source = ppf::workload::make_benchmark(job.benchmark, cfg.seed);
    const auto arena = timed(tr, "workload.materialize", [&] {
      return ppf::workload::materialize(*source, records);
    });
    ppf::workload::TraceCursor cursor(arena);
    const sim::SimResult cold =
        timed(tr, "sim.run", [&] { return sim::Simulator(cfg).run(cursor); });
    const Clock::time_point t1 = Clock::now();
    ppf::workload::TraceCursor again(arena);
    const sim::SimResult hit =
        timed(tr, "sim.run", [&] { return sim::Simulator(cfg).run(again); });
    const Clock::time_point t2 = Clock::now();
    (traced_round(o, r) ? round_traced : round_plain)
        .push_back(ms_between(t0, t2));

    cold_ms.push_back(ms_between(t0, t1));
    hit_ms.push_back(ms_between(t1, t2) * 1000.0);
    cold_instructions += static_cast<double>(cold.core.instructions);
    cold_mips.push_back(static_cast<double>(cold.core.instructions) /
                        (cold_ms.back() * 1000.0));
    busy_ms += ms_between(t0, t2);
    completed += 2.0;
    out.ops.attempted += 2;
    if (r == 0) {
      reference = signature(cold);
      first = cold;
      rss = peak_rss_mb();
    }
    for (const sim::SimResult* res : {&cold, &hit}) {
      if (signature(*res) != reference) {
        ++out.ops.wrong;
        out.problem("long run result moved between runs");
      }
    }
  }
  tr.set_enabled(o.trace);
  out.notes.push_back("cold MIPS per round:" + list_values(cold_mips));

  // Output check: the same run from the streaming generator (no arena).
  const std::vector<runlab::Job> cold_jobs = {job};
  const std::vector<ColdRun> cold_runs = run_cold(cold_jobs);
  if (!cold_runs[0].error.empty()) {
    out.problem("cold run failed: " + cold_runs[0].error);
  } else if (signature(cold_runs[0].result) != reference) {
    out.problem("arena run differs from the streaming Simulator::run");
  }

  const std::vector<runlab::JobResult> grid = untimed_grid(o.sim_seed, out);
  Digest digest;
  digest.add(job_config_string(job));
  digest.add(reference);
  for (const runlab::JobResult& jr : grid) {
    digest.add(job_config_string(jr.job));
    digest.add(signature(jr.result));
  }
  out.sim_digest = digest.hex();

  if (!o.trace) {
    double cold_total_ms = 0.0;
    for (double ms : cold_ms) cold_total_ms += ms;
    out.metric("sim_mips", cold_instructions / (cold_total_ms * 1000.0),
               "MIPS");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("ok_ratio", out.ops.ok_ratio(), "ratio");
    out.metric("req_per_s", completed / (busy_ms / 1000.0), "1/s");
    latency_metrics("cold", "ms", cold_ms, out);
    latency_metrics("hit", "us", hit_ms, out);
    paper_metrics(grid, out);
    return out;
  }

  LayerInput in;
  in.jobs = cold_jobs;
  in.reference = {first};
  in.cold_jobs = cold_jobs;
  in.cold = &cold_runs;
  in.requests = {{job_config_string(job), 1}};
  in.trace_overhead_pct = trace_overhead_pct(round_traced, round_plain);
  layer_metrics(in, tr, out);
  return out;
}

}  // namespace perfbench
