// serve-mixed: an in-process ppf_serve (Service + Server on loopback TCP,
// 2 workers) under a closed loop of 3 connections, with the seeded request
// mix of servemix.hpp: about half memo hits, the rest cold misses spread
// over snapshot resumes, new snapshots on warm arenas, new arenas and
// bursts of one new config on every connection at once.
//
// Many short simulations instead of a few long ones; memo and ExecCache
// reads sit beside inserts, so request coalescing and cache budgets show
// here and nowhere else.
//
// Each round starts a fresh daemon (empty memo and caches) and replays one
// seeded request list; rounds repeat until the time budget is spent.
#include <algorithm>
#include <map>

#include "layers.hpp"
#include "serve_harness.hpp"
#include "servemix.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::vector<LoopRequest> round_requests(const Options& o, std::size_t round,
                                        const MixShape& shape,
                                        const std::vector<CatalogItem>& items,
                                        std::vector<std::size_t>& item_of) {
  std::uint64_t s = o.seed * 0x9e3779b97f4a7c15ULL + round;
  const std::vector<MixStep> steps = make_serve_mix(splitmix64(s), shape);
  std::vector<LoopRequest> reqs;
  item_of.clear();
  for (const MixStep& st : steps) {
    reqs.push_back({items[st.item].config, st.copies});
    item_of.push_back(st.item);
  }
  return reqs;
}

/// Start a daemon and wait for its first answered ping.
std::unique_ptr<Daemon> start_daemon(RunResult& out) {
  auto d = std::make_unique<Daemon>(kWorkers);
  LineClient ping(d->port());
  const std::string pong = ping.call("{\"op\":\"ping\",\"id\":1}");
  if (pong.find("\"op\":\"pong\"") == std::string::npos) {
    out.problem("ping answered: " + pong);
  }
  return d;
}

}  // namespace

RunResult run_serve_mixed(const Options& o, Tracer& tr) {
  RunResult out;
  MixShape shape;
  shape.connections = kConnections;
  shape.sim_seed = o.sim_seed;
  const std::vector<CatalogItem> items = serve_catalog(shape);

  std::unique_ptr<Daemon> daemon = start_daemon(out);
  const Clock::time_point ready = Clock::now();
  out.ready_ns = mono_ns(ready);
  if (o.setup_probe) return out;

  struct Answer {
    std::size_t item;
    Reply reply;
  };
  std::vector<Answer> answers;
  std::vector<double> cold_ms, hit_us, round_traced, round_plain;
  std::vector<LoopRequest> first_round;
  ServeTraffic traffic;
  double request_wall_ms = 0.0;
  double rss = 0.0;  // peak RSS after the first round, in a fresh process
  std::vector<double> round_rps;
  double simulated = 0.0;
  for (std::size_t r = 0; more_rounds(o, ready, r); ++r) {
    tr.set_enabled(traced_round(o, r));
    if (daemon == nullptr) daemon = start_daemon(out);
    std::vector<std::size_t> item_of;
    const std::vector<LoopRequest> reqs =
        round_requests(o, r, shape, items, item_of);
    if (r == 0) first_round = reqs;
    const Clock::time_point t0 = Clock::now();
    std::vector<Reply> replies =
        closed_loop(daemon->port(), reqs, kConnections, tr);
    const double wall = ms_between(t0, Clock::now());
    (traced_round(o, r) ? round_traced : round_plain).push_back(wall);
    request_wall_ms += wall;

    const std::vector<double> wire = wire_samples(daemon->service(), replies);
    traffic.wire_ms.insert(traffic.wire_ms.end(), wire.begin(), wire.end());
    traffic.add_counters(service_counters(daemon->service()));
    daemon.reset();
    if (r == 0) rss = peak_rss_mb();
    round_rps.push_back(static_cast<double>(replies.size()) / (wall / 1000.0));

    for (Reply& rep : replies) {
      ++out.ops.attempted;
      if (!rep.ok) {
        ++(rep.refused ? out.ops.refused : out.ops.failed);
        out.problem("request failed: " + rep.error);
        continue;
      }
      if (rep.cached) {
        hit_us.push_back(rep.latency_ms * 1000.0);
      } else {
        cold_ms.push_back(rep.latency_ms);
        simulated +=
            static_cast<double>(items[item_of[rep.request]].instructions);
      }
      answers.push_back({item_of[rep.request], std::move(rep)});
    }
  }
  tr.set_enabled(o.trace);
  out.notes.push_back("requests/s per round:" + list_values(round_rps));

  // Reference: every distinct config through runlab (its own cache), as
  // ppf_batch would run it. Each response must carry exactly those bytes.
  std::vector<runlab::Job> jobs;
  {
    ppf::serve::ServiceConfig resolver;
    resolver.workers = 1;
    resolver.flight_recorder = 0;
    const ppf::serve::Service svc(resolver);
    for (const CatalogItem& it : items) {
      jobs.push_back(svc.make_job(it.config));
      jobs.back().index = jobs.size() - 1;
    }
  }
  Tracer off(Clock::now(), false);
  const Batch ref = run_batch(jobs, kCheckThreads, nullptr, off, "");
  std::vector<std::string> expected;
  std::vector<sim::SimResult> reference;
  for (const runlab::JobResult& jr : ref.report.results) {
    if (!jr.ok) out.problem("reference job failed: " + jr.error);
    expected.push_back(expected_body(jr.result));
    reference.push_back(jr.result);
  }
  for (const Answer& a : answers) {
    if (a.reply.body != expected[a.item]) {
      ++out.ops.wrong;
      out.problem("response differs from the runlab result: " +
                  items[a.item].config);
    }
  }

  // Cold check: a few filtered configs re-run on the cold path.
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].kind == MixKind::NewSnapshot) picks.push_back(i);
  }
  seeded_shuffle(picks, o.seed ^ 0xc01dULL);
  picks.resize(std::min<std::size_t>(picks.size(), 4));
  std::vector<runlab::Job> cold_jobs;
  for (std::size_t i : picks) cold_jobs.push_back(jobs[i]);
  const std::vector<ColdRun> cold_runs = run_cold(cold_jobs);
  for (std::size_t k = 0; k < cold_runs.size(); ++k) {
    if (!cold_runs[k].error.empty() ||
        signature(cold_runs[k].result) != signature(reference[picks[k]])) {
      out.problem("cold Simulator::run differs from runlab: " +
                  items[picks[k]].config + " " + cold_runs[k].error);
    }
  }

  const std::vector<runlab::JobResult> grid = untimed_grid(o.sim_seed, out);
  std::vector<std::pair<std::string, std::string>> sorted;
  for (std::size_t i = 0; i < items.size(); ++i) {
    sorted.emplace_back(items[i].config, signature(reference[i]));
  }
  for (const runlab::JobResult& jr : grid) {
    sorted.emplace_back(job_config_string(jr.job), signature(jr.result));
  }
  std::sort(sorted.begin(), sorted.end());
  Digest digest;
  for (const auto& [cfg, sig] : sorted) {
    digest.add(cfg);
    digest.add(sig);
  }
  out.sim_digest = digest.hex();

  if (!o.trace) {
    out.metric("sim_mips", simulated / (request_wall_ms * 1000.0), "MIPS");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("ok_ratio", out.ops.ok_ratio(), "ratio");
    out.metric("req_per_s",
               static_cast<double>(out.ops.attempted) /
                   (request_wall_ms / 1000.0),
               "1/s");
    latency_metrics("cold", "ms", cold_ms, out);
    latency_metrics("hit", "us", hit_us, out);
    paper_metrics(grid, out);
    return out;
  }

  LayerInput in;
  in.jobs = jobs;
  in.reference = reference;
  in.cold_jobs = cold_jobs;
  in.cold = &cold_runs;
  in.requests = first_round;
  in.tcp = &traffic;
  in.trace_overhead_pct = trace_overhead_pct(round_traced, round_plain);
  layer_metrics(in, tr, out);
  return out;
}

}  // namespace perfbench
