#include "layers.hpp"

#include <atomic>
#include <map>
#include <thread>

#include "sim/memory_hierarchy.hpp"
#include "sim/snapshot.hpp"
#include "workload/benchmarks.hpp"
#include "workload/materialized.hpp"

namespace perfbench {

namespace {

using ppf::workload::InstKind;
using ppf::workload::MaterializedTrace;
using ppf::workload::TraceRecord;

struct ReplayTotals {
  double arena_ms = 0.0;
  std::size_t arenas = 0;
  double arena_bytes = 0.0;
  double arena_records = 0.0;
  double warmup_ms = 0.0;
  double measure_ms = 0.0;
  double snapshot_bytes = 0.0;
  std::size_t snapshots = 0;
  double measured_instructions = 0.0;
  double measured_cycles = 0.0;
  double mem_ns = 0.0;
  double mem_accesses = 0.0;
};

std::uint64_t records_needed(const sim::SimConfig& c) {
  const std::uint64_t warmup =
      c.warmup_instructions < c.max_instructions ? c.warmup_instructions : 0;
  return c.max_instructions + warmup;
}

/// Feed the arena's loads, stores and software prefetches straight into a
/// fresh hierarchy, one access per cycle, and time the whole drive.
void drive_memory(const sim::SimConfig& cfg, const MaterializedTrace& arena,
                  Tracer& tr, ReplayTotals& t) {
  sim::MemoryHierarchy mem(cfg);
  std::vector<TraceRecord> buf(4096);
  std::uint64_t now = 1;
  std::uint64_t accesses = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t pos = 0; pos < arena.size(); pos += buf.size()) {
    const std::size_t n = std::min(buf.size(), arena.size() - pos);
    arena.gather(pos, buf.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceRecord& r = buf[i];
      if (r.kind != InstKind::Load && r.kind != InstKind::Store &&
          r.kind != InstKind::SwPrefetch) {
        continue;
      }
      mem.begin_cycle(now);
      if (r.kind == InstKind::SwPrefetch) {
        mem.software_prefetch(now, r.pc, r.addr);
      } else {
        (void)mem.try_reserve_port(now);
        (void)mem.demand_access(now, r.pc, r.addr, r.kind == InstKind::Store);
      }
      mem.end_cycle(now);
      ++now;
      ++accesses;
    }
  }
  mem.finalize();
  const Clock::time_point t1 = Clock::now();
  tr.add("mem.drive", t0, t1);
  t.mem_ns += ms_between(t0, t1) * 1e6;
  t.mem_accesses += static_cast<double>(accesses);
}

/// workload + sim + mem: rebuild every job layer by layer, one trace at a
/// time so at most one trace's arena and snapshots are resident.
ReplayTotals replay_layers(const LayerInput& in, Tracer& tr, RunResult& out) {
  ReplayTotals t;
  std::map<std::string, std::vector<std::size_t>> by_trace;
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const runlab::Job& j = in.jobs[i];
    by_trace[j.benchmark + "/" + std::to_string(j.config.seed)].push_back(i);
  }
  for (const auto& [key, members] : by_trace) {
    std::uint64_t records = 0;
    for (std::size_t i : members) {
      records = std::max(records, records_needed(in.jobs[i].config));
    }
    const runlab::Job& first = in.jobs[members.front()];
    auto source =
        ppf::workload::make_benchmark(first.benchmark, first.config.seed);
    double ms = 0.0;
    const auto arena = timed(
        tr, "workload.materialize",
        [&] { return ppf::workload::materialize(*source, records); }, &ms);
    t.arena_ms += ms;
    ++t.arenas;
    t.arena_bytes += static_cast<double>(arena->bytes());
    t.arena_records += static_cast<double>(arena->size());

    drive_memory(first.config, *arena, tr, t);

    std::map<std::string, std::shared_ptr<const sim::WarmupSnapshot>> snaps;
    for (std::size_t i : members) {
      const sim::SimConfig& cfg = in.jobs[i].config;
      // Jobs without an active warmup run cold, as runlab runs them.
      std::shared_ptr<const sim::WarmupSnapshot> snap;
      if (cfg.warmup_instructions > 0 &&
          cfg.warmup_instructions < cfg.max_instructions) {
        auto [it, fresh] = snaps.try_emplace(sim::warmup_key(cfg));
        if (fresh) {
          it->second = timed(
              tr, "sim.make_warmup_snapshot",
              [&] { return sim::make_warmup_snapshot(cfg, arena); }, &ms);
          t.warmup_ms += ms;
          if (it->second != nullptr) {
            t.snapshot_bytes +=
                static_cast<double>(it->second->estimated_bytes());
            ++t.snapshots;
          }
        }
        snap = it->second;
      }
      sim::SimResult r;
      if (snap != nullptr) {
        r = timed(
            tr, "sim.run_from_snapshot",
            [&] { return sim::run_from_snapshot(cfg, *snap); }, &ms);
      } else {
        r = timed(
            tr, "sim.run",
            [&] {
              ppf::workload::TraceCursor cursor(arena);
              return sim::Simulator(cfg).run(cursor);
            },
            &ms);
      }
      t.measure_ms += ms;
      t.measured_instructions += static_cast<double>(r.core.instructions);
      t.measured_cycles += static_cast<double>(r.core.cycles);
      if (signature(r) != signature(in.reference[i])) {
        out.problem("layer replay differs from the reference for " +
                    job_config_string(in.jobs[i]));
      }
    }
  }
  return t;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void simulated_stats(const LayerInput& in, RunResult& out) {
  double cycles = 0, instr = 0, l1 = 0, l2 = 0, bus = 0, busy = 0, mshr = 0,
         lat = 0, issued = 0, good = 0, bad = 0, squashed = 0, admitted = 0,
         rejected = 0, recoveries = 0;
  for (const sim::SimResult& r : in.reference) {
    cycles += static_cast<double>(r.core.cycles);
    instr += static_cast<double>(r.core.instructions);
    l1 += static_cast<double>(r.l1d_demand_misses);
    l2 += static_cast<double>(r.l2_demand_misses);
    bus += static_cast<double>(r.bus_transfers);
    busy += static_cast<double>(r.bus_busy_cycles);
    mshr += static_cast<double>(r.mshr_stalls);
    lat += r.avg_load_latency;
    issued += static_cast<double>(r.prefetch_issued.total());
    good += static_cast<double>(r.good_total());
    bad += static_cast<double>(r.bad_total());
    squashed += static_cast<double>(r.prefetch_squashed);
    admitted += static_cast<double>(r.filter_admitted);
    rejected += static_cast<double>(r.filter_rejected);
    recoveries += static_cast<double>(r.filter_recoveries);
  }
  const double n = static_cast<double>(in.reference.size());
  out.metric("core.cycles", cycles, "cycles");
  out.metric("core.ipc", ratio(instr, cycles), "instr/cycle");
  out.metric("mem.l1d_demand_misses", l1, "count");
  out.metric("mem.l2_demand_misses", l2, "count");
  out.metric("mem.bus_transfers", bus, "count");
  out.metric("mem.bus_busy_cycles", busy, "cycles");
  out.metric("mem.mshr_stalls", mshr, "count");
  out.metric("mem.avg_load_latency_cyc", ratio(lat, n), "cycles");
  out.metric("prefetch.issued", issued, "count");
  out.metric("prefetch.good", good, "count");
  out.metric("prefetch.bad", bad, "count");
  out.metric("prefetch.classified", good + bad, "count");
  out.metric("prefetch.accuracy", ratio(good, good + bad), "ratio");
  out.metric("prefetch.squashed", squashed, "count");
  out.metric("filter.admitted", admitted, "count");
  out.metric("filter.rejected", rejected, "count");
  out.metric("filter.recoveries", recoveries, "count");
  out.metric("filter.reject_ratio", ratio(rejected, admitted + rejected),
             "ratio");
}

void filter_replays(const LayerInput& in, Tracer& tr, RunResult& out) {
  double ns = 0.0;
  double calls = 0.0;
  if (in.cold != nullptr) {
    for (std::size_t i = 0; i < in.cold->size(); ++i) {
      const ColdRun& c = (*in.cold)[i];
      if (!c.error.empty()) continue;
      const Clock::time_point t0 = Clock::now();
      const FilterReplay r = replay_filter(in.cold_jobs[i].config, c.events);
      tr.add("filter.replay", t0, Clock::now());
      if (!r.decisions_match) {
        out.problem("filter replay decisions differ for " +
                    job_config_string(in.cold_jobs[i]));
      }
      ns += r.ns;
      calls += static_cast<double>(r.calls);
    }
  }
  out.metric("filter.calls", calls, "count");
  out.metric("filter.host_ns_per_call", ratio(ns, calls), "ns");
}

struct HandlePass {
  std::vector<double> latency_ms;
  double queue_wait_ms = 0.0;  ///< mean over simulated requests
};

/// Service::handle over the request list from `connections` threads
/// (bursts are sent once per copy, in order), `passes` times in a row on
/// one service.
HandlePass handle_pass(const std::vector<LoopRequest>& requests,
                       std::size_t passes, std::size_t connections, Tracer& tr,
                       RunResult& out) {
  std::vector<std::size_t> flat;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (std::size_t c = 0; c < requests[i].copies; ++c) flat.push_back(i);
  }
  HandlePass p;
  p.latency_ms.assign(flat.size() * passes, 0.0);
  ppf::serve::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.flight_recorder = 0;
  ppf::serve::Service svc(cfg);
  std::vector<ppf::serve::Service::ConnectionLog*> logs;
  for (std::size_t c = 0; c < connections; ++c) {
    logs.push_back(svc.open_connection());
  }
  std::atomic<std::size_t> failures{0};
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t e = next++; e < flat.size(); e = next++) {
          const std::size_t id = pass * flat.size() + e;
          ppf::serve::Request req;
          req.verb = "run";
          req.id = id;
          req.fields["config"] = requests[flat[e]].config;
          const Clock::time_point t0 = Clock::now();
          const ppf::serve::Handled h = svc.handle(req, logs[c]);
          const Clock::time_point t1 = Clock::now();
          tr.add("serve.handle", t0, t1, c + 1);
          p.latency_ms[id] = ms_between(t0, t1);
          Reply r;
          parse_reply(h.response, r);
          if (!r.ok) ++failures;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (failures > 0) {
    out.problem(std::to_string(failures.load()) +
                " Service::handle calls did not return a result");
  }
  double wait_us = 0.0;
  double waits = 0.0;
  for (const ppf::obs::ConnectionSpans& conn : svc.span_dump()) {
    for (const ppf::obs::Span& s : conn.spans) {
      if (s.name == ppf::obs::SpanName::QueueWait) {
        wait_us += s.dur_us;
        waits += 1.0;
      }
    }
  }
  p.queue_wait_ms = ratio(wait_us, waits) / 1000.0;
  return p;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

void layer_metrics(const LayerInput& in, Tracer& tr, RunResult& out) {
  // workload / sim / mem
  const ReplayTotals t = replay_layers(in, tr, out);
  out.metric("workload.arena_build_ms", t.arena_ms, "ms");
  out.metric("workload.arenas_built", static_cast<double>(t.arenas), "count");
  out.metric("workload.bytes_per_instr", ratio(t.arena_bytes, t.arena_records),
             "B");
  out.metric("sim.warmup_ms", t.warmup_ms, "ms");
  out.metric("sim.measure_ms", t.measure_ms, "ms");
  out.metric("sim.host_ns_per_instr",
             ratio(t.measure_ms * 1e6, t.measured_instructions), "ns");
  out.metric("sim.host_ns_per_cycle",
             ratio(t.measure_ms * 1e6, t.measured_cycles), "ns");
  out.metric("sim.snapshot_bytes",
             ratio(t.snapshot_bytes, static_cast<double>(t.snapshots)), "B");
  out.metric("mem.accesses_driven", t.mem_accesses, "count");
  out.metric("mem.host_ns_per_access", ratio(t.mem_ns, t.mem_accesses), "ns");

  // core / mem / prefetch / filter simulated statistics, filter host cost
  simulated_stats(in, out);
  filter_replays(in, tr, out);

  // runlab
  runlab::ExecCache cache;
  const std::size_t workers = std::min(kWorkers, in.jobs.size());
  const Batch b = run_batch(in.jobs, workers, &cache, tr, "runlab.job");
  for (std::size_t i = 0; i < b.report.results.size(); ++i) {
    const runlab::JobResult& jr = b.report.results[i];
    if (!jr.ok || signature(jr.result) != signature(in.reference[i])) {
      out.problem("runlab batch differs from the reference for " +
                  job_config_string(in.jobs[i]));
    }
  }
  const BatchAccounting acc{b.wall_ms,   workers,     b.busy_ms,
                            t.arena_ms, t.warmup_ms, t.measure_ms};
  const ppf::runlab::ExecCacheStats cs = cache.stats();
  out.metric("runlab.overhead_ms", runlab_overhead_ms(acc), "ms");
  out.metric("runlab.utilization", runlab_utilization(acc), "ratio");
  out.metric("runlab.snapshot_resumes",
             static_cast<double>(cs.snapshot_resumes), "count");
  out.metric("runlab.trace_hits", static_cast<double>(cs.trace_hits), "count");

  // serve
  // Without TCP traffic of its own, the workload's configs go out twice:
  // a pass of misses, then a pass the memo answers.
  const std::size_t passes = in.tcp == nullptr ? 2 : 1;
  const HandlePass hp = handle_pass(in.requests, passes, kConnections, tr, out);
  ServeTraffic own;
  const ServeTraffic* tcp = in.tcp;
  if (tcp == nullptr) {
    Daemon daemon(kWorkers);
    std::uint64_t first_id = 0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      const std::vector<Reply> replies = closed_loop(
          daemon.port(), in.requests, kConnections, tr, first_id);
      for (const Reply& r : replies) {
        if (!r.ok) out.problem("TCP request failed: " + r.error);
      }
      const std::vector<double> wire =
          wire_samples(daemon.service(), replies, first_id);
      own.wire_ms.insert(own.wire_ms.end(), wire.begin(), wire.end());
      first_id += replies.size();
    }
    own.add_counters(service_counters(daemon.service()));
    tcp = &own;
  }
  out.metric("serve.requests", static_cast<double>(hp.latency_ms.size()),
             "count");
  out.metric("serve.handle_ms", mean(hp.latency_ms), "ms");
  out.metric("serve.wire_ms", mean(tcp->wire_ms), "ms");
  out.metric("serve.queue_wait_ms", hp.queue_wait_ms, "ms");
  out.metric("serve.memo_hit_ratio",
             ratio(tcp->memo_hits, tcp->memo_hits + tcp->memo_misses),
             "ratio");
  out.metric("serve.duplicate_misses", tcp->memo_misses - tcp->memo_inserts,
             "count");
  out.metric("serve.rejected", tcp->rejected, "count");

  // trace
  out.metric("trace.overhead_pct", in.trace_overhead_pct, "%");
  out.metric("trace.unaccounted_pct", unaccounted_pct(acc), "%");
}

}  // namespace perfbench
