#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "diff/signature.hpp"
#include "registry/registry.hpp"
#include "runlab/thread_pool.hpp"
#include "workload/benchmarks.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t mono_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Tracer::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t group) {
  if (!enabled_) return;
  Span s{name, ms_between(epoch_, start), ms_between(epoch_, end), group};
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start_ms * 1e3,
                  (s.end_ms - s.start_ms) * 1e3);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.group << "," << buf
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Digest::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // separator, so ("ab","c") != ("a","bc")
  h_ *= 0x100000001b3ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string signature(const sim::SimResult& r) {
  return ppf::diff::result_signature(r);
}

sim::SimConfig grid_base(std::uint64_t sim_seed) {
  sim::SimConfig cfg = sim::SimConfig::paper_default();
  cfg.max_instructions = 1'000'000;
  cfg.warmup_instructions = 500'000;
  cfg.seed = sim_seed;
  cfg.core.seed = sim_seed;
  return cfg;
}

std::vector<runlab::Job> grid_jobs(std::uint64_t sim_seed) {
  runlab::SweepSpec spec;
  spec.base = grid_base(sim_seed);
  spec.benchmarks = ppf::workload::benchmark_names();
  spec.filters = {"none", "pa", "pc"};
  spec.seeds = {sim_seed};
  return spec.expand();
}

std::string job_config_string(const runlab::Job& job) {
  const sim::SimConfig& c = job.config;
  return "bench=" + job.benchmark + " filter=" + c.filter +
         " seed=" + std::to_string(c.seed) +
         " instructions=" + std::to_string(c.max_instructions) +
         " warmup=" + std::to_string(c.warmup_instructions);
}

PaperFidelity paper_fidelity(const std::vector<runlab::JobResult>& grid) {
  std::map<std::string, std::map<std::string, const sim::SimResult*>> by;
  for (const runlab::JobResult& jr : grid) {
    by[jr.job.benchmark][jr.job.config.filter] = &jr.result;
  }
  PaperFidelity p;
  double n = 0.0;
  for (const auto& [bench, filters] : by) {
    const auto get = [&, &bench = bench, &filters = filters](
                         const std::string& f) -> const sim::SimResult& {
      const auto it = filters.find(f);
      if (it == filters.end()) {
        throw std::runtime_error("grid lacks " + bench + " filter=" + f);
      }
      return *it->second;
    };
    const sim::SimResult& none = get("none");
    const double classified =
        static_cast<double>(none.good_total() + none.bad_total());
    p.bad_frac_pct +=
        classified == 0 ? 0.0 : 100.0 * none.bad_total() / classified;
    p.gain_pa_pct += 100.0 * (get("pa").ipc() / none.ipc() - 1.0);
    p.gain_pc_pct += 100.0 * (get("pc").ipc() / none.ipc() - 1.0);
    n += 1.0;
  }
  if (n == 0.0) throw std::runtime_error("empty grid");
  p.bad_frac_pct /= n;
  p.gain_pa_pct /= n;
  p.gain_pc_pct /= n;
  p.bad_frac_err_pp = std::fabs(p.bad_frac_pct - kPaperBadFracPct);
  p.ipc_gain_err_pp = 0.5 * (std::fabs(p.gain_pa_pct - kPaperGainPaPct) +
                             std::fabs(p.gain_pc_pct - kPaperGainPcPct));
  return p;
}

Batch run_batch(std::vector<runlab::Job> jobs, std::size_t workers,
                runlab::ExecCache* cache, Tracer& tr,
                const std::string& span_name) {
  Batch b;
  const std::size_t n = jobs.size();
  std::vector<Clock::time_point> done_at(n);
  std::vector<std::size_t> worker_of(n, 0);
  std::vector<std::size_t> order;  // completion order
  order.reserve(n);

  runlab::RunOptions opts;
  opts.workers = workers;
  opts.cache = cache;
  // Called serialized across workers, so the vectors need no extra lock.
  opts.on_progress = [&](const runlab::Progress& p) {
    const std::size_t i = p.last->job.index;
    done_at[i] = Clock::now();
    worker_of[i] = p.last->worker;
    order.push_back(i);
  };
  const Clock::time_point start = Clock::now();
  b.report = runlab::run_jobs(std::move(jobs), opts);
  const Clock::time_point end = Clock::now();
  b.wall_ms = ms_between(start, end);

  // A worker starts its next job right after reporting the previous one.
  b.job_ms.assign(n, 0.0);
  std::map<std::size_t, Clock::time_point> last_done;
  for (std::size_t i : order) {
    const auto it = last_done.find(worker_of[i]);
    const Clock::time_point began = it == last_done.end() ? start : it->second;
    b.job_ms[i] = ms_between(began, done_at[i]);
    b.busy_ms += b.job_ms[i];
    last_done[worker_of[i]] = done_at[i];
    tr.add(span_name, began, done_at[i], worker_of[i] + 1);
  }
  return b;
}

std::unique_ptr<ppf::filter::PollutionFilter> make_registry_filter(
    const sim::SimConfig& cfg) {
  ppf::registry::FilterContext ctx;
  ctx.history = cfg.history;
  ctx.adaptive = cfg.adaptive;
  ctx.deadblock = cfg.deadblock;
  ctx.perceptron = cfg.perceptron;
  ctx.inst_bytes = cfg.core.inst_bytes;
  return ppf::registry::make_filter(cfg.filter, ctx);
}

CapturingFilter::CapturingFilter(const sim::SimConfig& cfg)
    : inner_(make_registry_filter(cfg)) {}

bool CapturingFilter::decide(const ppf::filter::PrefetchCandidate& c) {
  const bool ok = inner_->admit(c);
  events_.push_back({c.line, c.trigger_pc, Op::Admit,
                     static_cast<std::uint8_t>(c.source), ok});
  return ok;
}

void CapturingFilter::feedback(const ppf::filter::FilterFeedback& f) {
  events_.push_back({f.line, f.trigger_pc, Op::Feedback,
                     static_cast<std::uint8_t>(f.source), f.referenced});
  inner_->feedback(f);
}

void CapturingFilter::recover(const ppf::filter::FilterFeedback& f) {
  events_.push_back({f.line, f.trigger_pc, Op::Recover,
                     static_cast<std::uint8_t>(f.source), f.referenced});
  inner_->recover(f);
}

FilterReplay replay_filter(const sim::SimConfig& cfg,
                           const std::vector<CapturingFilter::Event>& events) {
  using ppf::filter::FilterFeedback;
  using ppf::filter::PrefetchCandidate;
  const auto filt = make_registry_filter(cfg);
  std::size_t mismatches = 0;
  const Clock::time_point t0 = Clock::now();
  for (const CapturingFilter::Event& e : events) {
    const auto source = static_cast<ppf::PrefetchSource>(e.source);
    switch (e.op) {
      case CapturingFilter::Op::Admit:
        mismatches += filt->admit(PrefetchCandidate{e.line, e.pc, source}) !=
                              e.flag
                          ? 1
                          : 0;
        break;
      case CapturingFilter::Op::Feedback:
        filt->feedback(FilterFeedback{e.line, e.pc, e.flag, source});
        break;
      case CapturingFilter::Op::Recover:
        filt->recover(FilterFeedback{e.line, e.pc, e.flag, source});
        break;
    }
  }
  const Clock::time_point t1 = Clock::now();
  FilterReplay r;
  r.ns = ms_between(t0, t1) * 1e6;
  r.calls = events.size();
  r.decisions_match = mismatches == 0;
  return r;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  runlab::ThreadPool pool(std::min(threads, n == 0 ? std::size_t{1} : n));
  pool.run(n, [&](std::size_t i, std::size_t) { fn(i); });
}

std::vector<ColdRun> run_cold(const std::vector<runlab::Job>& jobs) {
  std::vector<ColdRun> out(jobs.size());
  parallel_for(jobs.size(), kCheckThreads, [&](std::size_t i) {
    try {
      CapturingFilter filt(jobs[i].config);
      auto trace =
          ppf::workload::make_benchmark(jobs[i].benchmark, jobs[i].config.seed);
      out[i].result = sim::Simulator(jobs[i].config).run(*trace, &filt);
      out[i].events = filt.events();
    } catch (const std::exception& e) {
      out[i].error = e.what();
    }
  });
  return out;
}

}  // namespace perfbench
