// Shared plumbing of ppf_perfbench: options, clocks, spans, result
// digests, the Figure-1 grid, paper references, batch timing at the
// runlab::run_jobs boundary, the filter-capture decorator and the parallel
// cold-run check.
//
// Every timing in the benchmark is taken here, in the benchmark's own
// code, around calls into the simulator's public API; nothing inside the
// simulator is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "filter/filter.hpp"
#include "runlab/exec_cache.hpp"
#include "runlab/runner.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"

namespace perfbench {

namespace sim = ppf::sim;
namespace runlab = ppf::runlab;
using Clock = std::chrono::steady_clock;

/// The seed the synthetic generators were tuned on (EXPERIMENTS.md).
/// Seed 7 is held out for checking fidelity claims (--sim-seed 7).
inline constexpr std::uint64_t kTunedSimSeed = 42;

/// Worker threads of the batch and serve workloads.
inline constexpr std::size_t kWorkers = 2;
/// Client connections of the serve workloads.
inline constexpr std::size_t kConnections = 3;
/// Threads of the untimed checks (the host's core count).
inline constexpr std::size_t kCheckThreads = 4;

// Paper references (EXPERIMENTS.md, "Figure 1" and "Figures 4/5/6").
inline constexpr double kPaperBadFracPct = 48.0;  // Figure 1 mean
inline constexpr double kPaperGainPaPct = 8.2;    // Figure 6 mean, 8 KB L1
inline constexpr double kPaperGainPcPct = 9.1;    // Figure 6 mean, 8 KB L1

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t sim_seed = kTunedSimSeed;
  /// Stop at the first timed operation and print its monotonic time.
  bool setup_probe = false;
  /// Traced runs write their spans here (Chrome trace JSON); "" = don't.
  std::string trace_out;
};

double ms_between(Clock::time_point a, Clock::time_point b);
/// Nanoseconds on the monotonic clock (comparable across processes).
std::int64_t mono_ns(Clock::time_point t);
/// Peak resident set size of this process so far (VmHWM), in MB.
double peak_rss_mb();

/// Spans recorded from the benchmark's own code around calls into the
/// simulator. Disabled tracers record nothing. Thread-safe.
class Tracer {
 public:
  Tracer(Clock::time_point epoch, bool enabled)
      : epoch_(epoch), enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end, std::uint64_t group = 0);
  /// Chrome trace_event JSON, one row per span group.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::uint64_t group = 0;
  };
  Clock::time_point epoch_;
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Time `fn` and record it as span `name`.
template <typename F>
auto timed(Tracer& tr, const std::string& name, F&& fn, double* ms = nullptr) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    const Clock::time_point t1 = Clock::now();
    tr.add(name, t0, t1);
    if (ms != nullptr) *ms = ms_between(t0, t1);
  } else {
    auto out = fn();
    const Clock::time_point t1 = Clock::now();
    tr.add(name, t0, t1);
    if (ms != nullptr) *ms = ms_between(t0, t1);
    return out;
  }
}

/// 64-bit FNV-1a digest over a sequence of strings.
class Digest {
 public:
  void add(const std::string& s);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Canonical signature of every simulated statistic of a result.
std::string signature(const sim::SimResult& r);

/// One named end-to-end or per-layer value.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct RunResult {
  OpCounts ops;
  std::vector<std::string> problems;  ///< failed output checks
  std::int64_t ready_ns = 0;  ///< monotonic time of the first timed op
  std::string sim_digest;
  std::vector<std::string> notes;  ///< human-readable lines
  std::vector<Metric> metrics;
  void problem(std::string p) { problems.push_back(std::move(p)); }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The Figure-1 machine: paper defaults, 1M measured + 500K warmup.
sim::SimConfig grid_base(std::uint64_t sim_seed);
/// The Figure-1 grid: ten benchmarks x filter {none, pa, pc}, in runlab's
/// sweep order (benchmark-major).
std::vector<runlab::Job> grid_jobs(std::uint64_t sim_seed);
/// ppf_serve config string that make_job resolves to `job`.
std::string job_config_string(const runlab::Job& job);

/// Model error against the paper's Figure-1 / Figure-6 means.
struct PaperFidelity {
  double bad_frac_pct = 0.0;  ///< mean bad-prefetch share, filter none
  double gain_pa_pct = 0.0;   ///< mean IPC gain of PA over none
  double gain_pc_pct = 0.0;   ///< mean IPC gain of PC over none
  double bad_frac_err_pp = 0.0;
  double ipc_gain_err_pp = 0.0;  ///< mean of the PA and PC errors
};
/// From grid results (any order); throws if a benchmark lacks a filter.
PaperFidelity paper_fidelity(const std::vector<runlab::JobResult>& grid);

/// Result of one run_jobs call, timed at its boundary.
struct Batch {
  runlab::RunReport report;
  double wall_ms = 0.0;
  /// Per-job latency in submission order: from the job's start (the
  /// previous completion on the same worker, or the batch start) to its
  /// completion callback.
  std::vector<double> job_ms;
  double busy_ms = 0.0;  ///< sum of job_ms
};

/// run_jobs on `workers` threads over `cache` (null = private cache),
/// recording one span per job when the tracer is enabled.
Batch run_batch(std::vector<runlab::Job> jobs, std::size_t workers,
                runlab::ExecCache* cache, Tracer& tr,
                const std::string& span_name);

/// Decorator passed to Simulator::run as its external filter: forwards
/// every call to a registry-built filter and logs the call stream.
class CapturingFilter final : public ppf::filter::PollutionFilter {
 public:
  enum class Op : std::uint8_t { Admit, Feedback, Recover };
  struct Event {
    std::uint64_t line = 0;
    std::uint64_t pc = 0;
    Op op = Op::Admit;
    std::uint8_t source = 0;
    bool flag = false;  ///< Admit: the decision; else: referenced
  };

  explicit CapturingFilter(const sim::SimConfig& cfg);
  void feedback(const ppf::filter::FilterFeedback& f) override;
  void recover(const ppf::filter::FilterFeedback& f) override;
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

 protected:
  bool decide(const ppf::filter::PrefetchCandidate& c) override;

 private:
  std::unique_ptr<ppf::filter::PollutionFilter> inner_;
  std::vector<Event> events_;
};

/// The config's filter, fresh from the registry (pa/pc/none need no L1).
std::unique_ptr<ppf::filter::PollutionFilter> make_registry_filter(
    const sim::SimConfig& cfg);

/// Replay a captured stream into a fresh filter, timing the whole replay.
struct FilterReplay {
  double ns = 0.0;
  std::size_t calls = 0;
  bool decisions_match = true;
};
FilterReplay replay_filter(const sim::SimConfig& cfg,
                           const std::vector<CapturingFilter::Event>& events);

/// One cold check: the job run through a streaming trace on the cold
/// Simulator::run path with a CapturingFilter.
struct ColdRun {
  sim::SimResult result;
  std::vector<CapturingFilter::Event> events;
  std::string error;  ///< set when the run threw
};
/// Run `jobs` cold on kCheckThreads threads.
std::vector<ColdRun> run_cold(const std::vector<runlab::Job>& jobs);

/// Run fn(i) for i in [0, n) on `threads` threads.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace perfbench
