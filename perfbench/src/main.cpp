// ppf_perfbench: runs one benchmark workload and prints its result.
//
//   ppf_perfbench --workload fig1-grid|long-run|serve-mixed --seed N
//                 [--seconds S] [--trace 0|1] [--sim-seed N]
//                 [--trace-out FILE] [--setup-probe]
//
// perfbench/run.py builds and drives this binary; see perfbench/README.md.
// Output: human-readable lines starting with '#', a `sim_digest` line, and
// a last line holding one JSON object (ready_ns, correct, attempted,
// failed, sim_digest, metrics, problems). Exit status 1 when an output
// check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "ppf_perfbench: " << why
            << "\nusage: ppf_perfbench --workload fig1-grid|long-run|"
               "serve-mixed --seed N [--seconds S] [--trace 0|1] "
               "[--sim-seed N] [--trace-out FILE] [--setup-probe]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--setup-probe") {
        o.setup_probe = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--sim-seed") {
        o.sim_seed = std::stoull(v);
      } else if (a == "--trace-out") {
        o.trace_out = v;
      } else {
        return usage("unknown argument " + a);
      }
    }
  } catch (const std::exception& e) {
    return usage(std::string("bad number: ") + e.what());
  }
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  const Clock::time_point start = Clock::now();
  Tracer tr(start, o.trace);
  RunResult res;
  try {
    if (o.workload == "fig1-grid") {
      res = run_fig1_grid(o, tr);
    } else if (o.workload == "long-run") {
      res = run_long_run(o, tr);
    } else if (o.workload == "serve-mixed") {
      res = run_serve_mixed(o, tr);
    } else {
      return usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "ppf_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (o.setup_probe) {
    std::printf("%lld\n", static_cast<long long>(res.ready_ns));
    return 0;
  }
  if (o.trace && !o.trace_out.empty() && !tr.write_chrome(o.trace_out)) {
    res.problem("cannot write " + o.trace_out);
  }

  for (const Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      res.problem("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& n : res.notes) std::printf("# %s\n", n.c_str());
  std::printf("sim_digest %s %s\n", o.workload.c_str(), res.sim_digest.c_str());
  const bool correct = res.problems.empty();
  std::string line = "{\"ready_ns\":" + std::to_string(res.ready_ns) +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(res.ops.attempted) +
                     ",\"failed\":" + std::to_string(res.ops.not_ok()) +
                     ",\"sim_digest\":" + json_string(res.sim_digest) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += (i == 0 ? "" : ",") + json_string(m.name) + ":{\"value\":" + buf +
            ",\"unit\":" + json_string(m.unit) + "}";
  }
  line += "},\"problems\":[";
  const std::size_t shown = std::min<std::size_t>(res.problems.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    line += (i == 0 ? "" : ",") + json_string(res.problems[i]);
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
  return res.problems.empty() ? 0 : 1;
}
