// perfbench_worker — runs one piece of a perfbench workload and prints one
// JSON object on stdout (see perfbench/run.py, which drives it).
//
//   perfbench_worker <workload> --seed N [--seconds S] [--ops M]
//                    [--kernels K1,K2,...] [--trace 0|1] [--trace-out FILE]
//                    [--setup-only]
//
// curve_build and certify_suite run one pass per process (the task memo is
// per process, so a fresh process is a cold memo) over the 18 kernels, or
// over the --kernels subset. select_mix and serve_mixed run passes over
// --ops seeded ops until at least three have run and --seconds have passed;
// a traced run runs the ops once untraced and once traced. Exit 0 when
// every op was correct, 1 when some op failed its check, 2 on bad arguments
// or an internal error.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "isex/obs/provenance.hpp"
#include "isex/util/task_pool.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// The solver pool size for every workload: fixed, not the hardware default,
// so a 4-CPU machine keeps room for the serve client and for noise.
constexpr int kSolverThreads = 2;

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench_worker: %s\n", msg);
  return 2;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> v;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t comma = std::min(s.find(',', at), s.size());
    if (comma > at) v.push_back(s.substr(at, comma - at));
    at = comma + 1;
  }
  return v;
}

std::string provenance_json() {
  const auto p = isex::obs::collect_provenance();
  return JsonOut()
      .str("build_type", p.build_type)
      .str("git_sha", p.git_sha)
      .num("load_avg_1m", p.load_avg_1m)
      .integer("num_cpus", p.num_cpus)
      .integer("solver_threads", isex::util::max_threads())
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing workload");
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--ops") o.ops = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--kernels") o.kernels = split_list(value());
    else if (a == "--trace-out") o.trace_path = value();
    else if (a == "--setup-only") o.setup_only = true;
    else return usage(("unknown argument " + a).c_str());
  }
  isex::util::set_max_threads(kSolverThreads);
  // A serve_mixed server writing to a closed client pipe gets EPIPE, not a
  // fatal signal.
  std::signal(SIGPIPE, SIG_IGN);

  if (o.kernels.empty()) return usage("empty --kernels");
  for (const auto& k : o.kernels)
    if (std::find(kernels().begin(), kernels().end(), k) == kernels().end())
      return usage(("unknown kernel " + k).c_str());

  Result res;
  try {
    if (o.setup_only) run_setup_only(o, res);
    else if (o.workload == "curve_build") run_curve_pass(o, res);
    else if (o.workload == "select_mix") run_select_mix(o, res);
    else if (o.workload == "serve_mixed") run_serve_mixed(o, res);
    else if (o.workload == "certify_suite") run_certify_pass(o, res);
    else return usage(("unknown workload " + o.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
    return 2;
  }
  if (o.trace && !o.trace_path.empty() && !write_trace(res.spans, o.trace_path))
    return usage(("cannot write " + o.trace_path).c_str());

  const std::string line =
      JsonOut()
          .str("workload", o.workload)
          .num("setup_s", res.setup_s)
          .nums("pass_s", res.pass_s)
          .nums("pass_ops", std::vector<double>(res.pass_ops.begin(), res.pass_ops.end()))
          .integer("attempted", res.attempted)
          .integer("failed", res.failed)
          .strs("errors", res.errors)
          .nums("op_ms", res.op_ms)
          .strs("op_class", res.op_class)
          .nums("service_ms", res.service_ms)
          .str("inputs", res.inputs.hex())
          .str("outputs", res.outputs.hex())
          .raw("quality", json_doubles(res.quality))
          .raw("answers", json_doubles(res.answers))
          .raw("layers", json_doubles(res.layers))
          .raw("counters", json_counters(res.counters))
          .num("peak_rss_mb", peak_rss_mb())
          .raw("provenance", provenance_json())
          .done();
  std::printf("%s\n", line.c_str());
  return res.failed == 0 && res.errors.empty() ? 0 : 1;
}
