// The perfbench workloads and their fixed parameters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// select_mix instances (also the serve_mixed select parameters). RMS task
// sets start at a lower software-only utilization than EDF ones: above
// about 1.1 most RMS instances exhaust the ladder, and one instance's cost
// then spans three orders of magnitude.
inline constexpr double kEdfU0Lo = 1.0, kEdfU0Hi = 1.5;
inline constexpr double kRmsU0Lo = 0.8, kRmsU0Hi = 1.1;
inline constexpr double kAreaLo = 0.1, kAreaHi = 0.6;
inline constexpr long kSelectNodeBudget = 5000;
// The fixed selection probe behind the quality.* selection metrics.
inline constexpr std::uint64_t kProbeSeed = 2007;
inline constexpr std::size_t kProbeInstances = 48;
// Calls per timed rt::rms_schedulable probe in traced select_mix runs.
inline constexpr int kRmsTestRepeats = 200;
// serve_mixed traffic.
inline constexpr int kInlineMinNodes = 16, kInlineMaxNodes = 256;
inline constexpr long kInlineNodeBudget = 2'000'000;
inline constexpr std::size_t kOutstanding = 4;
// Passes of the fixed op set in an untraced select_mix or serve_mixed run.
inline constexpr int kMinPasses = 3;

struct Options {
  std::string workload;
  bool setup_only = false;
  std::uint64_t seed = 1;
  double seconds = 1;
  std::size_t ops = 0;  // select_mix / serve_mixed: ops per pass
  std::vector<std::string> kernels = perfbench::kernels();  // curve_build, certify_suite
  bool trace = false;
  std::string trace_path;   // Chrome-trace output of a traced run
};

struct Result {
  double setup_s = 0;
  std::vector<double> pass_s;          // timed seconds of each pass
  std::vector<long> pass_ops;          // op_ms entries of each pass
  std::vector<double> op_ms;           // successful ops only, pass by pass
  std::vector<std::string> op_class;   // serve_mixed: class per op_ms entry
  std::vector<double> service_ms;      // serve_mixed: server-side elapsed_ms
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  Digest inputs, outputs;
  std::map<std::string, double> quality;
  std::map<std::string, double> answers;  // quality of the workload's own answers
  std::map<std::string, double> layers;
  std::map<std::string, std::uint64_t> counters;
  std::vector<SpanRec> spans;  // traced runs
};

void run_setup_only(const Options& o, Result& res);
void run_curve_pass(const Options& o, Result& res);
void run_select_mix(const Options& o, Result& res);
void run_serve_mixed(const Options& o, Result& res);
void run_certify_pass(const Options& o, Result& res);

}  // namespace perfbench
