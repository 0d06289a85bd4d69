// Byte-identity across thread counts.
//
// The contract under test: any thread count produces results byte-identical
// to --threads 1. Only cold task builds fan out (across kernels); every
// solver runs serially, so this guards against a thread count leaking into
// an answer. Covered here:
//   * ir::Dfg::is_convex (union-based) vs the reference O(V) scan;
//   * candidate enumeration, including the max_candidates-capped regime:
//     one block enumerates serially at any thread count, so the truncation
//     point and the enumeration work counters must not move;
//   * full configuration curves over every registered benchmark kernel;
//   * RMS branch-and-bound (with its node count) and EDF DP selections;
//   * wall-clock-truncated runs: never better than exact, every emitted
//     candidate also emitted by the unbudgeted run;
//   * the --threads CLI flag (parse, reject, byte-identical certify
//     including --paranoid).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "isex/cli/driver.hpp"
#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/rng.hpp"
#include "isex/util/task_pool.hpp"
#include "isex/workloads/patterns.hpp"
#include "isex/workloads/tasks.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

class ThreadCap {
 public:
  explicit ThreadCap(int n) { util::set_max_threads(n); }
  ~ThreadCap() { util::set_max_threads(0); }
};

ir::Dfg random_dfg(std::uint64_t seed, int ops) {
  util::Rng rng(seed);
  ir::Dfg d;
  auto in = workloads::emit_inputs(d, 5);
  workloads::emit_expression(d, in, ops, workloads::OpMix{}, rng);
  workloads::seal_block(d);
  return d;
}

std::string candidate_key(const ise::Candidate& c) {
  std::string s;
  c.nodes.for_each([&](std::size_t i) { s += std::to_string(i) + ","; });
  char buf[64];
  std::snprintf(buf, sizeof buf, "|a=%.17g|g=%.17g", c.est.area,
                c.total_gain());
  return s + buf;
}

std::string serialize_candidates(const std::vector<ise::Candidate>& v) {
  std::string s;
  for (const auto& c : v) s += candidate_key(c) + "\n";
  return s;
}

std::string serialize_curve(const select::ConfigCurve& c) {
  std::string s;
  char buf[96];
  for (const auto& p : c.points) {
    std::snprintf(buf, sizeof buf, "%.17g,%.17g;", p.area, p.cycles);
    s += buf;
  }
  return s;
}

std::string serialize_selection(const customize::SelectionResult& r) {
  std::string s;
  for (int a : r.assignment) s += std::to_string(a) + ";";
  char buf[96];
  std::snprintf(buf, sizeof buf, "U=%.17g,A=%.17g,s=%d", r.utilization,
                r.area_used, r.schedulable ? 1 : 0);
  return s + buf;
}

TEST(ParallelDeterminism, IsConvexMatchesReferenceScan) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const ir::Dfg d = random_dfg(seed, 80);
    util::Rng rng(seed * 977);
    int convex = 0, nonconvex = 0;
    for (int trial = 0; trial < 400; ++trial) {
      util::Bitset s = d.empty_set();
      const int k = rng.uniform_int(1, 12);
      for (int j = 0; j < k; ++j)
        s.set(static_cast<std::size_t>(
            rng.uniform_int(0, d.num_nodes() - 1)));
      const bool fast = d.is_convex(s);
      const bool slow = d.is_convex_scan(s);
      ASSERT_EQ(fast, slow) << "seed " << seed << " trial " << trial;
      (fast ? convex : nonconvex)++;
    }
    // The trial mix must actually exercise both outcomes.
    EXPECT_GT(convex, 0);
    EXPECT_GT(nonconvex, 0);
  }
}

TEST(ParallelDeterminism, EnumerationByteIdenticalAcrossThreadCounts) {
  const ir::Dfg d = random_dfg(7, 160);
  ise::EnumOptions opts;
  opts.max_candidates = 50000;
  std::string baseline;
  {
    ThreadCap cap(1);
    baseline = serialize_candidates(ise::enumerate_candidates(d, lib(), opts));
  }
  ASSERT_FALSE(baseline.empty());
  for (int t : {2, 4, 8}) {
    ThreadCap cap(t);
    EXPECT_EQ(baseline,
              serialize_candidates(ise::enumerate_candidates(d, lib(), opts)))
        << t << " threads";
  }
}

TEST(ParallelDeterminism, CappedEnumerationIdenticalAcrossThreadCounts) {
  // A cap that bites mid-seed: the thread count must change neither where
  // the enumeration stops nor how much work it did to get there.
  const ir::Dfg d = random_dfg(13, 200);
  const std::vector<std::string> work_counters = {
      "ise.enum.grow_calls", "ise.enum.candidates", "ise.miso.candidates"};
  // The serialized candidates and the run's work-counter deltas.
  auto run = [&](const ise::EnumOptions& opts) {
    std::vector<std::uint64_t> work;
    for (const auto& name : work_counters)
      work.push_back(obs::Registry::global().counter(name).get());
    const std::string out =
        serialize_candidates(ise::enumerate_candidates(d, lib(), opts));
    for (std::size_t i = 0; i < work.size(); ++i)
      work[i] =
          obs::Registry::global().counter(work_counters[i]).get() - work[i];
    return std::make_pair(out, work);
  };
  for (int cap_candidates : {7, 50, 333}) {
    ise::EnumOptions opts;
    opts.max_candidates = cap_candidates;
    std::pair<std::string, std::vector<std::uint64_t>> baseline;
    {
      ThreadCap cap(1);
      baseline = run(opts);
    }
#if ISEX_OBS_ENABLED
    EXPECT_EQ(baseline.second[0], static_cast<std::uint64_t>(cap_candidates))
        << "the cap must bind";
#endif
    for (int t : {2, 8}) {
      ThreadCap cap(t);
      const auto got = run(opts);
      EXPECT_EQ(baseline.first, got.first)
          << cap_candidates << " cap, " << t << " threads";
      EXPECT_EQ(baseline.second, got.second)
          << "grow_calls/candidates/miso.candidates at " << cap_candidates
          << " cap, " << t << " threads";
    }
  }
}

TEST(ParallelDeterminism, ConfigCurvesByteIdenticalOnEveryKernel) {
  const auto& names = workloads::benchmark_names();
  ASSERT_GE(names.size(), 18u);
  const std::set<std::string> deep = {"crc32", "sha", "aes", "3des"};
  for (const auto& name : names) {
    const ir::Program prog = workloads::make_benchmark(name);
    const auto counts = prog.wcet_counts(ir::Program::sum_cost(
        [](const ir::Node& n) { return lib().sw_cycles(n); }));
    select::CurveOptions opts;
    opts.enum_opts.max_candidates = 20000;
    opts.enum_opts.max_candidate_nodes = 16;
    std::string baseline;
    {
      ThreadCap cap(1);
      baseline = serialize_curve(
          select::build_config_curve(prog, counts, lib(), opts).curve);
    }
    ASSERT_FALSE(baseline.empty()) << name;
    // Every kernel at 4 threads; the heavy/cap-binding ones at 2 and 8 too.
    std::vector<int> threads = {4};
    if (deep.count(name) != 0) threads = {2, 4, 8};
    for (int t : threads) {
      ThreadCap cap(t);
      EXPECT_EQ(baseline, serialize_curve(select::build_config_curve(
                              prog, counts, lib(), opts).curve))
          << name << " at " << t << " threads";
    }
  }
}

TEST(ParallelDeterminism, RmsSelectionByteIdenticalAcrossThreadCounts) {
  auto ts = workloads::make_taskset(
      {"crc32", "sha", "g721decode", "adpcm_enc", "blowfish", "djpeg"}, 1.05);
  ts.sort_by_period();
  const double budget = 0.5 * ts.max_area();
  std::string baseline;
  long baseline_nodes = 0;
  {
    ThreadCap cap(1);
    const auto sel = customize::select_rms(ts, budget);
    baseline = serialize_selection(sel);
    baseline_nodes = sel.nodes_visited;
  }
  ASSERT_GT(baseline_nodes, 0);
  for (int t : {2, 4, 8}) {
    ThreadCap cap(t);
    const auto sel = customize::select_rms(ts, budget);
    EXPECT_EQ(baseline, serialize_selection(sel)) << t << " threads";
    // The search is serial, so its work does not depend on threads either.
    EXPECT_EQ(baseline_nodes, sel.nodes_visited) << t << " threads";
  }
}

TEST(ParallelDeterminism, EdfSelectionByteIdenticalAcrossThreadCounts) {
  auto ts = workloads::make_taskset(
      {"crc32", "sha", "g721decode", "blowfish"}, 1.05);
  ts.sort_by_period();
  const double budget = 0.5 * ts.max_area();
  customize::EdfOptions opts;
  // A fine grid (4097-cell rows) pins a wide DP table at every thread count.
  opts.area_grid = budget / 4096.0;
  std::string baseline;
  {
    ThreadCap cap(1);
    baseline = serialize_selection(customize::select_edf(ts, budget, opts));
  }
  for (int t : {2, 4, 8}) {
    ThreadCap cap(t);
    EXPECT_EQ(baseline,
              serialize_selection(customize::select_edf(ts, budget, opts)))
        << t << " threads";
  }
}

TEST(ParallelDeterminism, TimeTruncatedParallelRunIsNeverBetterThanExact) {
  // Wall-clock budgets may truncate anywhere, so truncated runs are not
  // byte-reproducible — but they must stay sound: a subset of what the
  // exact run emits, never a different or larger answer.
  const ir::Dfg d = random_dfg(29, 260);
  ise::EnumOptions exact_opts;
  exact_opts.max_candidates = 200000;
  ThreadCap cap(8);
  const auto exact = ise::enumerate_candidates(d, lib(), exact_opts);
  std::set<std::string> exact_keys;
  for (const auto& c : exact) exact_keys.insert(candidate_key(c));

  for (double seconds : {1e-5, 1e-3}) {
    robust::Budget b;
    b.set_time_budget(seconds);
    ise::EnumOptions opts = exact_opts;
    opts.budget = &b;
    const auto truncated = ise::enumerate_candidates(d, lib(), opts);
    EXPECT_LE(truncated.size(), exact.size());
    for (const auto& c : truncated)
      EXPECT_EQ(exact_keys.count(candidate_key(c)), 1u)
          << "truncated run emitted a candidate the exact run never did";
  }
}

// --- CLI: the --threads flag -------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int run_captured(const std::vector<std::string>& args,
                 const std::string& stdout_path) {
  ::fflush(stdout);
  ::fflush(stderr);
  const int out = ::dup(1), err = ::dup(2);
  const int cap = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                         0644);
  const int null = ::open("/dev/null", O_WRONLY);
  ::dup2(cap, 1);
  ::dup2(null, 2);
  const int rc = cli::run(args);
  ::fflush(stdout);
  ::fflush(stderr);
  ::dup2(out, 1);
  ::dup2(err, 2);
  ::close(out);
  ::close(err);
  ::close(cap);
  ::close(null);
  return rc;
}

TEST(ParallelDeterminism, ThreadsFlagParsesAndRejects) {
  const std::string out = "/tmp/isex_threads_flag.txt";
  EXPECT_EQ(run_captured({"--threads", "4", "list"}, out), 0);
  EXPECT_EQ(run_captured({"--threads=2", "list"}, out), 0);
  EXPECT_EQ(run_captured({"--threads", "0", "list"}, out), 2);
  EXPECT_EQ(run_captured({"--threads", "257", "list"}, out), 2);
  EXPECT_EQ(run_captured({"--threads", "nope", "list"}, out), 2);
  EXPECT_EQ(run_captured({"--threads=", "list"}, out), 2);
  util::set_max_threads(0);
  std::remove(out.c_str());
}

TEST(ParallelDeterminism, ParanoidCertifyByteIdenticalAcrossThreadCounts) {
  const std::string report = "/tmp/isex_par_certify.json";
  const std::string out = "/tmp/isex_par_certify_stdout.txt";
  auto args = [&](const char* threads) -> std::vector<std::string> {
    return {threads, "--paranoid", "certify", "crc32", "sha", "-o", report};
  };
  ASSERT_EQ(run_captured(args("--threads=1"), out), 0);
  const std::string report1 = slurp(report);
  const std::string stdout1 = slurp(out);
  ASSERT_FALSE(report1.empty());
  for (const char* t : {"--threads=2", "--threads=8"}) {
    ASSERT_EQ(run_captured(args(t), out), 0);
    EXPECT_EQ(report1, slurp(report)) << t;
    EXPECT_EQ(stdout1, slurp(out)) << t;
  }
  util::set_max_threads(0);
  std::remove(report.c_str());
  std::remove(out.c_str());
}

}  // namespace
}  // namespace isex
