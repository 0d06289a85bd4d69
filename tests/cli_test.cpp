// The CLI driver as a library: exit codes, I/O-error hardening, malformed
// argument diagnostics, and the global budget/strict flags — all exercised
// in-process through isex::cli::run, i.e. exactly the code path the shipped
// binary runs.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "isex/cli/driver.hpp"
#include "isex/frontend/fixtures.hpp"
#include "isex/frontend/lift.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/robust/budget.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/table.hpp"
#include "isex/workloads/tasks.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex::cli {
namespace {

/// Runs the CLI with stdout captured into *out (stderr discarded).
int run_captured(const std::vector<std::string>& args, std::string* out) {
  char path[] = "/tmp/isex_cli_test_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) return -1;
  std::cout.flush();
  ::fflush(stdout);
  ::fflush(stderr);
  const int saved_out = ::dup(1), saved_err = ::dup(2);
  const int null = ::open("/dev/null", O_WRONLY);
  ::dup2(fd, 1);
  ::dup2(null, 2);
  const int rc = run(args);
  std::cout.flush();
  ::fflush(stdout);
  ::fflush(stderr);
  ::dup2(saved_out, 1);
  ::dup2(saved_err, 2);
  ::close(saved_out);
  ::close(saved_err);
  ::close(null);
  ::close(fd);
  std::ifstream in(path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  std::remove(path);
  return rc;
}

/// Runs the CLI with its output discarded (the commands print tables; most
/// tests only care about the exit code).
int run_quiet(const std::vector<std::string>& args) {
  std::string ignored;
  return run_captured(args, &ignored);
}

TEST(Cli, NoArgsIsUsageError) { EXPECT_EQ(run_quiet({}), 2); }

TEST(Cli, UnknownCommandIsUsageError) {
  EXPECT_EQ(run_quiet({"frobnicate"}), 2);
}

TEST(Cli, ListSucceeds) { EXPECT_EQ(run_quiet({"list"}), 0); }

TEST(Cli, MalformedNumbersExitTwoNotCrash) {
  EXPECT_EQ(run_quiet({"select", "abc", "0.5", "edf", "crc32"}), 2);
  EXPECT_EQ(run_quiet({"select", "1.08", "nan-ish", "edf", "crc32"}), 2);
  EXPECT_EQ(run_quiet({"select", "1.08", "1.5", "edf", "crc32"}), 2);  // > 1
  EXPECT_EQ(run_quiet({"select", "-2", "0.5", "edf", "crc32"}), 2);    // <= 0
  EXPECT_EQ(run_quiet({"select", "1.08", "0.5", "lifo", "crc32"}), 2);
  EXPECT_EQ(run_quiet({"reconfig", "ten", "7"}), 2);
  EXPECT_EQ(run_quiet({"reconfig", "10", "-7"}), 2);
  EXPECT_EQ(run_quiet({"pareto", "crc32", "0"}), 2);  // eps must be > 0
}

TEST(Cli, UnknownBenchmarkExitsTwoWithSuggestion) {
  EXPECT_EQ(run_quiet({"curve", "crc33"}), 2);
  EXPECT_EQ(run_quiet({"select", "1.08", "0.5", "edf", "nosuchkernel"}), 2);
}

TEST(Cli, MalformedBudgetFlagsExitTwo) {
  EXPECT_EQ(run_quiet({"--time-budget", "soon", "list"}), 2);
  EXPECT_EQ(run_quiet({"--time-budget", "-5ms", "list"}), 2);
  EXPECT_EQ(run_quiet({"--time-budget=0", "list"}), 2);
  EXPECT_EQ(run_quiet({"--node-budget", "many", "list"}), 2);
  EXPECT_EQ(run_quiet({"--mem-budget", "-1G", "list"}), 2);
  EXPECT_EQ(run_quiet({"list", "--time-budget"}), 2);  // missing value
}

TEST(Cli, WellFormedBudgetFlagsAreAcceptedAnywhere) {
  EXPECT_EQ(run_quiet({"--time-budget", "2s", "list"}), 0);
  EXPECT_EQ(run_quiet({"list", "--node-budget=500K"}), 0);
  EXPECT_EQ(run_quiet({"--mem-budget", "64M", "--strict", "list"}), 0);
}

TEST(Cli, UnwritableMetricsPathExitsTwo) {
  EXPECT_EQ(run_quiet({"--metrics=/nonexistent-dir/m.json", "list"}), 2);
  EXPECT_EQ(run_quiet({"--metrics=/tmp/isex_cli_test_metrics.json", "list"}),
            0);
  std::remove("/tmp/isex_cli_test_metrics.json");
}

TEST(Cli, UnwritableTraceOutputExitsTwo) {
  EXPECT_EQ(run_quiet({"trace", "crc32", "-o", "/nonexistent-dir/t.json"}), 2);
}

TEST(Cli, SelectRunsAndReportsSchedulability) {
  // Two small kernels at low utilization: schedulable, exit 0.
  EXPECT_EQ(run_quiet({"select", "1.08", "0.5", "edf", "crc32", "sha"}), 0);
}

TEST(Cli, StrictWithStarvationBudgetExitsThree) {
  // One node of budget cannot finish the RMS branch-and-bound: the ladder
  // returns a non-Exact status and --strict turns that into exit 3.
  EXPECT_EQ(run_quiet({"--node-budget", "1", "--strict", "select", "1.08",
                       "0.5", "rms", "crc32", "sha"}),
            3);
  // Same run without --strict keeps the schedulability exit code.
  EXPECT_EQ(run_quiet({"--node-budget", "1", "select", "1.08", "0.5", "rms",
                       "crc32", "sha"}),
            0);
}

TEST(Cli, BudgetedSelectStillSucceedsUnderGenerousBudget) {
  EXPECT_EQ(run_quiet({"--time-budget", "5s", "--strict", "select", "1.08",
                       "0.5", "edf", "crc32", "sha"}),
            0);
}

TEST(Cli, CertifyWithoutBenchmarksIsUsageError) {
  EXPECT_EQ(run_quiet({"certify"}), 2);
  EXPECT_EQ(run_quiet({"certify", "crc33"}), 2);  // unknown benchmark
  EXPECT_EQ(run_quiet({"certify", "crc32", "--u0", "zero"}), 2);
  EXPECT_EQ(run_quiet({"certify", "crc32", "-o", "/nonexistent-dir/c.json"}),
            2);
}

TEST(Cli, CertifyPassesOnGenuineSolverOutput) {
  // Every stage's witness checker must accept the real solvers' answers.
  EXPECT_EQ(run_quiet({"certify", "crc32"}), 0);
}

TEST(Cli, CertifyIdentifiesEachBlockOnceOnAWarmTaskMemo) {
#if !ISEX_OBS_ENABLED
  GTEST_SKIP() << "counts connected enumerations through obs counters";
#endif
  // The pool check and the Pareto section both read the memoized curve's
  // own pool and items, so a warm memo leaves nothing to identify.
  workloads::cached_task("crc32");
  auto& calls = obs::Registry::global().counter("ise.enum.calls");
  const auto before = calls.get();
  ASSERT_EQ(run_quiet({"certify", "crc32"}), 0);
  EXPECT_EQ(calls.get() - before, 0u);
}

TEST(Cli, LiftIdentifiesEachHotBlockOnceAndPrintsTheTaskCurve) {
#if !ISEX_OBS_ENABLED
  GTEST_SKIP() << "counts connected enumerations through obs counters";
#endif
  const auto& lib = hw::CellLibrary::standard_018um();
  auto& calls = obs::Registry::global().counter("ise.enum.calls");
  for (const frontend::Fixture& f : frontend::fixtures()) {
    const auto before = calls.get();
    std::string out;
    ASSERT_EQ(run_captured({"lift", "--fixture", f.name}, &out), 0) << f.name;
    const auto enumerations = calls.get() - before;

    // The curve the benchmark tasks' path builds for the same program.
    const auto lifted =
        frontend::lift_elf(f.elf, "fixture:" + f.name, frontend::LiftOptions{});
    ASSERT_TRUE(std::holds_alternative<frontend::Lifted>(lifted)) << f.name;
    const ir::Program& prog = std::get<frontend::Lifted>(lifted).program;
    const auto counts = prog.wcet_counts(ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
    const auto curve = select::build_config_curve(
                           prog, counts, lib, select::task_curve_options(prog))
                           .curve;
    util::Table t({"area", "cycles", "speedup"});
    for (const auto& cfg : curve.points)
      t.row().cell(cfg.area, 2).cell(cfg.cycles, 0).cell(
          curve.base_cycles() / cfg.cycles, 3);
    std::ostringstream table;
    t.print(table);

    EXPECT_EQ(enumerations,
              static_cast<std::uint64_t>(
                  std::min(select::kMaxHotBlocks, prog.num_blocks())))
        << f.name;
    EXPECT_NE(out.find(table.str()), std::string::npos)
        << f.name << " printed:\n" << out << "expected the curve:\n"
        << table.str();
  }
}

TEST(Cli, CertifyRmsStageStopsWithinOneStrideOfACancel) {
#if !ISEX_OBS_ENABLED
  GTEST_SKIP() << "counts RMS search nodes through obs counters";
#endif
  // A pending SIGTERM/SIGINT cancel must stop the RMS witness search at its
  // next time-check stride instead of running to the 500000-node cap.
  const std::vector<std::string> args = {"certify", "crc32", "edn", "lms",
                                         "fft", "basicmath"};
  auto& nodes = obs::Registry::global().counter("customize.rms.nodes");
  const auto n0 = nodes.get();
  ASSERT_EQ(run_quiet(args), 0);
  const auto uncancelled = nodes.get() - n0;
  ASSERT_GT(uncancelled,
            static_cast<std::uint64_t>(robust::Budget::kTimeCheckStride));

  robust::request_global_cancel();
  const auto n1 = nodes.get();
  run_quiet(args);
  const auto cancelled = nodes.get() - n1;
  robust::clear_global_cancel();
  EXPECT_LE(cancelled,
            static_cast<std::uint64_t>(robust::Budget::kTimeCheckStride));
}

TEST(Cli, ParanoidSelectCertifiesCleanOnGenuineOutput) {
  EXPECT_EQ(run_quiet({"--paranoid", "select", "1.08", "0.5", "edf", "crc32",
                       "sha"}),
            0);
  EXPECT_EQ(run_quiet({"--paranoid", "--node-budget=200K", "select", "1.08",
                       "0.5", "rms", "crc32", "sha"}),
            0);
}

}  // namespace
}  // namespace isex::cli
