// Extension: budget-stress sweep over every budget-bounded solver.
//
// Drives the robust:: execution-budget layer with adversarial synthetic
// inputs (wide DP tables, deep branch-and-bound trees, dense DFGs) under a
// deliberately tight budget, and checks the anytime-result contract on every
// run:
//   * the returned status is Exact, BudgetTruncated, or Degraded — never a
//     crash, an exception, or a spurious Infeasible on a feasible input;
//   * the run terminates within 2x the wall-clock budget (plus a fixed
//     scheduling-noise allowance) even though the solvers are worst-case
//     exponential;
//   * the incumbent is feasible: selection assignments respect the area
//     budget, gaps are non-negative, and Exact results report gap 0.
//
// The CI budget-stress job runs this with a tight --time-budget and fails on
// any violated check (nonzero exit = number of failed runs). With --paranoid
// every incumbent must additionally carry a passing witness certificate
// (independent checkers from isex::certify), proving the anytime layer never
// hands back a corrupt result even when starved.
//
// Usage: ext_budget_stress [--time-budget 20ms] [--node-budget 50K]
//                          [--trials N] [--csv out.csv] [--paranoid]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "isex/certify/ci.hpp"
#include "isex/certify/schedule.hpp"
#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/ise/single_cut.hpp"
#include "isex/robust/fallback.hpp"
#include "isex/rtreconfig/algorithms.hpp"
#include "isex/util/rng.hpp"
#include "isex/util/stopwatch.hpp"
#include "isex/util/table.hpp"

using namespace isex;

namespace {

/// Adversarial synthetic task set: long configuration curves and large
/// periods make the EDF DP table wide and the RMS branch-and-bound deep.
rt::TaskSet adversarial_taskset(util::Rng& rng, int num_tasks,
                                int num_configs) {
  rt::TaskSet ts;
  for (int i = 0; i < num_tasks; ++i) {
    rt::Task t;
    t.name = "T" + std::to_string(i);
    const double sw = rng.uniform_int(2000, 40000);
    t.period = sw * rng.uniform_real(1.2, 4.0);
    t.configs.push_back({0, sw});
    double area = 0, cycles = sw;
    for (int j = 1; j < num_configs; ++j) {
      area += rng.uniform_real(0.5, 7.0);
      cycles *= rng.uniform_real(0.82, 0.97);
      t.configs.push_back({area, std::max(1.0, std::floor(cycles))});
    }
    ts.tasks.push_back(std::move(t));
  }
  ts.sort_by_period();
  return ts;
}

/// Dense random DAG of valid ops only: worst case for the connected-subgraph
/// enumeration (no invalid separators to cut the search space).
ir::Dfg adversarial_dfg(util::Rng& rng, int num_inputs, int num_ops) {
  using ir::Opcode;
  static constexpr Opcode kOps[] = {Opcode::kAdd, Opcode::kSub, Opcode::kAnd,
                                    Opcode::kOr,  Opcode::kXor, Opcode::kShl};
  ir::Dfg dfg;
  std::vector<ir::NodeId> producers;
  for (int i = 0; i < num_inputs; ++i)
    producers.push_back(dfg.add(Opcode::kInput));
  for (int i = 0; i < num_ops; ++i) {
    const Opcode op = kOps[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    // Bias operands toward recent producers: deep, well-connected DAGs.
    std::vector<ir::NodeId> operands;
    for (int a = 0; a < 2; ++a) {
      const int lo = std::max(0, static_cast<int>(producers.size()) - 24);
      operands.push_back(producers[static_cast<std::size_t>(
          rng.uniform_int(lo, static_cast<int>(producers.size()) - 1))]);
    }
    producers.push_back(dfg.add(op, std::move(operands)));
  }
  for (int i = 0; i < dfg.num_nodes(); ++i)
    if (ir::produces_value(dfg.node(i).op) && dfg.node(i).consumers.empty())
      dfg.mark_live_out(i);
  return dfg;
}

rtreconfig::Problem adversarial_problem(util::Rng& rng, int n) {
  rtreconfig::Problem p;
  p.max_area = 40;
  p.reconfig_cost = 500;
  p.area_grid = 0.25;  // fine grid: wide DP per k
  for (int i = 0; i < n; ++i) {
    rtreconfig::TaskCis t;
    t.name = "L" + std::to_string(i);
    const double sw = rng.uniform_int(5000, 80000);
    t.period = sw * rng.uniform_real(1.5, 5.0);
    t.versions.push_back({0, sw});
    double area = 0, cycles = sw;
    for (int j = 0; j < 6; ++j) {
      area += rng.uniform_real(2.0, 12.0);
      cycles *= rng.uniform_real(0.7, 0.95);
      t.versions.push_back({area, std::floor(cycles)});
    }
    p.tasks.push_back(std::move(t));
  }
  return p;
}

struct Run {
  std::string solver;
  int instance = 0;
  robust::Status status = robust::Status::kExact;
  double gap = 0;
  double wall_seconds = 0;
  long nodes = 0;
  std::string why;  // first violated check, empty when ok

  bool ok() const { return why.empty(); }
};

double parse_time_spec(const std::string& s) {
  if (s.size() > 2 && s.compare(s.size() - 2, 2, "ms") == 0)
    return std::stod(s.substr(0, s.size() - 2)) * 1e-3;
  if (s.size() > 1 && s.back() == 's') return std::stod(s.substr(0, s.size() - 1));
  return std::stod(s);
}

long parse_count_spec(const std::string& s) {
  long scale = 1;
  std::string num = s;
  if (!s.empty() && (s.back() == 'K' || s.back() == 'k')) scale = 1000;
  if (!s.empty() && (s.back() == 'M' || s.back() == 'm')) scale = 1000000;
  if (scale != 1) num = s.substr(0, s.size() - 1);
  return static_cast<long>(std::stod(num) * static_cast<double>(scale));
}

}  // namespace

int main(int argc, char** argv) {
  double time_budget = 0.02;  // 20 ms: tight enough to truncate everything
  long node_budget = -1;
  int trials = 4;
  bool paranoid = false;
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--time-budget") time_budget = parse_time_spec(next());
    else if (a == "--node-budget") node_budget = parse_count_spec(next());
    else if (a == "--trials") trials = std::stoi(next());
    else if (a == "--csv") csv_path = next();
    else if (a == "--paranoid") paranoid = true;
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  // 2x the budget for the ladder (primary + sliced retries) plus a fixed
  // allowance for scheduler noise, the unbudgeted linear rungs, and the
  // coarse time-check stride. Certification is not budget-charged (it runs
  // after the solver hands back its answer), so paranoid mode widens the
  // allowance rather than the budget-proportional factor.
  const double wall_cap = 2 * time_budget + (paranoid ? 2.0 : 0.25);

  std::vector<Run> runs;
  auto checked = [&](Run r, bool feasible, const char* feasible_why,
                     bool certified = true) {
    if (r.status == robust::Status::kInfeasible)
      r.why = "Infeasible on a feasible input";
    else if (r.wall_seconds > wall_cap)
      r.why = "overran 2x wall budget";
    else if (r.gap < 0)
      r.why = "negative optimality gap";
    else if (r.status == robust::Status::kExact && r.gap != 0)
      r.why = "Exact with nonzero gap";
    else if (!feasible)
      r.why = feasible_why;
    else if (!certified)
      r.why = "witness checker rejected the result";
    runs.push_back(std::move(r));
  };

  auto make_budget = [&]() {
    robust::Budget b;
    b.set_time_budget(time_budget);
    if (node_budget >= 0) b.set_node_budget(node_budget);
    return b;
  };

  for (int trial = 0; trial < trials; ++trial) {
    util::Rng rng(0xB0D6E7u + static_cast<std::uint64_t>(trial) * 7919);

    {  // EDF selection ladder: 48 tasks x 24 configs, 0.05-adder grid.
      auto ts = adversarial_taskset(rng, 48, 24);
      customize::EdfOptions eo;
      eo.area_grid = 0.05;
      const double area = 0.6 * ts.max_area();
      robust::Budget b = make_budget();
      util::Stopwatch sw;
      const auto out = robust::select_edf_with_fallback(ts, area, eo, &b);
      Run r{"select_edf", trial, out.status, out.optimality_gap, sw.seconds(),
            out.budget.nodes_charged, ""};
      const bool feasible =
          out.value.assignment.size() == ts.size() &&
          out.value.area_used <= area + 1e-6;
      checked(std::move(r), feasible, "assignment violates area budget",
              !paranoid || out.certified());
    }

    {  // RMS selection ladder: 14 tasks x 12 configs blows up the B&B.
      // Rescale periods so the all-software assignment passes Liu-Layland
      // (U_sw = 0.68 < ln 2): the instance is provably feasible at zero
      // area, so any Infeasible answer is a real contract violation, while
      // minimizing utilization over 12^14 assignments stays adversarial.
      auto ts = adversarial_taskset(rng, 14, 12);
      double u_sw = 0;
      for (const auto& t : ts.tasks) u_sw += t.sw_cycles() / t.period;
      for (auto& t : ts.tasks) t.period *= u_sw / 0.68;
      const double area = 0.5 * ts.max_area();
      robust::Budget b = make_budget();
      util::Stopwatch sw;
      const auto out =
          robust::select_rms_with_fallback(ts, area, customize::RmsOptions{}, &b);
      Run r{"select_rms", trial, out.status, out.optimality_gap, sw.seconds(),
            out.budget.nodes_charged, ""};
      const bool feasible =
          out.value.assignment.size() == ts.size() &&
          out.value.area_used <= area + 1e-6;
      checked(std::move(r), feasible, "assignment violates area budget",
              !paranoid || out.certified());
    }

    {  // Anytime enumeration: dense 360-op DFG, no invalid separators.
      const auto dfg = adversarial_dfg(rng, 10, 360);
      const auto& lib = hw::CellLibrary::standard_018um();
      robust::Budget b = make_budget();
      ise::EnumOptions eo;
      eo.budget = &b;
      util::Stopwatch sw;
      const auto out = ise::enumerate_candidates_bounded(dfg, lib, eo);
      Run r{"enumerate", trial, out.status, out.optimality_gap, sw.seconds(),
            b.report().nodes_charged, ""};
      checked(std::move(r), true, "",
              !paranoid || certify::check_candidate_pool(
                               dfg, lib, eo.constraints, out.value).ok());
    }

    {  // Optimal single cut on the same dense DFG.
      const auto dfg = adversarial_dfg(rng, 10, 360);
      const auto& lib = hw::CellLibrary::standard_018um();
      ise::SingleCutOptions so;
      robust::Budget b = make_budget();
      so.budget = &b;
      util::Stopwatch sw;
      const auto res = ise::optimal_single_cut(dfg, lib, so);
      Run r{"single_cut", trial, res.status, res.optimality_gap, sw.seconds(),
            b.report().nodes_charged, ""};
      bool certified = true;
      if (paranoid && res.best)
        certified =
            certify::check_candidate(dfg, lib, so.constraints, *res.best).ok();
      checked(std::move(r), true, "", certified);
    }

    {  // Reconfiguration DP sweep: 40 loops, fine grid.
      const auto p = adversarial_problem(rng, 40);
      robust::Budget b = make_budget();
      util::Stopwatch sw;
      const auto out = rtreconfig::dp_partition_bounded(p, &b);
      Run r{"rtreconfig_dp", trial, out.status, out.optimality_gap,
            sw.seconds(), out.budget.nodes_charged, ""};
      const bool feasible = std::isfinite(out.value.utilization) &&
                            out.value.version.size() == p.tasks.size();
      checked(std::move(r), feasible, "non-finite or malformed solution",
              !paranoid || certify::check_rtreconfig(p, out.value).ok());
    }

    {  // Reconfiguration branch-and-bound: 12 loops is already exponential.
      const auto p = adversarial_problem(rng, 12);
      robust::Budget b = make_budget();
      util::Stopwatch sw;
      const auto res = rtreconfig::optimal_partition(p, -1, &b);
      Run r{"rtreconfig_bnb", trial, res.status, res.optimality_gap,
            sw.seconds(), b.report().nodes_charged, ""};
      const bool feasible = std::isfinite(res.solution.utilization) &&
                            res.solution.version.size() == p.tasks.size();
      checked(std::move(r), feasible, "non-finite or malformed solution",
              !paranoid || certify::check_rtreconfig(p, res.solution).ok());
    }
  }

  util::Table t({"solver", "trial", "status", "gap", "wall(s)", "nodes",
                 "check"});
  int failures = 0;
  for (const auto& r : runs) {
    if (!r.ok()) ++failures;
    t.row()
        .cell(r.solver)
        .cell(r.instance)
        .cell(robust::to_string(r.status))
        .cell(r.gap, 4)
        .cell(r.wall_seconds, 4)
        .cell(r.nodes)
        .cell(r.ok() ? "ok" : r.why);
  }
  t.print();
  std::printf("\n%zu runs under a %.0f ms budget (wall cap %.0f ms%s): "
              "%d failure(s)\n",
              runs.size(), time_budget * 1e3, wall_cap * 1e3,
              paranoid ? ", paranoid" : "", failures);

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   csv_path.c_str());
      return 2;
    }
    out << "solver,trial,status,gap,wall_seconds,nodes,ok,why\n";
    for (const auto& r : runs)
      out << r.solver << ',' << r.instance << ','
          << robust::to_string(r.status) << ',' << r.gap << ','
          << r.wall_seconds << ',' << r.nodes << ',' << (r.ok() ? 1 : 0)
          << ',' << r.why << '\n';
  }
  return failures == 0 ? 0 : 1;
}
