#include "isex/robust/fallback.hpp"

#include <algorithm>

#include "isex/certify/schedule.hpp"
#include "isex/customize/heuristics.hpp"
#include "isex/obs/journal.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/obs/trace.hpp"
#include "isex/rt/schedulability.hpp"

namespace isex::robust {

void count_rung_demotion() { ISEX_COUNT("certify.rung_demotions"); }

void journal_rung(std::size_t rung, int status, bool certified_ok) {
  ISEX_JOURNAL(kRung, kSolve, 0, rung, certified_ok ? status : -1);
}

void journal_certify(long checks, long violations) {
  ISEX_JOURNAL(kCertify, kCertify, 0, checks, violations);
}

Budget make_retry_budget(const Budget& primary, const FallbackOptions& fb) {
  const BudgetReport r = primary.report();
  Budget b;
  if (r.time_budget_seconds > 0)
    b.set_time_budget(r.time_budget_seconds * fb.retry_time_fraction);
  if (r.node_budget >= 0)
    b.set_node_budget(std::max(r.node_budget / fb.retry_node_divisor,
                               fb.retry_node_floor));
  if (r.mem_budget_bytes > 0) b.set_mem_budget(r.mem_budget_bytes);
  return b;
}

namespace {

/// Area-unconstrained utilization lower bound (every task at its fastest
/// configuration) — the gap denominator for degraded selection rungs.
double util_lower_bound(const rt::TaskSet& ts) {
  double lb = 0;
  for (const rt::Task& t : ts.tasks) lb += t.best_cycles() / t.period;
  return lb;
}

double gap_vs_lb(const rt::TaskSet& ts, double utilization) {
  const double lb = util_lower_bound(ts);
  return lb > 0 ? std::max(0.0, (utilization - lb) / lb) : 0.0;
}

/// Lower utilization wins; a schedulable value always beats an
/// unschedulable one.
template <typename R>
bool better_selection(const Outcome<R>& a, const Outcome<R>& b) {
  if (a.value.schedulable != b.value.schedulable) return a.value.schedulable;
  return a.value.utilization < b.value.utilization;
}

}  // namespace

Outcome<customize::SelectionResult> select_edf_with_fallback(
    const rt::TaskSet& ts, double area_budget,
    const customize::EdfOptions& base, Budget* budget,
    const FallbackOptions& fb) {
  ISEX_SPAN_CAT("robust.fallback.select_edf", "robust");
  using R = customize::SelectionResult;
  std::vector<std::pair<std::string, std::function<Outcome<R>(Budget*)>>>
      rungs;
  rungs.emplace_back("dp", [&](Budget* b) {
    customize::EdfOptions o = base;
    o.budget = b;
    return customize::select_edf_bounded(ts, area_budget, o);
  });
  rungs.emplace_back("coarse-dp", [&](Budget* b) {
    ISEX_COUNT("robust.fallback.edf.coarse_retries");
    customize::EdfOptions o = base;
    o.area_grid = base.area_grid * 8;
    o.budget = b;
    auto r = customize::select_edf_bounded(ts, area_budget, o);
    // The coarse grid is itself an approximation: even a completed run is
    // degraded relative to the requested grid, so report the lb gap.
    if (r.status == Status::kExact)
      r.optimality_gap = gap_vs_lb(ts, r.value.utilization);
    return r;
  });
  rungs.emplace_back("greedy", [&](Budget*) {
    ISEX_COUNT("robust.fallback.edf.greedy_retries");
    Outcome<R> r;
    r.value = customize::select_heuristic(
        ts, area_budget, customize::Heuristic::kBestGainAreaRatio);
    r.optimality_gap = gap_vs_lb(ts, r.value.utilization);
    return r;
  });
  // Certify each rung's answer against the exact EDF test before the ladder
  // accepts it; the claims are checked as the caller will see them (status
  // and gap synced from the outcome).
  std::function<certify::CertifyReport(const Outcome<R>&)> certifier =
      [&ts, area_budget](const Outcome<R>& o) {
        R v = o.value;
        v.status = o.status;
        v.optimality_gap = o.optimality_gap;
        certify::CertifyReport rep =
            certify::check_selection_edf(ts, area_budget, v);
        journal_certify(rep.checks, static_cast<long>(rep.violations.size()));
        return rep;
      };
  Outcome<R> out =
      solve_with_fallback<R>(budget, fb, rungs, better_selection<R>, certifier);
  out.value.status = out.status;
  out.value.optimality_gap = out.optimality_gap;
  return out;
}

Outcome<customize::RmsResult> select_rms_with_fallback(
    const rt::TaskSet& ts, double area_budget,
    const customize::RmsOptions& base, Budget* budget,
    const FallbackOptions& fb) {
  ISEX_SPAN_CAT("robust.fallback.select_rms", "robust");
  using R = customize::RmsResult;
  constexpr long kBeamNodes = 20000;
  std::vector<std::pair<std::string, std::function<Outcome<R>(Budget*)>>>
      rungs;
  rungs.emplace_back("bnb", [&](Budget* b) {
    customize::RmsOptions o = base;
    o.budget = b;
    return customize::select_rms_bounded(ts, area_budget, o);
  });
  rungs.emplace_back("beam-bnb", [&](Budget* b) {
    ISEX_COUNT("robust.fallback.rms.beam_retries");
    customize::RmsOptions o = base;
    o.max_nodes = base.max_nodes >= 0 ? std::min(base.max_nodes, kBeamNodes)
                                      : kBeamNodes;
    o.budget = b;
    Outcome<R> r;
    r.value = customize::select_rms(ts, area_budget, o);
    // A beam cap is an approximation even when it finishes: never claim
    // exactness from this rung, but do not claim truncation either unless
    // the slice budget itself ran out.
    r.status = r.value.status == Status::kBudgetTruncated &&
                       b != nullptr && b->exhausted_cached()
                   ? Status::kBudgetTruncated
                   : Status::kDegraded;
    r.optimality_gap = gap_vs_lb(ts, r.value.utilization);
    return r;
  });
  rungs.emplace_back("greedy+rms-test", [&](Budget*) {
    ISEX_COUNT("robust.fallback.rms.greedy_retries");
    customize::SelectionResult g = customize::select_heuristic(
        ts, area_budget, customize::Heuristic::kBestGainAreaRatio);
    Outcome<R> r;
    static_cast<customize::SelectionResult&>(r.value) = g;
    // The greedy selector targets EDF; validate its assignment with the
    // exact RMS test and fall back to all-software when it fails.
    auto rms_ok = [&](const std::vector<int>& assignment) {
      std::vector<double> cycles, periods;
      cycles.reserve(ts.size());
      periods.reserve(ts.size());
      for (std::size_t i = 0; i < ts.size(); ++i) {
        cycles.push_back(
            ts.tasks[i]
                .configs[static_cast<std::size_t>(assignment[i])]
                .cycles);
        periods.push_back(ts.tasks[i].period);
      }
      return rt::rms_schedulable(cycles, periods);
    };
    if (!rms_ok(r.value.assignment)) {
      r.value.assignment.assign(ts.size(), 0);
      r.value.utilization = ts.utilization(r.value.assignment);
      r.value.area_used = 0;
    }
    r.value.schedulable = rms_ok(r.value.assignment);
    r.value.found_feasible = r.value.schedulable;
    r.value.completed = true;
    r.optimality_gap = gap_vs_lb(ts, r.value.utilization);
    return r;
  });
  std::function<certify::CertifyReport(const Outcome<R>&)> certifier =
      [&ts, area_budget](const Outcome<R>& o) {
        R v = o.value;
        v.status = o.status;
        v.optimality_gap = o.optimality_gap;
        certify::CertifyReport rep =
            certify::check_selection_rms(ts, area_budget, v);
        journal_certify(rep.checks, static_cast<long>(rep.violations.size()));
        return rep;
      };
  Outcome<R> out =
      solve_with_fallback<R>(budget, fb, rungs, better_selection<R>, certifier);
  out.value.status = out.status;
  out.value.optimality_gap = out.optimality_gap;
  return out;
}

}  // namespace isex::robust
