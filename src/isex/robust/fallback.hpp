// isex::robust — the graceful-degradation ladder.
//
// When a budget-bounded solver run comes back kBudgetTruncated, the ladder
// retries the problem with progressively cheaper strategies instead of
// surrendering the truncated incumbent immediately:
//   EDF selection:  fine-grid DP -> coarse-grid DP (grid x8) -> greedy
//                   gain/area knapsack;
//   RMS selection:  full branch-and-bound -> beam-limited branch-and-bound
//                   -> greedy knapsack validated by the exact RMS test.
// Each retry rung runs under a fresh slice of the original budget
// (FallbackOptions::retry_time_fraction / retry_node_divisor), so the whole
// ladder stays within a small constant factor of the requested budget. The
// best feasible value seen across rungs wins; results produced by a rung
// below the first are reported as kDegraded, and the rung trail is recorded
// in Outcome::detail and in the obs metrics registry.
//
// Identification has no ladder: a starved enumerate_candidates_bounded
// already returns the legal candidates found so far as kBudgetTruncated.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "isex/customize/select_rms.hpp"
#include "isex/robust/outcome.hpp"

namespace isex::robust {

struct FallbackOptions {
  /// Slice of the original wall-clock budget each retry rung may spend.
  double retry_time_fraction = 0.25;
  /// Each retry rung gets node_budget / retry_node_divisor charges.
  long retry_node_divisor = 4;
  /// Floor on a retry rung's node slice, so tiny budgets still let the
  /// cheap rungs do a useful amount of work.
  long retry_node_floor = 4096;
  /// First ladder rung to run (clamped to the last rung). The load-shedding
  /// hook: a server under pressure enters the ladder below the exact rung,
  /// trading optimality-gap for latency. Results from a non-zero start are
  /// relabelled kDegraded like any other below-first-rung answer.
  std::size_t start_rung = 0;
};

/// A fresh budget for one retry rung, sliced from the primary's limits.
Budget make_retry_budget(const Budget& primary, const FallbackOptions& fb);

/// Emits the certify.rung_demotions counter (out-of-line so the template
/// below stays free of the obs headers).
void count_rung_demotion();

/// Flight-recorder hooks, also out-of-line for the same reason. Records are
/// attributed to the calling thread's current request scope (the serve loop
/// opens one per request), so a response's rung/certify history is
/// reconstructible from the journal by request id.
void journal_rung(std::size_t rung, int status, bool certified_ok);
void journal_certify(long checks, long violations);

/// Generic ladder driver. Runs rung 0 against `budget`; while the result is
/// kBudgetTruncated and rungs remain, runs the next rung under a fresh slice
/// budget. `better(candidate, incumbent)` picks the value to keep across
/// rungs; any rung below the first that completes is relabelled kDegraded.
/// The returned Outcome carries the primary budget's report and a detail
/// trail naming every rung that ran.
///
/// Certification: a rung whose lambda already recorded a failing
/// Outcome::certificate, or whose value the optional `certifier` rejects, is
/// *demoted* — its value is discarded and the next rung runs, exactly as if
/// the rung had truncated. When every rung fails its certificate the first
/// failing outcome is returned (certificate attached) so the caller can see
/// what broke; its value must not be trusted.
template <typename T, typename Better>
Outcome<T> solve_with_fallback(
    Budget* budget, const FallbackOptions& fb,
    const std::vector<std::pair<std::string, std::function<Outcome<T>(Budget*)>>>&
        rungs,
    Better better,
    const std::function<certify::CertifyReport(const Outcome<T>&)>& certifier =
        nullptr) {
  Outcome<T> best;
  Outcome<T> first_failed;
  bool have = false, have_failed = false;
  std::string trail;
  const std::size_t first =
      rungs.empty() ? 0 : std::min(fb.start_rung, rungs.size() - 1);
  for (std::size_t i = first; i < rungs.size(); ++i) {
    Budget slice;
    Budget* b = budget;
    if (i > first && budget != nullptr) {
      slice = make_retry_budget(*budget, fb);
      b = &slice;
    }
    Outcome<T> r = rungs[i].second(b);
    if (i > 0 && r.status == Status::kExact) r.status = Status::kDegraded;
    if (r.certificate.ok() && certifier) r.certificate.merge(certifier(r));
    journal_rung(i, static_cast<int>(r.status), r.certificate.ok());
    if (!trail.empty()) trail += " -> ";
    if (!r.certificate.ok()) {
      trail += rungs[i].first + ":certify-failed";
      count_rung_demotion();
      if (!have_failed) {
        first_failed = std::move(r);
        have_failed = true;
      }
      continue;  // demote: try the next rung rather than accept bad output
    }
    trail += rungs[i].first + ":" + to_string(r.status);
    if (r.status == Status::kInfeasible) {
      if (!have) {
        best = std::move(r);
        have = true;
      }
      break;  // a proof of infeasibility ends the ladder
    }
    if (!have || better(r, best)) {
      best = std::move(r);
      have = true;
    }
    if (best.status != Status::kBudgetTruncated) break;
  }
  if (!have && have_failed) best = std::move(first_failed);
  best.detail = best.detail.empty() ? trail : best.detail + "; " + trail;
  if (budget != nullptr) best.budget = budget->report();
  return best;
}

/// EDF selection ladder (see file comment). `base` carries the grid and
/// constraints of the first rung; its budget field is overridden.
Outcome<customize::SelectionResult> select_edf_with_fallback(
    const rt::TaskSet& ts, double area_budget,
    const customize::EdfOptions& base, Budget* budget,
    const FallbackOptions& fb = {});

/// RMS selection ladder. Requires ts sorted by increasing period.
Outcome<customize::RmsResult> select_rms_with_fallback(
    const rt::TaskSet& ts, double area_budget,
    const customize::RmsOptions& base, Budget* budget,
    const FallbackOptions& fb = {});

}  // namespace isex::robust
