#include "isex/certify/pareto.hpp"

#include <algorithm>
#include <cmath>

#include "isex/obs/metrics.hpp"

namespace isex::certify {

namespace {

void publish(const CertifyReport& r) {
  ISEX_COUNT_ADD("certify.pareto.checks", r.checks);
  ISEX_COUNT_ADD("certify.pareto.violations",
                 static_cast<long>(r.violations.size()));
}

std::string point_str(const pareto::Point& p) {
  return "(" + std::to_string(p.cost) + ", " + std::to_string(p.value) + ")";
}

}  // namespace

CertifyReport check_front(const pareto::Front& f, const std::string& what) {
  CertifyReport r;
  for (std::size_t i = 0; i < f.size(); ++i)
    if (!std::isfinite(f[i].cost) || !std::isfinite(f[i].value) ||
        f[i].cost < 0 || f[i].value < 0) {
      r.fail("pareto.finite", what + " front point #" + std::to_string(i) +
                                  " = " + point_str(f[i]) +
                                  " is not finite and non-negative");
      publish(r);
      return r;
    }
  r.pass();
  for (std::size_t i = 1; i < f.size(); ++i) {
    if (f[i].cost <= f[i - 1].cost - 1e-12) {
      r.fail("pareto.cost_order",
             what + " front cost descends at #" + std::to_string(i) + ": " +
                 point_str(f[i - 1]) + " then " + point_str(f[i]));
      break;
    }
    if (f[i].value >= f[i - 1].value - 1e-12) {
      r.fail("pareto.value_order",
             what + " front value fails to descend at #" + std::to_string(i) +
                 ": " + point_str(f[i - 1]) + " then " + point_str(f[i]));
      break;
    }
  }
  r.pass();
  // Pairwise non-dominance, independent of the ordering checks above: p
  // dominates q when <= in both coordinates and < in at least one (the
  // producer's tolerances).
  bool dominated = false;
  for (std::size_t i = 0; i < f.size() && !dominated; ++i)
    for (std::size_t j = 0; j < f.size() && !dominated; ++j) {
      if (i == j) continue;
      const pareto::Point& p = f[i];
      const pareto::Point& q = f[j];
      if (p.cost <= q.cost + 1e-12 && p.value <= q.value + 1e-12 &&
          (p.cost < q.cost - 1e-12 || p.value < q.value - 1e-12)) {
        r.fail("pareto.dominated", what + " front point #" +
                                       std::to_string(j) + " " +
                                       point_str(q) + " is dominated by #" +
                                       std::to_string(i) + " " +
                                       point_str(p));
        dominated = true;
      }
    }
  if (!dominated) r.pass();
  publish(r);
  return r;
}

CertifyReport check_eps_cover(const pareto::Front& exact,
                              const pareto::Front& approx, double eps) {
  CertifyReport r;
  if (!exact.empty() && approx.empty()) {
    r.fail("pareto.cover_empty",
           "approx front is empty but the exact front has " +
               std::to_string(exact.size()) + " points");
    publish(r);
    return r;
  }
  for (std::size_t i = 0; i < exact.size(); ++i) {
    bool covered = false;
    for (const pareto::Point& q : approx)
      if (q.cost <= (1 + eps) * exact[i].cost + 1e-9 &&
          q.value <= (1 + eps) * exact[i].value + 1e-9) {
        covered = true;
        break;
      }
    if (!covered) {
      r.fail("pareto.eps_cover",
             "exact point #" + std::to_string(i) + " " + point_str(exact[i]) +
                 " has no approx point within (1+" + std::to_string(eps) +
                 ") in both coordinates");
      publish(r);
      return r;
    }
  }
  r.pass();
  publish(r);
  return r;
}

CertifyReport check_curve_on_front(const std::vector<select::Config>& curve,
                                   const pareto::Front& exact, double grid,
                                   const std::string& what) {
  CertifyReport r;
  auto same = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
  };
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const select::Config& p = curve[i];
    auto at = [&] {
      return what + " curve point #" + std::to_string(i) + " " +
             point_str({p.area, p.cycles});
    };
    const double c = std::round(p.area / grid);
    if (!same(c * grid, p.area)) {
      r.fail("pareto.curve_on_front",
             at() + " is off the " + std::to_string(grid) + " area grid");
      break;
    }
    // Staircase value at c: the last front point with cost <= c (plain
    // scan, no reliance on the front's ordering beyond ascending cost).
    const pareto::Point* step = nullptr;
    bool vertex = false;
    for (const pareto::Point& q : exact) {
      if (q.cost > c + 0.5) break;
      step = &q;
      vertex = std::abs(q.cost - c) < 0.5;
    }
    if (step == nullptr || !same(p.cycles, step->value) || !vertex) {
      r.fail("pareto.curve_on_front",
             at() + " is not the exact front's vertex at cost " +
                 std::to_string(static_cast<long>(c)) + " (staircase " +
                 (step ? point_str(*step) : std::string("empty")) + ")");
      break;
    }
  }
  if (r.ok()) r.pass();
  publish(r);
  return r;
}

}  // namespace isex::certify
