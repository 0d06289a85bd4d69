// bench_compare — the perf-regression gate: diffs a fresh BENCH_*.json
// against a committed baseline with per-metric thresholds and a nonzero
// exit on regression, so CI can fail a PR on "this made serving slower"
// instead of a human eyeballing two JSON blobs.
//
//   bench_compare self_profile <baseline.json> <fresh.json> [options]
//   bench_compare micro        <baseline.json> <fresh.json> [options]
//   bench_compare serve        <baseline.json> <fresh.json> [options]
//   bench_compare parallel     <baseline.json> <fresh.json> [options]
//   bench_compare lift         <baseline.json> <fresh.json> [options]
//
// Options:
//   --force            compare even when the provenance check refuses
//   --out report.json  write a machine-readable comparison report
//
// Exit codes: 0 within thresholds, 1 regression, 2 usage / unreadable
// input / provenance refusal.
//
// Provenance refusal (the whole reason this tool exists — the original
// BENCH_micro.json baseline was recorded in a debug build at load ~15):
// both files must carry a "provenance" object, the build types must match
// and not be Debug, and neither run may have happened on a machine whose
// 1-minute load average exceeded 2x its CPU count. --force downgrades all
// of that to warnings for local spelunking; CI never passes --force.
//
// Thresholds are deliberately loose (1.5x-2.5x) because CI machines are
// noisy; the gate exists to catch step-function regressions (an algorithm
// losing its pruning, a lock on the hot path), not 5% drift. Deterministic
// work counters get a tight 10% band — they should not move at all unless
// the algorithm changed. Per-kernel curve quality (sw_cycles, best_cycles,
// configs in self_profile) and the curve phase's identification counters
// (ise.*, select.*) must match exactly.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "isex/serve/json.hpp"
#include "isex/util/file.hpp"

using namespace isex;
using serve::Json;

namespace {

struct Check {
  std::string metric;
  double base = 0, fresh = 0, limit = 0;
  bool ok = true;
  std::string note;  // "ratio 1.32 <= 1.50", "skipped: below noise floor"
};

std::vector<Check> g_checks;
int g_regressions = 0;

void record(const std::string& metric, double base, double fresh, double limit,
            bool ok, std::string note) {
  g_checks.push_back({metric, base, fresh, limit, ok, std::move(note)});
  if (!ok) {
    ++g_regressions;
    std::fprintf(stderr, "REGRESSION %-48s base %.4g fresh %.4g (%s)\n",
                 metric.c_str(), base, fresh, g_checks.back().note.c_str());
  }
}

/// fresh/base must stay <= limit. Values below `floor` on both sides are
/// noise (sub-resolution timings, tiny counters) and pass unconditionally.
void check_ratio(const std::string& metric, double base, double fresh,
                 double limit, double floor) {
  if (base < floor && fresh < floor) {
    record(metric, base, fresh, limit, true, "skipped: below noise floor");
    return;
  }
  if (base <= 0) {
    record(metric, base, fresh, limit, fresh < floor, "baseline is zero");
    return;
  }
  const double ratio = fresh / base;
  char note[64];
  std::snprintf(note, sizeof note, "ratio %.2f vs limit %.2f", ratio, limit);
  record(metric, base, fresh, limit, ratio <= limit, note);
}

/// Symmetric drift band for deterministic counters: |fresh-base|/base <= tol.
void check_drift(const std::string& metric, double base, double fresh,
                 double tol, double floor) {
  if (base < floor && fresh < floor) {
    record(metric, base, fresh, tol, true, "skipped: below noise floor");
    return;
  }
  const double drift = base > 0 ? std::fabs(fresh - base) / base : 1.0;
  char note[64];
  std::snprintf(note, sizeof note, "drift %.1f%% vs band %.0f%%", drift * 100,
                tol * 100);
  record(metric, base, fresh, tol, drift <= tol, note);
}

/// fresh must not fall below base/limit (throughput-style: bigger is better).
void check_floor_ratio(const std::string& metric, double base, double fresh,
                       double limit) {
  if (base <= 0) {
    record(metric, base, fresh, limit, true, "baseline is zero");
    return;
  }
  const double ratio = base / (fresh > 0 ? fresh : 1e-9);
  char note[64];
  std::snprintf(note, sizeof note, "slowdown %.2fx vs limit %.2fx", ratio,
                limit);
  record(metric, base, fresh, limit, ratio <= limit, note);
}

double num(const Json* v, double fallback = 0) {
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

const Json* path(const Json& root, std::initializer_list<const char*> keys) {
  const Json* v = &root;
  for (const char* k : keys) {
    v = v->find(k);
    if (v == nullptr) return nullptr;
  }
  return v;
}

bool load_json(const std::string& file, Json* out) {
  // BENCH files arrive from artifact downloads and arbitrary CLI paths:
  // ingest through the shared bounded reader (128 MiB is far above any real
  // report) so a wrong path never streams gigabytes into memory.
  util::FileReadResult r_file = util::read_file_bounded(file, 128u << 20);
  if (!r_file.ok) {
    std::fprintf(stderr, "error: %s\n", r_file.error.c_str());
    return false;
  }
  // BENCH files can be large (google-benchmark reports, full metric
  // registries): raise the request-parser ceilings rather than growing a
  // third JSON implementation.
  serve::JsonLimits limits;
  limits.max_values = 1 << 22;
  limits.max_string_bytes = 1 << 20;
  limits.max_depth = 128;
  serve::JsonParseResult r = serve::json_parse(
      std::string_view(reinterpret_cast<const char*>(r_file.data.data()),
                       r_file.data.size()),
      limits);
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", file.c_str(), r.error.c_str());
    return false;
  }
  *out = std::move(r.value);
  return true;
}

std::string prov_string(const Json* prov, const char* key) {
  const Json* v = prov != nullptr ? prov->find(key) : nullptr;
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

/// Returns true when the two runs are comparable. Every refusal is printed;
/// with force=true refusals degrade to warnings.
bool check_provenance(const Json& base, const Json& fresh, bool force) {
  bool ok = true;
  auto refuse = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s\n",
                 force ? "warning (--force)" : "provenance refusal",
                 why.c_str());
    ok = false;
  };
  const Json* bp = base.find("provenance");
  const Json* fp = fresh.find("provenance");
  if (bp == nullptr || fp == nullptr) {
    refuse("missing \"provenance\" object (regenerate with a current build)");
    return ok || force;
  }
  const std::string bt = prov_string(bp, "build_type");
  const std::string ft = prov_string(fp, "build_type");
  if (bt != ft)
    refuse("build types differ (" + bt + " vs " + ft +
           "): timings are not comparable");
  if (bt == "Debug" || ft == "Debug")
    refuse("Debug-build timings gate nothing; use Release/RelWithDebInfo");
  for (const auto* p : {bp, fp}) {
    const double load = num(p->find("load_avg_1m"), -1);
    const double cpus = num(p->find("num_cpus"), 0);
    if (load >= 0 && cpus > 0 && load > 2.0 * cpus) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "run recorded at load %.1f on %.0f cpus (%s)", load, cpus,
                    p == bp ? "baseline" : "fresh");
      refuse(msg);
    }
  }
  return ok || force;
}

// --- self_profile: per-kernel phase seconds + deterministic counters ------

const Json* find_kernel(const Json& report, const std::string& name) {
  const Json* kernels = report.find("kernels");
  if (kernels == nullptr || !kernels->is_array()) return nullptr;
  for (const Json& k : kernels->items()) {
    const Json* n = k.find("name");
    if (n != nullptr && n->is_string() && n->as_string() == name) return &k;
  }
  return nullptr;
}

void compare_self_profile(const Json& base, const Json& fresh) {
  const Json* kernels = base.find("kernels");
  if (kernels == nullptr || !kernels->is_array()) {
    record("self_profile.kernels", 0, 0, 0, false, "baseline has no kernels");
    return;
  }
  for (const Json& bk : kernels->items()) {
    const Json* n = bk.find("name");
    if (n == nullptr || !n->is_string()) continue;
    const std::string name = n->as_string();
    const Json* fk = find_kernel(fresh, name);
    if (fk == nullptr) {
      record("self_profile." + name, 1, 0, 0, false, "kernel missing in fresh");
      continue;
    }
    // Curve quality is deterministic: the software and best cycle counts
    // and the number of curve points must not move at all.
    for (const char* field : {"sw_cycles", "best_cycles", "configs"}) {
      const double b = num(bk.find(field)), f = num(fk->find(field));
      record("self_profile." + name + "." + field, b, f, 0, b == f,
             b == f ? "exact match" : "curve quality drifted");
    }
    // Wall time: 1.5x with a 50ms floor (the small kernels finish in
    // microseconds and would flap on scheduler noise).
    check_ratio("self_profile." + name + ".total_seconds",
                num(bk.find("total_seconds")), num(fk->find("total_seconds")),
                1.5, 0.05);
    // Work counters are deterministic per phase. Identification and pooling
    // work in the curve phase (ise.*, select.*) must not move at all, so a
    // PR that changes how many subgraphs are grown or rejected shows up
    // here; the others get a 10% band and tiny ones are ignored.
    const Json* bph = bk.find("phases");
    const Json* fph = fk->find("phases");
    if (bph == nullptr || fph == nullptr || !bph->is_array() ||
        !fph->is_array() || bph->items().size() != fph->items().size())
      continue;
    for (std::size_t p = 0; p < bph->items().size(); ++p) {
      const Json* bc = bph->items()[p].find("counters");
      const Json* fc = fph->items()[p].find("counters");
      const Json* phase = bph->items()[p].find("phase");
      if (bc == nullptr || fc == nullptr || !bc->is_object()) continue;
      const std::string pname =
          phase != nullptr && phase->is_string() ? phase->as_string() : "?";
      for (const auto& [cname, bval] : bc->members()) {
        if (!bval.is_number()) continue;
        const std::string metric =
            "self_profile." + name + "." + pname + "." + cname;
        if (pname == "curve" && (cname.rfind("ise.", 0) == 0 ||
                                 cname.rfind("select.", 0) == 0)) {
          const double b = bval.as_number(), f = num(fc->find(cname));
          record(metric, b, f, 0, b == f,
                 b == f ? "exact match" : "identification work drifted");
          continue;
        }
        check_drift(metric, bval.as_number(), num(fc->find(cname)), 0.10, 100);
      }
    }
  }
}

// --- micro: google-benchmark real_time per benchmark ----------------------

void compare_micro(const Json& base, const Json& fresh) {
  const Json* bb = path(base, {"benchmark", "benchmarks"});
  const Json* fb = path(fresh, {"benchmark", "benchmarks"});
  if (bb == nullptr || fb == nullptr || !bb->is_array() || !fb->is_array()) {
    record("micro.benchmarks", 0, 0, 0, false,
           "missing benchmark.benchmarks array");
    return;
  }
  for (const Json& b : bb->items()) {
    const Json* n = b.find("name");
    if (n == nullptr || !n->is_string()) continue;
    const std::string name = n->as_string();
    const Json* match = nullptr;
    for (const Json& f : fb->items()) {
      const Json* fn = f.find("name");
      if (fn != nullptr && fn->is_string() && fn->as_string() == name) {
        match = &f;
        break;
      }
    }
    if (match == nullptr) {
      record("micro." + name, 1, 0, 0, false, "benchmark missing in fresh");
      continue;
    }
    // real_time is in the report's time_unit (ns here); 2x with a 100us
    // floor — the sub-100us benchmarks are dominated by timer noise.
    check_ratio("micro." + name + ".real_time", num(b.find("real_time")),
                num(match->find("real_time")), 2.0, 100'000);
  }
}

// --- serve: throughput, tail latency, correctness counters ----------------

void compare_serve(const Json& base, const Json& fresh) {
  // The soak's own checks must have passed, and the server must be clean.
  record("serve.failures", num(base.find("failures")),
         num(fresh.find("failures")), 0,
         num(fresh.find("failures")) == 0, "must be zero");
  record("serve.internal_errors", num(base.find("internal_errors")),
         num(fresh.find("internal_errors")), 0,
         num(fresh.find("internal_errors")) == 0, "must be zero");
  check_floor_ratio("serve.throughput_rps", num(base.find("throughput_rps")),
                    num(fresh.find("throughput_rps")), 1.6);
  for (const char* p : {"p50", "p90", "p99"})
    check_ratio(std::string("serve.latency_ms.") + p,
                num(path(base, {"latency_ms", p})),
                num(path(fresh, {"latency_ms", p})), 2.5, 0.05);
  // Per-disposition tails, where both runs saw enough samples to mean
  // anything (the shed/degraded classes can be near-empty on a fast box).
  for (const char* d : {"exact", "degraded", "shed", "cached", "error"}) {
    const Json* bd = path(base, {"latency_by_disposition", d});
    const Json* fd = path(fresh, {"latency_by_disposition", d});
    if (bd == nullptr || fd == nullptr) continue;
    if (num(bd->find("count")) < 20 || num(fd->find("count")) < 20) continue;
    check_ratio(std::string("serve.latency_by_disposition.") + d + ".p90",
                num(bd->find("p90")), num(fd->find("p90")), 2.5, 0.05);
  }
  // Worker-pool soak (--workers N): the supervision scorecard. Absent in
  // both runs (old baselines, single-process soaks) is fine; a fresh run
  // that *dropped* the block while the baseline has one is a regression.
  const Json* bw = base.find("workers");
  const Json* fw = fresh.find("workers");
  if (fw == nullptr) {
    if (bw != nullptr)
      record("serve.workers", 1, 0, 0, false,
             "baseline has a workers block, fresh run does not");
    return;
  }
  // Byte identity and supervisor health are correctness, not perf:
  // zero-tolerance regardless of what the baseline recorded.
  record("serve.workers.byte_mismatches", num(bw ? bw->find("byte_mismatches")
                                                 : nullptr),
         num(fw->find("byte_mismatches")), 0,
         num(fw->find("byte_mismatches")) == 0, "must be zero");
  record("serve.workers.collateral_errors",
         num(bw ? bw->find("collateral_errors") : nullptr),
         num(fw->find("collateral_errors")), 0,
         num(fw->find("collateral_errors")) == 0, "must be zero");
  // Chaos produces crashes by design; without chaos the pool must be calm.
  if (num(fw->find("chaos_probability")) == 0) {
    for (const char* k : {"crashes", "timeouts", "quarantined"})
      record(std::string("serve.workers.") + k,
             num(bw ? bw->find(k) : nullptr), num(fw->find(k)), 0,
             num(fw->find(k)) == 0, "must be zero without chaos");
  } else if (bw != nullptr &&
             num(bw->find("chaos_probability")) ==
                 num(fw->find("chaos_probability")) &&
             num(bw->find("chaos_seed")) == num(fw->find("chaos_seed")) &&
             num(bw->find("traffic_seed"), -1) ==
                 num(fw->find("traffic_seed"), -2) &&
             num(base.find("requests"), -1) ==
                 num(fresh.find("requests"), -2)) {
    // Same traffic bytes + same chaos dice: the injected-fault count is a
    // pure function and must not move at all.
    check_drift("serve.workers.chaotic_requests",
                num(bw->find("chaotic_requests")),
                num(fw->find("chaotic_requests")), 0.0, 1);
  }
}

// --- parallel: scaling efficiency + byte-identity of the solver core ------

const Json* find_point(const Json& kernel, int threads) {
  const Json* pts = kernel.find("points");
  if (pts == nullptr || !pts->is_array()) return nullptr;
  for (const Json& p : pts->items())
    if (static_cast<int>(num(p.find("threads"), -1)) == threads) return &p;
  return nullptr;
}

void compare_parallel(const Json& base, const Json& fresh) {
  // Byte identity across thread counts is correctness, not perf: the fresh
  // run must report zero mismatches no matter what the baseline recorded.
  record("parallel.total_byte_mismatches",
         num(base.find("total_byte_mismatches")),
         num(fresh.find("total_byte_mismatches")), 0,
         num(fresh.find("total_byte_mismatches")) == 0, "must be zero");

  const int ncpu = static_cast<int>(num(fresh.find("num_cpus"), 1));
  const Json* kernels = base.find("kernels");
  if (kernels == nullptr || !kernels->is_array()) {
    record("parallel.kernels", 0, 0, 0, false, "baseline has no kernels");
    return;
  }
  for (const Json& bk : kernels->items()) {
    const Json* n = bk.find("name");
    if (n == nullptr || !n->is_string()) continue;
    const std::string name = n->as_string();
    const Json* fk = find_kernel(fresh, name);
    if (fk == nullptr) {
      record("parallel." + name, 1, 0, 0, false, "kernel missing in fresh");
      continue;
    }
    // The serial baseline must not regress (same band as self_profile).
    const Json* b1 = find_point(bk, 1);
    const Json* f1 = find_point(*fk, 1);
    if (b1 != nullptr && f1 != nullptr)
      check_ratio("parallel." + name + ".wall_seconds_t1",
                  num(b1->find("wall_seconds")), num(f1->find("wall_seconds")),
                  1.5, 0.05);
    // Scaling-efficiency floor at the largest measured thread count. A
    // single-CPU runner cannot scale at all — efficiency degenerates into
    // raw overhead — so the floor only gates on multi-core machines.
    const Json* pts = fk->find("points");
    if (pts == nullptr || !pts->is_array()) continue;
    const Json* top = nullptr;
    for (const Json& p : pts->items())
      if (top == nullptr ||
          num(p.find("threads")) > num(top->find("threads")))
        top = &p;
    if (top == nullptr || static_cast<int>(num(top->find("threads"))) <= 1)
      continue;
    const double eff = num(top->find("efficiency"));
    char note[96];
    if (ncpu < 2) {
      std::snprintf(note, sizeof note,
                    "skipped: single-cpu runner (efficiency %.2f)", eff);
      record("parallel." + name + ".efficiency", 0.45, eff, 0.45, true, note);
    } else {
      std::snprintf(note, sizeof note, "efficiency %.2f vs floor 0.45 at %d "
                    "threads on %d cpus",
                    eff, static_cast<int>(num(top->find("threads"))), ncpu);
      record("parallel." + name + ".efficiency", 0.45, eff, 0.45, eff >= 0.45,
             note);
    }
  }
}

// --- lift: frontend throughput + deterministic lift work counters ---------

void compare_lift(const Json& base, const Json& fresh) {
  // The hostile corpus must never produce an internal error — that is the
  // totality contract, gated as correctness regardless of the baseline.
  record("lift.corpus.internal_errors",
         num(path(base, {"corpus", "internal_errors"})),
         num(path(fresh, {"corpus", "internal_errors"})), 0,
         num(path(fresh, {"corpus", "internal_errors"})) == 0, "must be zero");
  // The corpus is seeded: the accept/reject split is a pure function of the
  // generator and the parser, so it must not move at all.
  for (const char* k : {"inputs", "ok", "rejected"})
    check_drift(std::string("lift.corpus.") + k, num(path(base, {"corpus", k})),
                num(path(fresh, {"corpus", k})), 0.0, 1);
  check_floor_ratio("lift.corpus.inputs_per_sec",
                    num(path(base, {"corpus", "inputs_per_sec"})),
                    num(path(fresh, {"corpus", "inputs_per_sec"})), 2.0);

  const Json* fixtures = base.find("fixtures");
  if (fixtures == nullptr || !fixtures->is_array()) {
    record("lift.fixtures", 0, 0, 0, false, "baseline has no fixtures");
    return;
  }
  for (const Json& bf : fixtures->items()) {
    const Json* n = bf.find("name");
    if (n == nullptr || !n->is_string()) continue;
    const std::string name = n->as_string();
    const Json* ff = nullptr;
    if (const Json* arr = fresh.find("fixtures");
        arr != nullptr && arr->is_array()) {
      for (const Json& f : arr->items()) {
        const Json* fn = f.find("name");
        if (fn != nullptr && fn->is_string() && fn->as_string() == name) {
          ff = &f;
          break;
        }
      }
    }
    if (ff == nullptr) {
      record("lift." + name, 1, 0, 0, false, "fixture missing in fresh");
      continue;
    }
    // Work counters are pure functions of the fixture bytes: zero drift.
    // (Changing a fixture or the lifter is exactly when the baseline must be
    // regenerated, and this check is what forces that conversation.)
    for (const char* k :
         {"instructions", "illegal", "blocks", "nodes", "operations"})
      check_drift("lift." + name + "." + k, num(bf.find(k)), num(ff->find(k)),
                  0.0, 0.5);
    // Throughput: 2x floor, same noise philosophy as the serve gate.
    check_floor_ratio("lift." + name + ".insts_per_sec",
                      num(bf.find("insts_per_sec")),
                      num(ff->find("insts_per_sec")), 2.0);
  }
}

void write_report(const std::string& out_path, const std::string& kind,
                  const std::string& base_file, const std::string& fresh_file) {
  util::write_file_atomic(out_path, [&](std::ostream& out) {
    out << "{\n  \"tool\": \"bench_compare\",\n  \"kind\": "
        << serve::json_quote(kind)
        << ",\n  \"baseline\": " << serve::json_quote(base_file)
        << ",\n  \"fresh\": " << serve::json_quote(fresh_file)
        << ",\n  \"regressions\": " << g_regressions << ",\n  \"checks\": [\n";
    for (std::size_t i = 0; i < g_checks.size(); ++i) {
      const Check& c = g_checks[i];
      out << "    {\"metric\": " << serve::json_quote(c.metric)
          << ", \"base\": " << serve::json_number(c.base)
          << ", \"fresh\": " << serve::json_number(c.fresh)
          << ", \"ok\": " << (c.ok ? "true" : "false")
          << ", \"note\": " << serve::json_quote(c.note) << "}"
          << (i + 1 == g_checks.size() ? "" : ",") << "\n";
    }
    out << "  ]\n}\n";
  });
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare <self_profile|micro|serve|parallel|lift> "
               "<baseline.json> <fresh.json> [--force] [--out report.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string kind, base_file, fresh_file, out_path;
  bool force = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--force") == 0)
      force = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else if (argv[i][0] == '-')
      return usage();
    else if (++positional == 1)
      kind = argv[i];
    else if (positional == 2)
      base_file = argv[i];
    else if (positional == 3)
      fresh_file = argv[i];
    else
      return usage();
  }
  if (positional != 3) return usage();
  if (kind != "self_profile" && kind != "micro" && kind != "serve" &&
      kind != "parallel" && kind != "lift")
    return usage();

  Json base, fresh;
  if (!load_json(base_file, &base) || !load_json(fresh_file, &fresh)) return 2;
  if (!check_provenance(base, fresh, force)) {
    std::fprintf(stderr,
                 "bench_compare: refusing to compare (see above); "
                 "--force overrides\n");
    return 2;
  }

  if (kind == "self_profile")
    compare_self_profile(base, fresh);
  else if (kind == "micro")
    compare_micro(base, fresh);
  else if (kind == "parallel")
    compare_parallel(base, fresh);
  else if (kind == "lift")
    compare_lift(base, fresh);
  else
    compare_serve(base, fresh);

  if (!out_path.empty())
    write_report(out_path, kind, base_file, fresh_file);

  std::size_t passed = 0;
  for (const Check& c : g_checks) passed += c.ok ? 1 : 0;
  std::printf("bench_compare %s: %zu/%zu checks within thresholds%s\n",
              kind.c_str(), passed, g_checks.size(),
              g_regressions > 0 ? " — REGRESSION" : "");
  return g_regressions > 0 ? 1 : 0;
}
