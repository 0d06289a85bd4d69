// Extension: scaling and byte identity of the one parallel region.
//
// Cold task builds fan out across kernels (workloads::prefetch_tasks); every
// solver below them runs serially. This bench does the same work: it builds
// the configuration curves of the 18 Table 5.1 kernels — generation, WCET
// profile, enumeration, per-block disjoint pools, knapsack — one kernel per
// index of util::parallel_for, at 1, 2, 4 and 8 threads, and reports:
//   * wall time per thread count (best of --reps runs);
//   * speedup vs the 1-thread run and *scaling efficiency*, defined as
//     speedup / min(threads, num_cpus). On a multi-core runner this is the
//     usual per-core efficiency; on a 1-CPU machine every thread count has
//     denominator 1, so the bench degrades into a pure overhead/correctness
//     check instead of fabricating impossible speedups;
//   * byte_mismatches: every kernel's serialized curve (each area/cycles
//     point printed with full precision) at T threads is compared
//     byte-for-byte against the 1-thread curve; gated at zero.
//
// Writes BENCH_parallel.json (override with ISEX_BENCH_OUT) with provenance,
// so tools/bench_compare can gate efficiency and mismatches in CI.
//
// Usage: ext_parallel [--reps N] [--threads-list 1,2,4,8]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "isex/hw/cell_library.hpp"
#include "isex/obs/provenance.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/stopwatch.hpp"
#include "isex/util/table.hpp"
#include "isex/util/task_pool.hpp"
#include "isex/workloads/workloads.hpp"

using namespace isex;

namespace {

// The 18 kernels of the thesis' Table 5.1 benchmark pool.
const std::vector<std::string>& kernels() {
  static const std::vector<std::string> k = {
      "crc32",      "sha",        "blowfish", "rijndael", "susan",
      "adpcm_enc",  "adpcm_dec",  "cjpeg",    "djpeg",    "g721encode",
      "g721decode", "jfdctint",   "ndes",     "edn",      "lms",
      "compress",   "aes",        "3des",
  };
  return k;
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

/// Cold curves of every kernel, one kernel per parallel_for index: what
/// workloads::prefetch_tasks builds for a cold task set.
std::vector<std::string> build_curves() {
  const auto& lib = hw::CellLibrary::standard_018um();
  const auto& names = kernels();
  std::vector<std::string> curves(names.size());
  util::parallel_for(names.size(), [&](std::size_t i) {
    const ir::Program prog = workloads::make_benchmark(names[i]);
    const auto counts = prog.wcet_counts(ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
    curves[i] = serialize_curve(
        select::build_config_curve(prog, counts, lib,
                                   select::task_curve_options(prog))
            .curve);
  });
  return curves;
}

struct Point {
  int threads = 1;
  double wall_seconds = 0;
  double speedup = 1;
  double efficiency = 1;
  int byte_mismatches = 0;
};

/// The one measured row, named for the JSON's "kernels" list.
constexpr const char* kRowName = "task_builds18";

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::vector<int> thread_list = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--reps") reps = std::stoi(next());
    else if (a == "--threads-list") {
      thread_list.clear();
      std::stringstream ss(next());
      for (std::string tok; std::getline(ss, tok, ',');)
        thread_list.push_back(std::stoi(tok));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (reps < 1 || thread_list.empty() || thread_list.front() != 1) {
    std::fprintf(stderr, "--reps must be >= 1 and --threads-list must "
                         "start at 1 (the identity baseline)\n");
    return 2;
  }

  const int ncpu = util::hardware_threads();
  std::vector<Point> points;
  int total_mismatches = 0;
  std::vector<std::string> baseline;
  double base_wall = 0;
  for (int t : thread_list) {
    util::set_max_threads(t);
    double best = 1e300;
    std::vector<std::string> curves;
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch sw;
      curves = build_curves();
      best = std::min(best, sw.seconds());
    }
    Point p;
    p.threads = t;
    p.wall_seconds = best;
    if (t == 1) {
      baseline = curves;
      base_wall = best;
    }
    p.speedup = best > 0 ? base_wall / best : 1;
    p.efficiency = p.speedup / static_cast<double>(std::min(t, ncpu));
    for (std::size_t k = 0; k < curves.size(); ++k)
      if (curves[k] != baseline[k]) {
        ++p.byte_mismatches;
        std::fprintf(stderr, "%s: curve at %d threads differs from 1 thread\n",
                     kernels()[k].c_str(), t);
      }
    total_mismatches += p.byte_mismatches;
    points.push_back(p);
  }

  util::Table t({"kernel", "threads", "wall(s)", "speedup", "efficiency",
                 "identical"});
  for (const auto& p : points)
    t.row()
        .cell(kRowName)
        .cell(p.threads)
        .cell(p.wall_seconds, 4)
        .cell(p.speedup, 3)
        .cell(p.efficiency, 3)
        .cell(p.byte_mismatches == 0 ? "yes" : "NO");
  t.print();
  std::printf("\n%d cpu(s), %d byte mismatch(es) across all thread counts\n",
              ncpu, total_mismatches);

  const char* env = std::getenv("ISEX_BENCH_OUT");
  const std::string out_path = env && *env ? env : "BENCH_parallel.json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open '%s'\n", out_path.c_str());
    return 2;
  }
  out << "{\n\"provenance\": ";
  obs::write_provenance_json(out, obs::collect_provenance());
  out << ",\n\"num_cpus\": " << ncpu << ",\n\"reps\": " << reps
      << ",\n\"kernels\": [\n  {\"name\": \"" << kRowName
      << "\", \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"threads\": %d, \"wall_seconds\": %.6f, "
                  "\"speedup\": %.4f, \"efficiency\": %.4f, "
                  "\"byte_mismatches\": %d}",
                  p.threads, p.wall_seconds, p.speedup, p.efficiency,
                  p.byte_mismatches);
    out << buf << (i + 1 < points.size() ? ", " : "");
  }
  out << "]}\n],\n\"total_byte_mismatches\": " << total_mismatches << "\n}\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return total_mismatches == 0 ? 0 : 1;
}
