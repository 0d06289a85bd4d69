// Shared pieces of the perfbench worker: the seeded input generator, the
// digest, the span analysis of a traced run and the result writer.
//
// The worker is one process that runs one piece of a workload — a cold
// curve-build pass, a select_mix or serve_mixed loop, a certify pass, or a
// bare set-up — and prints one JSON object on stdout. perfbench/run.py
// spawns the workers, aggregates their output and prints the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isex/obs/trace.hpp"
#include "isex/rt/task.hpp"

namespace perfbench {

namespace rt = isex::rt;

/// The 18 kernels of the thesis' Table 5.1 benchmark pool.
const std::vector<std::string>& kernels();

/// splitmix64: a seeded generator whose output does not depend on the
/// standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Seeded permutation of v.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(below(static_cast<int>(i)))]);
  }

 private:
  std::uint64_t s_;
};

/// Running FNV-1a digest (the serve cache's hash); inputs and outputs are
/// compared by digest.
class Digest {
 public:
  void add(const std::string& s);
  void add(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------- tracing
//
// A traced run records its spans in the isex obs trace buffer: the
// benchmark's own spans (obs::Span, category "perfbench", op id as the "op"
// arg) around each public call into a module, the serve client's requests
// (obs::trace_complete on their own track, kClientTid) and the library's
// existing spans. stop_tracing() takes them out of the buffer and gives
// each a parent and an op id by interval nesting, so each layer's self time
// is its spans' durations minus the part covered by their children.

/// Trace track of the serve client's requests, timed send to response. The
/// requests overlap (4 are outstanding), so they do not nest.
inline constexpr int kClientTid = 1000;

/// Marks a benchmark span with its op id (the "op" arg).
void set_op(isex::obs::Span& s, long op);

struct SpanRec {
  std::string name;
  std::int64_t start_ns = 0, end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  long op = -1;     // op id, -1 outside any op
  int tid = 0;
  bool library = false;  // recorded by isex itself, not by the benchmark
};

/// Clears the obs trace buffer and starts recording.
void start_tracing();
bool tracing();
/// Stops recording and returns every wall-clock span recorded since
/// start_tracing(), with parents and op ids derived by nesting. Throws when
/// the buffer dropped spans.
std::vector<SpanRec> stop_tracing();

/// Self time in nanoseconds summed over the spans with this exact name.
std::int64_t self_ns(const std::vector<SpanRec>& spans, const std::string& name);
/// Summed duration of the spans with this name (children included).
std::int64_t total_ns(const std::vector<SpanRec>& spans, const std::string& name);
std::size_t count(const std::vector<SpanRec>& spans, const std::string& name);

/// Chrome-trace JSON of the spans, each with its parent and op id as args.
bool write_trace(const std::vector<SpanRec>& spans, const std::string& path);

/// Counter deltas of the isex obs registry between construction and take().
class CounterWindow {
 public:
  CounterWindow();
  std::map<std::string, std::uint64_t> take() const;

 private:
  std::map<std::string, std::uint64_t> before_;
};

/// Minimal ordered JSON object writer for the worker's one-line result.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v);
  JsonOut& integer(const std::string& key, long long v);
  JsonOut& str(const std::string& key, const std::string& v);
  JsonOut& nums(const std::string& key, const std::vector<double>& v);
  JsonOut& strs(const std::string& key, const std::vector<std::string>& v);
  JsonOut& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_string(const std::string& s);
std::string json_counters(const std::map<std::string, std::uint64_t>& m);
std::string json_doubles(const std::map<std::string, double>& m);

/// Prints the "ready" line that ends a worker's set-up (run.py times set-up
/// from process spawn to this line).
void announce_ready();

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Speedup-based curve quality over the given tasks: geometric means of
/// base/best cycles and base/cycles-at-10 and -30 adder-equivalents.
std::map<std::string, double> curve_quality(const std::vector<rt::Task>& tasks);

/// Checks one curve: point 0 at area 0 equal to `base_cycles`, areas
/// ascending, cycles strictly descending. "" when well-formed.
std::string check_curve(const rt::Task& t, double base_cycles);

}  // namespace perfbench
