#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

#include "isex/obs/metrics.hpp"
#include "isex/obs/trace.hpp"
#include "isex/serve/cache.hpp"

namespace perfbench {

const std::vector<std::string>& kernels() {
  static const std::vector<std::string> k = {
      "crc32",      "sha",        "blowfish", "rijndael", "susan",
      "adpcm_enc",  "adpcm_dec",  "cjpeg",    "djpeg",    "g721encode",
      "g721decode", "jfdctint",   "ndes",     "edn",      "lms",
      "compress",   "aes",        "3des",
  };
  return k;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

void Digest::add(const std::string& s) { h_ = isex::serve::fnv1a_str(s, h_); }

void Digest::add(double v) { h_ = isex::serve::fnv1a_f64(v, h_); }

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ---------------------------------------------------------------- tracing

void set_op(isex::obs::Span& s, long op) { s.arg("op", std::to_string(op)); }

void start_tracing() {
  auto& buf = isex::obs::TraceBuffer::global();
  buf.clear();
  buf.set_enabled(true);
}

bool tracing() { return isex::obs::TraceBuffer::global().enabled(); }

std::vector<SpanRec> stop_tracing() {
  auto& buf = isex::obs::TraceBuffer::global();
  buf.set_enabled(false);
  if (buf.dropped() > 0)
    throw std::runtime_error("trace buffer dropped " +
                             std::to_string(buf.dropped()) + " spans");
  std::vector<SpanRec> spans;
  std::vector<long> own_op;  // the span's "op" arg, -1 without one
  for (const auto& e : buf.events()) {
    if (e.pid != isex::obs::kWallPid ||
        e.phase != isex::obs::TraceEvent::Phase::kComplete)
      continue;
    SpanRec s;
    s.name = e.name;
    // workloads.build_task.<kernel> -> one name per layer boundary.
    if (s.name.rfind("workloads.build_task.", 0) == 0) s.name = "workloads.build_task";
    s.start_ns = e.ts;
    s.end_ns = e.ts + e.dur;
    s.tid = e.tid;
    s.library = e.cat != "perfbench";
    long op = -1;
    for (const auto& [k, v] : e.args)
      if (k == "op") op = std::stol(v);
    spans.push_back(std::move(s));
    own_op.push_back(op);
  }
  buf.clear();

  // Walk the spans by start time (longer first on ties, the benchmark's
  // span before the library's it wraps), keeping a stack of open spans per
  // thread. A span's parent is the innermost open span of its own thread
  // that contains it. A span on another thread (a solver pool or the serve
  // loop) with no such parent belongs to the innermost containing span of
  // the main thread. The server's serve.request spans are the exception:
  // the server answers in order, so the n-th one serves client request n.
  std::vector<int> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const SpanRec& x = spans[static_cast<std::size_t>(a)];
    const SpanRec& y = spans[static_cast<std::size_t>(b)];
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.end_ns != y.end_ns) return x.end_ns > y.end_ns;
    return x.library < y.library;
  });
  std::vector<int> requests;  // client requests in send order
  for (int i : order)
    if (spans[static_cast<std::size_t>(i)].tid == kClientTid) requests.push_back(i);
  std::size_t served = 0;
  const int main_tid = isex::obs::current_tid();
  std::map<int, std::vector<int>> open;
  auto innermost = [&](int tid, const SpanRec& s) -> int {
    auto& st = open[tid];
    while (!st.empty() && spans[static_cast<std::size_t>(st.back())].end_ns <= s.start_ns)
      st.pop_back();
    if (st.empty()) return -1;
    return spans[static_cast<std::size_t>(st.back())].end_ns >= s.end_ns ? st.back() : -1;
  };
  for (int i : order) {
    SpanRec& s = spans[static_cast<std::size_t>(i)];
    if (s.tid != kClientTid) {
      int parent = innermost(s.tid, s);
      if (parent < 0 && s.tid != main_tid) parent = innermost(main_tid, s);
      if (parent < 0 && s.name == "serve.request" && served < requests.size())
        parent = requests[served++];
      s.parent = parent;
      open[s.tid].push_back(i);
    }
    // A parent comes before its children in `order`, so its op is settled.
    s.op = own_op[static_cast<std::size_t>(i)] >= 0 || s.parent < 0
               ? own_op[static_cast<std::size_t>(i)]
               : spans[static_cast<std::size_t>(s.parent)].op;
  }
  return spans;
}

std::int64_t self_ns(const std::vector<SpanRec>& spans, const std::string& name) {
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const SpanRec& s : spans)
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (s.name != name) continue;
    // The union of the children's intervals, clipped to the span.
    std::int64_t covered = 0;
    auto it = kids.find(static_cast<int>(i));
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    total += (s.end_ns - s.start_ns) - covered;
  }
  return total;
}

std::int64_t total_ns(const std::vector<SpanRec>& spans, const std::string& name) {
  std::int64_t t = 0;
  for (const SpanRec& s : spans)
    if (s.name == name) t += s.end_ns - s.start_ns;
  return t;
}

std::size_t count(const std::vector<SpanRec>& spans, const std::string& name) {
  std::size_t n = 0;
  for (const SpanRec& s : spans)
    if (s.name == name) ++n;
  return n;
}

bool write_trace(const std::vector<SpanRec>& spans, const std::string& path) {
  isex::obs::TraceBuffer out;
  out.set_capacity(spans.size() + 1);
  out.set_thread_name(isex::obs::kWallPid, kClientTid, "serve client requests");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    isex::obs::TraceEvent e;
    e.name = s.name;
    e.cat = s.library ? "isex" : "perfbench";
    e.tid = s.tid;
    e.ts = s.start_ns;
    e.dur = s.end_ns - s.start_ns;
    e.args = {{"id", std::to_string(i)},
              {"parent", std::to_string(s.parent)},
              {"op", std::to_string(s.op)}};
    out.record(std::move(e));
  }
  std::ofstream f(path);
  out.write_chrome_json(f);
  return static_cast<bool>(f);
}

// ---------------------------------------------------------- CounterWindow

CounterWindow::CounterWindow() {
  before_ = isex::obs::Registry::global().snapshot().counters;
}

std::map<std::string, std::uint64_t> CounterWindow::take() const {
  std::map<std::string, std::uint64_t> d;
  for (const auto& [name, v] : isex::obs::Registry::global().snapshot().counters) {
    const auto it = before_.find(name);
    d[name] = v - (it == before_.end() ? 0 : it->second);
  }
  return d;
}

// ---------------------------------------------------------------- JSON

std::string json_string(const std::string& s) {
  return "\"" + isex::obs::json_escape(s) + "\"";
}

static std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonOut::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += json_string(k) + ":";
}

JsonOut& JsonOut::num(const std::string& k, double v) {
  key(k);
  body_ += json_num(v);
  return *this;
}

JsonOut& JsonOut::integer(const std::string& k, long long v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonOut& JsonOut::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_string(v);
  return *this;
}

JsonOut& JsonOut::nums(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) body_ += (i ? "," : "") + json_num(v[i]);
  body_ += "]";
  return *this;
}

JsonOut& JsonOut::strs(const std::string& k, const std::vector<std::string>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    body_ += (i ? "," : "") + json_string(v[i]);
  body_ += "]";
  return *this;
}

JsonOut& JsonOut::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string json_counters(const std::map<std::string, std::uint64_t>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ",";
    s += json_string(k) + ":" + std::to_string(v);
  }
  return s + "}";
}

std::string json_doubles(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ",";
    s += json_string(k) + ":" + json_num(v);
  }
  return s + "}";
}

// ---------------------------------------------------------------- misc

void announce_ready() {
  std::printf("ready\n");
  std::fflush(stdout);
}

double now_s() { return static_cast<double>(isex::obs::clock_ns()) / 1e9; }

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::map<std::string, double> curve_quality(const std::vector<rt::Task>& tasks) {
  double best = 0, at10 = 0, at30 = 0;
  for (const rt::Task& t : tasks) {
    const isex::select::ConfigCurve c{t.configs};
    best += std::log(c.base_cycles() / c.best_cycles());
    at10 += std::log(c.base_cycles() / c.cycles_at(10));
    at30 += std::log(c.base_cycles() / c.cycles_at(30));
  }
  const double n = static_cast<double>(tasks.size());
  return {{"quality.speedup_geomean", std::exp(best / n)},
          {"quality.speedup_at_10a", std::exp(at10 / n)},
          {"quality.speedup_at_30a", std::exp(at30 / n)}};
}

std::string check_curve(const rt::Task& t, double base_cycles) {
  const auto& p = t.configs;
  if (p.empty()) return t.name + ": empty curve";
  if (p[0].area != 0) return t.name + ": point 0 has nonzero area";
  if (p[0].cycles != base_cycles) return t.name + ": point 0 differs from base_cycles";
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (!(p[i].area > p[i - 1].area)) return t.name + ": areas not ascending";
    if (!(p[i].cycles < p[i - 1].cycles))
      return t.name + ": cycles not strictly descending";
  }
  return "";
}

}  // namespace perfbench
