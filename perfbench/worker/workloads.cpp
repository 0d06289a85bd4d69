// The four perfbench workloads. Each runner does its untimed set-up, then
// its timed ops, and fills a Result; main.cpp turns the Result into the
// worker's JSON line.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cerrno>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "isex/certify/schedule.hpp"
#include "isex/cli/driver.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/ir/opcode.hpp"
#include "isex/obs/journal.hpp"
#include "isex/obs/trace.hpp"
#include "isex/robust/fallback.hpp"
#include "isex/rt/schedulability.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/serve/json.hpp"
#include "isex/serve/server.hpp"
#include "isex/serve/traffic.hpp"
#include "isex/workloads/tasks.hpp"

namespace perfbench {

namespace rt = isex::rt;
namespace robust = isex::robust;
namespace customize = isex::customize;
namespace obs = isex::obs;
namespace serve = isex::serve;

namespace {

// ------------------------------------------------------------ set-up

/// The kernels' programs and software-only cycle counts: the reference a
/// built curve's point 0 must equal.
struct KernelRef {
  std::string name;
  isex::ir::Program program{""};
  double base_cycles = 0;
};

std::vector<KernelRef> load_kernels(const std::vector<std::string>& names) {
  const auto& lib = isex::hw::CellLibrary::standard_018um();
  const auto cost = isex::ir::Program::sum_cost(
      [&lib](const isex::ir::Node& n) { return lib.sw_cycles(n); });
  std::vector<KernelRef> refs;
  for (const auto& k : names) {
    KernelRef r;
    r.name = k;
    r.program = isex::workloads::make_benchmark(k);
    r.base_cycles =
        isex::select::base_cycles(r.program, r.program.wcet_counts(cost), lib);
    refs.push_back(std::move(r));
  }
  return refs;
}

std::vector<rt::Task> warm_tasks(const std::vector<std::string>& names) {
  std::vector<rt::Task> tasks;
  for (const auto& k : names) tasks.push_back(isex::workloads::cached_task(k));
  return tasks;
}

void record_failure(Result& res, const std::string& what) {
  ++res.failed;
  if (res.errors.size() < 8) res.errors.push_back(what);
}

// ------------------------------------------------------- select_mix ops

/// `n` distinct seeded kernels out of the 18.
std::vector<std::string> pick_kernels(Rng& rng, std::size_t n) {
  std::vector<std::string> pool = kernels();
  rng.shuffle(pool);
  pool.resize(n);
  return pool;
}

/// Stratified draw in [lo, hi): bin `k` of `bins`, jittered inside the bin,
/// so every run covers the range evenly.
double stratified(Rng& rng, double lo, double hi, std::size_t k, std::size_t bins) {
  const double w = (hi - lo) / static_cast<double>(bins);
  return lo + w * (static_cast<double>(k % bins) + rng.uniform(0, 1));
}

/// One selection instance: 3-5 distinct kernels, a software-only
/// utilization, an area fraction and a policy.
struct Instance {
  std::vector<std::string> kernels;
  double u0 = 0;
  double area_fraction = 0;
  bool rms = false;
};

Instance make_instance(Rng& rng, std::size_t index) {
  // Two RMS instances for each EDF one (RMS carries the cost and its tail;
  // the mix keeps the median inside the RMS distribution). Task count,
  // utilization and area fraction, the main cost factors, cycle through
  // strata, with seeded draws inside each.
  Instance in;
  const std::size_t k = index / 3;
  in.rms = index % 3 != 1;
  in.kernels = pick_kernels(rng, 3 + k % 3);
  in.u0 = in.rms ? stratified(rng, kRmsU0Lo, kRmsU0Hi, k / 3, 8)
                 : stratified(rng, kEdfU0Lo, kEdfU0Hi, k / 3, 8);
  in.area_fraction = stratified(rng, kAreaLo, kAreaHi, k / 24, 5);
  return in;
}

void digest_instance(Digest& d, const Instance& in) {
  for (const auto& k : in.kernels) d.add(k);
  d.add(in.u0);
  d.add(in.area_fraction);
  d.add(in.rms ? "rms" : "edf");
}

struct SelectAnswer {
  bool ok = false;
  std::string error;
  double utilization = 0;
  bool schedulable = false;
  bool exact = false;
  std::string digest;  // the answer's bytes, for run-to-run identity
};

/// The select_mix op: the fallback ladder under a fixed node budget, then
/// the independent certify witness.
SelectAnswer run_selection(const Instance& in, long op) {
  rt::TaskSet ts = isex::workloads::make_taskset(in.kernels, in.u0);
  ts.sort_by_period();
  const double area = in.area_fraction * ts.max_area();
  robust::Budget budget;
  budget.set_node_budget(kSelectNodeBudget);
  SelectAnswer a;
  isex::certify::CertifyReport check;
  customize::SelectionResult value;
  robust::Status status = robust::Status::kExact;
  bool certificate_ok = true;
  {
    obs::Span s("robust.select_with_fallback", "perfbench");
    set_op(s, op);
    if (in.rms) {
      auto out = robust::select_rms_with_fallback(ts, area, customize::RmsOptions{},
                                                  &budget);
      {
        obs::Span c("certify.selection", "perfbench");
        check = isex::certify::check_selection_rms(ts, area, out.value);
      }
      value = out.value;
      status = out.status;
      certificate_ok = out.certificate.ok();
    } else {
      auto out = robust::select_edf_with_fallback(ts, area, customize::EdfOptions{},
                                                  &budget);
      {
        obs::Span c("certify.selection", "perfbench");
        check = isex::certify::check_selection_edf(ts, area, out.value);
      }
      value = out.value;
      status = out.status;
      certificate_ok = out.certificate.ok();
    }
  }
  if (!check.ok() || !certificate_ok) {
    a.error = "selection failed its certificate: " + check.summary();
    return a;
  }
  a.ok = true;
  a.utilization = value.utilization;
  a.schedulable = value.schedulable;
  a.exact = status == robust::Status::kExact;
  Digest d;
  for (int c : value.assignment) d.add(std::to_string(c));
  d.add(value.utilization);
  d.add(robust::to_string(status));
  a.digest = d.hex();
  return a;
}

/// Times rt::rms_schedulable on the instance's fastest configurations
/// (traced runs): the per-call cost of the test the RMS search runs per node.
void probe_rms_test(const Instance& in) {
  rt::TaskSet ts = isex::workloads::make_taskset(in.kernels, in.u0);
  ts.sort_by_period();
  std::vector<double> cycles, periods;
  for (const auto& t : ts.tasks) {
    cycles.push_back(t.configs.back().cycles);
    periods.push_back(t.period);
  }
  obs::Span s("rt.rms_schedulable", "perfbench");
  volatile bool sink = false;
  for (int i = 0; i < kRmsTestRepeats; ++i)
    sink = sink ^ rt::rms_schedulable(cycles, periods);
}

struct SelectQuality {
  double util_sum = 0;
  long schedulable = 0, exact = 0, n = 0;
  void add(const SelectAnswer& a) {
    util_sum += a.utilization;
    schedulable += a.schedulable ? 1 : 0;
    exact += a.exact ? 1 : 0;
    ++n;
  }
  void put(std::map<std::string, double>& q, const std::string& prefix) const {
    const double d = static_cast<double>(std::max(1L, n));
    q[prefix + "utilization_mean"] = util_sum / d;
    q[prefix + "schedulable_ratio"] = static_cast<double>(schedulable) / d;
    q[prefix + "exact_ratio"] = static_cast<double>(exact) / d;
  }
};

/// Selection quality of a fixed probe over the warm curves: how good are
/// the selections these curves and selectors give. The probe does not
/// depend on the run's seed, so its figures gate drift on every workload.
void probe_selection_quality(Result& res) {
  Rng rng(kProbeSeed);
  SelectQuality q;
  for (std::size_t i = 0; i < kProbeInstances; ++i) {
    const SelectAnswer a = run_selection(make_instance(rng, i), -1);
    if (!a.ok) {
      record_failure(res, "probe: " + a.error);
      continue;
    }
    q.add(a);
  }
  q.put(res.quality, "quality.");
}

// -------------------------------------------------- per-layer metrics

double per_op(std::int64_t ns, long ops) {
  return static_cast<double>(ns) / 1e6 / static_cast<double>(std::max(1L, ops));
}

/// Fills res.layers from the traced spans and the obs counter deltas of the
/// traced ops. Layers the workload does not reach read 0.
void layer_metrics(Result& res, const std::map<std::string, std::uint64_t>& c,
                   long ops) {
  const std::vector<SpanRec>& tr = res.spans;
  const auto self = [&](const char* name) { return self_ns(tr, name); };
  const auto total = [&](const char* name) { return total_ns(tr, name); };
  auto cnt = [&](const std::string& k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& L = res.layers;
  L["workloads.build_task_ms"] = per_op(self("workloads.build_task"), ops);
  L["ise.enumerate_ms"] =
      per_op(self("ise.enumerate_candidates") + self("ise.enumerate_connected") +
                 self("ise.maximal_misos") + self("ise.enumerate_disconnected") +
                 self("robust.fallback.enumerate"),
             ops);
  for (const char* k : {"ise.enum.grow_calls", "ise.enum.input_rejects",
                        "ise.enum.candidates", "ise.enum.budget_exhausted",
                        "ise.single_cut.explored", "select.knapsack_items",
                        "customize.edf.dp_cells", "customize.rms.nodes",
                        "customize.rms.sched_pruned", "customize.rms.bound_pruned",
                        "robust.fallback.edf.coarse_retries",
                        "robust.fallback.rms.beam_retries",
                        "robust.fallback.rms.greedy_retries", "certify.ci.checks",
                        "certify.pareto.checks", "certify.partition.checks"})
    L[k] = cnt(k);
  L["ise.enum.useful_ratio"] =
      ratio(cnt("ise.enum.candidates"), cnt("ise.enum.grow_calls"));
  L["ise.single_cut_ms"] = per_op(self("ise.optimal_single_cut"), ops);
  L["select.disjoint_pool_ms"] = per_op(self("select.selection_items"), ops);
  L["select.pool_keep_ratio"] =
      ratio(cnt("select.knapsack_items"), cnt("ise.enum.candidates"));
  L["opt.knapsack_ms"] = per_op(self("select.build_config_curve"), ops);
  L["customize.edf_ms"] = per_op(self("customize.select_edf"), ops);
  L["customize.rms_ms"] = per_op(self("customize.select_rms"), ops);
  L["customize.rms.us_per_node"] =
      ratio(static_cast<double>(total("customize.select_rms")) / 1e3,
            cnt("customize.rms.nodes"));
  const std::size_t rms_probes = count(tr, "rt.rms_schedulable");
  L["rt.rms_test_us"] =
      rms_probes == 0 ? 0.0
                      : static_cast<double>(total("rt.rms_schedulable")) /
                            1e3 / static_cast<double>(rms_probes * kRmsTestRepeats);
  const double ladder_ops = static_cast<double>(
      count(tr, "robust.fallback.select_edf") + count(tr, "robust.fallback.select_rms"));
  L["robust.rungs_per_op"] =
      ratio(ladder_ops + cnt("robust.fallback.edf.coarse_retries") +
                cnt("robust.fallback.edf.greedy_retries") +
                cnt("robust.fallback.rms.beam_retries") +
                cnt("robust.fallback.rms.greedy_retries"),
            ladder_ops);
  L["robust.ladder_ms"] =
      per_op(self("robust.select_with_fallback") + self("robust.fallback.select_edf") +
                 self("robust.fallback.select_rms"),
             ops);
  L["certify.selection_ms"] = per_op(total("certify.selection"), ops);
  L["cli.certify_self_ms"] = per_op(self("cli.certify"), ops);
  L["trace.spans"] = static_cast<double>(tr.size());
}

// ------------------------------------------------------- serve traffic

enum RequestClass { kInlineNew, kInlineRepeat, kRefNew, kRefRepeat, kNumClasses };
const char* kClassNames[kNumClasses] = {"inline_new", "inline_repeat", "ref_new",
                                        "ref_repeat"};

/// The kernels' basic blocks sized for an inline request.
std::vector<const isex::ir::Dfg*> inline_blocks(const std::vector<KernelRef>& refs) {
  std::vector<const isex::ir::Dfg*> v;
  for (const auto& r : refs)
    for (const auto& b : r.program.blocks())
      if (b.dfg.num_nodes() >= kInlineMinNodes && b.dfg.num_nodes() <= kInlineMaxNodes)
        v.push_back(&b.dfg);
  return v;
}

std::string dfg_json(const isex::ir::Dfg& dfg, double* sw_cycles) {
  const auto& lib = isex::hw::CellLibrary::standard_018um();
  std::string s = "[";
  *sw_cycles = 0;
  for (int i = 0; i < dfg.num_nodes(); ++i) {
    const auto& n = dfg.node(i);
    *sw_cycles += lib.sw_cycles(n);
    if (i) s += ",";
    s += "{\"op\":\"" + std::string(isex::ir::opcode_name(n.op)) + "\",\"in\":[";
    for (std::size_t j = 0; j < n.operands.size(); ++j)
      s += (j ? "," : "") + std::to_string(n.operands[j]);
    s += "]";
    if (n.live_out) s += ",\"out\":true";
    s += "}";
  }
  return s + "]";
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// The seeded request stream, generated on demand. Request i carries the
/// id "q<i>". Exactly the repeat share of the repo's serve traffic model
/// (serve::TrafficOptions::pct_repeat, 20%) are repeats, evenly spread:
/// the byte-identical body of an earlier new request, with only the id
/// changed (the id is not part of the result cache's key). Repeats
/// alternate between inline and benchmark-ref originals, each drawn
/// uniformly from the earlier new requests of its kind. New requests
/// alternate inline and benchmark-ref. The main cost factors cycle through
/// their values, so that every stream covers them evenly: inline requests
/// the task count (1-2) and policy, and a seeded permutation of the kernel
/// blocks; ref requests the kernel count (2-4).
class Traffic {
 public:
  Traffic(std::uint64_t seed, const std::vector<const isex::ir::Dfg*>& blocks)
      : rng_(seed), blocks_(blocks) {}

  std::string line(std::size_t i) {
    while (bodies_.size() <= i) extend();
    return "{\"id\":\"q" + std::to_string(i) + "\"," + bodies_[original_[i]];
  }
  RequestClass cls(std::size_t i) const { return cls_[i]; }
  std::size_t original(std::size_t i) const { return original_[i]; }

 private:
  void extend() {
    const std::size_t i = bodies_.size();
    const std::size_t pct = static_cast<std::size_t>(serve::TrafficOptions{}.pct_repeat);
    const auto& from = new_[repeats_ % 2];
    std::string body;
    std::size_t orig = i;
    RequestClass c;
    if ((i + 1) * pct / 100 > i * pct / 100 && !from.empty()) {
      orig = from[static_cast<std::size_t>(rng_.below(static_cast<int>(from.size())))];
      c = repeats_++ % 2 == 0 ? kInlineRepeat : kRefRepeat;
    } else if ((new_[0].size() + new_[1].size()) % 2 == 0) {
      c = kInlineNew;
      const std::size_t k = new_[0].size();
      const int ntasks = 1 + static_cast<int>(k % 2);
      const bool rms = k / 2 % 2 == 1;
      const double u0 =
          rng_.uniform(rms ? kRmsU0Lo : kEdfU0Lo, rms ? kRmsU0Hi : kEdfU0Hi);
      body = "\"cmd\":\"select\",\"policy\":\"" + std::string(rms ? "rms" : "edf") +
             "\",\"budget_fraction\":" + fmt(rng_.uniform(kAreaLo, kAreaHi)) +
             ",\"node_budget\":" + std::to_string(kInlineNodeBudget) + ",\"tasks\":[";
      for (int t = 0; t < ntasks; ++t) {
        double sw = 0;
        const std::string dfg = dfg_json(next_block(), &sw);
        body += (t ? "," : "") + std::string("{\"name\":\"t") + std::to_string(t) +
                "\",\"period\":" + fmt(sw * ntasks / u0) + ",\"dfg\":" + dfg + "}";
      }
      body += "]}";
      new_[0].push_back(i);
    } else {
      c = kRefNew;
      const auto pool = pick_kernels(rng_, 2 + new_[1].size() % 3);
      body = "\"cmd\":\"select\",\"policy\":\"rms\",\"benchmarks\":[";
      for (std::size_t k = 0; k < pool.size(); ++k)
        body += (k ? ",\"" : "\"") + pool[k] + "\"";
      body += "],\"u0\":" + fmt(rng_.uniform(kRmsU0Lo, kRmsU0Hi)) +
              ",\"budget_fraction\":" + fmt(rng_.uniform(kAreaLo, kAreaHi)) +
              ",\"node_budget\":" + std::to_string(kSelectNodeBudget) + "}";
      new_[1].push_back(i);
    }
    bodies_.push_back(std::move(body));
    cls_.push_back(c);
    original_.push_back(orig);
  }

  /// The next block of a seeded permutation, reshuffled once used up.
  const isex::ir::Dfg& next_block() {
    if (cursor_ == perm_.size()) {
      perm_.resize(blocks_.size());
      for (std::size_t b = 0; b < perm_.size(); ++b) perm_[b] = b;
      rng_.shuffle(perm_);
      cursor_ = 0;
    }
    return *blocks_[perm_[cursor_++]];
  }

  Rng rng_;
  const std::vector<const isex::ir::Dfg*>& blocks_;
  std::vector<std::string> bodies_;  // empty for a repeat
  std::vector<RequestClass> cls_;
  std::vector<std::size_t> original_;
  std::vector<std::size_t> new_[2];  // earlier new requests: inline, ref
  std::size_t repeats_ = 0;
  std::vector<std::size_t> perm_;
  std::size_t cursor_ = 0;
};

/// Canonical rendering of a parsed JSON value: members in source order,
/// numbers in the shortest round-trip form. Two renderings are equal exactly
/// when the values are, bit for bit.
std::string render(const serve::Json& v) {
  using T = serve::Json::Type;
  switch (v.type()) {
    case T::kNull: return "null";
    case T::kBool: return v.as_bool() ? "true" : "false";
    case T::kNumber: return serve::json_number(v.as_number());
    case T::kString: return serve::json_quote(v.as_string());
    case T::kArray: {
      std::string s = "[";
      for (const auto& x : v.items()) s += (s.size() > 1 ? "," : "") + render(x);
      return s + "]";
    }
    case T::kObject: {
      std::string s = "{";
      for (const auto& [k, x] : v.members())
        s += (s.size() > 1 ? "," : "") + serve::json_quote(k) + ":" + render(x);
      return s + "}";
    }
  }
  return "";
}

/// A checked select response: id "q<i>", ok, and a result whose embedded
/// certificate holds.
struct Response {
  std::string error;   // "" when the response checks out
  std::string result;  // canonical rendering of the result object
  double elapsed_ms = 0;
  SelectAnswer answer;
};

Response check_response(const std::string& line, std::size_t i) {
  Response r;
  const auto parsed = serve::json_parse(line);
  const serve::Json& v = parsed.value;
  const serve::Json* id = v.find("id");
  const serve::Json* ok = v.find("ok");
  const serve::Json* elapsed = v.find("elapsed_ms");
  const serve::Json* result = v.find("result");
  const serve::Json* cert = result ? result->find("certificate") : nullptr;
  const serve::Json* cert_ok = cert ? cert->find("ok") : nullptr;
  if (!parsed.ok())
    r.error = "unparsable response: " + parsed.error;
  else if (!id || !id->is_string() || id->as_string() != "q" + std::to_string(i))
    r.error = "response out of order";
  else if (!ok || !ok->is_bool() || !ok->as_bool() || !result || !result->is_object())
    r.error = "error response";
  else if (!cert_ok || !cert_ok->is_bool() || !cert_ok->as_bool())
    r.error = "result certificate reports violations";
  else if (!elapsed || !elapsed->is_number())
    r.error = "no elapsed_ms";
  if (!r.error.empty()) {
    r.error += ": " + line.substr(0, 200);
    return r;
  }
  r.result = render(*result);
  r.elapsed_ms = elapsed->as_number();
  const serve::Json* util = result->find("utilization");
  const serve::Json* sched = result->find("schedulable");
  const serve::Json* status = result->find("status");
  r.answer.utilization = util && util->is_number() ? util->as_number() : 0;
  r.answer.schedulable = sched && sched->is_bool() && sched->as_bool();
  r.answer.exact = status && status->is_string() &&
                   status->as_string() == robust::to_string(robust::Status::kExact);
  return r;
}

bool read_line(int fd, std::string& buf, std::string& line) {
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Sends the first `ops` traffic lines to a fresh serve::Server over a pipe
/// pair, keeping kOutstanding requests in flight. Checks each response and
/// appends per-request samples to `res`; the results go to `out` and
/// `answers`. After the last request the client closes its end and reads to
/// EOF: every response beyond one per request is a failed op.
void serve_loop(Traffic& traffic, std::size_t ops, Result& res, Digest& out,
                SelectQuality& answers) {
  serve::ServerOptions so;
  so.workers = 0;
  serve::Server server(so);
  int to_server[2], from_server[2];
  if (::pipe(to_server) != 0) throw std::runtime_error("pipe failed");
  if (::pipe(from_server) != 0) {
    ::close(to_server[0]);
    ::close(to_server[1]);
    throw std::runtime_error("pipe failed");
  }
  int server_rc = -1;
  std::vector<std::int64_t> sent_at;
  std::vector<std::string> results;
  std::size_t received = 0;
  bool write_failed = false;
  {
    // Closing the client's write end lets Server::run see EOF (or a failed
    // write) and return; the guard does it on every way out of this block,
    // so the server thread is always joined.
    struct Join {
      int to_server, from_server;
      std::thread th;
      void close_requests() {
        if (to_server >= 0) ::close(to_server);
        to_server = -1;
      }
      ~Join() {
        close_requests();
        ::close(from_server);
        th.join();
      }
    } join{to_server[1], from_server[0], std::thread([&] {
             server_rc = server.run(to_server[0], from_server[1]);
             ::close(from_server[1]);
           })};

    auto send = [&] {
      const std::size_t i = sent_at.size();
      sent_at.push_back(obs::clock_ns());
      if (!write_all(to_server[1], traffic.line(i) + "\n")) write_failed = true;
    };
    auto more = [&] { return sent_at.size() < ops; };
    while (sent_at.size() < kOutstanding && more() && !write_failed) send();
    std::string buf, line;
    while (received < sent_at.size() && !write_failed) {
      if (!read_line(from_server[0], buf, line)) break;
      const std::int64_t t = obs::clock_ns();
      const std::size_t i = received++;
      if (tracing())
        obs::trace_complete("serve.client_request", "perfbench", obs::kWallPid,
                            kClientTid, sent_at[i], t - sent_at[i],
                            {{"op", std::to_string(i)}});
      ++res.attempted;
      const Response r = check_response(line, i);
      results.push_back(r.result);
      const std::size_t orig = traffic.original(i);
      if (!r.error.empty()) {
        record_failure(res, "request " + std::to_string(i) + ": " + r.error);
      } else if (orig != i && r.result != results[orig]) {
        record_failure(res, "request " + std::to_string(i) +
                                ": repeat result differs from request " +
                                std::to_string(orig));
      } else {
        res.op_ms.push_back(static_cast<double>(t - sent_at[i]) / 1e6);
        res.op_class.push_back(kClassNames[traffic.cls(i)]);
        res.service_ms.push_back(r.elapsed_ms);
        out.add(r.result);
        answers.add(r.answer);
      }
      if (more()) send();
    }
    join.close_requests();
    while (read_line(from_server[0], buf, line)) {
      ++res.attempted;
      record_failure(res, "response beyond the last request: " + line.substr(0, 200));
    }
  }
  ::close(to_server[0]);
  if (write_failed) record_failure(res, "write to server failed");
  if (received != sent_at.size())
    record_failure(res, "server answered " + std::to_string(received) + " of " +
                            std::to_string(sent_at.size()) + " requests");
  if (server_rc != 0) record_failure(res, "server exited " + std::to_string(server_rc));
}

/// Journal-derived per-layer serve metrics over the traced requests.
void serve_layers(Result& res, const std::vector<obs::JournalRecord>& recs,
                  std::size_t requests) {
  std::int64_t decode = 0, build = 0, solve = 0;
  for (const auto& r : recs) {
    if (r.kind == obs::JournalKind::kDecode) decode += r.dur_ns;
    if (r.kind == obs::JournalKind::kSolve &&
        r.phase == obs::JournalPhase::kBuild)
      build += r.dur_ns;
    if (r.kind == obs::JournalKind::kSolve &&
        r.phase == obs::JournalPhase::kSolve)
      solve += r.dur_ns;
  }
  const long n = static_cast<long>(requests);
  res.layers["serve.decode_ms"] = per_op(decode, n);
  res.layers["serve.build_ms"] = per_op(build, n);
  res.layers["serve.solve_ms"] = per_op(solve, n);
}

// ---------------------------------------------------------- certify

/// Runs `isex certify <kernel>` in-process with stdout silenced; returns
/// the CLI's exit code.
int certify_kernel(const std::string& k) {
  std::fflush(stdout);
  const int saved = ::dup(1);
  const int devnull = ::open("/dev/null", O_WRONLY);
  if (saved < 0 || devnull < 0 || ::dup2(devnull, 1) < 0)
    throw std::runtime_error("cannot silence stdout for isex certify");
  ::close(devnull);
  const int rc = isex::cli::run({"certify", k});
  std::fflush(stdout);
  ::dup2(saved, 1);
  ::close(saved);
  return rc;
}

}  // namespace

// ====================================================== the runners

void run_setup_only(const Options& o, Result& res) {
  const double t0 = now_s();
  if (o.workload == "curve_build" || o.workload == "certify_suite") {
    load_kernels(o.kernels);
  } else {
    isex::workloads::prefetch_tasks(kernels());
    res.quality = curve_quality(warm_tasks(kernels()));
  }
  res.setup_s = now_s() - t0;
  announce_ready();
}

void run_curve_pass(const Options& o, Result& res) {
  const double s0 = now_s();
  const std::vector<KernelRef> refs = load_kernels(o.kernels);
  std::vector<std::size_t> order(refs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(o.seed);
  rng.shuffle(order);
  for (std::size_t i : order) res.inputs.add(refs[i].name);
  res.setup_s = now_s() - s0;
  announce_ready();

  CounterWindow counters;
  if (o.trace) start_tracing();
  const double t0 = now_s();
  std::vector<rt::Task> built(refs.size());
  for (std::size_t n = 0; n < order.size(); ++n) {
    const std::size_t i = order[n];
    const double a = now_s();
    {
      obs::Span s("workloads.build_task", "perfbench");
      set_op(s, static_cast<long>(n));
      built[i] = isex::workloads::cached_task(refs[i].name);
    }
    res.op_ms.push_back((now_s() - a) * 1e3);
  }
  res.pass_s.push_back(now_s() - t0);
  res.pass_ops.push_back(static_cast<long>(res.op_ms.size()));
  if (o.trace) res.spans = stop_tracing();
  const auto c = counters.take();

  for (std::size_t i = 0; i < refs.size(); ++i) {
    ++res.attempted;
    const std::string err = check_curve(built[i], refs[i].base_cycles);
    if (!err.empty()) record_failure(res, err);
    for (const auto& p : built[i].configs) {
      res.outputs.add(p.area);
      res.outputs.add(p.cycles);
    }
  }
  res.quality = curve_quality(built);
  if (o.trace)
    layer_metrics(res, c, static_cast<long>(order.size()));
  else
    probe_selection_quality(res);
  res.counters = c;
}

/// The timed loop of select_mix and serve_mixed; `pass(traced)` runs the
/// o.ops ops once and returns the digest of their outputs. Untraced: passes
/// until at least kMinPasses have run and o.seconds have passed, each
/// answering exactly like the first. Traced: one untraced pass and then one
/// traced pass, for the overhead comparison.
template <typename Pass>
void timed_loop(const Options& o, Result& res, Pass pass) {
  std::string first;
  const int min_passes = o.trace ? 2 : kMinPasses;
  const double t0 = now_s();
  for (int p = 0; p < min_passes || (!o.trace && now_s() - t0 < o.seconds); ++p) {
    const bool traced = o.trace && p == 1;
    if (traced) start_tracing();
    const std::size_t samples = res.op_ms.size();
    const double a = now_s();
    const std::string out = pass(traced);
    res.pass_s.push_back(now_s() - a);
    res.pass_ops.push_back(static_cast<long>(res.op_ms.size() - samples));
    if (p == 0) first = out;
    else if (out != first)
      record_failure(res, "pass " + std::to_string(p) + " answered differently");
  }
  res.outputs.add(first);
  if (o.trace) res.layers["trace.overhead_ratio"] = res.pass_s[1] / res.pass_s[0] - 1;
}

void run_select_mix(const Options& o, Result& res) {
  const double s0 = now_s();
  isex::workloads::prefetch_tasks(kernels());
  res.quality = curve_quality(warm_tasks(kernels()));
  res.setup_s = now_s() - s0;
  announce_ready();

  Rng rng(o.seed);
  std::vector<Instance> inst;
  for (std::size_t i = 0; i < o.ops; ++i) {
    inst.push_back(make_instance(rng, i));
    digest_instance(res.inputs, inst.back());
  }
  SelectQuality q;
  std::map<std::string, std::uint64_t> counters;
  timed_loop(o, res, [&](bool traced) {
    CounterWindow window;
    Digest out;
    SelectQuality answers;
    for (std::size_t i = 0; i < o.ops; ++i) {
      ++res.attempted;
      const double a = now_s();
      SelectAnswer ans;
      {
        obs::Span s("select_mix.op", "perfbench");
        set_op(s, static_cast<long>(i));
        ans = run_selection(inst[i], static_cast<long>(i));
      }
      const double ms = (now_s() - a) * 1e3;
      if (!ans.ok) {
        record_failure(res, "instance " + std::to_string(i) + ": " + ans.error);
        continue;
      }
      res.op_ms.push_back(ms);
      out.add(ans.digest);
      answers.add(ans);
    }
    if (!traced) q = answers;
    counters = window.take();
    return out.hex();
  });
  if (o.trace) {
    for (std::size_t i = 0; i < o.ops; ++i)
      if (inst[i].rms) probe_rms_test(inst[i]);
    res.spans = stop_tracing();
    layer_metrics(res, counters, static_cast<long>(o.ops));
  } else {
    probe_selection_quality(res);
  }
  q.put(res.answers, "");
  res.counters = counters;
}

void run_serve_mixed(const Options& o, Result& res) {
  const double s0 = now_s();
  isex::workloads::prefetch_tasks(kernels());
  res.quality = curve_quality(warm_tasks(kernels()));
  const std::vector<KernelRef> refs = load_kernels(kernels());
  const auto blocks = inline_blocks(refs);
  res.setup_s = now_s() - s0;
  announce_ready();

  Traffic traffic(o.seed, blocks);
  for (std::size_t i = 0; i < o.ops; ++i) res.inputs.add(traffic.line(i));
  SelectQuality q;
  std::map<std::string, std::uint64_t> counters;
  timed_loop(o, res, [&](bool traced) {
    CounterWindow window;
    const std::uint64_t journal_head = obs::Journal::global().head();
    Digest out;
    SelectQuality answers;
    serve_loop(traffic, o.ops, res, out, answers);
    if (!traced) q = answers;
    counters = window.take();
    if (traced) {
      const std::uint64_t head = obs::Journal::global().head();
      serve_layers(res, obs::Journal::global().snapshot(
                            static_cast<std::size_t>(head - journal_head)),
                   o.ops);
    }
    return out.hex();
  });
  if (o.trace) {
    res.spans = stop_tracing();
    layer_metrics(res, counters, static_cast<long>(o.ops));
    const auto get = [&](const char* k) {
      const auto it = counters.find(k);
      return it == counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double hits = get("serve.cache.hits"), misses = get("serve.cache.misses");
    res.layers["serve.cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  } else {
    probe_selection_quality(res);
  }
  q.put(res.answers, "");
  res.counters = counters;
}

void run_certify_pass(const Options& o, Result& res) {
  const double s0 = now_s();
  const std::vector<KernelRef> refs = load_kernels(o.kernels);
  std::vector<std::size_t> order(refs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(o.seed);
  rng.shuffle(order);
  for (std::size_t i : order) res.inputs.add(refs[i].name);
  res.setup_s = now_s() - s0;
  announce_ready();

  CounterWindow counters;
  if (o.trace) start_tracing();
  const double t0 = now_s();
  std::vector<int> exit_code(refs.size(), 0);
  for (std::size_t n = 0; n < order.size(); ++n) {
    const std::size_t i = order[n];
    const double a = now_s();
    {
      obs::Span s("cli.certify", "perfbench");
      set_op(s, static_cast<long>(n));
      exit_code[i] = certify_kernel(refs[i].name);
    }
    if (exit_code[i] == 0) res.op_ms.push_back((now_s() - a) * 1e3);
  }
  res.pass_s.push_back(now_s() - t0);
  res.pass_ops.push_back(static_cast<long>(res.op_ms.size()));
  if (o.trace) res.spans = stop_tracing();
  const auto c = counters.take();

  // Certify built every curve through the task memo; gate and score them.
  const std::vector<rt::Task> tasks = warm_tasks(o.kernels);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ++res.attempted;
    std::string err = check_curve(tasks[i], refs[i].base_cycles);
    if (exit_code[i] != 0)
      err = "isex certify " + refs[i].name + " exited " + std::to_string(exit_code[i]);
    if (!err.empty()) record_failure(res, err);
    for (const auto& p : tasks[i].configs) {
      res.outputs.add(p.area);
      res.outputs.add(p.cycles);
    }
  }
  res.quality = curve_quality(tasks);
  if (o.trace)
    layer_metrics(res, c, static_cast<long>(order.size()));
  else
    probe_selection_quality(res);
  res.counters = c;
}

}  // namespace perfbench
