#include "isex/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <exception>
#include <utility>
#include <variant>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <sstream>

#include "isex/certify/schedule.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/obs/journal.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/obs/trace.hpp"
#include "isex/robust/fallback.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/supervise/pool.hpp"
#include "isex/util/file.hpp"
#include "isex/util/io.hpp"
#include "isex/workloads/tasks.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex::serve {
namespace {

// ---- signal plumbing --------------------------------------------------------
//
// The handler does the minimum that is async-signal-safe: latch the signal
// number and flip the robust:: global-cancel atomic so budgeted solvers stop
// at their next charge stride. Everything else (drain, flush, exit code)
// happens in normal control flow.

// std::atomic<int> rather than volatile sig_atomic_t: the flag is also read
// from server threads (pending_signal), so it needs to be a real atomic to be
// data-race-free; it stays async-signal-safe because atomic<int> is lock-free.
std::atomic<int> g_pending_signal{0};
// CLOCK_MONOTONIC ns at which the pending signal arrived; 0 while its
// handler has not stored it yet (or after consume_pending_signal).
std::atomic<std::int64_t> g_pending_since_ns{0};
static_assert(std::atomic<std::int64_t>::is_always_lock_free);

// A repeat of the pending signal within this window is the same request
// delivered twice, not a second one: coreutils `timeout` signals the child
// and then its process group, and the two copies can reach different
// threads. Well under a human double Ctrl-C.
constexpr std::int64_t kRepeatSignalWindowNs = 50'000'000;  // 50 ms

std::int64_t monotonic_ns() {  // clock_gettime is async-signal-safe
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

extern "C" void serve_signal_handler(int sig) {
  const std::int64_t now = monotonic_ns();
  int expected = 0;
  if (g_pending_signal.compare_exchange_strong(expected, sig,
                                               std::memory_order_relaxed)) {
    g_pending_since_ns.store(now, std::memory_order_relaxed);
    robust::request_global_cancel();
    return;
  }
  const std::int64_t since = g_pending_since_ns.load(std::memory_order_relaxed);
  if (expected == sig && (since == 0 || now - since < kRepeatSignalWindowNs))
    return;  // the first copy's handler is running or has just run
  _exit(128 + sig);  // a second request: no more grace
}

// A TaskSet or the reason it could not be built.
struct BuiltTaskSet {
  rt::TaskSet ts;
  bool ok = false;
  std::string error;  // bad_request message when !ok
};

bool known_benchmark(const std::string& name) {
  const auto& names = workloads::benchmark_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Lifts an inline DFG into a configuration curve through the same
/// identification pipeline the benchmark tasks use, with serve's
/// select::inline_dfg_curve_options and under the request budget
/// (enumeration truncates gracefully to fewer candidates). With a memo, a
/// DFG identified before reuses its curve and replays the build's recorded
/// cost into `budget` (CurveCache::reuse); a build the budget did not cut
/// is stored for later requests.
rt::Task task_from_dfg(const TaskSpec& spec, robust::Budget* budget,
                       CurveCache* memo) {
  const hw::CellLibrary& lib = hw::CellLibrary::standard_018um();
  const auto cost =
      ir::Program::sum_cost([&lib](const ir::Node& n) { return lib.sw_cycles(n); });
  const std::vector<std::int64_t> counts = spec.program.wcet_counts(cost);
  select::CurveOptions copts = select::inline_dfg_curve_options();
  rt::Task t;
  t.name = spec.name;
  t.period = spec.period;
  std::string key;
  std::uint64_t hash = 0;
  if (memo != nullptr) {
    key = curve_key(spec.program, counts, lib, copts);
    hash = fnv1a(key.data(), key.size());
    if (const auto* points =
            memo->reuse(hash, key, select::base_cycles(spec.program, counts, lib),
                        *budget)) {
      t.configs = *points;
      return t;
    }
  }
  copts.enum_opts.budget = budget;
  const long nodes_before = budget->report().nodes_charged;
  const robust::Budget::MemPhase phase = budget->begin_mem_phase();
  t.configs =
      select::build_config_curve(spec.program, counts, lib, copts).curve.points;
  const std::size_t mem_peak = budget->end_mem_phase(phase);
  const robust::BudgetReport after = budget->report();
  if (memo != nullptr && !after.exhausted())
    memo->insert(hash, CurveCache::Entry{std::move(key), t.configs,
                                         after.nodes_charged - nodes_before,
                                         mem_peak});
  return t;
}

BuiltTaskSet build_taskset(const Request& req, robust::Budget* budget,
                           CurveCache* memo) {
  BuiltTaskSet out;
  if (!req.benchmarks.empty()) {
    for (const std::string& name : req.benchmarks) {
      if (!known_benchmark(name)) {
        out.error = "unknown benchmark '" + name + "' (see `isex list`)";
        return out;
      }
    }
    out.ts = workloads::make_taskset(req.benchmarks, req.u0);
  } else {
    for (const TaskSpec& spec : req.tasks) {
      if (spec.has_dfg) {
        out.ts.tasks.push_back(task_from_dfg(spec, budget, memo));
      } else {
        out.ts.tasks.push_back(rt::Task{spec.name, spec.period, spec.configs});
      }
    }
  }
  if (std::string err = out.ts.validate(); !err.empty()) {
    out.error = "invalid task set: " + err;
    return out;
  }
  out.ts.sort_by_period();  // RMS requires it; EDF is order-insensitive
  out.ok = true;
  return out;
}

/// `{"count":N,"mean":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}` for
/// one latency histogram (microseconds). Percentiles come from the pow2
/// buckets via obs::histogram_quantile — bucket-resolution estimates, which
/// is what an operator dashboard needs.
std::string latency_stats_json(const obs::Histogram& h) {
  obs::Registry::HistogramSnapshot s;
  s.count = h.count();
  s.sum = h.sum();
  s.min = s.count ? h.min() : 0;
  s.max = s.count ? h.max() : 0;
  s.buckets = h.buckets();
  const double mean =
      s.count ? static_cast<double>(s.sum) / static_cast<double>(s.count) : 0;
  std::string r = "{\"count\":" + std::to_string(s.count);
  r += ",\"mean\":" + json_number(mean);
  r += ",\"min\":" + std::to_string(s.min);
  r += ",\"max\":" + std::to_string(s.max);
  r += ",\"p50\":" + json_number(obs::histogram_quantile(s, 0.50));
  r += ",\"p95\":" + json_number(obs::histogram_quantile(s, 0.95));
  r += ",\"p99\":" + json_number(obs::histogram_quantile(s, 0.99)) + "}";
  return r;
}

}  // namespace

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads return EINTR promptly
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

int pending_signal() {
  return g_pending_signal.load(std::memory_order_relaxed);
}

int consume_pending_signal() {
  g_pending_since_ns.store(0, std::memory_order_relaxed);
  return g_pending_signal.exchange(0, std::memory_order_relaxed);
}

Server::Server(const ServerOptions& opts)
    : opts_(opts), cache_(opts.cache), curves_(opts.cache) {}

// Out-of-line so the unique_ptr<WorkerPool> deleter sees the complete type;
// the pool's destructor SIGTERMs and reaps any workers still alive.
Server::~Server() = default;

std::vector<pid_t> Server::worker_pids() const {
  return pool_ ? pool_->pids() : std::vector<pid_t>{};
}

int Server::shed_rung_for_depth(int depth) const {
  if (depth > opts_.shed2_depth) return 2;
  if (depth > opts_.shed1_depth) return 1;
  return 0;
}

long Server::retry_after_ms() const {
  const double est = ewma_service_ms_ * static_cast<double>(admitted_ + 1);
  return std::max(1L, static_cast<long>(est));
}

std::string Server::extract_id(std::string_view line) const {
  // Best-effort correlation id for responses produced before full decoding
  // (admission rejects, drain). Bounded: never parses more than 64 KiB.
  if (line.size() > (std::size_t{64} << 10)) return "";
  JsonParseResult pr = json_parse(line, opts_.limits.json);
  if (!pr.ok() || pr.value.type() != Json::Type::kObject) return "";
  const Json* id = pr.value.find("id");
  if (id == nullptr || id->type() != Json::Type::kString) return "";
  std::string s = id->as_string();
  if (s.size() > opts_.limits.max_id_bytes) return "";
  return s;
}

std::string Server::render_stats(const std::string& id, int queue_depth) const {
  std::string r = "{\"cmd\":\"stats\"";
  r += ",\"queue_depth\":" + std::to_string(queue_depth);
  r += ",\"lines_in\":" + std::to_string(stats_.lines_in);
  r += ",\"accepted\":" + std::to_string(stats_.accepted);
  r += ",\"rejected_overload\":" + std::to_string(stats_.rejected_overload);
  r += ",\"rejected_too_large\":" + std::to_string(stats_.rejected_too_large);
  r += ",\"parse_errors\":" + std::to_string(stats_.parse_errors);
  r += ",\"bad_requests\":" + std::to_string(stats_.bad_requests);
  r += ",\"solved\":" + std::to_string(stats_.solved);
  r += ",\"shed_demotions\":" + std::to_string(stats_.shed_demotions);
  r += ",\"degraded\":" + std::to_string(stats_.degraded);
  r += ",\"internal_errors\":" + std::to_string(stats_.internal_errors);
  r += ",\"cache\":{\"entries\":" + std::to_string(cache_.entries());
  r += ",\"bytes\":" + std::to_string(cache_.bytes());
  r += ",\"hits\":" + std::to_string(cache_.hits());
  r += ",\"misses\":" + std::to_string(cache_.misses());
  r += ",\"evictions\":" + std::to_string(cache_.evictions());
  r += ",\"poisoned\":" + std::to_string(cache_.poisoned()) + "}";
  r += ",\"curve_cache\":{\"entries\":" + std::to_string(curves_.entries());
  r += ",\"bytes\":" + std::to_string(curves_.bytes());
  r += ",\"hits\":" + std::to_string(curves_.hits());
  r += ",\"misses\":" + std::to_string(curves_.misses());
  r += ",\"evictions\":" + std::to_string(curves_.evictions());
  r += ",\"poisoned\":" + std::to_string(curves_.poisoned());
  r += ",\"replay_refused\":" + std::to_string(curves_.replay_refused()) + "}";
  // Worker-pool counters are always present (all zero with --workers 0) so
  // dashboards never branch on field existence.
  r += ",\"workers\":{\"configured\":" + std::to_string(opts_.workers);
  r += ",\"live\":" + std::to_string(pool_ ? pool_->live_workers() : 0);
  r += ",\"dispatched\":" + std::to_string(stats_.dispatched);
  r += ",\"crashes\":" + std::to_string(stats_.worker_crashes);
  r += ",\"timeouts\":" + std::to_string(stats_.worker_timeouts);
  r += ",\"respawns\":" + std::to_string(stats_.worker_respawns);
  r += ",\"retried\":" + std::to_string(stats_.requests_retried);
  r += ",\"quarantined\":" + std::to_string(stats_.quarantined);
  r += ",\"quarantine_hits\":" + std::to_string(stats_.quarantine_hits);
  r += ",\"breaker_opens\":" + std::to_string(stats_.breaker_opens);
  r += ",\"breaker_rejected\":" + std::to_string(stats_.breaker_rejected);
  r += "}";
  r += ",\"shed\":{\"shed1_depth\":" + std::to_string(opts_.shed1_depth);
  r += ",\"shed2_depth\":" + std::to_string(opts_.shed2_depth);
  r += ",\"current_rung\":" + std::to_string(shed_rung_for_depth(queue_depth));
  r += "}";
  r += ",\"latency_us\":{";
  const std::pair<const char*, const obs::Histogram*> lats[] = {
      {"total", &lat_total_},     {"exact", &lat_exact_},
      {"degraded", &lat_degraded_}, {"shed", &lat_shed_},
      {"cached", &lat_cached_},   {"error", &lat_error_}};
  bool first_lat = true;
  for (const auto& [name, h] : lats) {
    r += first_lat ? "\"" : ",\"";
    first_lat = false;
    r += name;
    r += "\":";
    r += latency_stats_json(*h);
  }
  r += "}}";
  (void)id;
  return r;
}

std::string Server::render_introspect(int queue_depth) const {
  // The stats object plus everything else an operator may want mid-incident:
  // the full metrics registry (empty under ISEX_NO_OBS — introspect exposes
  // the observability subsystem itself, so this section legitimately
  // reflects what was compiled in), flight-recorder state, and the
  // effective options.
  std::string r = "{\"cmd\":\"introspect\",\"stats\":";
  r += render_stats("", queue_depth);
  const obs::Journal& j = obs::Journal::global();
  r += ",\"journal\":{\"head\":" + std::to_string(j.head());
  r += ",\"capacity\":" + std::to_string(j.capacity());
  r += ",\"enabled\":";
  r += j.enabled() ? "true" : "false";
  r += ",\"next_rid\":" + std::to_string(next_rid_) + "}";
  r += ",\"options\":{\"queue_capacity\":" + std::to_string(opts_.queue_capacity);
  r += ",\"shed1_depth\":" + std::to_string(opts_.shed1_depth);
  r += ",\"shed2_depth\":" + std::to_string(opts_.shed2_depth);
  r += ",\"default_time_budget_seconds\":" +
       std::to_string(opts_.default_time_budget_seconds);
  r += ",\"default_node_budget\":" + std::to_string(opts_.default_node_budget);
  r += ",\"default_mem_budget_bytes\":" +
       std::to_string(opts_.default_mem_budget_bytes);
  r += ",\"paranoid\":";
  r += opts_.paranoid ? "true" : "false";
  r += ",\"max_request_bytes\":" +
       std::to_string(opts_.limits.max_request_bytes);
  r += ",\"workers\":" + std::to_string(opts_.workers);
  r += ",\"chaos_probability\":" + json_number(opts_.chaos_probability) + "}";
  // Live per-worker detail (pid, state, handled/crash counts) plus breaker
  // and quarantine state; null when the pool has not started.
  r += ",\"worker_pool\":";
  r += pool_ ? pool_->render_json(obs::clock_ns()) : std::string("null");
  std::ostringstream metrics;
  obs::Registry::global().write_json(metrics);
  r += ",\"metrics\":" + metrics.str();
  // write_json ends with a newline; keep the response single-line.
  while (!r.empty() && (r.back() == '\n' || r.back() == ' ')) r.pop_back();
  r += "}";
  std::string flat;
  flat.reserve(r.size());
  for (char c : r) flat += c == '\n' ? ' ' : c;
  return flat;
}

std::string Server::handle_select(const Request& req, int queue_depth,
                                  std::uint64_t rid) {
  const std::int64_t t0 = obs::clock_ns();

  // Effective per-request budget: request values (already clamped to the
  // schema caps by decode_request) or the server defaults.
  const double time_budget = req.time_budget_seconds > 0
                                 ? req.time_budget_seconds
                                 : opts_.default_time_budget_seconds;
  const long node_budget =
      req.node_budget >= 0 ? req.node_budget : opts_.default_node_budget;
  const std::size_t mem_budget = req.mem_budget_bytes > 0
                                     ? req.mem_budget_bytes
                                     : opts_.default_mem_budget_bytes;
  robust::Budget budget;
  if (node_budget >= 0) budget.set_node_budget(node_budget);
  if (mem_budget > 0) budget.set_mem_budget(mem_budget);
  if (time_budget > 0) budget.set_time_budget(time_budget);

  // Paranoid requests identify cold, bypassing the curve memo.
  const bool paranoid = opts_.paranoid || req.paranoid;
  const std::int64_t build_t0 = obs::clock_ns();
  BuiltTaskSet built =
      build_taskset(req, &budget, paranoid ? nullptr : &curves_);
  ISEX_JOURNAL(kSolve, kBuild, obs::clock_ns() - build_t0,
               built.ts.tasks.size(), built.ok ? 0 : 1);
  if (!built.ok) {
    meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kBadRequest) + 1;
    return render_error(req.id, ErrorCode::kBadRequest, built.error, -1, rid);
  }
  const rt::TaskSet& ts = built.ts;

  const double area_budget = req.has_area_budget
                                 ? req.area_budget
                                 : req.budget_fraction * ts.max_area();

  // Load shedding: deep queue -> start the ladder below the exact rung.
  const int shed_rung = shed_rung_for_depth(queue_depth);
  if (shed_rung > 0) {
    ++stats_.shed_demotions;
    ISEX_COUNT("serve.shed_demotions");
    ISEX_JOURNAL(kShed, kSolve, 0, shed_rung, queue_depth);
  }

  const std::uint64_t key =
      select_cache_key(ts, area_budget, req.policy, time_budget, node_budget,
                       mem_budget, paranoid, shed_rung);

  // Certified reuse: a hit is served only if its stored selection still
  // passes the independent witness checkers against the task set we just
  // built. A failing entry is poisoned out and the request solved cold.
  if (const ResultCache::Entry* e = cache_.find(key)) {
    const certify::CertifyReport check =
        e->rms ? certify::check_selection_rms(ts, area_budget, e->selection)
               : certify::check_selection_edf(
                     ts, area_budget,
                     static_cast<const customize::SelectionResult&>(
                         e->selection));
    robust::journal_certify(check.checks,
                            static_cast<long>(check.violations.size()));
    if (check.ok()) {
      ++stats_.cache_hits;
      ISEX_JOURNAL(kCacheLookup, kCache, 0, 1, 0);
      last_disposition_ = obs::Disposition::kCached;
      meta_.result_json = e->result_json;
      meta_.nodes_charged = e->nodes_charged;
      const double ms =
          static_cast<double>(obs::clock_ns() - t0) / 1e6;
      return render_success(req.id, e->result_json, /*cache_hit=*/true,
                            queue_depth, ms, e->nodes_charged, rid);
    }
    ++stats_.cache_poisoned;
    ISEX_JOURNAL(kCacheLookup, kCache, 0, 2, 0);
    cache_.erase(key);
  } else {
    ISEX_JOURNAL(kCacheLookup, kCache, 0, 0, 0);
  }

  robust::FallbackOptions fb;
  fb.start_rung = static_cast<std::size_t>(shed_rung);

  ResultCache::Entry entry;
  std::string result;
  robust::Status status = robust::Status::kExact;
  const std::int64_t solve_t0 = obs::clock_ns();
  if (req.policy == rt::Policy::kRms) {
    customize::RmsOptions ropts;
    robust::Outcome<customize::RmsResult> out =
        robust::select_rms_with_fallback(ts, area_budget, ropts, &budget, fb);
    result = render_select_result(
        ts, area_budget, req.policy,
        robust::Outcome<customize::SelectionResult>{
            out.value, out.status, out.optimality_gap, out.budget, out.detail,
            out.certificate},
        shed_rung);
    entry.selection = out.value;
    entry.rms = true;
    status = out.status;
    if (out.status != robust::Status::kExact) ++stats_.degraded;
    if (!out.certificate.ok()) {
      meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kInternal) + 1;
      return render_error(req.id, ErrorCode::kInternal,
                          "certificate failed: " + out.certificate.summary(),
                          -1, rid);
    }
  } else {
    customize::EdfOptions eopts;
    robust::Outcome<customize::SelectionResult> out =
        robust::select_edf_with_fallback(ts, area_budget, eopts, &budget, fb);
    result = render_select_result(ts, area_budget, req.policy, out, shed_rung);
    static_cast<customize::SelectionResult&>(entry.selection) = out.value;
    entry.rms = false;
    status = out.status;
    if (out.status != robust::Status::kExact) ++stats_.degraded;
    if (!out.certificate.ok()) {
      meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kInternal) + 1;
      return render_error(req.id, ErrorCode::kInternal,
                          "certificate failed: " + out.certificate.summary(),
                          -1, rid);
    }
  }
  ++stats_.solved;
  ISEX_COUNT("serve.requests.solved");

  const robust::BudgetReport rep = budget.report();
  ISEX_JOURNAL(kSolve, kSolve, obs::clock_ns() - solve_t0, rep.nodes_charged,
               static_cast<int>(status));
  last_disposition_ = shed_rung > 0 ? obs::Disposition::kShed
                      : status != robust::Status::kExact
                          ? obs::Disposition::kDegraded
                          : obs::Disposition::kExact;
  entry.result_json = result;
  entry.nodes_charged = rep.nodes_charged;
  cache_.insert(key, std::move(entry));
  meta_.result_json = result;
  meta_.nodes_charged = rep.nodes_charged;
  meta_.degraded = status != robust::Status::kExact;
  meta_.shed = shed_rung > 0;

  const double ms = static_cast<double>(obs::clock_ns() - t0) / 1e6;
  ewma_service_ms_ = 0.8 * ewma_service_ms_ + 0.2 * ms;
  return render_success(req.id, result, /*cache_hit=*/false, queue_depth, ms,
                        rep.nodes_charged, rid);
}

std::string Server::handle_request(const Request& req, int queue_depth,
                                   std::uint64_t rid) {
  switch (req.cmd) {
    case Cmd::kPing:
      last_is_admin_ = true;
      return render_success(req.id, "{\"cmd\":\"ping\"}", false, queue_depth,
                            0.0, 0, rid);
    case Cmd::kStats:
      last_is_admin_ = true;
      return render_success(req.id, render_stats(req.id, queue_depth), false,
                            queue_depth, 0.0, 0, rid);
    case Cmd::kIntrospect:
      last_is_admin_ = true;
      return render_success(req.id, render_introspect(queue_depth), false,
                            queue_depth, 0.0, 0, rid);
    case Cmd::kSelect:
      return handle_select(req, queue_depth, rid);
  }
  return render_error(req.id, ErrorCode::kInternal, "unreachable cmd", -1,
                      rid);
}

void Server::note_response(obs::Disposition d, std::int64_t dur_ns,
                           std::size_t response_bytes) {
  ISEX_JOURNAL(kResponse, kRender, dur_ns, static_cast<std::int64_t>(d),
               response_bytes);
  if (last_is_admin_) return;  // admin requests would skew the latency axes
  const std::int64_t us = dur_ns / 1000;
  lat_total_.record(us);
  switch (d) {
    case obs::Disposition::kExact: lat_exact_.record(us); break;
    case obs::Disposition::kDegraded: lat_degraded_.record(us); break;
    case obs::Disposition::kShed: lat_shed_.record(us); break;
    case obs::Disposition::kCached: lat_cached_.record(us); break;
    case obs::Disposition::kError:
    case obs::Disposition::kDrained: lat_error_.record(us); break;
  }
}

std::string Server::handle_line(std::string_view line, int queue_depth,
                                std::uint64_t caller_rid) {
  ISEX_SPAN("serve.request");
  // rid 0 allocates locally; a nonzero caller rid (the supervisor's, carried
  // over the dispatch frame) keeps flight-recorder correlation consistent
  // across the process boundary.
  const std::uint64_t rid = caller_rid != 0 ? caller_rid : ++next_rid_;
  if (caller_rid != 0 && caller_rid > next_rid_) next_rid_ = caller_rid;
  ISEX_JOURNAL_SCOPE(rid);
  ISEX_JOURNAL(kRequest, kTransport, 0, line.size(), queue_depth);
  const std::int64_t t0 = obs::clock_ns();
  last_disposition_ = obs::Disposition::kError;
  last_is_admin_ = false;
  meta_ = ResponseMeta{};
  std::string response;
  // Request isolation: nothing a single request does — hostile bytes, a
  // throwing solver path, a defect — may unwind past this frame.
  try {
    const std::int64_t decode_t0 = obs::clock_ns();
    DecodeResult dr = decode_request(line, opts_.limits);
    if (const auto* err = std::get_if<DecodeError>(&dr)) {
      ISEX_JOURNAL(kDecode, kDecode, obs::clock_ns() - decode_t0,
                   static_cast<int>(err->code) + 1, 0);
      if (err->code == ErrorCode::kParseError)
        ++stats_.parse_errors;
      else
        ++stats_.bad_requests;
      meta_.error_kind = static_cast<std::uint8_t>(err->code) + 1;
      response = render_error(err->id, err->code, err->message, -1, rid);
    } else {
      ISEX_JOURNAL(kDecode, kDecode, obs::clock_ns() - decode_t0, 0, 0);
      response = handle_request(std::get<Request>(dr), queue_depth, rid);
    }
  } catch (const std::exception& e) {
    ++stats_.internal_errors;
    ISEX_COUNT("serve.requests.internal_errors");
    last_disposition_ = obs::Disposition::kError;
    last_is_admin_ = false;
    meta_ = ResponseMeta{};
    meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kInternal) + 1;
    response = render_error(extract_id(line), ErrorCode::kInternal, e.what(),
                            -1, rid);
  } catch (...) {
    ++stats_.internal_errors;
    ISEX_COUNT("serve.requests.internal_errors");
    last_disposition_ = obs::Disposition::kError;
    last_is_admin_ = false;
    meta_ = ResponseMeta{};
    meta_.error_kind = static_cast<std::uint8_t>(ErrorCode::kInternal) + 1;
    response = render_error(extract_id(line), ErrorCode::kInternal,
                            "unknown exception", -1, rid);
  }
  meta_.disposition = last_disposition_;
  meta_.is_admin = last_is_admin_;
  note_response(last_disposition_, obs::clock_ns() - t0, response.size());
  return response;
}

void Server::ingest_line(std::string line) {
  if (line.empty()) return;  // blank keep-alives are free
  ++stats_.lines_in;
  ISEX_COUNT("serve.lines_in");
  if (discarding_) return;  // handled in split_lines
  if (admitted_ >= opts_.queue_capacity) {
    // Admission control: reject now, but queue the rejection so the
    // response order still matches the request order.
    ++stats_.rejected_overload;
    ISEX_COUNT("serve.rejected.overload");
    const std::uint64_t rid = ++next_rid_;
    ISEX_JOURNAL_SCOPE(rid);
    const long retry = retry_after_ms();
    ISEX_JOURNAL(kAdmission, kTransport, 0, retry, admitted_);
    std::string resp = render_error(extract_id(line), ErrorCode::kOverload,
                                    "queue full (" +
                                        std::to_string(opts_.queue_capacity) +
                                        " requests pending)",
                                    retry, rid);
    ISEX_JOURNAL(kResponse, kRender, 0,
                 static_cast<std::int64_t>(obs::Disposition::kError),
                 resp.size());
    pending_.push_back(PendingEntry{true, std::move(resp)});
    return;
  }
  ++stats_.accepted;
  ++admitted_;
  pending_.push_back(PendingEntry{false, std::move(line)});
}

void Server::split_lines() {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = inbuf_.find('\n', start);
    if (nl == std::string::npos) break;
    if (discarding_) {
      // The newline ends the oversized line whose body we dropped.
      discarding_ = false;
      ++stats_.rejected_too_large;
      ISEX_COUNT("serve.rejected.too_large");
      const std::uint64_t rid = ++next_rid_;
      ISEX_JOURNAL_SCOPE(rid);
      std::string resp =
          render_error("", ErrorCode::kTooLarge,
                       "request line exceeds " +
                           std::to_string(opts_.limits.max_request_bytes) +
                           " bytes",
                       -1, rid);
      ISEX_JOURNAL(kResponse, kRender, 0,
                   static_cast<std::int64_t>(obs::Disposition::kError),
                   resp.size());
      pending_.push_back(PendingEntry{true, std::move(resp)});
    } else {
      std::string line = inbuf_.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      ingest_line(std::move(line));
    }
    start = nl + 1;
  }
  inbuf_.erase(0, start);
  if (!discarding_ && inbuf_.size() > opts_.limits.max_request_bytes) {
    // A line longer than the cap: drop its bytes as they stream in (memory
    // stays bounded) and emit one too_large response at the newline.
    discarding_ = true;
    inbuf_.clear();
  } else if (discarding_) {
    inbuf_.clear();
  }
}

void Server::pump_input() {
  // Stop reading when the pending queue is saturated well past capacity:
  // from here on the kernel pipe fills up and blocks the sender — bounded
  // memory is the outermost overload defense.
  const std::size_t entry_cap =
      static_cast<std::size_t>(opts_.queue_capacity) * 4 + 16;
  char buf[1 << 16];
  while (!eof_ && pending_.size() < entry_cap) {
    const ssize_t n = ::read(in_fd_, buf, sizeof buf);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      split_lines();
      continue;
    }
    if (n == 0) {
      eof_ = true;
      if (!inbuf_.empty() && !discarding_) {
        // Final unterminated line: treat EOF as the delimiter.
        std::string line = std::move(inbuf_);
        inbuf_.clear();
        ingest_line(std::move(line));
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) break;  // outer loop checks pending_signal()
    eof_ = true;  // unrecoverable read error: drain what we have
    break;
  }
}

bool Server::write_line(int out_fd, std::string_view line) {
  std::string framed(line);
  framed += '\n';
  // util::write_all_fd retries EINTR and short writes, and uses
  // send(MSG_NOSIGNAL) on sockets so a half-closed client yields EPIPE here
  // instead of SIGPIPE killing a process that never installed SIG_IGN.
  if (!util::write_all_fd(out_fd, framed.data(), framed.size())) {
    write_failed_ = true;  // client vanished (EPIPE) or transport broke
    return false;
  }
  return true;
}

void Server::maybe_flush_stats() {
  if (opts_.stats_path.empty() || opts_.stats_interval_seconds <= 0) return;
  const std::int64_t now = obs::clock_ns();
  const auto interval_ns =
      static_cast<std::int64_t>(opts_.stats_interval_seconds * 1e9);
  if (last_flush_ns_ != 0 && now - last_flush_ns_ < interval_ns) return;
  last_flush_ns_ = now;
  const std::string snapshot = render_introspect(admitted_);
  util::write_file_atomic(opts_.stats_path, [&](std::ostream& out) {
    out << snapshot << "\n";
  });
}

void Server::drain_queue() {
  // Graceful drain: every queued request gets a deterministic answer before
  // exit — preformed responses as-is, unsolved requests "shutting_down".
  while (!pending_.empty()) {
    PendingEntry e = std::move(pending_.front());
    pending_.pop_front();
    if (!e.preformed) {
      --admitted_;
      ++stats_.drained;
      ISEX_COUNT("serve.drained");
      const std::uint64_t rid = ++next_rid_;
      ISEX_JOURNAL_SCOPE(rid);
      ISEX_JOURNAL(kDrain, kTransport, 0, 0, admitted_);
      e.text = render_error(extract_id(e.text), ErrorCode::kShuttingDown,
                            "server draining", -1, rid);
      ISEX_JOURNAL(kResponse, kRender, 0,
                   static_cast<std::int64_t>(obs::Disposition::kDrained),
                   e.text.size());
    }
    if (!write_line(out_fd_, e.text)) break;
  }
}

int Server::run(int in_fd, int out_fd) {
  if (opts_.workers > 0) return run_pooled(in_fd, out_fd);
  in_fd_ = in_fd;
  out_fd_ = out_fd;
  inbuf_.clear();
  pending_.clear();
  discarding_ = false;
  eof_ = false;
  write_failed_ = false;
  admitted_ = 0;

  // Non-blocking reads let the loop interleave pumping (admission) with
  // solving; poll() below supplies the blocking when there is nothing to do.
  const int fl = ::fcntl(in_fd_, F_GETFL);
  if (fl >= 0) ::fcntl(in_fd_, F_SETFL, fl | O_NONBLOCK);

  while (!write_failed_) {
    if (pending_signal() != 0) {
      drain_queue();
      return 0;
    }
    pump_input();
    ISEX_GAUGE_SET("serve.queue.depth", admitted_);
    maybe_flush_stats();
    if (pending_.empty()) {
      if (eof_) break;
      struct pollfd pfd{in_fd_, POLLIN, 0};
      ::poll(&pfd, 1, 200);  // short timeout so signals are noticed promptly
      continue;
    }
    PendingEntry e = std::move(pending_.front());
    pending_.pop_front();
    if (e.preformed) {
      write_line(out_fd_, e.text);
      continue;
    }
    --admitted_;
    // Depth observed *behind* this request drives the shedding decision.
    write_line(out_fd_, handle_line(e.text, admitted_));
  }
  if (fl >= 0) ::fcntl(in_fd_, F_SETFL, fl);
  return write_failed_ ? 2 : 0;
}

int run_unix_socket(Server& server, const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) return 2;
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (lfd < 0) return 2;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(lfd, 16) < 0) {
    ::close(lfd);
    return 2;
  }
  while (pending_signal() == 0) {
    struct pollfd pfd{lfd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) continue;  // timeout or EINTR: re-check the signal flag
    const int conn = util::accept_retry(lfd);
    if (conn < 0) continue;
    server.run(conn, conn);  // serves until client EOF or signal
    ::close(conn);
  }
  ::close(lfd);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace isex::serve
