#include "isex/robust/budget.hpp"

#include <algorithm>
#include <atomic>

#include "isex/obs/trace.hpp"

namespace isex::robust {

namespace {
// Lock-free so request_global_cancel is async-signal-safe (the serve/CLI
// signal handlers call it directly).
std::atomic<bool> g_cancel{false};
static_assert(std::atomic<bool>::is_always_lock_free);
}  // namespace

void request_global_cancel() {
  g_cancel.store(true, std::memory_order_relaxed);
}

void clear_global_cancel() { g_cancel.store(false, std::memory_order_relaxed); }

bool global_cancel_requested() {
  return g_cancel.load(std::memory_order_relaxed);
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kExact: return "Exact";
    case Status::kBudgetTruncated: return "BudgetTruncated";
    case Status::kDegraded: return "Degraded";
    case Status::kInfeasible: return "Infeasible";
  }
  return "?";
}

std::string BudgetReport::reason() const {
  std::string r;
  auto add = [&r](const char* what) {
    if (!r.empty()) r += ",";
    r += what;
  };
  if (time_exhausted) add("time");
  if (nodes_exhausted) add("nodes");
  if (mem_exhausted) add("mem");
  if (cancelled) add("cancel");
  return r;
}

Budget::Budget() : start_ns_(obs::clock_ns()) {}

void Budget::set_time_budget(double seconds) {
  start_ns_ = obs::clock_ns();
  time_budget_seconds_ = seconds;
  if (seconds <= 0) {
    deadline_ns_ = 0;
    time_hit_ = false;
    return;
  }
  deadline_ns_ = start_ns_ + static_cast<std::int64_t>(seconds * 1e9);
}

void Budget::set_node_budget(long nodes) {
  node_budget_ = nodes < 0 ? -1 : nodes;
  if (node_budget_ < 0) nodes_hit_ = false;
}

void Budget::set_mem_budget(std::size_t bytes) { mem_budget_ = bytes; }

bool Budget::charge_mem(std::size_t bytes) {
  std::size_t now;
  if (mem_budget_ > 0) {
    // CAS loop: admission and accounting must be one atomic decision so
    // concurrent workers can never jointly overshoot the budget.
    std::size_t cur = mem_current_.load(std::memory_order_relaxed);
    do {
      if (cur + bytes > mem_budget_) {
        mem_refused_.store(true, std::memory_order_relaxed);
        ISEX_COUNT("robust.budget.mem_refusals");
        return true;
      }
    } while (!mem_current_.compare_exchange_weak(cur, cur + bytes,
                                                 std::memory_order_relaxed));
    now = cur + bytes;
  } else {
    now = mem_current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  }
  std::size_t peak = mem_peak_.load(std::memory_order_relaxed);
  while (now > peak && !mem_peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return false;
}

void Budget::release_mem(std::size_t bytes) {
  std::size_t cur = mem_current_.load(std::memory_order_relaxed);
  while (!mem_current_.compare_exchange_weak(
      cur, bytes > cur ? 0 : cur - bytes, std::memory_order_relaxed)) {
  }
}

Budget::MemPhase Budget::begin_mem_phase() {
  const MemPhase phase{mem_current(), mem_peak_.load(std::memory_order_relaxed)};
  mem_peak_.store(phase.base, std::memory_order_relaxed);
  return phase;
}

std::size_t Budget::end_mem_phase(const MemPhase& phase) {
  const std::size_t peak = mem_peak_.load(std::memory_order_relaxed);
  mem_peak_.store(std::max(peak, phase.outer_peak), std::memory_order_relaxed);
  return peak - phase.base;
}

void Budget::check_time() {
  if (deadline_ns_ > 0 && obs::clock_ns() >= deadline_ns_) {
    if (!time_hit_.exchange(true, std::memory_order_relaxed))
      ISEX_COUNT("robust.budget.time_exhaustions");
  }
  if (!cancel_hit_.load(std::memory_order_relaxed) &&
      global_cancel_requested()) {
    if (!cancel_hit_.exchange(true, std::memory_order_relaxed))
      ISEX_COUNT("robust.budget.cancellations");
  }
}

double Budget::elapsed_seconds() const {
  return static_cast<double>(obs::clock_ns() - start_ns_) * 1e-9;
}

BudgetReport Budget::report() const {
  BudgetReport r;
  r.elapsed_seconds = elapsed_seconds();
  r.time_budget_seconds = time_budget_seconds_;
  r.nodes_charged = nodes_;
  r.node_budget = node_budget_;
  r.mem_peak_bytes = mem_peak_;
  r.mem_budget_bytes = mem_budget_;
  r.time_exhausted = time_hit_;
  r.nodes_exhausted = nodes_hit_;
  r.mem_exhausted = mem_refused_;
  r.cancelled = cancel_hit_;
  return r;
}

}  // namespace isex::robust
