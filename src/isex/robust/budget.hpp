// isex::robust — cooperative execution budgets.
//
// Every core solver in this codebase (candidate enumeration, the optimal
// single cut, the EDF dynamic program, the RMS and reconfiguration
// branch-and-bounds, the iterative MLGP loop) is worst-case exponential or
// pseudo-polynomial in quantities an adversarial input controls. A Budget
// makes all of them interruptible without threads or signals: the solver
// charges the budget at loop granularity (one charge per search node / DP
// cell / grow call) and stops cleanly — keeping its running incumbent — as
// soon as any of three limits is hit:
//   * a wall-clock deadline (checked every kTimeCheckStride charges, so the
//     hot path stays one increment + one compare);
//   * a work budget in "nodes" (charges), the deterministic analogue of the
//     deadline for reproducible tests;
//   * an approximate memory budget, charged at the allocation sites that can
//     actually grow without bound (DP tables, enumeration candidate pools and
//     visited sets) — an accounting bound, not an allocator hook.
// Budgets are plain non-owning state threaded through options structs as a
// `Budget*`; a null pointer means unlimited and costs one branch per check,
// so budget-free runs remain bit-identical to the pre-budget code paths.
//
// Sharing across threads: the counters and exhaustion latches are relaxed
// atomics, so one Budget may be charged concurrently from several threads.
// Configure (set_*) before sharing; reports taken while others still charge
// are racy snapshots. A hot loop may charge through a BudgetShare, which
// batches charges into strides — one atomic add per stride instead of per
// charge — and latches exhaustion/cancel within one stride. Every budgeted
// solver runs serially, so a node or memory budget stops it at an
// input-determined point: budgeted runs are byte-reproducible, the property
// the determinism tests and certify depend on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace isex::robust {

/// How a solver run ended. The anytime-result protocol: every bounded solver
/// returns a usable value under every status except (some) kInfeasible.
enum class Status {
  kExact,           // ran to completion; the value is the solver's true answer
  kBudgetTruncated, // budget exhausted; the value is the best-so-far incumbent
  kDegraded,        // a cheaper fallback rung produced the value
  kInfeasible,      // no feasible solution exists, or the input is degenerate
};

const char* to_string(Status s);

/// Snapshot of what a run consumed vs. what it was allowed.
struct BudgetReport {
  double elapsed_seconds = 0;
  double time_budget_seconds = 0;  // <= 0: unlimited
  long nodes_charged = 0;
  long node_budget = -1;           // < 0: unlimited
  std::size_t mem_peak_bytes = 0;  // high-water mark of accounted memory
  std::size_t mem_budget_bytes = 0;  // 0: unlimited
  bool time_exhausted = false;
  bool nodes_exhausted = false;
  bool mem_exhausted = false;
  bool cancelled = false;  // stopped by a global cancellation request

  bool exhausted() const {
    return time_exhausted || nodes_exhausted || mem_exhausted || cancelled;
  }
  /// "", or a comma-joined subset of "time", "nodes", "mem", "cancel".
  std::string reason() const;
};

/// Process-wide cooperative cancellation, for signal handlers: a lock-free
/// atomic flag every Budget observes at its time-check stride. Setting it
/// makes every in-flight budgeted solver stop (status kBudgetTruncated,
/// report.cancelled) within kTimeCheckStride charges — the mechanism behind
/// graceful SIGINT/SIGTERM in the CLI and the serve daemon. Budgets without
/// any limit set observe it too (the stride check always runs).
void request_global_cancel();   // async-signal-safe
void clear_global_cancel();
bool global_cancel_requested();

class Budget {
 public:
  /// Unlimited on construction; set the limits you want. The elapsed-time
  /// clock starts here (set_time_budget restarts it).
  Budget();

  /// Copy/move transfer a snapshot of the counters (the atomics make the
  /// defaults deleted). Only valid while no worker charges either side —
  /// used for configuration handoff, e.g. fallback retry slices.
  Budget(const Budget& o) { *this = o; }
  Budget& operator=(const Budget& o) {
    if (this == &o) return *this;
    start_ns_ = o.start_ns_;
    deadline_ns_ = o.deadline_ns_;
    time_budget_seconds_ = o.time_budget_seconds_;
    node_budget_ = o.node_budget_;
    mem_budget_ = o.mem_budget_;
    nodes_.store(o.nodes_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    ticks_.store(o.ticks_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    mem_current_.store(o.mem_current_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    mem_peak_.store(o.mem_peak_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    time_hit_.store(o.time_hit_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    nodes_hit_.store(o.nodes_hit_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    cancel_hit_.store(o.cancel_hit_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    mem_refused_.store(o.mem_refused_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
  Budget(Budget&& o) noexcept { *this = o; }
  Budget& operator=(Budget&& o) noexcept { return *this = o; }

  /// Wall-clock limit from *now*; <= 0 removes the limit.
  void set_time_budget(double seconds);
  /// Work limit in charges; < 0 removes the limit.
  void set_node_budget(long nodes);
  /// Accounted-allocation limit in bytes; 0 removes the limit.
  void set_mem_budget(std::size_t bytes);

  bool has_limits() const {
    return deadline_ns_ > 0 || node_budget_ >= 0 || mem_budget_ > 0;
  }

  /// Charges n units of work. Returns true when the caller must stop
  /// (some limit is exhausted or a global cancel is pending). Hot-path cost:
  /// one relaxed add, one-two compares; the clock and the cancel flag are
  /// read every kTimeCheckStride charge events.
  bool charge(long n = 1) {
    const long total = nodes_.fetch_add(n, std::memory_order_relaxed) + n;
    if (node_budget_ >= 0 && total > node_budget_)
      nodes_hit_.store(true, std::memory_order_relaxed);
    if (((ticks_.fetch_add(1, std::memory_order_relaxed) + 1) &
         (kTimeCheckStride - 1)) == 0)
      check_time();
    return hit();
  }

  /// Accounts `bytes` of solver-owned memory. Returns true (without
  /// charging) when the allocation would exceed the memory budget — the
  /// caller must not allocate and should truncate its own result. A refusal
  /// is recorded in the report but does NOT poison charge()/exhausted():
  /// a later, smaller consumer (a cheaper ladder rung) may still fit.
  bool charge_mem(std::size_t bytes);
  /// Releases previously charged bytes (the peak stays recorded).
  void release_mem(std::size_t bytes);
  /// Accounted bytes charged and not yet released.
  std::size_t mem_current() const {
    return mem_current_.load(std::memory_order_relaxed);
  }

  /// Reads one phase's own accounted-memory peak, apart from the run's
  /// overall high-water mark: begin_mem_phase() restarts the mark at the
  /// bytes charged now; end_mem_phase() returns how far the phase rose above
  /// that level and restores the run's overall mark. Call both while no
  /// worker charges this budget.
  struct MemPhase {
    std::size_t base = 0;        // bytes charged when the phase began
    std::size_t outer_peak = 0;  // the run's mark before the phase
  };
  MemPhase begin_mem_phase();
  std::size_t end_mem_phase(const MemPhase& phase);

  /// True when the time or node limit is exhausted or a global cancel is
  /// pending. Re-reads the clock, so coarse loops may poll this directly
  /// instead of charging.
  bool exhausted() {
    if (!hit()) check_time();
    return hit();
  }
  /// The latched answer of the last charge()/exhausted(), without touching
  /// the clock.
  bool exhausted_cached() const { return hit(); }

  double elapsed_seconds() const;
  BudgetReport report() const;

  static constexpr long kTimeCheckStride = 256;  // power of two

 private:
  bool hit() const {
    return time_hit_.load(std::memory_order_relaxed) ||
           nodes_hit_.load(std::memory_order_relaxed) ||
           cancel_hit_.load(std::memory_order_relaxed);
  }
  void check_time();

  std::int64_t start_ns_ = 0;      // process trace-clock time at construction
  std::int64_t deadline_ns_ = 0;   // 0: no time limit
  double time_budget_seconds_ = 0;
  long node_budget_ = -1;
  std::size_t mem_budget_ = 0;

  std::atomic<long> nodes_{0};
  std::atomic<long> ticks_{0};
  std::atomic<std::size_t> mem_current_{0};
  std::atomic<std::size_t> mem_peak_{0};
  std::atomic<bool> time_hit_{false};
  std::atomic<bool> nodes_hit_{false};
  std::atomic<bool> cancel_hit_{false};   // observed a global cancel request
  std::atomic<bool> mem_refused_{false};  // an allocation was refused (latch)
};

/// Memory a scope charged to a Budget, released when the scope ends: the
/// accounted bytes track the structures that are alive, not the total a run
/// ever allocated. A null Budget* is unlimited.
struct MemCharge {
  Budget* budget;
  std::size_t bytes = 0;
  /// Charges n bytes; true (and nothing charged) when the budget refuses.
  bool charge(std::size_t n) {
    if (budget == nullptr) return false;
    if (budget->charge_mem(n)) return true;
    bytes += n;
    return false;
  }
  ~MemCharge() {
    if (bytes > 0) budget->release_mem(bytes);
  }
};

/// Worker-local charging adapter over one shared Budget: accumulates charges
/// locally and forwards them in strides, so T workers metering one Budget
/// cost one relaxed atomic RMW per kStride charges instead of one per charge.
/// Exhaustion (including a global cancel) latches into stopped() within one
/// stride on every worker — the cooperative-cancel granularity of a parallel
/// solve. A null Budget* is unlimited, mirroring the Budget* convention.
class BudgetShare {
 public:
  BudgetShare() = default;
  explicit BudgetShare(Budget* b) : b_(b) {
    if (b_ != nullptr && b_->exhausted_cached()) stopped_ = true;
  }
  ~BudgetShare() { flush(); }

  BudgetShare(const BudgetShare&) = delete;
  BudgetShare& operator=(const BudgetShare&) = delete;

  /// Charges n units; returns true when the caller must stop.
  bool charge(long n = 1) {
    if (b_ == nullptr) return false;
    if (stopped_) return true;
    pending_ += n;
    if (pending_ >= kStride) flush();
    return stopped_;
  }

  /// Memory accounting is rare enough to forward unstrided.
  bool charge_mem(std::size_t bytes) {
    return b_ != nullptr && b_->charge_mem(bytes);
  }

  /// Forwards any pending charges and refreshes the stop latch.
  void flush() {
    if (b_ == nullptr) return;
    if (pending_ > 0) {
      if (b_->charge(pending_)) stopped_ = true;
      pending_ = 0;
    } else if (b_->exhausted_cached()) {
      stopped_ = true;
    }
  }

  bool stopped() const { return stopped_; }
  Budget* budget() const { return b_; }

  static constexpr long kStride = 64;

 private:
  Budget* b_ = nullptr;
  long pending_ = 0;
  bool stopped_ = false;
};

}  // namespace isex::robust
