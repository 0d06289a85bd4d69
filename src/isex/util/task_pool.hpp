// isex::util — Chase–Lev-style work-stealing thread pool.
//
// The solver core fans work out at nested levels (kernels, then the basic
// blocks of each kernel), so the pool must support *nested* parallel regions
// without deadlock and without oversubscribing: a thread that waits for its
// batch keeps executing other queued chunks ("help-first"), so every level of
// nesting shares the same fixed set of OS threads.
//
// Each worker owns a lock-free Chase–Lev deque: the owner pushes/pops at the
// bottom (LIFO, cache-warm), idle workers steal from the top (FIFO, coarse
// chunks first). Threads not owned by the pool submit through a small
// mutex-guarded injection queue and then help like any worker.
//
// Determinism contract: parallel_for(n, fn) invokes fn(i) exactly once for
// every i < n and returns only after all invocations finished (and their
// writes are visible). Callers write results by index, so the merged result
// never depends on execution order — the property every byte-identical
// parallel solver in this codebase is built on.
#pragma once

#include <cstddef>
#include <functional>

namespace isex::util {

/// Detected hardware parallelism (>= 1; hardware_concurrency may report 0).
int hardware_threads();

/// Process-wide thread cap used by util::parallel_for. Resolution order:
/// set_max_threads() if called, else the ISEX_THREADS environment variable,
/// else hardware_threads(). A value of 1 disables all parallel paths — the
/// solvers take their exact legacy serial code paths.
int max_threads();

/// Overrides max_threads(); n <= 0 resets to the ISEX_THREADS/hardware
/// default. Call between parallel regions (the CLI does it once at startup).
void set_max_threads(int n);

/// Runs fn(i) for every i in [0, n) on the process-global pool sized by
/// max_threads(), blocking until all complete. Inline serial loop when
/// max_threads() <= 1 or n <= 1. Nesting is allowed from any thread,
/// including pool workers. The first exception thrown by any fn(i) is
/// rethrown here after the batch drains.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

class TaskPool {
 public:
  /// Total parallelism `threads` (>= 1): the pool spawns threads-1 workers;
  /// the submitting thread is the remaining lane (it helps while waiting).
  explicit TaskPool(int threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int threads() const { return threads_; }

  /// See util::parallel_for; this is the instance form.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  struct Impl;  // public so the .cpp's thread-local worker state can name it

 private:
  Impl* impl_;
  int threads_;
};

}  // namespace isex::util
