// isex::util — process-global thread pool behind util::parallel_for.
//
// The library fans out in three places, each over coarse items: cold task
// builds across kernels, curve building across the hot blocks of one task,
// and the RMS branch-and-bound subtrees. The pool is one mutex, one
// condition variable and a list of open batches. Every index range is
// claimed under the lock and run outside it; a caller first runs chunks of
// its own batch and then helps the newest open batch while it waits, so
// nested regions (task builds that fan out over blocks) share one fixed set
// of threads without deadlock.
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

}  // namespace isex::util
