// isex::util — util::parallel_for, the library's one fan-out.
//
// Its one caller is workloads::prefetch_tasks, which builds cold task curves
// across kernels: few, coarse and uneven items. So each call starts its own
// threads (min(n, max_threads()) - 1 of them, the caller taking part), every
// thread claims one index at a time from an atomic counter, and the call
// joins them all before it returns. A parallel_for reached from inside
// another runs inline on its caller's thread.
//
// Determinism contract: parallel_for(n, fn) invokes fn(i) exactly once for
// every i < n and returns only after all invocations finished (and their
// writes are visible). Callers write results by index, so the merged result
// never depends on execution order.
#pragma once

#include <cstddef>
#include <functional>

namespace isex::util {

/// Detected hardware parallelism (>= 1; hardware_concurrency may report 0).
int hardware_threads();

/// Process-wide thread cap used by util::parallel_for. Resolution order:
/// set_max_threads() if called, else the ISEX_THREADS environment variable,
/// else hardware_threads(). A value of 1 makes parallel_for a serial loop.
int max_threads();

/// Overrides max_threads(); n <= 0 resets to the ISEX_THREADS/hardware
/// default. Takes effect at the next parallel_for.
void set_max_threads(int n);

/// Runs fn(i) for every i in [0, n) on up to max_threads() threads, the
/// caller included, blocking until all complete. Inline serial loop when
/// max_threads() <= 1, n <= 1, or when called from inside another
/// parallel_for. Concurrent callers each start their own threads. The first
/// exception thrown by any fn(i) is rethrown here after every index ran.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace isex::util
