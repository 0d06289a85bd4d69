#include "isex/util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace isex::util {

namespace {

constexpr int kMaxThreads = 256;

std::atomic<int> g_max_threads{0};  // 0 = not yet resolved

/// Set while this thread runs inside a parallel_for, so a nested call runs
/// inline instead of starting threads of its own.
thread_local bool t_in_parallel = false;

int resolve_default_threads() {
  if (const char* env = std::getenv("ISEX_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1)
      return v > kMaxThreads ? kMaxThreads : static_cast<int>(v);
  }
  return hardware_threads();
}

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n > kMaxThreads ? kMaxThreads : n);
}

int max_threads() {
  int v = g_max_threads.load(std::memory_order_relaxed);
  if (v > 0) return v;
  const int def = resolve_default_threads();
  g_max_threads.compare_exchange_strong(v, def, std::memory_order_relaxed);
  return g_max_threads.load(std::memory_order_relaxed);
}

void set_max_threads(int n) {
  if (n <= 0)
    g_max_threads.store(resolve_default_threads(), std::memory_order_relaxed);
  else
    g_max_threads.store(n > kMaxThreads ? kMaxThreads : n,
                        std::memory_order_relaxed);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t threads =
      std::min(n, static_cast<std::size_t>(max_threads()));
  if (threads <= 1 || t_in_parallel) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // first exception wins
  auto work = [&] {
    t_in_parallel = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
      }
    }
    t_in_parallel = false;
  };
  {
    std::vector<std::jthread> workers;  // joined on every path out
    workers.reserve(threads - 1);
    try {
      for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(work);
    } catch (const std::system_error&) {
      // Fewer threads than asked: those started and the caller drain the
      // counter between them.
    }
    work();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace isex::util
