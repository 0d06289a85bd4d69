#include "isex/util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace isex::util {

namespace {

constexpr int kMaxThreads = 256;

/// One parallel_for call. Lives on the caller's stack; every field is read
/// and written under Pool::mu_.
struct Batch {
  const std::function<void(std::size_t)>* fn;
  std::size_t n;
  std::size_t grain;         // indices per claim
  std::size_t next = 0;      // first unclaimed index
  std::size_t done = 0;      // indices finished
  std::exception_ptr error;  // first exception wins
};

class Pool {
 public:
  /// Total parallelism `threads` (>= 2): threads-1 workers plus the caller,
  /// which runs chunks while it waits.
  explicit Pool(int threads) : threads_(threads) {
    for (int i = 1; i < threads; ++i) workers_.emplace_back([this] { work(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int threads() const { return threads_; }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn) {
    // Oversplit a little beyond the thread count so uneven items rebalance.
    const std::size_t chunks =
        std::min(n, static_cast<std::size_t>(threads_) * 4);
    Batch b{&fn, n, (n + chunks - 1) / chunks, 0, 0, nullptr};
    std::unique_lock<std::mutex> lk(mu_);
    open_.push_back(&b);
    cv_.notify_all();
    while (b.done < b.n) {
      // Own chunks first, then the newest open batch — possibly an outer
      // batch this one is nested in, which is what keeps nesting deadlock-
      // free. With nothing left to claim, sleep until some batch finishes
      // or a new one opens.
      Batch* t = b.next < b.n ? &b : open_.empty() ? nullptr : open_.back();
      if (t != nullptr)
        run_chunk(lk, t);
      else
        cv_.wait(lk, [&] { return b.done == b.n || !open_.empty(); });
    }
    lk.unlock();
    if (b.error) std::rethrow_exception(b.error);
  }

 private:
  /// Claims the next index range of `b` under the lock and runs it
  /// unlocked. `b` cannot complete, so its caller cannot return, before
  /// this chunk is counted done: the pointer stays valid throughout.
  void run_chunk(std::unique_lock<std::mutex>& lk, Batch* b) {
    const std::size_t begin = b->next;
    const std::size_t end = std::min(b->n, begin + b->grain);
    b->next = end;
    if (end == b->n) open_.erase(std::find(open_.begin(), open_.end(), b));
    lk.unlock();
    std::exception_ptr error;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*b->fn)(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    lk.lock();
    if (error && !b->error) b->error = error;
    b->done += end - begin;
    if (b->done == b->n) cv_.notify_all();
  }

  void work() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || !open_.empty(); });
      if (stop_) return;
      run_chunk(lk, open_.back());
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Batch*> open_;  // batches with unclaimed indices, oldest first
  bool stop_ = false;
  std::vector<std::thread> workers_;
  int threads_;
};

std::atomic<int> g_max_threads{0};  // 0 = not yet resolved

int resolve_default_threads() {
  if (const char* env = std::getenv("ISEX_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1)
      return v > kMaxThreads ? kMaxThreads : static_cast<int>(v);
  }
  return hardware_threads();
}

// Process-global pool, (re)built lazily to match max_threads(). The rebuild
// only happens when no parallel_for is in flight — concurrent callers keep
// the pool they started with (a thread-count change mid-flight only delays
// taking effect until the regions drain).
std::mutex g_pool_mu;
std::unique_ptr<Pool> g_pool;
int g_pool_users = 0;  // guarded by g_pool_mu

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
  const int want = max_threads();
  if (want <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Pool* pool;
  {
    std::lock_guard<std::mutex> lk(g_pool_mu);
    if (!g_pool || (g_pool->threads() != want && g_pool_users == 0))
      g_pool = std::make_unique<Pool>(want);
    pool = g_pool.get();
    ++g_pool_users;
  }
  struct Release {
    ~Release() {
      std::lock_guard<std::mutex> lk(g_pool_mu);
      --g_pool_users;
    }
  } release;
  pool->run(n, fn);
}

}  // namespace isex::util
