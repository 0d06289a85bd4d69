#include "isex/obs/journal.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "isex/obs/trace.hpp"
#include "isex/util/file.hpp"

namespace isex::obs {
namespace {

thread_local std::uint64_t t_current_rid = 0;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n && cap < (std::size_t{1} << 30)) cap <<= 1;
  return cap;
}

constexpr std::size_t kDefaultCapacity = 4096;

}  // namespace

const char* to_string(JournalKind k) {
  switch (k) {
    case JournalKind::kNone: return "none";
    case JournalKind::kRequest: return "request";
    case JournalKind::kDecode: return "decode";
    case JournalKind::kAdmission: return "admission";
    case JournalKind::kShed: return "shed";
    case JournalKind::kCacheLookup: return "cache_lookup";
    case JournalKind::kRung: return "rung";
    case JournalKind::kCertify: return "certify";
    case JournalKind::kSolve: return "solve";
    case JournalKind::kResponse: return "response";
    case JournalKind::kDrain: return "drain";
    case JournalKind::kMark: return "mark";
    case JournalKind::kWorkerSpawn: return "worker_spawn";
    case JournalKind::kWorkerExit: return "worker_exit";
    case JournalKind::kWorkerKill: return "worker_kill";
    case JournalKind::kDispatch: return "dispatch";
    case JournalKind::kQuarantine: return "quarantine";
  }
  return "unknown";
}

const char* to_string(JournalPhase p) {
  switch (p) {
    case JournalPhase::kNone: return "-";
    case JournalPhase::kTransport: return "transport";
    case JournalPhase::kDecode: return "decode";
    case JournalPhase::kBuild: return "build";
    case JournalPhase::kSolve: return "solve";
    case JournalPhase::kCertify: return "certify";
    case JournalPhase::kCache: return "cache";
    case JournalPhase::kRender: return "render";
  }
  return "unknown";
}

const char* to_string(Disposition d) {
  switch (d) {
    case Disposition::kExact: return "exact";
    case Disposition::kDegraded: return "degraded";
    case Disposition::kShed: return "shed";
    case Disposition::kCached: return "cached";
    case Disposition::kError: return "error";
    case Disposition::kDrained: return "drained";
  }
  return "unknown";
}

Journal::Journal() { set_capacity(kDefaultCapacity); }

Journal& Journal::global() {
  // Leaked singleton so crash handlers and exit paths can always reach it.
  static Journal* j = new Journal();
  return *j;
}

void Journal::set_capacity(std::size_t capacity) {
  std::size_t cap = round_up_pow2(capacity == 0 ? 1 : capacity);
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
  head_.store(0, std::memory_order_release);
  dropped_.store(0, std::memory_order_relaxed);
}

std::uint64_t Journal::record(JournalKind kind, JournalPhase phase,
                              std::int64_t dur_ns, std::int64_t v0,
                              std::int64_t v1, std::uint64_t rid) {
  if (!enabled()) return 0;
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed) + 1;
  JournalRecord rec;
  rec.seq = seq;
  rec.rid = rid != 0 ? rid : t_current_rid;
  rec.ts_ns = clock_ns();
  rec.dur_ns = dur_ns;
  rec.v0 = v0;
  rec.v1 = v1;
  rec.kind = kind;
  rec.phase = phase;
  std::uint64_t w[kRecordWords];
  std::memcpy(w, &rec, sizeof(rec));
  write_slot(seq, w);
  return seq;
}

void Journal::write_slot(std::uint64_t seq,
                         const std::uint64_t (&w)[kRecordWords]) {
  Slot& slot = slots_[(seq - 1) & mask_];
  // Per-slot seqlock with an owner. A writer claims the slot by swapping its
  // stamp for seq | kBusyBit, and only from a committed older seq: a newer
  // seq (committed or mid-write) means this writer was lapped, so its record
  // is dropped; an older writer still mid-write is waited out (it has a
  // handful of stores left). So payload words are only ever stored by the
  // slot's newest claimant, and the slot ends holding the newest seq written
  // to it. Readers skip any slot whose stamp is not the exact seq they
  // expect both before and after copying.
  std::uint64_t stamp = slot.stamp.load(std::memory_order_acquire);
  for (;;) {
    if ((stamp & ~kBusyBit) > seq) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if ((stamp & kBusyBit) != 0) {
      std::this_thread::yield();
      stamp = slot.stamp.load(std::memory_order_acquire);
      continue;
    }
    if (slot.stamp.compare_exchange_weak(stamp, seq | kBusyBit,
                                         std::memory_order_acquire,
                                         std::memory_order_acquire))
      break;
  }
  // Order the busy stamp before the payload stores (seqlock writer fence).
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < kRecordWords; ++i) {
    slot.words[i].store(w[i], std::memory_order_relaxed);
  }
  slot.stamp.store(seq, std::memory_order_release);
}

bool Journal::read_slot(std::uint64_t seq, JournalRecord* out) const {
  const Slot& slot = slots_[(seq - 1) & mask_];
  if (slot.stamp.load(std::memory_order_acquire) != seq) return false;
  std::uint64_t w[kRecordWords];
  for (std::size_t i = 0; i < kRecordWords; ++i) {
    w[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.stamp.load(std::memory_order_relaxed) != seq) return false;
  std::memcpy(out, w, sizeof(*out));
  return true;
}

std::vector<JournalRecord> Journal::snapshot(std::size_t last_n,
                                             std::uint64_t* torn) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::size_t cap = mask_ + 1;
  std::uint64_t n = std::min<std::uint64_t>(head, cap);
  if (last_n != 0 && last_n < n) n = last_n;
  std::vector<JournalRecord> out;
  out.reserve(n);
  std::uint64_t torn_count = 0;
  for (std::uint64_t seq = head - n + 1; seq <= head; ++seq) {
    JournalRecord copy;
    if (!read_slot(seq, &copy)) {
      // Overwritten by a lapping writer (or mid-write): torn, skipped.
      ++torn_count;
      continue;
    }
    out.push_back(copy);
  }
  if (torn) *torn = torn_count;
  return out;
}

namespace {
bool write_all(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    ssize_t w = ::write(fd, p, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}
}  // namespace

bool Journal::write_binary(int fd, std::size_t last_n) const {
  JournalFileHeader hdr;
  if (!write_all(fd, &hdr, sizeof(hdr))) return false;
  const std::vector<JournalRecord> recs = snapshot(last_n);
  for (const JournalRecord& r : recs) {
    if (!write_all(fd, &r, sizeof(r))) return false;
  }
  return true;
}

std::size_t Journal::crash_dump(int fd) const {
  // Async-signal-safe: only ::write, a stack buffer, and atomic loads.
  static const JournalFileHeader hdr{};
  if (!write_all(fd, &hdr, sizeof(hdr))) return 0;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::size_t cap = mask_ + 1;
  const std::uint64_t n = std::min<std::uint64_t>(head, cap);
  std::size_t written = 0;
  for (std::uint64_t seq = head - n + 1; seq <= head; ++seq) {
    JournalRecord copy;
    if (!read_slot(seq, &copy)) continue;
    if (!write_all(fd, &copy, sizeof(copy))) break;
    ++written;
  }
  return written;
}

void Journal::clear() {
  const std::size_t cap = mask_ + 1;
  for (std::size_t i = 0; i < cap; ++i) {
    slots_[i].stamp.store(0, std::memory_order_relaxed);
    for (std::size_t wi = 0; wi < kRecordWords; ++wi) {
      slots_[i].words[wi].store(0, std::memory_order_relaxed);
    }
  }
  head_.store(0, std::memory_order_release);
  dropped_.store(0, std::memory_order_relaxed);
}

std::uint64_t current_request_id() { return t_current_rid; }

JournalScope::JournalScope(std::uint64_t rid) : prev_(t_current_rid) {
  t_current_rid = rid;
}

JournalScope::~JournalScope() { t_current_rid = prev_; }

bool read_journal_file(const std::string& path,
                       std::vector<JournalRecord>* out, std::string* error) {
  out->clear();
  // Dumps are untrusted input (crash artifacts, arbitrary user paths): read
  // through the shared bounded ingestion helper instead of streaming, so a
  // bogus path can't pull in gigabytes before the header check runs.
  constexpr std::size_t kMaxDumpBytes = 64u << 20;
  util::FileReadResult file = util::read_file_bounded(path, kMaxDumpBytes);
  if (!file.ok) {
    if (error) *error = file.error;
    return false;
  }
  if (file.data.size() < sizeof(JournalFileHeader)) {
    if (error)
      *error = path + ": " + std::to_string(file.data.size()) +
               " bytes is too short for a journal header (" +
               std::to_string(sizeof(JournalFileHeader)) + " needed)";
    return false;
  }
  JournalFileHeader hdr;
  std::memcpy(&hdr, file.data.data(), sizeof(hdr));
  if (hdr.magic != JournalFileHeader::kMagic) {
    if (error) *error = path + ": bad journal magic (not a journal dump)";
    return false;
  }
  if (hdr.version != 1) {
    if (error)
      *error =
          path + ": unsupported journal version " + std::to_string(hdr.version);
    return false;
  }
  if (hdr.record_size != sizeof(JournalRecord)) {
    if (error) {
      *error = path + ": journal record size " +
               std::to_string(hdr.record_size) + " != " +
               std::to_string(sizeof(JournalRecord));
    }
    return false;
  }
  const std::size_t body = file.data.size() - sizeof(hdr);
  const std::size_t n = body / sizeof(JournalRecord);
  for (std::size_t i = 0; i < n; ++i) {
    JournalRecord rec;
    std::memcpy(&rec, file.data.data() + sizeof(hdr) + i * sizeof(rec),
                sizeof(rec));
    out->push_back(rec);
  }
  // A partial trailing record (crash mid-write) is silently dropped.
  return true;
}

// --- crash handler -----------------------------------------------------------

namespace {

char g_crash_path[256] = {0};
std::atomic<bool> g_in_crash_handler{false};

const int kCrashSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};

void crash_handler(int sig) {
  // One shot: a crash inside the handler must not recurse.
  if (!g_in_crash_handler.exchange(true)) {
    if (g_crash_path[0] != '\0') {
      // Dump to "<path>.<pid>" so concurrent worker processes sharing one
      // configured base path never clobber each other's dumps. Built with
      // async-signal-safe byte pushing only (no snprintf/malloc).
      char path[sizeof(g_crash_path) + 16];
      std::size_t n = 0;
      while (g_crash_path[n] != '\0') {
        path[n] = g_crash_path[n];
        ++n;
      }
      path[n++] = '.';
      char digits[16];
      int d = 0;
      long pid = static_cast<long>(::getpid());
      do {
        digits[d++] = static_cast<char>('0' + pid % 10);
        pid /= 10;
      } while (pid > 0 && d < 15);
      while (d > 0) path[n++] = digits[--d];
      path[n] = '\0';
      int fd = ::open(path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (fd >= 0) {
        Journal::global().crash_dump(fd);
        ::close(fd);
      }
    }
  }
  // Restore default disposition and re-raise so the process dies with the
  // original signal (exit status 128+sig, core dump where configured).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void set_crash_dump_path(const char* path) {
  if (path == nullptr) {
    g_crash_path[0] = '\0';
    return;
  }
  std::size_t len = std::strlen(path);
  if (len >= sizeof(g_crash_path)) len = sizeof(g_crash_path) - 1;
  std::memcpy(g_crash_path, path, len);
  g_crash_path[len] = '\0';
}

void install_crash_handler() {
  // Force singleton construction now: the handler itself must not run the
  // (non-signal-safe) static-local initialization path.
  (void)Journal::global();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (int sig : kCrashSignals) ::sigaction(sig, &sa, nullptr);
}

}  // namespace isex::obs
