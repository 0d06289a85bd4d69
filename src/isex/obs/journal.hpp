// isex::obs — the flight recorder: a bounded, thread-safe, structured
// journal of fixed-size binary records explaining what the serve path did
// and why.
//
// Design constraints, in order:
//  1. Crash-readable. Records live in one preallocated slot array; an
//     async-signal-safe handler can walk it after SIGSEGV/SIGABRT with no
//     malloc, no formatting, no locks (crash_dump / install_crash_handler).
//  2. Cheap writers. record() is a fetch_add, a CAS that claims the slot,
//     and plain stores behind the per-slot commit stamp (a seqlock). Writers
//     never block on readers. A writer waits for another only when an older
//     writer one ring lap behind is still filling the same slot, and a
//     lapped writer drops its record (Journal::dropped) rather than overwrite
//     a newer one, so the journal can sit on the request hot path (<5%
//     soak-throughput overhead, measured in EXPERIMENTS.md).
//  3. Attribution. Every record carries a request id (rid). The serve loop
//     allocates one rid per request line and opens a JournalScope, so
//     instrumentation deep in robust::solve_with_fallback, certify:: and
//     the result cache lands on the right request without threading an id
//     through every solver signature. A response's disposition is
//     reconstructible afterwards by filtering the journal on its rid
//     (`isex tail --rid N`).
//
// Records are overwritten ring-wise; a reader (snapshot, the stats request,
// `isex tail`) revalidates each slot's stamp after copying and drops torn
// records instead of ever returning a half-written one — the journal_test
// MT stress pins this.
//
// ISEX_NO_OBS compiles the ISEX_JOURNAL* macros to ((void)0) like every
// other obs instrumentation site; the classes themselves never change shape
// (ODR safety across mixed TUs), and the serve results stay bit-identical
// because nothing downstream reads the journal to make decisions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace isex::obs {

/// What happened. Values are part of the binary dump format: append only.
enum class JournalKind : std::uint16_t {
  kNone = 0,
  kRequest = 1,    // request line entered handling; v0 = line bytes
  kDecode = 2,     // decode finished; v0 = 0 ok / protocol ErrorCode
  kAdmission = 3,  // admission reject; v0 = retry_after_ms, v1 = depth
  kShed = 4,       // load-shed decision; v0 = start rung, v1 = queue depth
  kCacheLookup = 5,   // v0: 0 = miss, 1 = hit, 2 = poisoned-on-reuse
  kRung = 6,       // ladder rung finished; v0 = rung index, v1 = Status
  kCertify = 7,    // witness checker ran; v0 = checks, v1 = violations
  kSolve = 8,      // whole solve finished; v0 = nodes charged, v1 = Status
  kResponse = 9,   // response rendered; v0 = Disposition, v1 = bytes
  kDrain = 10,     // queued request answered "shutting_down" on drain
  kMark = 11,      // free-form instrumentation point (tests, tools)
  // Worker-pool supervision (supervise/pool.cpp; recorded by the supervisor).
  kWorkerSpawn = 12,  // v0 = worker index, v1 = pid
  kWorkerExit = 13,   // v0 = signal (term) or -exit_status, v1 = pid
  kWorkerKill = 14,   // supervisor SIGKILL; v0 = worker index, v1 = pid
  kDispatch = 15,     // request sent to a worker; v0 = worker index
  kQuarantine = 16,   // poison request quarantined; v0 = kill count
};
const char* to_string(JournalKind k);

/// Which stage of the request pipeline a record belongs to.
enum class JournalPhase : std::uint16_t {
  kNone = 0,
  kTransport = 1,  // split/admission, before decoding
  kDecode = 2,
  kBuild = 3,      // task-set construction (curves, DFG lifting)
  kSolve = 4,
  kCertify = 5,
  kCache = 6,
  kRender = 7,
};
const char* to_string(JournalPhase p);

/// How a response left the server — the field `bench_compare` gates shed
/// behavior on and `isex tail` explains responses with.
enum class Disposition : std::int64_t {
  kExact = 0,
  kDegraded = 1,      // non-Exact solver status (truncated or fallback rung)
  kShed = 2,          // answered from a demoted ladder start rung
  kCached = 3,        // served from the certified result cache
  kError = 4,         // any error response (code in the envelope)
  kDrained = 5,       // answered "shutting_down" during drain
};
const char* to_string(Disposition d);

/// One fixed-size binary journal record. Trivially copyable by contract:
/// the ring, the crash dump and the `isex tail` reader all treat it as raw
/// bytes.
struct JournalRecord {
  std::uint64_t seq = 0;    // 1-based global sequence number
  std::uint64_t rid = 0;    // request id; 0 = outside any request scope
  std::int64_t ts_ns = 0;   // obs::clock_ns() at record time
  std::int64_t dur_ns = 0;  // 0 for instant events
  std::int64_t v0 = 0;      // kind-specific (see JournalKind)
  std::int64_t v1 = 0;
  JournalKind kind = JournalKind::kNone;
  JournalPhase phase = JournalPhase::kNone;
  std::uint32_t pad = 0;
  std::uint64_t reserved = 0;  // format headroom; always 0 in version 1
};
static_assert(sizeof(JournalRecord) == 64, "dump format is fixed-width");
static_assert(std::is_trivially_copyable_v<JournalRecord>);

/// Header of the binary dump format (crash dumps and `Journal::write_binary`
/// share it; `isex tail` validates it before trusting a byte).
struct JournalFileHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t version = 1;
  std::uint32_t record_size = sizeof(JournalRecord);
  std::uint32_t reserved = 0;

  static constexpr std::uint32_t kMagic = 0x314a7349;  // "IsJ1" little-endian
};
static_assert(sizeof(JournalFileHeader) == 16);

/// The process-wide flight recorder ring.
class Journal {
 public:
  static Journal& global();

  /// Capacity is rounded up to a power of two; reallocates and clears.
  /// Never call concurrently with writers (configure at startup).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return mask_ + 1; }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Appends one record (thread-safe; see design constraint 2). rid 0 means
  /// "attribute to the calling thread's current JournalScope, if any".
  /// Returns the sequence number, or 0 when disabled.
  std::uint64_t record(JournalKind kind, JournalPhase phase,
                       std::int64_t dur_ns = 0, std::int64_t v0 = 0,
                       std::int64_t v1 = 0, std::uint64_t rid = 0);

  /// Total records ever written (the ring holds the last capacity() of them).
  std::uint64_t head() const { return head_.load(std::memory_order_acquire); }

  /// Records dropped because a writer one or more laps ahead had already
  /// claimed their slot (the newer record is kept).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Copies the last `last_n` committed records (0 = everything retained),
  /// oldest first. Torn slots — concurrently overwritten mid-copy — are
  /// skipped and counted in *torn (never returned half-written).
  std::vector<JournalRecord> snapshot(std::size_t last_n = 0,
                                      std::uint64_t* torn = nullptr) const;

  /// Writes header + the last `last_n` committed records to fd via plain
  /// ::write. Uses snapshot() (allocates); NOT async-signal-safe.
  bool write_binary(int fd, std::size_t last_n = 0) const;

  /// Async-signal-safe dump: header + raw slot walk, oldest first, no
  /// locks/malloc/format. Torn slots are skipped by stamp revalidation.
  /// Returns records written.
  std::size_t crash_dump(int fd) const;

  /// Clears all records (not the capacity). Not concurrency-safe; tests.
  void clear();

 private:
  friend struct JournalTestPeer;

  // Payload is stored as relaxed atomic words (not a plain JournalRecord) so
  // the seqlock is a data race neither formally nor under tsan; the stamp is
  // 0 = free, seq | kBusyBit = claimed by seq and mid-write, else the
  // committed seq.
  static constexpr std::size_t kRecordWords =
      sizeof(JournalRecord) / sizeof(std::uint64_t);
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> words[kRecordWords] = {};
  };
  static constexpr std::uint64_t kBusyBit = std::uint64_t{1} << 63;

  /// Publishes record words `w` for sequence number `seq` (see record()).
  void write_slot(std::uint64_t seq, const std::uint64_t (&w)[kRecordWords]);
  bool read_slot(std::uint64_t seq, JournalRecord* out) const;

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;

  Journal();
};

/// The rid new journal records are attributed to on this thread (0 = none).
std::uint64_t current_request_id();

/// RAII request-attribution scope: sets the calling thread's current rid,
/// restoring the previous one on destruction (scopes nest). The class is
/// identical with and without ISEX_NO_OBS; only the macro below vanishes.
class JournalScope {
 public:
  explicit JournalScope(std::uint64_t rid);
  ~JournalScope();
  JournalScope(const JournalScope&) = delete;
  JournalScope& operator=(const JournalScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// Decodes a binary journal dump (header + records). Returns false and sets
/// *error on a bad magic/version/record size; tolerates a truncated tail
/// (a crash dump may be cut by the dying process) by dropping the partial
/// final record.
bool read_journal_file(const std::string& path,
                       std::vector<JournalRecord>* out, std::string* error);

/// Registers `path` as the crash-dump *base* (copied into a static buffer;
/// at most 255 bytes) and installs async-signal-safe handlers for
/// SIGABRT/SIGSEGV/SIGBUS/SIGFPE/SIGILL that write the last-capacity()
/// journal records to `<path>.<pid>`, then re-raise with the default action
/// so the process still dies with the original signal. The pid suffix keeps
/// concurrent worker processes sharing one configured base from clobbering
/// each other (`isex tail` accepts either the base or a suffixed path).
/// Call once, from main-like code (the serve daemon), never from tests that
/// expect to survive.
void set_crash_dump_path(const char* path);
void install_crash_handler();

}  // namespace isex::obs

// --- instrumentation macros --------------------------------------------------
#ifndef ISEX_OBS_CONCAT
#define ISEX_OBS_CONCAT_IMPL(a, b) a##b
#define ISEX_OBS_CONCAT(a, b) ISEX_OBS_CONCAT_IMPL(a, b)
#endif
#ifndef ISEX_NO_OBS
#define ISEX_JOURNAL(kind, phase, dur_ns, v0, v1)                       \
  (void)::isex::obs::Journal::global().record(                          \
      ::isex::obs::JournalKind::kind, ::isex::obs::JournalPhase::phase, \
      static_cast<std::int64_t>(dur_ns), static_cast<std::int64_t>(v0), \
      static_cast<std::int64_t>(v1))
#define ISEX_JOURNAL_SCOPE(rid) \
  ::isex::obs::JournalScope ISEX_OBS_CONCAT(isex_obs_jscope_, __LINE__)(rid)
#else
#define ISEX_JOURNAL(kind, phase, dur_ns, v0, v1) ((void)0)
#define ISEX_JOURNAL_SCOPE(rid) ((void)0)
#endif
