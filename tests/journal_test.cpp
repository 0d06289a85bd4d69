// isex::obs::Journal — the flight recorder: record layout and wraparound,
// the seqlock's no-torn-records guarantee under concurrent writers, the
// binary dump round trip, the async-signal-safe crash dump (forked child),
// rid-based response reconstruction through the serve path, stats/introspect
// JSON parse-back, and the journal-cannot-change-responses guard.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "isex/obs/journal.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/serve/json.hpp"
#include "isex/serve/server.hpp"

namespace isex::obs {

/// Publishes a record for a chosen sequence number, as a writer that
/// reserved `seq` and stalled until now would.
struct JournalTestPeer {
  static void publish_late(Journal& j, const JournalRecord& rec) {
    std::uint64_t w[Journal::kRecordWords];
    std::memcpy(w, &rec, sizeof(rec));
    j.write_slot(rec.seq, w);
  }
};

}  // namespace isex::obs

namespace isex {
namespace {

using obs::Journal;
using obs::JournalKind;
using obs::JournalPhase;
using obs::JournalRecord;

std::string tmp_path(const char* stem) {
  return "/tmp/isex_journal_test_" + std::string(stem) + "_" +
         std::to_string(::getpid()) + ".bin";
}

std::string inline_select(const std::string& id) {
  return "{\"id\":\"" + id +
         "\",\"cmd\":\"select\",\"area_budget\":3.0"
         ",\"tasks\":[{\"name\":\"t0\",\"period\":100,\"configs\":"
         "[[0,50],[2,25]]},{\"name\":\"t1\",\"period\":200,\"configs\":"
         "[[0,80],[1,60],[3,40]]}],\"node_budget\":50000}";
}

TEST(Journal, CapacityRoundsUpAndClears) {
  auto& j = Journal::global();
  j.set_capacity(100);
  EXPECT_EQ(j.capacity(), 128u);
  EXPECT_EQ(j.head(), 0u);
  EXPECT_GT(j.record(JournalKind::kMark, JournalPhase::kNone), 0u);
  EXPECT_EQ(j.head(), 1u);
  j.set_capacity(64);
  EXPECT_EQ(j.head(), 0u);
}

TEST(Journal, DisabledRecordsNothing) {
  auto& j = Journal::global();
  j.set_capacity(64);
  j.set_enabled(false);
  EXPECT_EQ(j.record(JournalKind::kMark, JournalPhase::kNone), 0u);
  j.set_enabled(true);
  EXPECT_EQ(j.head(), 0u);
  EXPECT_TRUE(j.snapshot().empty());
}

TEST(Journal, ScopeAttributesAndNests) {
  auto& j = Journal::global();
  j.set_capacity(64);
  EXPECT_EQ(obs::current_request_id(), 0u);
  {
    obs::JournalScope outer(7);
    EXPECT_EQ(obs::current_request_id(), 7u);
    j.record(JournalKind::kMark, JournalPhase::kNone, 0, 1, 0);
    {
      obs::JournalScope inner(9);
      j.record(JournalKind::kMark, JournalPhase::kNone, 0, 2, 0);
    }
    EXPECT_EQ(obs::current_request_id(), 7u);
    // An explicit rid wins over the scope.
    j.record(JournalKind::kMark, JournalPhase::kNone, 0, 3, 0, 42);
  }
  EXPECT_EQ(obs::current_request_id(), 0u);
  const auto recs = j.snapshot();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].rid, 7u);
  EXPECT_EQ(recs[1].rid, 9u);
  EXPECT_EQ(recs[2].rid, 42u);
}

TEST(Journal, WraparoundKeepsNewestRecords) {
  auto& j = Journal::global();
  j.set_capacity(8);
  for (int i = 1; i <= 100; ++i)
    j.record(JournalKind::kMark, JournalPhase::kNone, 0, i, 0);
  const auto recs = j.snapshot();
  ASSERT_EQ(recs.size(), 8u);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    EXPECT_EQ(recs[k].seq, 93u + k);  // oldest-first, the last 8 of 100
    EXPECT_EQ(recs[k].v0, static_cast<std::int64_t>(93 + k));
  }
  const auto last3 = j.snapshot(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].seq, 98u);
  EXPECT_EQ(last3[2].seq, 100u);
}

// The seqlock contract: whatever a concurrent reader gets back is a record
// some writer actually wrote, never a blend of two writers (torn slots are
// dropped, not returned). Every record carries a checksum across its
// payload fields so a blend is detectable.
TEST(Journal, MtStressNoTornRecords) {
  auto& j = Journal::global();
  j.set_capacity(256);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};

  auto checksum = [](std::int64_t t, std::int64_t i) {
    return (t + 1) * 1'000'003 + i * 7919;
  };
  auto verify = [&](const std::vector<JournalRecord>& recs) {
    for (const auto& r : recs) {
      if (r.kind != JournalKind::kMark) continue;
      ASSERT_LT(r.v0, kThreads);
      ASSERT_EQ(r.dur_ns, checksum(r.v0, r.v1))
          << "torn record leaked: seq " << r.seq;
      ASSERT_EQ(r.rid, static_cast<std::uint64_t>(r.v0) * kPerThread +
                           static_cast<std::uint64_t>(r.v1));
    }
  };

  std::thread reader([&] {
    // do-while: on a single-core box the writers can finish before this
    // thread is first scheduled; one snapshot must still happen.
    do {
      std::uint64_t torn = 0;
      const auto recs = j.snapshot(0, &torn);
      verify(recs);
    } while (!stop.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        j.record(JournalKind::kMark, JournalPhase::kNone, checksum(t, i), t,
                 i, static_cast<std::uint64_t>(t) * kPerThread +
                        static_cast<std::uint64_t>(i));
    });
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(j.head(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Quiescent snapshot: full ring, zero torn, all checksums intact, all
  // sequence numbers distinct and contiguous.
  std::uint64_t torn = 0;
  const auto recs = j.snapshot(0, &torn);
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(recs.size(), 256u);
  verify(recs);
  for (std::size_t k = 1; k < recs.size(); ++k)
    EXPECT_EQ(recs[k].seq, recs[k - 1].seq + 1);
}

// A writer that reserved seq 2 and stalled while the ring lapped it: seq 6
// (2 + capacity) already owns the slot. Publishing late must drop seq 2's
// record and count it, not leave the slot holding the older record.
TEST(Journal, LappedWriterDropsItsRecordAndKeepsTheNewerOne) {
  auto& j = Journal::global();
  j.set_capacity(4);
  for (int i = 1; i <= 6; ++i)
    j.record(JournalKind::kMark, JournalPhase::kNone, 0, i, 0, 7);
  JournalRecord late;
  late.seq = 2;
  late.kind = JournalKind::kMark;
  late.v0 = -2;
  obs::JournalTestPeer::publish_late(j, late);
  EXPECT_EQ(j.dropped(), 1u);

  std::uint64_t torn = 0;
  const auto recs = j.snapshot(0, &torn);
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    EXPECT_EQ(recs[k].seq, k + 3);
    EXPECT_EQ(recs[k].v0, static_cast<std::int64_t>(k + 3));
  }
  // The next lap publishes over seq 3 as usual.
  j.record(JournalKind::kMark, JournalPhase::kNone, 0, 7, 0, 7);
  EXPECT_EQ(j.dropped(), 1u);
  EXPECT_EQ(j.snapshot(1).front().v0, 7);
  j.clear();
  EXPECT_EQ(j.dropped(), 0u);
}

TEST(Journal, BinaryDumpRoundTripsAndToleratesTruncation) {
  auto& j = Journal::global();
  j.set_capacity(32);
  for (int i = 1; i <= 5; ++i)
    j.record(JournalKind::kMark, JournalPhase::kRender, i * 10, i, -i, 99);
  const std::string path = tmp_path("roundtrip");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(j.write_binary(::fileno(f)));
    std::fclose(f);
  }
  std::vector<JournalRecord> recs;
  std::string err;
  ASSERT_TRUE(obs::read_journal_file(path, &recs, &err)) << err;
  ASSERT_EQ(recs.size(), 5u);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    EXPECT_EQ(recs[k].seq, k + 1);
    EXPECT_EQ(recs[k].v0, static_cast<std::int64_t>(k + 1));
    EXPECT_EQ(recs[k].v1, -static_cast<std::int64_t>(k + 1));
    EXPECT_EQ(recs[k].dur_ns, static_cast<std::int64_t>((k + 1) * 10));
    EXPECT_EQ(recs[k].rid, 99u);
    EXPECT_EQ(recs[k].kind, JournalKind::kMark);
    EXPECT_EQ(recs[k].phase, JournalPhase::kRender);
  }
  // A dump cut mid-record (a dying process) drops the partial tail only.
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(sizeof(obs::JournalFileHeader) +
                                          2 * sizeof(JournalRecord) + 13)),
            0);
  recs.clear();
  ASSERT_TRUE(obs::read_journal_file(path, &recs, &err)) << err;
  EXPECT_EQ(recs.size(), 2u);
  // A wrong magic is rejected outright.
  {
    std::ofstream bad(path, std::ios::binary | std::ios::trunc);
    bad << "not a journal dump at all";
  }
  EXPECT_FALSE(obs::read_journal_file(path, &recs, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

// Crash-dump smoke: a forked child installs the handler, journals marker
// records, and abort()s; the parent must find the markers in the dump and
// the child must still die of SIGABRT (the handler re-raises).
TEST(Journal, CrashDumpSurvivesAbort) {
  const std::string path = tmp_path("crash");
  std::remove(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto& j = Journal::global();
    j.set_capacity(64);
    obs::set_crash_dump_path(path.c_str());
    obs::install_crash_handler();
    for (int i = 1; i <= 10; ++i)
      j.record(JournalKind::kMark, JournalPhase::kNone, 0, 1000 + i, 0, 77);
    std::abort();  // handler dumps, then re-raises -> child dies of SIGABRT
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  // The handler suffixes the dump with the dying pid so concurrent workers
  // sharing one base path never clobber each other's dumps.
  const std::string dump = path + "." + std::to_string(pid);
  std::vector<JournalRecord> recs;
  std::string err;
  ASSERT_TRUE(obs::read_journal_file(dump, &recs, &err)) << err;
  int markers = 0;
  for (const auto& r : recs)
    if (r.kind == JournalKind::kMark && r.rid == 77 && r.v0 >= 1001 &&
        r.v0 <= 1010)
      ++markers;
  EXPECT_EQ(markers, 10) << recs.size() << " records in dump";
  std::remove(dump.c_str());
}

// --- the serve path: rids, dispositions, stats parse-back --------------------

// Every response's disposition must be reconstructible from the journal by
// filtering on the rid the response line carries (the acceptance contract
// `isex tail --rid N` relies on).
TEST(JournalServe, DispositionReconstructibleByRid) {
  auto& j = Journal::global();
  j.set_capacity(1024);
  serve::ServerOptions so;
  so.shed1_depth = 2;
  so.shed2_depth = 4;
  serve::Server server{so};

  struct Want {
    std::string response;
    obs::Disposition d;
  };
  std::vector<Want> wants;
  wants.push_back({server.handle_line(inline_select("a")),
                   obs::Disposition::kExact});
  wants.push_back({server.handle_line(inline_select("b")),
                   obs::Disposition::kCached});
  wants.push_back({server.handle_line(inline_select("c"), 3),
                   obs::Disposition::kShed});
  wants.push_back({server.handle_line("{\"cmd\":"), obs::Disposition::kError});

  // The response lines name their rids in every build — the rid is a server
  // member, not an obs artifact.
  for (std::size_t i = 0; i < wants.size(); ++i)
    EXPECT_NE(wants[i].response.find("\"rid\":" + std::to_string(i + 1)),
              std::string::npos)
        << wants[i].response;
  if (!ISEX_OBS_ENABLED)
    GTEST_SKIP() << "library instrumentation compiled out (ISEX_NO_OBS)";

  std::map<std::uint64_t, std::vector<JournalRecord>> by_rid;
  for (const auto& r : j.snapshot())
    if (r.rid != 0) by_rid[r.rid].push_back(r);

  for (std::size_t i = 0; i < wants.size(); ++i) {
    const std::uint64_t rid = i + 1;
    ASSERT_TRUE(by_rid.count(rid)) << "rid " << rid << " left no records";
    const auto& recs = by_rid[rid];
    EXPECT_EQ(recs.front().kind, JournalKind::kRequest);
    EXPECT_EQ(recs.back().kind, JournalKind::kResponse);
    EXPECT_EQ(recs.back().v0, static_cast<std::int64_t>(wants[i].d))
        << "rid " << rid << ": journal disagrees with the response";
    EXPECT_EQ(recs.back().v1,
              static_cast<std::int64_t>(wants[i].response.size()));
  }
  // The cache hit carries its lookup evidence; the shed request its rung.
  bool hit_seen = false, shed_seen = false;
  for (const auto& r : by_rid[2])
    hit_seen |= r.kind == JournalKind::kCacheLookup && r.v0 == 1;
  for (const auto& r : by_rid[3])
    shed_seen |= r.kind == JournalKind::kShed && r.v0 == 1;
  EXPECT_TRUE(hit_seen);
  EXPECT_TRUE(shed_seen);
}

TEST(JournalServe, StatsJsonParsesBackWithLatencyPercentiles) {
  serve::Server server{serve::ServerOptions{}};
  (void)server.handle_line(inline_select("a"));
  (void)server.handle_line(inline_select("b"));  // cached
  const std::string stats =
      server.handle_line("{\"id\":\"s\",\"cmd\":\"stats\"}", 5);
  serve::JsonParseResult pr = serve::json_parse(stats);
  ASSERT_TRUE(pr.ok()) << pr.error << "\n" << stats;
  const serve::Json* result = pr.value.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("queue_depth")->as_number(), 5);
  EXPECT_EQ(result->find("solved")->as_number(), 1);  // the hit is not a solve
  const serve::Json* cache = result->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->as_number(), 1);
  EXPECT_EQ(cache->find("entries")->as_number(), 1);
  const serve::Json* lat = result->find("latency_us");
  ASSERT_NE(lat, nullptr);
  for (const char* cls : {"total", "exact", "degraded", "shed", "cached",
                          "error"}) {
    const serve::Json* h = lat->find(cls);
    ASSERT_NE(h, nullptr) << cls;
    for (const char* stat : {"count", "mean", "min", "max", "p50", "p95",
                             "p99"})
      ASSERT_NE(h->find(stat), nullptr) << cls << "." << stat;
  }
  // Two solves: one exact, one cached; both land in `total`.
  EXPECT_EQ(lat->find("total")->find("count")->as_number(), 2);
  EXPECT_EQ(lat->find("exact")->find("count")->as_number(), 1);
  EXPECT_EQ(lat->find("cached")->find("count")->as_number(), 1);
  const serve::Json* p95 = lat->find("exact")->find("p95");
  EXPECT_GE(p95->as_number(), lat->find("exact")->find("min")->as_number());
  EXPECT_LE(p95->as_number(), lat->find("exact")->find("max")->as_number());
}

TEST(JournalServe, IntrospectJsonParsesBack) {
  auto& j = Journal::global();
  j.set_capacity(128);
  serve::Server server{serve::ServerOptions{}};
  (void)server.handle_line(inline_select("a"));
  const std::string resp =
      server.handle_line("{\"id\":\"i\",\"cmd\":\"introspect\"}");
  serve::JsonParseResult pr = serve::json_parse(resp);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const serve::Json* result = pr.value.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("stats"), nullptr);
  const serve::Json* jj = result->find("journal");
  ASSERT_NE(jj, nullptr);
  EXPECT_EQ(jj->find("capacity")->as_number(), 128);
  if (ISEX_OBS_ENABLED) {
    EXPECT_GT(jj->find("head")->as_number(), 0);
  }
  EXPECT_EQ(jj->find("next_rid")->as_number(), 2);  // introspect itself is #2
  const serve::Json* opts = result->find("options");
  ASSERT_NE(opts, nullptr);
  EXPECT_EQ(opts->find("queue_capacity")->as_number(), 64);
  ASSERT_NE(result->find("metrics"), nullptr);
}

// The journal must never change what the server answers: the same request
// sequence with the recorder on and off yields byte-identical responses
// (modulo the wall-clock elapsed_ms envelope field). This is the in-process
// half of the ISEX_NO_OBS bit-identity contract; journal_noop_test covers
// the compiled-out half.
TEST(JournalServe, ResponsesBitIdenticalWithJournalDisabled) {
  auto normalize = [](std::string s) {
    static const std::regex volatile_ms("\"elapsed_ms\":[0-9.eE+-]+");
    return std::regex_replace(s, volatile_ms, "\"elapsed_ms\":0");
  };
  auto run = [&](bool journal_on) {
    auto& j = Journal::global();
    j.set_capacity(256);
    j.set_enabled(journal_on);
    serve::ServerOptions so;
    so.shed1_depth = 2;
    serve::Server server{so};
    std::string all;
    all += normalize(server.handle_line(inline_select("a")));
    all += normalize(server.handle_line(inline_select("b")));      // cached
    all += normalize(server.handle_line(inline_select("c"), 3));   // shed
    all += normalize(server.handle_line("{\"id\":\"p\",\"cmd\":\"ping\"}"));
    all += normalize(server.handle_line("garbage"));
    return all;
  };
  const std::string with = run(true);
  const std::string without = run(false);
  Journal::global().set_enabled(true);
  EXPECT_EQ(with, without);
}

TEST(JournalServe, HistogramQuantileInterpolates) {
  // A private registry yields the public HistogramSnapshot shape.
  obs::Registry reg;
  auto& rh = reg.histogram("q");
  for (int i = 1; i <= 1000; ++i) rh.record(i);
  const auto snap = reg.snapshot().histograms.at("q");
  EXPECT_EQ(obs::histogram_quantile(snap, 0), 1);
  EXPECT_EQ(obs::histogram_quantile(snap, 1), 1000);
  const double p50 = obs::histogram_quantile(snap, 0.5);
  EXPECT_GE(p50, 250);  // pow2 buckets: exact inside [511..1000] bucket,
  EXPECT_LE(p50, 750);  // interpolated below; generous sanity band
  EXPECT_GE(obs::histogram_quantile(snap, 0.99), 900);
}

}  // namespace
}  // namespace isex
