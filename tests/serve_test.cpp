// isex::serve unit + integration tests: the bounded JSON parser, the request
// protocol, the certified result cache, the shedding policy, and the whole
// daemon loop driven over real pipes — interleaved valid/malformed/over-
// budget traffic, in-order responses, byte-identical cache hits, admission
// rejection, and graceful signal drain over a unix socket.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "isex/robust/budget.hpp"
#include "isex/serve/cache.hpp"
#include "isex/serve/json.hpp"
#include "isex/serve/protocol.hpp"
#include "isex/serve/server.hpp"
#include "isex/util/rng.hpp"

namespace isex::serve {
namespace {

// --- JSON parser -------------------------------------------------------------

TEST(ServeJson, ParsesScalarsAndNesting) {
  EXPECT_TRUE(json_parse("null").ok());
  EXPECT_TRUE(json_parse("true").ok());
  EXPECT_TRUE(json_parse("-12.5e3").ok());
  EXPECT_TRUE(json_parse("\"hi\\u00e9\\n\"").ok());
  const auto r = json_parse("{\"a\":[1,2,{\"b\":null}],\"a\":3}");
  ASSERT_TRUE(r.ok());
  const Json* a = r.value.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->as_number(), 3);  // duplicate key: last wins
}

TEST(ServeJson, RejectsMalformed) {
  for (const char* bad :
       {"", "tru", "nul", "{", "[1,", "{\"a\":}", "01", "1.", "+1", "--2",
        "\"\\x\"", "\"\xc3(\"", "\"\\ud800\"", "[] []", "1 2", "{\"a\" 1}",
        "\"unterminated", "[1,2,]", "{,}", "\x01", "nan", "Infinity"}) {
    const auto r = json_parse(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(ServeJson, EnforcesLimits) {
  JsonLimits lim;
  lim.max_depth = 8;
  std::string deep;
  for (int i = 0; i < 9; ++i) deep += "[";
  for (int i = 0; i < 9; ++i) deep += "]";
  EXPECT_FALSE(json_parse(deep, lim).ok());

  lim = JsonLimits{};
  lim.max_values = 4;
  EXPECT_FALSE(json_parse("[1,2,3,4,5]", lim).ok());

  lim = JsonLimits{};
  lim.max_string_bytes = 4;
  EXPECT_FALSE(json_parse("\"abcdef\"", lim).ok());
  EXPECT_TRUE(json_parse("\"abc\"", lim).ok());
}

TEST(ServeJson, NumberRendering) {
  EXPECT_EQ(json_number(3), "3");
  EXPECT_EQ(json_number(-0.5), "-0.5");
  EXPECT_EQ(json_number(1e300), json_number(1e300));  // stable
}

// --- protocol decode ---------------------------------------------------------

Request decode_ok(const std::string& line) {
  auto dr = decode_request(line, RequestLimits{});
  const auto* err = std::get_if<DecodeError>(&dr);
  EXPECT_EQ(err, nullptr) << (err ? err->message : "");
  return std::get<Request>(dr);
}

DecodeError decode_err(const std::string& line) {
  auto dr = decode_request(line, RequestLimits{});
  EXPECT_TRUE(std::holds_alternative<DecodeError>(dr)) << line;
  return std::holds_alternative<DecodeError>(dr) ? std::get<DecodeError>(dr)
                                                 : DecodeError{};
}

TEST(ServeProtocol, DecodesSelect) {
  const Request r = decode_ok(
      "{\"id\":\"r1\",\"cmd\":\"select\",\"benchmarks\":[\"crc32\"],"
      "\"u0\":1.1,\"budget_fraction\":0.5,\"policy\":\"rms\","
      "\"node_budget\":1000,\"time_budget_ms\":50}");
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.cmd, Cmd::kSelect);
  EXPECT_EQ(r.policy, rt::Policy::kRms);
  ASSERT_EQ(r.benchmarks.size(), 1u);
  EXPECT_EQ(r.node_budget, 1000);
  EXPECT_NEAR(r.time_budget_seconds, 0.05, 1e-12);
  EXPECT_FALSE(r.budget_clamped);
}

TEST(ServeProtocol, ClampsOversizedBudgets) {
  RequestLimits lim;
  const Request r = decode_ok(
      "{\"cmd\":\"select\",\"benchmarks\":[\"crc32\"],\"u0\":1.0,"
      "\"budget_fraction\":0.5,\"time_budget_ms\":3600000,"
      "\"node_budget\":999999999999}");
  EXPECT_TRUE(r.budget_clamped);
  EXPECT_LE(r.time_budget_seconds, lim.max_time_budget_seconds);
  EXPECT_LE(r.node_budget, lim.max_node_budget);
}

TEST(ServeProtocol, RejectsSchemaViolations) {
  // Error code bad_request, and the id is echoed when it parsed.
  const DecodeError both = decode_err(
      "{\"id\":\"x\",\"cmd\":\"select\",\"benchmarks\":[\"a\"],\"u0\":1,"
      "\"tasks\":[],\"budget_fraction\":0.5}");
  EXPECT_EQ(both.code, ErrorCode::kBadRequest);
  EXPECT_EQ(both.id, "x");

  EXPECT_EQ(decode_err("{\"cmd\":\"select\",\"benchmarks\":[\"a\"],"
                       "\"u0\":1}").code,
            ErrorCode::kBadRequest);  // missing area constraint
  EXPECT_EQ(decode_err("{\"id\":42,\"cmd\":\"ping\"}").code,
            ErrorCode::kBadRequest);  // id must be a string
  EXPECT_EQ(decode_err("{\"cmd\":\"fly\"}").code, ErrorCode::kBadRequest);
  EXPECT_EQ(decode_err("{\"cmd\":\"select\",\"benchmarks\":[\"a\"],"
                       "\"u0\":-1,\"budget_fraction\":0.5}").code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(decode_err("not json").code, ErrorCode::kParseError);
}

TEST(ServeProtocol, DecodesInlineTasksAndDfg) {
  const Request r = decode_ok(
      "{\"cmd\":\"select\",\"area_budget\":2,\"tasks\":["
      "{\"name\":\"t0\",\"period\":50,\"configs\":[[0,40],[2,20]]},"
      "{\"name\":\"t1\",\"period\":100,\"dfg\":[{\"op\":\"input\",\"in\":[]},"
      "{\"op\":\"not\",\"in\":[0],\"out\":true}]}]}");
  ASSERT_EQ(r.tasks.size(), 2u);
  EXPECT_FALSE(r.tasks[0].has_dfg);
  ASSERT_EQ(r.tasks[0].configs.size(), 2u);
  EXPECT_TRUE(r.tasks[1].has_dfg);
  // DFG operand referencing a later op is rejected.
  EXPECT_EQ(decode_err("{\"cmd\":\"select\",\"area_budget\":2,\"tasks\":["
                       "{\"name\":\"t\",\"period\":9,\"dfg\":["
                       "{\"op\":\"not\",\"in\":[1]},"
                       "{\"op\":\"input\",\"in\":[]}]}]}").code,
            ErrorCode::kBadRequest);
}

// --- cache -------------------------------------------------------------------

rt::TaskSet tiny_taskset() {
  rt::TaskSet ts;
  ts.tasks.push_back(rt::Task{"a", 100, {{0, 50}, {2, 25}}});
  ts.tasks.push_back(rt::Task{"b", 200, {{0, 80}, {3, 40}}});
  return ts;
}

TEST(ServeCache, KeyCoversAnswerDeterminingInputs) {
  const rt::TaskSet ts = tiny_taskset();
  const auto base = select_cache_key(ts, 3.0, rt::Policy::kEdf, 1.0, 1000,
                                     1 << 20, false, 0);
  EXPECT_EQ(base, select_cache_key(ts, 3.0, rt::Policy::kEdf, 1.0, 1000,
                                   1 << 20, false, 0));
  EXPECT_NE(base, select_cache_key(ts, 2.0, rt::Policy::kEdf, 1.0, 1000,
                                   1 << 20, false, 0));
  EXPECT_NE(base, select_cache_key(ts, 3.0, rt::Policy::kRms, 1.0, 1000,
                                   1 << 20, false, 0));
  EXPECT_NE(base, select_cache_key(ts, 3.0, rt::Policy::kEdf, 1.0, 999,
                                   1 << 20, false, 0));
  EXPECT_NE(base, select_cache_key(ts, 3.0, rt::Policy::kEdf, 1.0, 1000,
                                   1 << 20, false, 1));  // shed rung
  rt::TaskSet ts2 = tiny_taskset();
  ts2.tasks[1].configs[1].cycles = 41;  // one curve point changed
  EXPECT_NE(base, select_cache_key(ts2, 3.0, rt::Policy::kEdf, 1.0, 1000,
                                   1 << 20, false, 0));
}

TEST(ServeCache, LruEvictionAndPoison) {
  CacheOptions co;
  co.max_entries = 2;
  ResultCache cache(co);
  ResultCache::Entry e;
  e.result_json = "{}";
  cache.insert(1, e);
  cache.insert(2, e);
  EXPECT_NE(cache.find(1), nullptr);  // touch 1 -> 2 becomes LRU
  cache.insert(3, e);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.find(2), nullptr);  // evicted
  EXPECT_EQ(cache.evictions(), 1u);
  cache.erase(1);
  EXPECT_EQ(cache.poisoned(), 1u);
  cache.erase(99);  // absent: not counted
  EXPECT_EQ(cache.poisoned(), 1u);
}

select::Config cfg(double area, double cycles) { return {area, cycles}; }

CurveCache::Entry curve_entry(std::string key,
                              std::vector<select::Config> points,
                              long nodes = 0) {
  return CurveCache::Entry{std::move(key), std::move(points), nodes, 0};
}

TEST(ServeCurveCache, LruBoundAndByteAccounting) {
  CacheOptions co;
  co.max_entries = 2;
  CurveCache memo(co);
  const auto a = curve_entry("a", {cfg(0, 90), cfg(1, 60)});
  const auto b = curve_entry("bb", {cfg(0, 90)});
  const auto c = curve_entry("ccc", {cfg(0, 90), cfg(2, 50), cfg(3, 40)});
  memo.insert(1, a);
  memo.insert(2, b);
  EXPECT_EQ(memo.bytes(), a.bytes() + b.bytes());
  robust::Budget budget;
  EXPECT_NE(memo.reuse(1, "a", 90, budget), nullptr);  // 2 becomes LRU
  memo.insert(3, c);
  EXPECT_EQ(memo.entries(), 2u);
  EXPECT_EQ(memo.evictions(), 1u);
  EXPECT_EQ(memo.bytes(), a.bytes() + c.bytes());
  EXPECT_EQ(memo.reuse(2, "bb", 90, budget), nullptr);  // evicted
  EXPECT_EQ(a.bytes(), 1 + 2 * sizeof(select::Config));

  // The byte bound evicts too, but always keeps the newest entry.
  co.max_entries = 100;
  co.max_bytes = a.bytes() + b.bytes();
  CurveCache small(co);
  small.insert(1, a);
  small.insert(2, b);
  EXPECT_EQ(small.evictions(), 0u);
  small.insert(3, c);
  EXPECT_EQ(small.entries(), 1u);
  EXPECT_EQ(small.bytes(), c.bytes());
}

TEST(ServeCurveCache, CorruptedPointsArePoisonedAndRebuilt) {
  CurveCache memo{CacheOptions{}};
  robust::Budget budget;
  // Each breaks one invariant: nonzero first area, wrong software cycles,
  // descending area, non-descending cycles, NaN.
  const std::vector<std::vector<select::Config>> corrupt = {
      {cfg(1, 100), cfg(2, 50)},
      {cfg(0, 99), cfg(2, 50)},
      {cfg(0, 100), cfg(3, 60), cfg(2, 50)},
      {cfg(0, 100), cfg(2, 50), cfg(3, 50)},
      {cfg(0, 100), cfg(std::nan(""), 50)},
  };
  for (std::size_t i = 0; i < corrupt.size(); ++i) {
    memo.insert(5, curve_entry("k", corrupt[i], 10));
    EXPECT_EQ(memo.reuse(5, "k", 100, budget), nullptr) << i;
    EXPECT_EQ(memo.poisoned(), i + 1);
    EXPECT_EQ(memo.entries(), 0u);
  }
  EXPECT_EQ(memo.misses(), corrupt.size());
  EXPECT_EQ(budget.report().nodes_charged, 0);  // nothing replayed

  // The rebuilt curve is stored again and served, with its cost replayed.
  memo.insert(5, curve_entry("k", {cfg(0, 100), cfg(2, 50)}, 10));
  const auto* points = memo.reuse(5, "k", 100, budget);
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->size(), 2u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(budget.report().nodes_charged, 10);
}

TEST(ServeCurveCache, DistinctKeysOnOneHashBucketStayCorrect) {
  // Two different DFGs forced onto one hash: the full key bytes decide.
  auto program = [](ir::Opcode op) {
    ir::Program prog("p");
    const int b = prog.add_block("b0");
    ir::Dfg& dfg = prog.block(b).dfg;
    const auto x = dfg.add(ir::Opcode::kInput);
    const auto y = dfg.add(ir::Opcode::kInput);
    dfg.mark_live_out(dfg.add(op, {x, y}));
    prog.set_root(prog.stmt_block(b));
    return prog;
  };
  const auto& lib = hw::CellLibrary::standard_018um();
  const select::CurveOptions co;
  const std::string ka = curve_key(program(ir::Opcode::kAdd), {1}, lib, co);
  const std::string kx = curve_key(program(ir::Opcode::kXor), {1}, lib, co);
  ASSERT_NE(ka, kx);
  EXPECT_EQ(ka, curve_key(program(ir::Opcode::kAdd), {1}, lib, co));
  EXPECT_NE(ka, curve_key(program(ir::Opcode::kAdd), {2}, lib, co));
  EXPECT_NE(ka, curve_key(program(ir::Opcode::kAdd), {1}, lib,
                          select::inline_dfg_curve_options()));

  CurveCache memo{CacheOptions{}};
  robust::Budget budget;
  memo.insert(42, curve_entry(ka, {cfg(0, 3), cfg(1, 2)}));
  EXPECT_EQ(memo.reuse(42, kx, 3, budget), nullptr);  // collision: a miss
  memo.insert(42, curve_entry(kx, {cfg(0, 3), cfg(2, 1)}));
  const auto* x = memo.reuse(42, kx, 3, budget);
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->back().area, 2);
  EXPECT_EQ(memo.reuse(42, ka, 3, budget), nullptr);  // replaced, not mixed
  memo.insert(42, curve_entry(ka, {cfg(0, 3), cfg(1, 2)}));
  const auto* a = memo.reuse(42, ka, 3, budget);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->back().area, 1);
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.poisoned(), 0u);
}

TEST(ServeCurveCache, ReplayRefusedWhenTheBudgetCannotTakeIt) {
  CurveCache memo{CacheOptions{}};
  CurveCache::Entry e = curve_entry("k", {cfg(0, 100), cfg(2, 50)}, 150);
  e.mem_peak_bytes = 4096;
  memo.insert(1, e);

  robust::Budget nodes;
  nodes.set_node_budget(100);
  EXPECT_EQ(memo.reuse(1, "k", 100, nodes), nullptr);
  robust::Budget mem;
  mem.set_mem_budget(4000);
  EXPECT_EQ(memo.reuse(1, "k", 100, mem), nullptr);
  EXPECT_EQ(memo.replay_refused(), 2u);
  EXPECT_FALSE(nodes.report().exhausted());  // nothing charged or refused
  EXPECT_EQ(nodes.report().nodes_charged, 0);
  EXPECT_FALSE(mem.report().mem_exhausted);

  // Exactly enough room: the replay charges the nodes and the memory peak.
  robust::Budget fits;
  fits.set_node_budget(150);
  fits.set_mem_budget(4096);
  ASSERT_NE(memo.reuse(1, "k", 100, fits), nullptr);
  const robust::BudgetReport r = fits.report();
  EXPECT_EQ(r.nodes_charged, 150);
  EXPECT_EQ(r.mem_peak_bytes, 4096u);
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(fits.mem_current(), 0u);
  EXPECT_EQ(memo.hits(), 1u);
}

// --- server: in-process handle_line ------------------------------------------

// Inline-task selects keep these tests independent of the benchmark curve
// cache (no multi-second cold curve builds inside unit tests).
std::string inline_select(const std::string& id, double area = 3.0) {
  return "{\"id\":\"" + id + "\",\"cmd\":\"select\",\"area_budget\":" +
         json_number(area) +
         ",\"tasks\":[{\"name\":\"t0\",\"period\":100,\"configs\":"
         "[[0,50],[2,25]]},{\"name\":\"t1\",\"period\":200,\"configs\":"
         "[[0,80],[1,60],[3,40]]}],\"node_budget\":50000}";
}

TEST(ServeServer, PingStatsAndErrors) {
  Server server{ServerOptions{}};
  const std::string pong = server.handle_line("{\"id\":\"p\",\"cmd\":\"ping\"}");
  EXPECT_NE(pong.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(pong.find("\"id\":\"p\""), std::string::npos);
  EXPECT_NE(server.handle_line("{\"cmd\":\"stats\"}").find("\"cmd\":\"stats\""),
            std::string::npos);
  const std::string err = server.handle_line("{{{");
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(err.find("parse_error"), std::string::npos);
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST(ServeServer, SelectIsCertifiedAndCacheHitsAreByteIdentical) {
  Server server{ServerOptions{}};
  const std::string cold = server.handle_line(inline_select("c1"));
  ASSERT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(cold.find("\"certificate\":{\"ok\":true"), std::string::npos);

  const std::string hit = server.handle_line(inline_select("c2"));
  ASSERT_NE(hit.find("\"cache\":\"hit\""), std::string::npos) << hit;
  // The stable `result` object (the tail of the envelope) is byte-identical.
  const auto tail = [](const std::string& s) {
    const std::size_t p = s.find("\"result\":");
    EXPECT_NE(p, std::string::npos);
    return s.substr(p);
  };
  EXPECT_EQ(tail(cold), tail(hit));
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.cache().hits(), 1u);
}

TEST(ServeServer, DeepQueueShedsToDegradedRung) {
  ServerOptions so;
  so.shed1_depth = 2;
  so.shed2_depth = 4;
  Server server{so};
  const std::string calm = server.handle_line(inline_select("a"), 0);
  EXPECT_NE(calm.find("\"shed_rung\":0"), std::string::npos);
  EXPECT_NE(calm.find("\"status\":\"Exact\""), std::string::npos);
  const std::string shed = server.handle_line(inline_select("b"), 3);
  EXPECT_NE(shed.find("\"shed_rung\":1"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"status\":\"Degraded\""), std::string::npos);
  EXPECT_NE(shed.find("\"certificate\":{\"ok\":true"), std::string::npos);
  const std::string shed2 = server.handle_line(inline_select("c"), 5);
  EXPECT_NE(shed2.find("\"shed_rung\":2"), std::string::npos);
  EXPECT_GE(server.stats().shed_demotions, 2u);
  // Shed results live under different cache keys than exact ones.
  EXPECT_EQ(server.stats().cache_hits, 0u);
}

TEST(ServeServer, IsolationTurnsInternalFaultsIntoResponses) {
  Server server{ServerOptions{}};
  // A structurally valid request whose task set fails validation deep in the
  // library (period fine, but configs not starting at area 0).
  const std::string r = server.handle_line(
      "{\"id\":\"z\",\"cmd\":\"select\",\"area_budget\":1,\"tasks\":["
      "{\"name\":\"t\",\"period\":10,\"configs\":[[1,5]]}]}");
  EXPECT_NE(r.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(r.find("\"id\":\"z\""), std::string::npos);
}

TEST(ServeServer, ExtremeAreasAnswerWithoutOversizingTheDp) {
  Server server{ServerOptions{}};
  // Config areas near the double range: the DP cannot size a table for
  // them, so the ladder answers from a lower rung instead of overflowing.
  const std::string huge = server.handle_line(
      "{\"id\":\"h\",\"cmd\":\"select\",\"policy\":\"edf\","
      "\"budget_fraction\":0.5,\"tasks\":["
      "{\"name\":\"t0\",\"period\":1000,\"configs\":[[0,900],[1e300,500]]},"
      "{\"name\":\"t1\",\"period\":1000,\"configs\":[[0,500],[1e300,100]]}]}");
  EXPECT_NE(huge.find("\"ok\":true"), std::string::npos) << huge;
  // A budget far past the tasks' total area sizes the table by that area
  // and solves exactly, as a budget just above it does.
  const std::string wide = server.handle_line(
      "{\"id\":\"w\",\"cmd\":\"select\",\"policy\":\"edf\","
      "\"area_budget\":1e9,\"tasks\":["
      "{\"name\":\"t0\",\"period\":1000,\"configs\":[[0,900],[2,500]]},"
      "{\"name\":\"t1\",\"period\":1000,\"configs\":[[0,500],[3,100]]}]}");
  EXPECT_NE(wide.find("\"ok\":true"), std::string::npos) << wide;
  EXPECT_NE(wide.find("\"status\":\"Exact\""), std::string::npos) << wide;
}

// --- server: the inline-DFG curve memo --------------------------------------

/// A seeded random single-block DFG as an inline "dfg" array: four live-ins,
/// then `ops` CI-valid operations over nearby earlier values.
std::string random_dfg(std::uint64_t seed, int ops) {
  static const char* const kOps[] = {"add", "sub", "mul", "and", "or",
                                     "xor", "shl", "shr", "not"};
  util::Rng rng(seed);
  std::string s = "[";
  const int inputs = 4;
  for (int i = 0; i < inputs; ++i) s += "{\"op\":\"input\"},";
  for (int i = inputs; i < inputs + ops; ++i) {
    const std::string op = kOps[rng.uniform_int(0, 8)];
    const int arity = op == "not" ? 1 : 2;
    s += "{\"op\":\"" + op + "\",\"in\":[";
    for (int k = 0; k < arity; ++k)
      s += (k ? "," : "") +
           std::to_string(rng.uniform_int(std::max(0, i - 6), i - 1));
    s += i + 1 < inputs + ops ? "]}," : "]}";
  }
  return s + "]";
}

/// A select over inline DFG tasks (one per entry of `dfgs`).
std::string dfg_select(const std::string& id,
                       const std::vector<std::string>& dfgs,
                       const std::vector<double>& periods, const char* policy,
                       double budget_fraction, long node_budget) {
  std::string r = "{\"id\":\"" + id + "\",\"cmd\":\"select\",\"policy\":\"" +
                  policy + "\",\"budget_fraction\":" +
                  json_number(budget_fraction) +
                  ",\"node_budget\":" + std::to_string(node_budget) +
                  ",\"tasks\":[";
  for (std::size_t t = 0; t < dfgs.size(); ++t)
    r += (t ? "," : "") + std::string("{\"name\":\"t") + std::to_string(t) +
         "\",\"period\":" + json_number(periods[t]) + ",\"dfg\":" + dfgs[t] +
         "}";
  return r + "]}";
}

/// The response without the fields that legitimately differ between a
/// long-lived server and a fresh one: rid, cache flag, queue depth, time.
std::string strip_volatile(std::string s) {
  for (const char* field :
       {"\"rid\":", "\"cache\":", "\"queue_depth\":", "\"elapsed_ms\":"}) {
    const std::size_t p = s.find(field);
    if (p == std::string::npos) continue;
    s.erase(p, s.find(',', p) - p + 1);
  }
  return s;
}

/// No wall-clock limit, so only deterministic budgets shape the answers.
ServerOptions untimed() {
  ServerOptions so;
  so.default_time_budget_seconds = 0;
  return so;
}

/// The `curve_cache` object of the server's `stats` response.
Json curve_cache_stats(Server& server) {
  JsonParseResult pr =
      json_parse(server.handle_line("{\"id\":\"s\",\"cmd\":\"stats\"}"));
  EXPECT_TRUE(pr.ok()) << pr.error;
  const Json* result = pr.value.find("result");
  const Json* cc = result ? result->find("curve_cache") : nullptr;
  EXPECT_NE(cc, nullptr);
  return cc ? *cc : Json{};
}

double stat(const Json& j, const char* name) {
  const Json* v = j.find(name);
  EXPECT_NE(v, nullptr) << name;
  return v ? v->as_number() : -1;
}

TEST(ServeCurveMemo, ResponsesEqualAFreshServerPerRequest) {
  // A stream reusing four DFGs under varied periods, policies, area shares
  // and node budgets (20000 and 3000 truncate identification): each answer
  // from one long-lived server equals a fresh server's, `nodes` included.
  const std::vector<std::string> dfgs = {random_dfg(1, 30), random_dfg(2, 60),
                                         random_dfg(3, 45), random_dfg(4, 80)};
  const long node_budgets[] = {2'000'000, 20'000, 3'000};
  const char* const policies[] = {"edf", "rms"};
  const double fractions[] = {0.1, 0.3, 0.6};
  util::Rng rng(19);
  Server shared{untimed()};
  int exact = 0, truncated = 0;
  for (int i = 0; i < 30; ++i) {
    const int ntasks = i % 3 == 2 ? 2 : 1;
    std::vector<std::string> task_dfgs;
    std::vector<double> periods;
    for (int t = 0; t < ntasks; ++t) {
      task_dfgs.push_back(dfgs[static_cast<std::size_t>(rng.uniform_int(0, 3))]);
      periods.push_back(rng.uniform_int(20, 400));
    }
    const std::string req = dfg_select(
        "d" + std::to_string(i), task_dfgs, periods, policies[rng.uniform_int(0, 1)],
        fractions[rng.uniform_int(0, 2)], node_budgets[rng.uniform_int(0, 2)]);
    const std::string got = shared.handle_line(req);
    Server fresh{untimed()};
    const std::string want = fresh.handle_line(req);
    ASSERT_NE(got.find("\"ok\":true"), std::string::npos) << got;
    EXPECT_EQ(strip_volatile(got), strip_volatile(want)) << req;
    (got.find("\"status\":\"Exact\"") != std::string::npos ? exact : truncated)++;
  }
  EXPECT_GT(exact, 0);
  EXPECT_GT(truncated, 0);
  const Json cc = curve_cache_stats(shared);
  EXPECT_GT(stat(cc, "hits"), 0);
  EXPECT_GT(stat(cc, "replay_refused"), 0);
  EXPECT_EQ(stat(cc, "poisoned"), 0);
}

TEST(ServeCurveMemo, EachDfgIsIdentifiedOncePerServer) {
  const std::string dfg = random_dfg(7, 40);
  const char* const policies[] = {"edf", "rms"};
  auto request = [&](int i) {
    return dfg_select("r" + std::to_string(i), {dfg}, {100.0 + 10 * i},
                      policies[i % 2], 0.2 + 0.1 * i, 2'000'000);
  };
#if ISEX_OBS_ENABLED
  auto& calls = obs::Registry::global().counter("ise.enum.calls");
  const auto calls0 = calls.get();
#endif
  constexpr int kRequests = 5;
  Server server{untimed()};
  for (int i = 0; i < kRequests; ++i)
    ASSERT_NE(server.handle_line(request(i)).find("\"ok\":true"),
              std::string::npos);
  const Json cc = curve_cache_stats(server);
  EXPECT_EQ(stat(cc, "misses"), 1);
  EXPECT_EQ(stat(cc, "hits"), kRequests - 1);
  EXPECT_EQ(stat(cc, "entries"), 1);
  EXPECT_GT(stat(cc, "bytes"), 0);
  EXPECT_EQ(stat(cc, "replay_refused"), 0);
#if ISEX_OBS_ENABLED
  EXPECT_EQ(calls.get() - calls0, 1u);  // one connected enumeration
#endif

  // The memo belongs to one Server: a new one starts cold.
  Server other{untimed()};
  ASSERT_NE(other.handle_line(request(0)).find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(stat(curve_cache_stats(other), "misses"), 1);
#if ISEX_OBS_ENABLED
  EXPECT_EQ(calls.get() - calls0, 2u);
#endif

  // A paranoid request bypasses the memo and identifies cold.
  const std::string paranoid = request(1).insert(1, "\"paranoid\":true,");
  ASSERT_NE(server.handle_line(paranoid).find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(stat(curve_cache_stats(server), "hits"), kRequests - 1);
#if ISEX_OBS_ENABLED
  EXPECT_EQ(calls.get() - calls0, 3u);
#endif
}

TEST(ServeCurveMemo, ReplayRefusedRebuildsColdAndTruncates) {
  // The stored build charged more nodes than the later request allows, so
  // the memo must not answer it: identification truncates as it would cold.
  const std::string dfg = random_dfg(11, 80);
  Server server{untimed()};
  const std::string full =
      server.handle_line(dfg_select("a", {dfg}, {300}, "edf", 0.5, 2'000'000));
  ASSERT_NE(full.find("\"status\":\"Exact\""), std::string::npos) << full;
  const std::string starved = dfg_select("b", {dfg}, {300}, "edf", 0.5, 3'000);
  const std::string got = server.handle_line(starved);
  Server fresh{untimed()};
  EXPECT_EQ(strip_volatile(got), strip_volatile(fresh.handle_line(starved)));
  EXPECT_EQ(got.find("\"status\":\"Exact\""), std::string::npos) << got;
  const Json cc = curve_cache_stats(server);
  EXPECT_EQ(stat(cc, "replay_refused"), 1);
  EXPECT_EQ(stat(cc, "hits"), 0);
  EXPECT_EQ(stat(cc, "entries"), 1);  // the full curve stays stored
}

// --- server: pipe-driven integration ----------------------------------------

/// Runs a request stream through Server::run over real pipes and returns the
/// response lines.
std::vector<std::string> run_over_pipe(Server& server,
                                       const std::vector<std::string>& reqs,
                                       int* rc_out = nullptr) {
  int in[2], out[2];
  EXPECT_EQ(::pipe(in), 0);
  EXPECT_EQ(::pipe(out), 0);
  std::string payload;
  for (const auto& r : reqs) payload += r + "\n";
  // Writer thread: pipes have finite capacity and the server may block on
  // writes if we don't drain concurrently.
  std::thread writer([&] {
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n =
          ::write(in[1], payload.data() + off, payload.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(in[1]);
  });
  std::string blob;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(out[0], buf, sizeof buf);
      if (n <= 0) break;
      blob.append(buf, static_cast<std::size_t>(n));
    }
  });
  const int rc = server.run(in[0], out[1]);
  ::close(out[1]);
  ::close(in[0]);
  writer.join();
  reader.join();
  ::close(out[0]);
  if (rc_out != nullptr) *rc_out = rc;

  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = blob.find('\n'); nl != std::string::npos;
       nl = blob.find('\n', start)) {
    lines.push_back(blob.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(ServeServer, PipeStreamInOrderMixedTraffic) {
  Server server{ServerOptions{}};
  std::vector<std::string> reqs;
  for (int i = 0; i < 12; ++i) {
    switch (i % 4) {
      case 0: reqs.push_back(inline_select("q" + std::to_string(i))); break;
      case 1: reqs.push_back("{\"id\":\"q" + std::to_string(i) +
                             "\",\"cmd\":\"ping\"}"); break;
      case 2: reqs.push_back("broken json " + std::to_string(i)); break;
      default:  // over-budget: starvation node budget, still answered
        reqs.push_back("{\"id\":\"q" + std::to_string(i) +
                       "\",\"cmd\":\"select\",\"area_budget\":3,\"tasks\":["
                       "{\"name\":\"t0\",\"period\":100,\"configs\":"
                       "[[0,50],[2,25]]}],\"node_budget\":1}");
    }
  }
  int rc = -1;
  const auto lines = run_over_pipe(server, reqs, &rc);
  EXPECT_EQ(rc, 0);
  ASSERT_EQ(lines.size(), reqs.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % 4 == 2) {
      EXPECT_NE(lines[i].find("parse_error"), std::string::npos) << lines[i];
    } else {
      // Response i correlates to request i: in-order responses.
      EXPECT_NE(lines[i].find("\"id\":\"q" + std::to_string(i) + "\""),
                std::string::npos)
          << lines[i];
    }
    // Every successful select carries a passing certificate.
    if (lines[i].find("\"cmd\":\"select\"") != std::string::npos &&
        lines[i].find("\"ok\":true") != std::string::npos)
      EXPECT_NE(lines[i].find("\"certificate\":{\"ok\":true"),
                std::string::npos)
          << lines[i];
  }
}

TEST(ServeServer, AdmissionControlRejectsInOrder) {
  ServerOptions so;
  so.queue_capacity = 2;
  Server server{so};
  std::vector<std::string> reqs;
  for (int i = 0; i < 10; ++i)
    reqs.push_back(inline_select("q" + std::to_string(i)));
  const auto lines = run_over_pipe(server, reqs);
  ASSERT_EQ(lines.size(), reqs.size());
  std::size_t overloads = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"id\":\"q" + std::to_string(i) + "\""),
              std::string::npos)
        << "out of order at " << i << ": " << lines[i];
    if (lines[i].find("\"code\":\"overload\"") != std::string::npos) {
      ++overloads;
      EXPECT_NE(lines[i].find("\"retry_after_ms\":"), std::string::npos);
    }
  }
  // The whole burst lands before the first solve: capacity 2 admits the
  // head, the rest must be rejected (shed, never queued unboundedly).
  EXPECT_GE(overloads, 1u);
  EXPECT_EQ(server.stats().rejected_overload, overloads);
  EXPECT_LE(server.stats().accepted, 10u - overloads + 1);
}

TEST(ServeServer, OversizedLineGetsTooLargeAndStreamRecovers) {
  ServerOptions so;
  so.limits.max_request_bytes = 256;
  Server server{so};
  std::string huge = "{\"id\":\"big\",\"cmd\":\"ping\",\"pad\":\"";
  huge.append(2000, 'x');
  huge += "\"}";
  const auto lines = run_over_pipe(
      server, {huge, "{\"id\":\"after\",\"cmd\":\"ping\"}"});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("too_large"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
}

TEST(ServeServer, VanishingClientIsAWriteErrorNotSigpipe) {
  // A client that queues requests and disappears without reading a byte
  // must surface as a failed write (rc 2), never as SIGPIPE killing the
  // daemon: install_signal_handlers ignores SIGPIPE and write_all_fd sends
  // with MSG_NOSIGNAL on sockets.
  install_signal_handlers();
  consume_pending_signal();
  robust::clear_global_cancel();

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Server server{ServerOptions{}};
  std::string payload;
  for (int i = 0; i < 4; ++i)
    payload += inline_select("v" + std::to_string(i)) + "\n";
  ASSERT_EQ(::write(sv[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  ::close(sv[1]);  // the client is gone before any response exists
  EXPECT_EQ(server.run(sv[0], sv[0]), 2);
  ::close(sv[0]);

  // Same, but the client only half-closes: it shuts down its read side and
  // keeps the socket open. Responses still have nowhere to go.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::write(sv[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  ::shutdown(sv[1], SHUT_RD);
  ::shutdown(sv[1], SHUT_WR);  // and EOF on the request side
  EXPECT_EQ(server.run(sv[0], sv[0]), 2);
  ::close(sv[0]);
  ::close(sv[1]);

  // The server object survives the dead streams and serves the next one.
  const auto lines = run_over_pipe(server, {inline_select("again")});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
}

TEST(ServeServer, UnixSocketServesAndDrainsOnSignal) {
  // End-to-end over AF_UNIX, shut down by a real SIGTERM: the accept loop
  // exits, the socket file is removed, and the signal machinery is left
  // clean for the rest of the test binary.
  install_signal_handlers();
  consume_pending_signal();
  robust::clear_global_cancel();

  const std::string path = "/tmp/isex_serve_test_" +
                           std::to_string(::getpid()) + ".sock";
  Server server{ServerOptions{}};
  std::thread srv([&] { run_unix_socket(server, path); });

  int fd = -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int tries = 0; tries < 100; ++tries) {  // wait for bind
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      break;
    ::close(fd);
    fd = -1;
    ::usleep(20000);
  }
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  const std::string req = "{\"id\":\"sock\",\"cmd\":\"ping\"}\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  ::shutdown(fd, SHUT_WR);
  std::string resp;
  char buf[1024];
  for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  EXPECT_NE(resp.find("\"id\":\"sock\""), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos);

  ::raise(SIGTERM);
  srv.join();
  EXPECT_EQ(consume_pending_signal(), SIGTERM);
  robust::clear_global_cancel();
  EXPECT_NE(::unlink(path.c_str()), 0);  // already removed by the server
}

TEST(ServeSignals, RepeatOfTheSameSignalIsOneRequest) {
  // `timeout` signals the process and then its process group, so one
  // SIGTERM can arrive twice: the repeat must not hard-exit. A different
  // signal afterwards is a second request and still does.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    install_signal_handlers();
    consume_pending_signal();
    ::kill(::getpid(), SIGTERM);
    ::kill(::getpid(), SIGTERM);
    if (pending_signal() != SIGTERM) ::_exit(3);
    ::kill(::getpid(), SIGINT);
    ::_exit(4);  // not reached: SIGINT hard-exits 128+SIGINT
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGINT);
}

}  // namespace
}  // namespace isex::serve
