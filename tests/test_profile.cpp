// Tests for the performance-attribution layer added on top of the
// tracer: Profile aggregation (self/total time, folded stacks, thread
// balance), the JSON reader the bench tools are built on, the leaf
// sampler, and the median-of-k BenchReport plumbing the regression gate
// consumes. GEP_OBS=1 only where noted; the JsonValue reader is always
// compiled.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "parallel/task_graph.hpp"
#include "matrix/matrix.hpp"
#include "obs/obs.hpp"
#include "parallel/work_stealing.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

using obs::JsonValue;

// --- JsonValue reader (always compiled) -----------------------------------

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(JsonValue::parse(text, &v, &err)) << err;
  return v;
}

bool parse_fails(const std::string& text) {
  JsonValue v;
  std::string err;
  return !JsonValue::parse(text, &v, &err);
}

TEST(JsonRead, Scalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_EQ(parse_ok("42").as_int(), 42);
  EXPECT_EQ(parse_ok("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(parse_ok("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_ok("  [1, 2]  ").size(), 2u);
}

TEST(JsonRead, NestedLookup) {
  const JsonValue v = parse_ok(
      R"({"a": {"b": [10, {"c": "deep"}]}, "n": 3.5})");
  EXPECT_EQ(v["a"]["b"][1]["c"].as_string(), "deep");
  EXPECT_EQ(v["a"]["b"][0].as_int(), 10);
  EXPECT_DOUBLE_EQ(v["n"].as_double(), 3.5);
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("z"));
  // Missing keys / wrong types degrade to the null value, not UB.
  EXPECT_TRUE(v["z"]["nested"].is_null());
  EXPECT_EQ(v["z"].as_double(), 0.0);
  EXPECT_EQ(v["n"].as_string(), "");
}

TEST(JsonRead, StringEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(parse_ok(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse_ok(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  // Raw UTF-8 passes through untouched.
  EXPECT_EQ(parse_ok("\"caf\xc3\xa9\"").as_string(), "caf\xc3\xa9");
}

TEST(JsonRead, RejectsMalformedInput) {
  EXPECT_TRUE(parse_fails(""));
  EXPECT_TRUE(parse_fails("{"));
  EXPECT_TRUE(parse_fails("[1,]"));
  EXPECT_TRUE(parse_fails("{\"a\":}"));
  EXPECT_TRUE(parse_fails("{\"a\" 1}"));
  EXPECT_TRUE(parse_fails("tru"));
  EXPECT_TRUE(parse_fails("1 2"));            // trailing garbage
  EXPECT_TRUE(parse_fails("\"\\x41\""));      // bad escape
  EXPECT_TRUE(parse_fails("\"\\ud83d\""));    // lone high surrogate
  EXPECT_TRUE(parse_fails("\"a\nb\""));       // raw control char
  EXPECT_TRUE(parse_fails("\"unterminated"));
}

TEST(JsonRead, DeepNestingCapped) {
  std::string deep(200, '[');
  deep += "1";
  deep.append(200, ']');
  EXPECT_FALSE(parse_fails(deep));  // 200 < cap
  std::string too_deep(300, '[');
  too_deep += "1";
  too_deep.append(300, ']');
  EXPECT_TRUE(parse_fails(too_deep));  // 300 > cap (256)
}

TEST(JsonRead, RoundTripsJsonWriterOutput) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("name", "tab\there \"quoted\"");
  w.kv("count", std::uint64_t{18446744073709551615ull});
  w.kv("x", -0.125);
  w.end_object();
  const JsonValue v = parse_ok(os.str());
  EXPECT_EQ(v["name"].as_string(), "tab\there \"quoted\"");
  EXPECT_DOUBLE_EQ(v["count"].as_double(), 18446744073709551615.0);
  EXPECT_DOUBLE_EQ(v["x"].as_double(), -0.125);
}

#if GEP_OBS

// --- Profile aggregation over synthetic traces ----------------------------

obs::TraceEvent ev(char kind, int depth, std::uint64_t t0, std::uint64_t t1,
                   std::uint32_t m) {
  obs::TraceEvent e;
  e.kind = kind;
  e.depth = static_cast<std::uint16_t>(depth);
  e.t0_ns = t0;
  e.t1_ns = t1;
  e.m = m;
  return e;
}

std::map<std::string, const obs::ProfileEntry*> by_key(
    const obs::Profile& p) {
  std::map<std::string, const obs::ProfileEntry*> out;
  for (const obs::ProfileEntry& e : p.entries())
    out[std::string(1, e.kind) + "@" + std::to_string(e.depth)] = &e;
  return out;
}

TEST(Profile, SelfTimeExcludesNestedChildren) {
  obs::ThreadTrace t;
  t.tid = 0;
  // A[0,1000] encloses B[100,400] and D[500,600]; recorded out of order
  // (the tracer appends at span *end*, children first).
  t.events.push_back(ev('B', 1, 100, 400, 32));
  t.events.push_back(ev('D', 1, 500, 600, 32));
  t.events.push_back(ev('A', 0, 0, 1000, 64));
  const obs::Profile p = obs::Profile::from_traces({t});

  EXPECT_EQ(p.wall_ns(), 1000u);
  EXPECT_EQ(p.attributed_ns(), 1000u);  // one root span
  EXPECT_DOUBLE_EQ(p.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(p.imbalance(), 1.0);

  const auto m = by_key(p);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at("A@0")->calls, 1u);
  EXPECT_EQ(m.at("A@0")->total_ns, 1000u);
  EXPECT_EQ(m.at("A@0")->self_ns, 600u);  // 1000 - 300 - 100
  EXPECT_DOUBLE_EQ(m.at("A@0")->mean_m, 64.0);
  EXPECT_EQ(m.at("B@1")->total_ns, 300u);
  EXPECT_EQ(m.at("B@1")->self_ns, 300u);
  EXPECT_EQ(m.at("D@1")->total_ns, 100u);
  EXPECT_EQ(m.at("D@1")->self_ns, 100u);

  ASSERT_EQ(p.threads().size(), 1u);
  EXPECT_EQ(p.threads()[0].busy_ns, 1000u);
  EXPECT_DOUBLE_EQ(p.threads()[0].busy_fraction, 1.0);
}

TEST(Profile, FoldedStacksMatchKnownTree) {
  obs::ThreadTrace t;
  t.tid = 3;
  t.events.push_back(ev('B', 1, 100, 400, 32));
  t.events.push_back(ev('A', 0, 0, 1000, 64));
  const obs::Profile p = obs::Profile::from_traces({t});
  const std::string folded = p.folded();
  // One line per distinct path, flamegraph.pl format: the count is the
  // final space-separated token.
  EXPECT_NE(folded.find("t3;A m=64 700\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("t3;A m=64;B m=32 300\n"), std::string::npos)
      << folded;
  // Prefix variant used by the bench reporter.
  const std::string pf = p.folded("fig;label");
  EXPECT_NE(pf.find("fig;label;t3;A m=64 700\n"), std::string::npos) << pf;
}

TEST(Profile, SiblingSpansAreNotNested) {
  obs::ThreadTrace t;
  t.tid = 0;
  // Two same-depth roots back to back: the second must not be treated
  // as a child of the first (equal boundary timestamps).
  t.events.push_back(ev('A', 0, 0, 500, 64));
  t.events.push_back(ev('D', 0, 500, 900, 64));
  const obs::Profile p = obs::Profile::from_traces({t});
  const auto m = by_key(p);
  EXPECT_EQ(m.at("A@0")->self_ns, 500u);
  EXPECT_EQ(m.at("D@0")->self_ns, 400u);
  EXPECT_EQ(p.attributed_ns(), 900u);
  EXPECT_EQ(p.wall_ns(), 900u);
}

TEST(Profile, IdenticalIntervalNestsByDepth) {
  obs::ThreadTrace t;
  t.tid = 0;
  // A zero-width parent/child pair with identical timestamps: depth
  // breaks the tie, so the child attributes under the parent instead of
  // becoming a second root.
  t.events.push_back(ev('B', 1, 100, 200, 32));
  t.events.push_back(ev('A', 0, 100, 200, 64));
  const obs::Profile p = obs::Profile::from_traces({t});
  const auto m = by_key(p);
  EXPECT_EQ(m.at("A@0")->self_ns, 0u);
  EXPECT_EQ(m.at("B@1")->self_ns, 100u);
  EXPECT_EQ(p.attributed_ns(), 100u);  // only the depth-0 span is a root
}

TEST(Profile, MultiThreadBalanceAndCoverage) {
  obs::ThreadTrace t0, t1;
  t0.tid = 0;
  t0.events.push_back(ev('A', 0, 0, 1000, 64));
  t1.tid = 1;
  t1.events.push_back(ev('C', 0, 0, 500, 64));
  const obs::Profile p = obs::Profile::from_traces({t0, t1});
  EXPECT_EQ(p.wall_ns(), 1000u);
  EXPECT_EQ(p.attributed_ns(), 1500u);
  EXPECT_DOUBLE_EQ(p.coverage(), 0.75);           // 1500 / (1000 * 2)
  EXPECT_DOUBLE_EQ(p.imbalance(), 1000.0 / 750);  // max / mean busy
  ASSERT_EQ(p.threads().size(), 2u);
}

TEST(Profile, DroppedCountSurvivesAggregation) {
  obs::ThreadTrace t;
  t.tid = 0;
  t.dropped = 7;
  t.events.push_back(ev('A', 0, 0, 10, 8));
  const obs::Profile p = obs::Profile::from_traces({t});
  EXPECT_EQ(p.dropped(), 7u);
  const JsonValue v = parse_ok(p.json());
  EXPECT_EQ(v["dropped"].as_int(), 7);
}

TEST(Profile, EmptyTraceYieldsValidEmptyJson) {
  const obs::Profile p = obs::Profile::from_traces({});
  EXPECT_TRUE(p.empty());
  const JsonValue v = parse_ok(p.json());
  EXPECT_EQ(v["entries"].size(), 0u);
  EXPECT_EQ(p.folded(), "");
}

TEST(Profile, JsonShapeMatchesEntries) {
  obs::ThreadTrace t;
  t.tid = 2;
  t.events.push_back(ev('B', 1, 10, 40, 16));
  t.events.push_back(ev('A', 0, 0, 100, 32));
  const obs::Profile p = obs::Profile::from_traces({t});
  const JsonValue v = parse_ok(p.json());
  EXPECT_EQ(v["wall_ns"].as_int(), 100);
  EXPECT_EQ(v["entries"].size(), 2u);
  bool saw_a = false;
  for (const JsonValue& e : v["entries"].items()) {
    if (e["kind"].as_string() == "A" && e["depth"].as_int() == 0) {
      saw_a = true;
      EXPECT_EQ(e["total_ns"].as_int(), 100);
      EXPECT_EQ(e["self_ns"].as_int(), 70);
      EXPECT_EQ(e["calls"].as_int(), 1);
    }
  }
  EXPECT_TRUE(saw_a);
  ASSERT_EQ(v["threads"].size(), 1u);
  EXPECT_EQ(v["threads"][0]["tid"].as_int(), 2);
}

// --- End to end: typed I-GEP LU under the tracer --------------------------

TEST(Profile, TypedLuProfileCoversTracedTime) {
  const index_t n = 1024;
  Matrix<double> a(n, n);
  SplitMix64 rng(11);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n) + 2.0;
  }
  obs::Tracer::clear();
  obs::Tracer::start();
  RowMajorStore<double> st{a.data(), n, 64};
  igep_lu(nullptr, st, n, {64, Runtime::ForkJoin});
  obs::Tracer::stop();
  const obs::Profile p = obs::Profile::collect();
  obs::Tracer::clear();

  ASSERT_FALSE(p.empty());
  // Acceptance: the (kind, depth) rows account for >= 95% of traced wall
  // time (sequential run: one thread).
  EXPECT_GE(p.coverage(), 0.95) << p.json();
  // All four recursion families appear.
  std::string kinds;
  for (const obs::ProfileEntry& e : p.entries())
    if (kinds.find(e.kind) == std::string::npos) kinds += e.kind;
  for (char k : {'A', 'B', 'C', 'D'})
    EXPECT_NE(kinds.find(k), std::string::npos) << kinds;
  // total >= self everywhere; depth-0 row is the single root A call.
  std::uint64_t total_self = 0;
  for (const obs::ProfileEntry& e : p.entries()) {
    EXPECT_GE(e.total_ns, e.self_ns);
    total_self += e.self_ns;
  }
  EXPECT_EQ(total_self, p.attributed_ns());
  // Folded stacks: every line ends in a positive integer count and
  // starts at the root frame of the one traced thread (its ring id).
  ASSERT_EQ(p.threads().size(), 1u);
  const std::string root = "t" + std::to_string(p.threads()[0].tid) + ";";
  std::istringstream lines(p.folded());
  std::string line;
  int nlines = 0;
  while (std::getline(lines, line)) {
    ++nlines;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string count = line.substr(sp + 1);
    EXPECT_FALSE(count.empty());
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << line;
    EXPECT_EQ(line.rfind(root, 0), 0u) << line;
  }
  EXPECT_GT(nlines, 0);
}

// --- Leaf sampler ---------------------------------------------------------

TEST(LeafSampler, PeriodOneSamplesEveryLeaf) {
  obs::LeafSampler::reset();
  obs::LeafSampler::enable(1);
  EXPECT_TRUE(obs::LeafSampler::enabled());
  EXPECT_EQ(obs::LeafSampler::period(), 1u);

  const index_t n = 128;
  const index_t base = 32;
  Matrix<double> a(n, n);
  SplitMix64 rng(5);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n) + 2.0;
  }
  RowMajorStore<double> st{a.data(), n, base};
  igep_lu(nullptr, st, n, {base, Runtime::ForkJoin});
  obs::LeafSampler::disable();

  const std::vector<obs::RooflinePoint> pts = obs::LeafSampler::snapshot();
  ASSERT_FALSE(pts.empty());
  std::uint64_t samples = 0;
  for (const obs::RooflinePoint& pt : pts) {
    samples += pt.samples;
    // Every sampled leaf is an m=base box: flops = samples * 2 * base^3.
    const std::uint64_t per_leaf =
        2ull * base * base * base;
    EXPECT_EQ(pt.flops, pt.samples * per_leaf) << pt.kind;
  }
  // n/base = 4: the typed recursion visits 4^2=16 A/B/C-layer leaves at
  // the top split and more below; exact count depends on the recursion,
  // but with period 1 every leaf is sampled, so there are at least
  // (n/base)^2 of them.
  EXPECT_GE(samples, 16u);
  obs::LeafSampler::reset();
  EXPECT_TRUE(obs::LeafSampler::snapshot().empty());
}

TEST(LeafSampler, DisabledSamplesNothing) {
  obs::LeafSampler::reset();
  obs::LeafSampler::disable();
  { obs::ScopedLeafSample s('A', 64); }
  { obs::ScopedLeafSample s('D', 64); }
  EXPECT_TRUE(obs::LeafSampler::snapshot().empty());
}

#endif  // GEP_OBS

// --- Bench reporter: repeats, median, MAD ---------------------------------

TEST(BenchReport, MedianOfRepeatsWithMad) {
  EXPECT_DOUBLE_EQ(bench::median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(bench::median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(bench::median_of({}), 0.0);
  EXPECT_DOUBLE_EQ(bench::mad_of({5.0}), 0.0);
  // {1,2,3,4,100}: median 3, |dev| = {2,1,0,1,97}, MAD = 1 — the
  // outlier doesn't blow up the noise scale.
  EXPECT_DOUBLE_EQ(bench::mad_of({1.0, 2.0, 3.0, 4.0, 100.0}), 1.0);
}

TEST(BenchReport, RepeatedRunsRecordStatsInJson) {
  setenv("GEP_BENCH_REPEATS", "5", 1);
  int calls = 0;
  {
    bench::BenchReport rep("tmp_profile_test", 1.0);
    rep.timed("probe", 64, 1e6, [&calls] {
      ++calls;
      volatile double x = 1.0;
      for (int i = 0; i < 50000; ++i) x = x * 1.0000001 + 1e-9;
    });
    ASSERT_TRUE(rep.write());
  }
  unsetenv("GEP_BENCH_REPEATS");
  EXPECT_EQ(calls, 6);  // 1 warmup + 5 timed

  std::ifstream in("BENCH_tmp_profile_test.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue v = parse_ok(buf.str());
  EXPECT_EQ(v["schema_version"].as_int(), bench::kBenchSchemaVersion);
  EXPECT_EQ(v["bench_repeats"].as_int(), 5);
  ASSERT_EQ(v["runs"].size(), 1u);
  const JsonValue& r = v["runs"][0];
  EXPECT_EQ(r["repeats"].as_int(), 5);
  EXPECT_GT(r["seconds"].as_double(), 0.0);
  EXPECT_GT(r["seconds_min"].as_double(), 0.0);
  EXPECT_LE(r["seconds_min"].as_double(), r["seconds"].as_double());
  EXPECT_GE(r["seconds_mad"].as_double(), 0.0);
  EXPECT_TRUE(v.has("trace_dropped"));
  std::remove("BENCH_tmp_profile_test.json");
}

TEST(BenchReport, HandicapScalesMatchingLabelOnly) {
  setenv("GEP_BENCH_HANDICAP", "slow:4.0", 1);
  EXPECT_DOUBLE_EQ(bench::handicap_factor("a slow run"), 4.0);
  EXPECT_DOUBLE_EQ(bench::handicap_factor("fast run"), 1.0);
  unsetenv("GEP_BENCH_HANDICAP");
  EXPECT_DOUBLE_EQ(bench::handicap_factor("a slow run"), 1.0);
  // Labels containing ':' still parse (factor after the LAST colon).
  setenv("GEP_BENCH_HANDICAP", "p=2:run:1.5", 1);
  EXPECT_DOUBLE_EQ(bench::handicap_factor("p=2:run x"), 1.5);
  unsetenv("GEP_BENCH_HANDICAP");
}

}  // namespace
}  // namespace gep
