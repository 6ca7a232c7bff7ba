// Tests for the observability layer (src/obs/): metrics registry,
// hardware counters, span tracer, and the JSON writer. These run in the
// default GEP_OBS=1 configuration; test_obs_off.cpp covers the
// compiled-out build.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "matrix/matrix.hpp"
#include "obs/obs.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/work_stealing.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

// --- JsonWriter (always compiled, both configs) ---------------------------

TEST(JsonWriter, NestedStructure) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("a", 1);
  w.key("b");
  w.begin_array();
  w.value(std::uint64_t{2});
  w.value("x\"y\\z\n");
  w.begin_object();
  w.kv("c", true);
  w.key("z");
  w.null();
  w.end_object();
  w.end_array();
  w.kv("d", 2.5);
  w.end_object();
  const std::string s = os.str();
  EXPECT_EQ(s, "{\"a\":1,\"b\":[2,\"x\\\"y\\\\z\\n\","
               "{\"c\":true,\"z\":null}],\"d\":2.5}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(1.0);
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null,1]");
}

TEST(JsonWriter, RawSplicesVerbatim) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("m");
  w.raw("{\"k\":7}");
  w.end_object();
  EXPECT_EQ(os.str(), "{\"m\":{\"k\":7}}");
}

TEST(JsonWriter, ControlCharsEscaped) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.value(std::string("\x01\x1f\x7f"));
  // 0x01 and 0x1f must become \u00XX escapes; 0x7f is legal raw JSON.
  EXPECT_EQ(os.str(), "\"\\u0001\\u001f\x7f\"");
}

TEST(JsonWriter, Utf8PassesThrough) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.value(std::string("caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80"));
  EXPECT_EQ(os.str(), "\"caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80\"");
}

TEST(JsonWriter, DeepNestingBalances) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  constexpr int kDepth = 100;
  for (int i = 0; i < kDepth; ++i) {
    w.begin_object();
    w.key("k");
  }
  w.value(1);
  for (int i = 0; i < kDepth; ++i) w.end_object();
  const std::string s = os.str();
  std::size_t opens = 0, closes = 0;
  for (char ch : s) {
    if (ch == '{') ++opens;
    if (ch == '}') ++closes;
  }
  EXPECT_EQ(opens, static_cast<std::size_t>(kDepth));
  EXPECT_EQ(closes, static_cast<std::size_t>(kDepth));
}

// --- JsonValue reader error paths (always compiled, both configs) ---------

// Every malformed input must fail cleanly with a positioned error, never
// crash or accept: the reader feeds the bench-diff gate, which parses
// files produced by OTHER commits.
TEST(JsonReader, MalformedInputsAreRejectedWithPosition) {
  const char* bad[] = {
      "",                       // empty input
      "{\"a\": }",              // missing value
      "{\"a\": 1",              // unterminated object
      "[1, 2",                  // unterminated array
      "[1, 2,]",                // trailing comma -> expected value
      "{\"a\" 1}",              // missing ':'
      "{a: 1}",                 // unquoted key
      "\"abc",                  // unterminated string
      "\"a\\q\"",               // bad escape character
      "\"a\\u12\"",             // truncated \u escape
      "\"a\\uZZZZ\"",           // non-hex \u escape
      "\"\\uD800\"",            // lone high surrogate, end of string
      "\"\\uD800\\u0041\"",     // high surrogate + non-low-surrogate
      "truth",                  // bad literal
      "nul",                    // truncated literal
      "1.2.3",                  // malformed number
      "1e999",                  // overflow -> non-finite
      "\"a\tb\"",               // raw control character in string
      "{} {}",                  // trailing characters
  };
  for (const char* in : bad) {
    obs::JsonValue v;
    std::string err;
    EXPECT_FALSE(obs::JsonValue::parse(in, &v, &err)) << "input: " << in;
    EXPECT_NE(err.find("at offset"), std::string::npos)
        << "error must carry a position for input: " << in;
  }
}

TEST(JsonReader, NestingDepthIsCapped) {
  // kMaxDepth = 256: one past must fail, the cap itself must parse.
  auto nested = [](int depth) {
    std::string s(static_cast<std::size_t>(depth), '[');
    s += "1";
    s.append(static_cast<std::size_t>(depth), ']');
    return s;
  };
  obs::JsonValue v;
  std::string err;
  EXPECT_TRUE(obs::JsonValue::parse(nested(200), &v, &err)) << err;
  EXPECT_FALSE(obs::JsonValue::parse(nested(300), &v, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

TEST(JsonReader, SurrogatePairsDecodeToUtf8) {
  obs::JsonValue v;
  std::string err;
  // U+1F600 as a surrogate pair; expect the 4-byte UTF-8 encoding.
  ASSERT_TRUE(obs::JsonValue::parse("\"\\uD83D\\uDE00\"", &v, &err)) << err;
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
  // BMP escape and a bare low surrogate region value (not paired) both
  // decode; the latter is passed through as its 3-byte encoding.
  ASSERT_TRUE(obs::JsonValue::parse("\"\\u00E9\"", &v, &err)) << err;
  EXPECT_EQ(v.as_string(), "\xC3\xA9");
}

TEST(JsonReader, LookupChainsThroughMissingKeys) {
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse("{\"a\": {\"b\": 3}}", &v, &err)) << err;
  EXPECT_EQ(v["a"]["b"].as_int(), 3);
  EXPECT_TRUE(v["a"]["missing"]["deeper"].is_null());
  EXPECT_EQ(v["nope"].as_double(7.5), 7.5);  // null -> caller's default
  EXPECT_EQ(v["a"]["b"].as_double(), 3.0);
  EXPECT_EQ(v[std::size_t{0}].type(), obs::JsonValue::Type::Null);
}

// Deterministic mutational fuzzing of the reader. Seeds are writer
// outputs (a metrics snapshot, escaped strings, surrogate pairs, nesting
// at and one past the depth cap); each mutant is 1-4 byte flips,
// inserts, deletes, truncations or splices with another seed. Every
// mutant must either parse to a value that can be walked in full, or
// fail with an error whose offset lies inside the text. One JsonValue is
// reused throughout, as the bench-diff gate reuses its values.
namespace json_fuzz {

// Visits every node and reads every key, string and number; returns
// the decoded bytes of all keys and strings, which an escape never
// makes longer than its source text.
std::size_t walk(const obs::JsonValue& v) {
  std::size_t bytes = 0;
  switch (v.type()) {
    case obs::JsonValue::Type::Array:
      for (const obs::JsonValue& x : v.items()) bytes += walk(x);
      break;
    case obs::JsonValue::Type::Object:
      for (const auto& [k, x] : v.members()) {
        EXPECT_NE(v.find(k), nullptr);
        bytes += k.size() + walk(x);
      }
      break;
    case obs::JsonValue::Type::String:
      bytes += v.as_string().size();
      break;
    case obs::JsonValue::Type::Number:
      EXPECT_TRUE(std::isfinite(v.as_double()));
      break;
    default:
      break;
  }
  return bytes;
}

std::vector<std::string> seeds() {
  obs::counter("fuzz.seed.counter").inc(42);
  obs::gauge("fuzz.seed.gauge").set(-1.5e-3);
  obs::histogram("fuzz.seed.hist").observe(1000);
  std::vector<std::string> out = {obs::snapshot_json()};
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("esc", "q\"b\\s/\n\t\r\b\f\x01\x1f");
  w.kv("utf8", "\xC3\xA9\xF0\x9F\x98\x80");
  w.kv("num", -12.5e-7);
  w.kv("big", std::uint64_t{9007199254740993ull});
  w.kv("flag", true);
  w.key("list");
  w.begin_array();
  w.value(std::int64_t{-3});
  w.value("x");
  w.end_array();
  w.end_object();
  out.push_back(os.str());
  out.push_back("[\"\\uD83D\\uDE00\", \"\\u00E9\\u0041\", null, false]");
  // The reader caps nesting at 256 levels below the top value: the
  // innermost number sits at the cap, then (the last seed) one past it.
  for (int depth : {255, 256}) {
    std::string s(static_cast<std::size_t>(depth), '[');
    s += "{\"k\": 1}";
    s.append(static_cast<std::size_t>(depth), ']');
    out.push_back(s);
  }
  return out;
}

std::string mutate(std::string s, const std::vector<std::string>& pool,
                   SplitMix64& rng) {
  static const char kBytes[] = "{}[]\",:\\/-+.eE0123456789tfnu \x00\xff";
  const int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = s.empty() ? 0 : rng.below(s.size() + 1);
    switch (rng.below(5)) {
      case 0:  // bit flip
        if (!s.empty()) {
          s[at % s.size()] = static_cast<char>(
              s[at % s.size()] ^ static_cast<char>(1u << rng.below(8)));
        }
        break;
      case 1:  // insert a structural, numeric or arbitrary byte
        s.insert(at, 1,
                 rng.chance(0.5) ? kBytes[rng.below(sizeof kBytes - 1)]
                                 : static_cast<char>(rng.below(256)));
        break;
      case 2:  // delete a short run
        s.erase(at, 1 + rng.below(8));
        break;
      case 3:  // truncate
        s.resize(at);
        break;
      default: {  // splice: our prefix, another seed's suffix
        const std::string& o = pool[rng.below(pool.size())];
        s = s.substr(0, at) + o.substr(o.empty() ? 0 : rng.below(o.size()));
        break;
      }
    }
  }
  return s;
}

}  // namespace json_fuzz

TEST(JsonReader, MutationFuzzParsesOrFailsInsideTheText) {
  const std::vector<std::string> pool = json_fuzz::seeds();
  obs::JsonValue v;
  std::string err;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    err.clear();
    EXPECT_EQ(obs::JsonValue::parse(pool[i], &v, &err), i + 1 < pool.size())
        << "seed " << i << ": " << err;
  }
  SplitMix64 rng(0x6a736f6e66757a7aULL);
  constexpr int kMutants = 20000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        json_fuzz::mutate(pool[rng.below(pool.size())], pool, rng);
    err.clear();
    if (obs::JsonValue::parse(text, &v, &err)) {
      ++accepted;
      EXPECT_LE(json_fuzz::walk(v), text.size()) << "mutant " << i;
      continue;
    }
    const std::size_t at = err.rfind(" at offset ");
    ASSERT_NE(at, std::string::npos) << "mutant " << i << ": " << err;
    const std::size_t off = std::stoull(err.substr(at + 11));
    ASSERT_LE(off, text.size()) << "mutant " << i << ": " << err;
  }
  // Both outcomes occur: the mutants probe past the happy path.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutants);
}

#if GEP_OBS

// --- Registry -------------------------------------------------------------

TEST(Registry, CounterAggregatesAcrossThreads) {
  obs::Registry reg;
  obs::Counter c = reg.counter("t.c");
  constexpr int kThreads = 8;
  constexpr int kIncs = 10000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&c] {
      for (int k = 0; k < kIncs; ++k) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(Registry, SameNameSameCounter) {
  obs::Registry reg;
  obs::Counter a = reg.counter("dup");
  obs::Counter b = reg.counter("dup");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
}

TEST(Registry, GaugeHoldsLastValue) {
  obs::Registry reg;
  obs::Gauge g = reg.gauge("t.g");
  g.set(2.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(Registry, HistogramLog2Buckets) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("t.h");
  // bucket 0 = {0}; bucket b (b >= 1) = [2^(b-1), 2^b).
  h.observe(0);    // bucket 0
  h.observe(1);    // bucket 1
  h.observe(2);    // bucket 2
  h.observe(3);    // bucket 2
  h.observe(4);    // bucket 3
  h.observe(7);    // bucket 3
  h.observe(8);    // bucket 4
  h.observe(1023); // bucket 10
  h.observe(1024); // bucket 11
  std::vector<obs::MetricSample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::MetricSample& s = snap[0];
  EXPECT_EQ(s.kind, obs::MetricSample::Kind::Histogram);
  EXPECT_EQ(s.name, "t.h");
  EXPECT_EQ(s.count, 9u);
  ASSERT_EQ(s.buckets.size(), static_cast<std::size_t>(obs::kHistBuckets));
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 2u);
  EXPECT_EQ(s.buckets[4], 1u);
  EXPECT_EQ(s.buckets[10], 1u);
  EXPECT_EQ(s.buckets[11], 1u);
}

TEST(Registry, HistogramHugeValuesClampToLastBucket) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("t.h2");
  h.observe(~std::uint64_t{0});
  std::vector<obs::MetricSample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].buckets[obs::kHistBuckets - 1], 1u);
}

TEST(Registry, ResetClearsEverything) {
  obs::Registry reg;
  obs::Counter c = reg.counter("r.c");
  obs::Gauge g = reg.gauge("r.g");
  obs::Histogram h = reg.histogram("r.h");
  c.inc(5);
  g.set(9.0);
  h.observe(17);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  for (const obs::MetricSample& s : reg.snapshot()) EXPECT_EQ(s.count, 0u);
  c.inc();  // handles stay live after reset
  EXPECT_EQ(c.value(), 1u);
}

TEST(Registry, SnapshotSortedAndTyped) {
  obs::Registry reg;
  reg.counter("b.count").inc(2);
  reg.gauge("a.gauge").set(1.0);
  reg.histogram("c.hist").observe(4);
  std::vector<obs::MetricSample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // snapshot() groups counters, then gauges, then histograms; names are
  // sorted within each group (std::map iteration).
  EXPECT_EQ(snap[0].name, "b.count");
  EXPECT_EQ(snap[0].kind, obs::MetricSample::Kind::Counter);
  EXPECT_EQ(snap[1].name, "a.gauge");
  EXPECT_EQ(snap[1].kind, obs::MetricSample::Kind::Gauge);
  EXPECT_EQ(snap[2].name, "c.hist");
  EXPECT_EQ(snap[2].kind, obs::MetricSample::Kind::Histogram);
}

TEST(Registry, GlobalSnapshotJsonIsWellFormed) {
  obs::counter("json.check.counter").inc(42);
  obs::gauge("json.check.gauge").set(2.5);
  obs::histogram("json.check.hist").observe(100);
  const std::string js = obs::snapshot_json();
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"json.check.counter\":42"), std::string::npos);
  EXPECT_NE(js.find("\"json.check.gauge\":2.5"), std::string::npos);
  EXPECT_NE(js.find("\"json.check.hist\""), std::string::npos);
  // Balanced braces/brackets (no quoting subtleties in metric names).
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < js.size(); ++i) {
    char ch = js[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
      continue;
    }
    if (ch == '"') in_str = true;
    else if (ch == '{' || ch == '[') ++depth;
    else if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// --- Histogram percentile estimation --------------------------------------

TEST(Registry, HistPercentileUpperBounds) {
  // 64 log2 buckets; bucket 0 = {0}, bucket b = [2^(b-1), 2^b). The
  // estimate is the upper bound of the bucket covering the quantile.
  std::vector<std::uint64_t> buckets(obs::kHistBuckets, 0);
  EXPECT_EQ(obs::hist_percentile(buckets, 0.5), 0u);  // empty
  EXPECT_EQ(obs::hist_max(buckets), 0u);
  buckets[0] = 10;  // ten zeros
  EXPECT_EQ(obs::hist_percentile(buckets, 0.5), 0u);
  buckets[4] = 10;  // ten values in [8, 16)
  // 20 samples: p50 lands on the 10th = last zero, p95 on the 19th.
  EXPECT_EQ(obs::hist_percentile(buckets, 0.5), 0u);
  EXPECT_EQ(obs::hist_percentile(buckets, 0.95), 15u);  // 2^4 - 1
  EXPECT_EQ(obs::hist_max(buckets), 15u);
  buckets[10] = 1;  // one value in [512, 1024)
  EXPECT_EQ(obs::hist_max(buckets), 1023u);
  EXPECT_EQ(obs::hist_percentile(buckets, 1.0), 1023u);
}

TEST(Registry, HistPercentileEdgeCases) {
  // Empty histogram: every quantile (and the max) is 0, no division.
  const std::vector<std::uint64_t> empty(obs::kHistBuckets, 0);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(obs::hist_percentile(empty, q), 0u) << "q=" << q;
  }
  // A single populated bucket answers EVERY quantile with its upper
  // bound — the only value the log2 sketch can produce.
  std::vector<std::uint64_t> single(obs::kHistBuckets, 0);
  single[7] = 1;  // one observation in [64, 128)
  for (double q : {0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(obs::hist_percentile(single, q), 127u) << "q=" << q;
  }
  EXPECT_EQ(obs::hist_max(single), 127u);
  // q = 0 targets rank 0: the first populated bucket satisfies it.
  EXPECT_EQ(obs::hist_percentile(single, 0.0), 127u);
  // Short vectors (fewer than 64 buckets) are handled positionally.
  std::vector<std::uint64_t> shorty(3, 0);
  shorty[2] = 5;
  EXPECT_EQ(obs::hist_percentile(shorty, 0.5), 3u);
  EXPECT_EQ(obs::hist_max(shorty), 3u);
}

TEST(Registry, SnapshotJsonHasHistogramPercentiles) {
  obs::histogram("pctl.check.hist").observe(100);
  obs::histogram("pctl.check.hist").observe(3);
  const std::string js = obs::snapshot_json();
  const std::size_t at = js.find("\"pctl.check.hist\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(js.find("\"p50\"", at), std::string::npos);
  EXPECT_NE(js.find("\"p95\"", at), std::string::npos);
  EXPECT_NE(js.find("\"max\"", at), std::string::npos);
}

// --- Hardware counters ----------------------------------------------------

TEST(HwCounters, SampleOrSkip) {
  obs::HwCounters hw;
  if (!hw.available()) {
    GTEST_SKIP() << "perf_event_open unavailable (permissions/kernel)";
  }
  hw.start();
  // Burn a few hundred thousand instructions.
  volatile double x = 1.0;
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001 + 1e-9;
  obs::HwSample s = hw.stop();
  ASSERT_TRUE(s.valid);
  if (s.has_instructions) EXPECT_GT(s.instructions, 100000u);
  if (s.has_cycles) EXPECT_GT(s.cycles, 0u);
  if (s.has_cycles && s.has_instructions) EXPECT_GT(s.ipc(), 0.0);
}

TEST(HwCounters, StopWithoutStartIsInvalid) {
  obs::HwCounters hw;
  obs::HwSample s = hw.read();
  if (!hw.available()) EXPECT_FALSE(s.valid);
}

// --- Tracer ---------------------------------------------------------------

TEST(Tracer, SpansRecordedOnlyWhileActive) {
  obs::Tracer::clear();
  { obs::NodeScope s('A', 0, 0, 0, 0, 64); }  // inactive: dropped
  EXPECT_EQ(obs::Tracer::event_count(), 0u);
  obs::Tracer::start();
  { obs::NodeScope s('B', 1, 0, 64, 0, 32); }
  { obs::NodeScope s('D', 2, 32, 32, 0, 16); }
  obs::Tracer::stop();
  { obs::NodeScope s('C', 0, 0, 0, 0, 8); }  // stopped again: dropped
  EXPECT_EQ(obs::Tracer::event_count(), 2u);
  obs::Tracer::clear();
  EXPECT_EQ(obs::Tracer::event_count(), 0u);
}

TEST(Tracer, OverflowCountsDroppedSpans) {
  obs::Tracer::clear();
  obs::Tracer::start();
  constexpr std::size_t kCap = 1u << 20;  // spans a ring's log holds
  for (std::size_t i = 0; i < kCap + 3; ++i) {
    obs::NodeScope s('A', 0, 0, 0, 0, 64);
  }
  obs::Tracer::stop();
  EXPECT_EQ(obs::Tracer::event_count(), kCap);
  EXPECT_EQ(obs::Tracer::dropped_count(), 3u);
  // The dropped count survives into the profile snapshot path...
  std::vector<obs::ThreadTrace> snap = obs::Tracer::snapshot();
  std::uint64_t dropped = 0;
  for (const obs::ThreadTrace& t : snap) dropped += t.dropped;
  EXPECT_EQ(dropped, 3u);
  // ...and clear() resets it.
  obs::Tracer::clear();
  EXPECT_EQ(obs::Tracer::dropped_count(), 0u);
}

TEST(Tracer, ChromeTraceFileIsValidJson) {
  obs::Tracer::clear();
  obs::Tracer::start();
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([t] {
      for (int i = 0; i < 10; ++i)
        obs::NodeScope s("ABCD"[i % 4], t, i, i, i, 64);
    });
  }
  for (auto& t : ts) t.join();
  obs::Tracer::stop();
  EXPECT_EQ(obs::Tracer::event_count(), 40u);

  const char* path = "test_obs.trace.json";
  ASSERT_TRUE(obs::Tracer::write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string js = buf.str();
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(js.find("\"cat\":\"igep\""), std::string::npos);
  EXPECT_NE(js.find("\"name\":\"A\""), std::string::npos);
  // Must parse at the brace level.
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < js.size(); ++i) {
    char ch = js[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
      continue;
    }
    if (ch == '"') in_str = true;
    else if (ch == '{' || ch == '[') ++depth;
    else if (ch == '}' || ch == ']') --depth;
  }
  EXPECT_EQ(depth, 0);
  std::remove(path);
  obs::Tracer::clear();
}

// /profile scrapes the span logs while the workers still append to
// them: run under -DGEP_SANITIZE=thread this must report no race, and no
// span may be lost to the concurrent snapshots.
TEST(Tracer, LiveSnapshotWhileWorkersRecord) {
  const index_t n = 512, bs = 16;
  Matrix<double> init(n, n);
  SplitMix64 g(5);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 50.0);
    init(i, i) = 0.0;
  }
  auto traced_fw = [&](WorkStealingPool* pool) {
    Matrix<double> d = init;
    obs::Tracer::clear();
    obs::Tracer::start();
    RowMajorStore<double> st{d.data(), n, bs};
    igep_floyd_warshall(pool, st, n, {bs, Runtime::ForkJoin});
    obs::Tracer::stop();
    return obs::Tracer::event_count();
  };
  const std::size_t want = traced_fw(nullptr);
  ASSERT_GT(want, 0u);

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const obs::Profile p = obs::Profile::collect();
      int status = 0;
      const std::string body = obs::StatServer::handle("/profile", &status,
                                                       nullptr);
      EXPECT_EQ(status, 200);
      EXPECT_FALSE(body.empty());
      scrapes.fetch_add(1, std::memory_order_release);
    }
  });
  while (scrapes.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  std::size_t got = 0;
  {
    WorkStealingPool pool(4);
    got = traced_fw(&pool);
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(got, want);
  EXPECT_EQ(obs::Tracer::dropped_count(), 0u);
  EXPECT_GT(scrapes.load(), 1);
  obs::Tracer::clear();
}

// A thread's span log lives in its flight-recorder ring, which a later
// thread takes over once it exits: 1000 short traced threads, one alive
// at a time beside this one, leave no more logs than threads that
// recorded at once, and every span is still counted.
TEST(Tracer, ExitedThreadsShareRings) {
  constexpr int kThreads = 1000;
  constexpr int kSpansPerThread = 3;
  constexpr std::size_t kPeakLive = 2;  // this thread and one worker
  obs::Tracer::clear();
  obs::Tracer::start();
  for (int t = 0; t < kThreads; ++t) {
    std::thread([t] {
      obs::NodeScope root('A', 0, 0, 0, 0, 64);
      obs::NodeScope b('B', 1, 0, 32, t, 32);
      obs::NodeScope d('D', 2, 32, 32, t, 32);
    }).join();
  }
  obs::Tracer::stop();
  EXPECT_LE(obs::Tracer::snapshot().size(), kPeakLive + 1);
  EXPECT_EQ(obs::Tracer::event_count(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(obs::Tracer::dropped_count(), 0u);
  obs::Tracer::clear();
}

#endif  // GEP_OBS

}  // namespace
}  // namespace gep
