// Compiled with -DGEP_OBS=0 (see tests/CMakeLists.txt): proves the
// observability API compiles away cleanly — every handle is an inert
// stub, the typed engine still computes correct results through the
// stubbed spans/counters, and nothing here links against gep_obs
// internals (the enabled impls live in inline namespace obs::on, the
// stubs in obs::off, so mixing this TU with GEP_OBS=1 libraries is
// ODR-safe).
#if defined(GEP_OBS) && GEP_OBS
#error "test_obs_off.cpp must be compiled with GEP_OBS=0"
#endif

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "../bench/bench_common.hpp"
#include "parallel/task_graph.hpp"
#include "layout/zblocked.hpp"
#include "matrix/matrix.hpp"
#include "obs/obs.hpp"
#include "parallel/work_stealing.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

static_assert(!obs::kEnabled, "GEP_OBS=0 must disable the obs layer");
// The stub node scope carries no state — the typed recursion's hot
// frames pay nothing for it.
static_assert(std::is_empty_v<obs::NodeScope>,
              "disabled NodeScope must be stateless");
static_assert(std::is_empty_v<obs::ScopedLeafSample>,
              "disabled ScopedLeafSample must be stateless");
static_assert(obs::flight::kRingEvents == 0,
              "disabled flight recorder must not reserve ring space");

TEST(ObsOff, HandlesAreInertNoOps) {
  obs::Counter c = obs::counter("off.c");
  c.inc();
  c.inc(100);
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g = obs::gauge("off.g");
  g.set(3.25);
  g.add(2.0);
  EXPECT_EQ(g.value(), 0.0);

  obs::Histogram h = obs::histogram("off.h");
  h.observe(42);
  for (std::uint64_t b : h.buckets()) EXPECT_EQ(b, 0u);

  EXPECT_TRUE(obs::Registry::global().snapshot().empty());
  EXPECT_EQ(obs::snapshot_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(ObsOff, HwCountersUnavailable) {
  obs::HwCounters hw;
  EXPECT_FALSE(hw.available());
  hw.start();
  obs::HwSample s = hw.stop();
  EXPECT_FALSE(s.valid);
  EXPECT_EQ(s.cycles, 0u);
}

TEST(ObsOff, TracerRecordsNothing) {
  obs::Tracer::start();
  { obs::NodeScope s('A', 0, 0, 0, 0, 64); }
  obs::Tracer::stop();
  EXPECT_FALSE(obs::Tracer::active());
  EXPECT_EQ(obs::Tracer::event_count(), 0u);
  EXPECT_FALSE(obs::Tracer::write_chrome_trace("should_not_exist.json"));
}

TEST(ObsOff, JsonWriterStillWorks) {
  // The writer is shared with the bench reporter and stays functional.
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("k", 1);
  w.end_object();
  EXPECT_EQ(os.str(), "{\"k\":1}");
}

TEST(ObsOff, ProfileIsEmptyButJsonStaysValid) {
  obs::Profile p = obs::Profile::collect();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.wall_ns(), 0u);
  EXPECT_EQ(p.coverage(), 0.0);
  EXPECT_EQ(p.imbalance(), 1.0);
  EXPECT_EQ(p.folded(), "");
  // The JSON form still parses with the full schema skeleton, so a
  // GEP_OBS=0 bench report keeps its shape in the manifest.
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(p.json(), &v, &err)) << err;
  EXPECT_EQ(v["entries"].size(), 0u);
  EXPECT_EQ(v["dropped"].as_int(), 0);
}

TEST(ObsOff, LeafSamplerInert) {
  obs::LeafSampler::enable(1);
  EXPECT_FALSE(obs::LeafSampler::enabled());
  EXPECT_EQ(obs::LeafSampler::period(), 0u);
  { obs::ScopedLeafSample s('A', 64); }
  EXPECT_TRUE(obs::LeafSampler::snapshot().empty());
  obs::LeafSampler::reset();
}

// A GEP_OBS=0 bench report must still be a valid manifest input: full
// run rows, empty metrics sections, no profile/trace keys.
TEST(ObsOff, BenchReportStillWritesValidJson) {
  {
    bench::BenchReport rep("tmp_obs_off", 1.0);
    rep.timed("probe", 32, 1e3, [] {
      volatile double x = 1.0;
      for (int i = 0; i < 1000; ++i) x = x * 1.0000001;
    });
    ASSERT_TRUE(rep.write());
  }
  std::ifstream in("BENCH_tmp_obs_off.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(buf.str(), &v, &err)) << err;
  EXPECT_FALSE(v["gep_obs"].as_bool());
  EXPECT_EQ(v["schema_version"].as_int(), bench::kBenchSchemaVersion);
  ASSERT_EQ(v["runs"].size(), 1u);
  EXPECT_GT(v["runs"][0]["seconds"].as_double(), 0.0);
  EXPECT_FALSE(v["runs"][0].has("profile"));
  EXPECT_EQ(v["trace_dropped"].as_int(), 0);
  EXPECT_TRUE(v["metrics"]["counters"].is_object());
  std::remove("BENCH_tmp_obs_off.json");
}

// The live-telemetry surface degrades to no-ops: recording costs
// nothing, dumps refuse, cancellation never fires, the watchdog refuses
// to start, and progress reports zeros with an unknown ETA.
TEST(ObsOff, FlightRecorderIsInert) {
  obs::flight::record(obs::flightfmt::kMark, 1);
  obs::flight::set_thread_name("off-thread");
  EXPECT_FALSE(obs::flight::dump("should_not_exist.gepdump"));
  EXPECT_FALSE(obs::flight::dump_default());
  EXPECT_EQ(obs::flight::now_ns(), 0u);
  obs::flight::install_crash_handlers();
  obs::flight::install_job_signal_handlers();
  obs::flight::request_stop();
  EXPECT_FALSE(obs::flight::stop_requested()) << "stop flag compiled out";
  EXPECT_NO_THROW(obs::throw_if_stop_requested());
  obs::flight::reset_stop();
  { obs::NodeScope s('A', 0, 0, 0, 0, 64); }
  // The dump format itself stays available for the decoder build.
  EXPECT_EQ(obs::flightfmt::ev_of(obs::flightfmt::pack(
                obs::flightfmt::kPageIn, 9)),
            static_cast<unsigned>(obs::flightfmt::kPageIn));
}

TEST(ObsOff, WatchdogRefusesToStart) {
  EXPECT_FALSE(obs::Watchdog::start({}));
  EXPECT_FALSE(obs::Watchdog::start_from_env());
  EXPECT_FALSE(obs::Watchdog::running());
  EXPECT_EQ(obs::Watchdog::stalls_detected(), 0u);
  EXPECT_EQ(obs::Watchdog::dumps_written(), 0u);
  const obs::WatchdogStatus st = obs::Watchdog::status();
  EXPECT_EQ(st.state, obs::WatchdogStatus::State::Healthy);
  EXPECT_TRUE(st.healthy());
  EXPECT_EQ(st.stalls, 0u);
  { obs::WatchdogThreadSource src("off-src"); }
  EXPECT_FALSE(obs::Watchdog::running());
  obs::Watchdog::stop();
}

// The wire surface compiles to refusals: the server never starts, the
// router answers 503 with a machine-readable reason, and the RAII
// publication helpers collapse into the stubs.
TEST(ObsOff, StatServerRefusesToServe) {
  EXPECT_FALSE(obs::StatServer::start(0));
  EXPECT_FALSE(obs::StatServer::start_from_env());
  EXPECT_FALSE(obs::StatServer::running());
  EXPECT_EQ(obs::StatServer::port(), -1);
  EXPECT_EQ(obs::StatServer::requests_served(), 0u);
  obs::StatServer::set_build_info("sha", "dispatch");
  int status = 0;
  std::string ctype;
  const std::string body = obs::StatServer::handle("/metrics", &status,
                                                   &ctype);
  EXPECT_EQ(status, 503);
  EXPECT_EQ(ctype, "application/json");
  EXPECT_NE(body.find("GEP_OBS=0"), std::string::npos);
  obs::ProgressMeter m;
  m.begin(10.0);
  { obs::ScopedStatProgress pub(m, "off"); }
  {
    obs::ScopedStatIoModel io(obs::igep_io_prediction(64, 1 << 20, 1 << 12),
                              [] { return std::uint64_t{0}; });
  }
  obs::StatServer::stop();
}

// The exposition formatter stays live in both builds (the offline
// `gep_events --prom` path must render dumps from instrumented runs):
// an empty off-build snapshot is just the identity series.
TEST(ObsOff, ExpositionRendersBuildInfoOnly) {
  obs::expo::BuildInfo info;
  info.sha = "s";
  info.dispatch = "d";
  EXPECT_FALSE(info.obs_enabled) << "default must reflect this build";
  EXPECT_EQ(obs::expo::exposition(obs::Registry::global().snapshot(), info),
            "# TYPE gep_build_info gauge\n"
            "gep_build_info{sha=\"s\",dispatch_level=\"d\",obs=\"off\"} 1\n");
}

TEST(ObsOff, ProgressMeterReportsZeros) {
  obs::ProgressMeter m;
  m.begin(1000.0, 1e9);
  const obs::ProgressSample s = m.sample();
  EXPECT_EQ(s.fraction, 0.0);
  EXPECT_EQ(s.eta_s, -1.0);
  EXPECT_EQ(s.gflops, 0.0);
  EXPECT_EQ(s.updates_done, 0.0);
  { obs::ProgressReporter r(&m, 0.001, "off"); }  // never spawns a thread
  EXPECT_EQ(obs::ProgressReporter::env_interval(), 0.0);
  // The I/O model is plain math and stays live in both builds.
  const obs::IoBoundPrediction p = obs::igep_io_prediction(256, 1 << 20,
                                                           1 << 12);
  EXPECT_GT(p.total(), 0.0);
}

// The typed I-GEP engine instantiated from this GEP_OBS=0 TU (spans and
// counters compiled out) must still produce the right elimination.
TEST(ObsOff, TypedEngineStillCorrect) {
  const index_t n = 64;
  Matrix<double> a(n, n);
  SplitMix64 rng(7);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n) + 2.0;
  }
  Matrix<double> want = a;
  // Reference GE without pivoting (the GEP kernel).
  for (index_t k = 0; k < n; ++k)
    for (index_t i = k + 1; i < n; ++i)
      for (index_t j = k + 1; j < n; ++j)
        want(i, j) -= want(i, k) * want(k, j) / want(k, k);
  RowMajorStore<double> st{a.data(), n, 16};
  igep_lu(nullptr, st, n, {16, Runtime::ForkJoin});
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j)
      EXPECT_NEAR(a(i, j), want(i, j), 1e-9) << i << "," << j;
}

}  // namespace
}  // namespace gep
