// Stat-server matrix: the Prometheus exposition formatter (golden
// format + snapshot-JSON round trip), the request router (handle()),
// the live HTTP listener (real sockets: concurrent scrapes, malformed
// and slow clients, port-in-use fallback), the queryable watchdog
// status and its /healthz 503 flip, and the gauge producers.
//
// The golden-format tests go through obs/expo.hpp directly — the same
// formatter the live /metrics endpoint and `gep_events --prom` use, so
// a format regression breaks here before it breaks a scraper.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "parallel/work_stealing.hpp"

namespace gep {
namespace {

#if GEP_OBS

// ---- minimal blocking loopback HTTP client -------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct HttpReply {
  int status = -1;
  std::string head;
  std::string body;
};

// The server always answers Connection: close, so read-to-EOF is the
// whole reply.
HttpReply read_reply(int fd) {
  HttpReply r;
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got <= 0) break;
    raw.append(buf, static_cast<std::size_t>(got));
  }
  const auto head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return r;
  r.head = raw.substr(0, head_end);
  r.body = raw.substr(head_end + 4);
  if (raw.rfind("HTTP/1.1 ", 0) == 0) r.status = std::atoi(raw.c_str() + 9);
  return r;
}

HttpReply http_txn(int port, const std::string& request) {
  HttpReply r;
  const int fd = connect_loopback(port);
  if (fd < 0) return r;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t put =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (put <= 0) break;
    sent += static_cast<std::size_t>(put);
  }
  r = read_reply(fd);
  ::close(fd);
  return r;
}

HttpReply http_get(int port, const std::string& path) {
  return http_txn(port,
                  "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

// RAII server lifetime for tests (the server is process-global).
struct ScopedServer {
  bool up;
  explicit ScopedServer(int port = 0) : up(obs::StatServer::start(port)) {}
  ~ScopedServer() { obs::StatServer::stop(); }
  int port() const { return obs::StatServer::port(); }
};

#endif  // GEP_OBS

// ---- exposition formatter (compiled in both builds) ----------------------

TEST(Expo, NameAndLabelEscaping) {
  EXPECT_EQ(obs::expo::prom_name("typed.updates.A"), "gep_typed_updates_A");
  EXPECT_EQ(obs::expo::prom_name("extmem.prefetch.queue_depth"),
            "gep_extmem_prefetch_queue_depth");
  EXPECT_EQ(obs::expo::prom_name("a-b c"), "gep_a_b_c");
  EXPECT_EQ(obs::expo::prom_label_value("plain"), "plain");
  EXPECT_EQ(obs::expo::prom_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Expo, GoldenExpositionFormat) {
  std::vector<obs::MetricSample> samples;
  {
    obs::MetricSample c;
    c.kind = obs::MetricSample::Kind::Counter;
    c.name = "typed.updates.A";
    c.count = 123;
    samples.push_back(c);
  }
  {
    obs::MetricSample g;
    g.kind = obs::MetricSample::Kind::Gauge;
    g.name = "extmem.prefetch.queue_depth";
    g.value = 4.0;
    samples.push_back(g);
  }
  {
    // Two exact zeros and one observation in [4,8): the le ladder stops
    // at the highest populated bucket, +Inf always closes it, and _sum
    // is the bucket-boundary upper-bound estimate (2*0 + 1*7).
    obs::MetricSample h;
    h.kind = obs::MetricSample::Kind::Histogram;
    h.name = "lat";
    h.count = 3;
    h.buckets.assign(64, 0);
    h.buckets[0] = 2;
    h.buckets[3] = 1;
    samples.push_back(h);
  }
  obs::expo::BuildInfo info;
  info.sha = "abc123";
  info.dispatch = "avx2";
  info.obs_enabled = true;
  const char* want =
      "# TYPE gep_build_info gauge\n"
      "gep_build_info{sha=\"abc123\",dispatch_level=\"avx2\",obs=\"on\"} 1\n"
      "# TYPE gep_typed_updates_A_total counter\n"
      "gep_typed_updates_A_total 123\n"
      "# TYPE gep_extmem_prefetch_queue_depth gauge\n"
      "gep_extmem_prefetch_queue_depth 4\n"
      "# TYPE gep_lat histogram\n"
      "gep_lat_bucket{le=\"0\"} 2\n"
      "gep_lat_bucket{le=\"1\"} 2\n"
      "gep_lat_bucket{le=\"3\"} 2\n"
      "gep_lat_bucket{le=\"7\"} 3\n"
      "gep_lat_bucket{le=\"+Inf\"} 3\n"
      "gep_lat_sum 7\n"
      "gep_lat_count 3\n";
  EXPECT_EQ(obs::expo::exposition(samples, info), want);
}

TEST(Expo, EmptySnapshotRendersOnlyBuildInfo) {
  obs::expo::BuildInfo info;
  info.sha = "s";
  info.dispatch = "d";
  info.obs_enabled = false;
  EXPECT_EQ(obs::expo::exposition({}, info),
            "# TYPE gep_build_info gauge\n"
            "gep_build_info{sha=\"s\",dispatch_level=\"d\",obs=\"off\"} 1\n");
}

TEST(Expo, SnapshotJsonRoundTripsThroughSamples) {
  // The offline path: gep_events --prom parses a dump's embedded
  // registry JSON back into samples. Shapes must agree with
  // snapshot_json()'s writer.
  const char* json =
      "{\"counters\":{\"x.total\":7},"
      "\"gauges\":{\"g.v\":2.5},"
      "\"histograms\":{\"h\":{\"count\":3,\"p50\":1,\"p95\":7,\"max\":7,"
      "\"buckets\":[[0,2],[3,1]]}}}";
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(json, &v, &err)) << err;
  const std::vector<obs::MetricSample> samples =
      obs::expo::samples_from_snapshot_json(v);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].kind, obs::MetricSample::Kind::Counter);
  EXPECT_EQ(samples[0].name, "x.total");
  EXPECT_EQ(samples[0].count, 7u);
  EXPECT_EQ(samples[1].kind, obs::MetricSample::Kind::Gauge);
  EXPECT_EQ(samples[1].value, 2.5);
  EXPECT_EQ(samples[2].kind, obs::MetricSample::Kind::Histogram);
  EXPECT_EQ(samples[2].count, 3u);
  ASSERT_EQ(samples[2].buckets.size(),
            static_cast<std::size_t>(obs::kHistBuckets));
  EXPECT_EQ(samples[2].buckets[0], 2u);
  EXPECT_EQ(samples[2].buckets[3], 1u);
  // And it renders with the same ladder as a live histogram would.
  const std::string text =
      obs::expo::exposition(samples, obs::expo::BuildInfo{});
  EXPECT_NE(text.find("gep_h_bucket{le=\"7\"} 3"), std::string::npos);
  EXPECT_NE(text.find("gep_x_total_total 7"), std::string::npos);
}

// Everything below exercises live behavior that only exists in
// instrumented builds; GEP_OBS=0 inertness is pinned by test_obs_off.
#if GEP_OBS

// ---- gauge producers ------------------------------------------------------

TEST(StatGauge, AddIsRelativeAndThreadSafe) {
  obs::Gauge g = obs::gauge("test.stat.add");
  g.set(0.0);
  g.add(2.0);
  g.add(-0.5);
  EXPECT_EQ(g.value(), 1.5);
  g.set(0.0);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(1.0);
      for (int i = 0; i < 1000; ++i) g.add(-1.0);
    });
  }
  for (std::thread& t : ts) t.join();
  EXPECT_EQ(g.value(), 0.0) << "CAS add must not lose updates";
}

TEST(StatGauge, WorkStealingPoolPublishesActiveWorkers) {
  obs::Gauge g = obs::gauge("parallel.ws.active_workers");
  {
    WorkStealingPool pool(3);
    WsTaskGroup group(&pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) group.run([&ran] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 8);
  }
  // All workers exited: the level gauge must balance back to zero.
  EXPECT_EQ(g.value(), 0.0);
}

// ---- watchdog status ------------------------------------------------------

TEST(StatWatchdog, StatusReportsStallAndRecovery) {
  ASSERT_FALSE(obs::Watchdog::running());
  obs::WatchdogThreadSource src("test-status-stall");
  obs::Watchdog::Options opts;
  opts.threshold_ms = 100.0;
  opts.poll_ms = 25.0;
  opts.dump_on_stall = false;
  ASSERT_TRUE(obs::Watchdog::start(opts));

  obs::flight::record(obs::flightfmt::kMark, 0);
  EXPECT_TRUE(obs::Watchdog::status().healthy());

  // Silence: within ~1.5x threshold the monitor opens an incident and
  // status() must report this source as the (worst) offender.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const obs::WatchdogStatus stalled = obs::Watchdog::status();
  EXPECT_EQ(stalled.state, obs::WatchdogStatus::State::Stalled);
  EXPECT_FALSE(stalled.healthy());
  EXPECT_EQ(stalled.source, "test-status-stall");
  EXPECT_GT(stalled.age_ms, 100.0);
  EXPECT_GE(stalled.stalls, 1u);

  // An event followed by a park ends the incident: a parked thread is
  // exempt from checks (a parked worker is not a stall), so the earlier
  // detections leave the status at Recovered — and healthy() again
  // (recovered jobs must not fail liveness probes).
  obs::flight::record(obs::flightfmt::kMark, 1);
  obs::flight::record(obs::flightfmt::kTaskPark);
  const obs::WatchdogStatus after = obs::Watchdog::status();
  EXPECT_EQ(after.state, obs::WatchdogStatus::State::Recovered);
  EXPECT_TRUE(after.healthy());

  obs::Watchdog::stop();
}

// ---- handle(): the router the serve loop and the tests share -------------

TEST(StatHandle, MetricsIsValidExpositionWithServerHistogram) {
  obs::StatServer::set_build_info("cafef00d", "avx512");
  int st = 0;
  std::string ct;
  const std::string body = obs::StatServer::handle("/metrics", &st, &ct);
  EXPECT_EQ(st, 200);
  EXPECT_EQ(ct, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(body.find("gep_build_info{sha=\"cafef00d\","
                      "dispatch_level=\"avx512\",obs=\"on\"} 1"),
            std::string::npos);
  // handle() observes its own latency, so a second scrape always sees
  // the server's histogram with populated buckets.
  const std::string again = obs::StatServer::handle("/metrics", &st, &ct);
  EXPECT_NE(again.find("gep_obs_stat_requests_total"), std::string::npos);
  EXPECT_NE(again.find("gep_obs_stat_handle_ns_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(again.find("gep_obs_stat_handle_ns_count"), std::string::npos);
  // Promtool-style line discipline: every non-comment line is
  // "name{labels} value" or "name value".
  std::size_t pos = 0;
  while (pos < again.size()) {
    const std::size_t eol = again.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "exposition must end with \\n";
    const std::string line = again.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.rfind("gep_", 0), 0u) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(StatHandle, RequestCountersAdvance) {
  const std::uint64_t before = obs::StatServer::requests_served();
  int st = 0;
  obs::StatServer::handle("/", &st, nullptr);
  obs::StatServer::handle("/progress", &st, nullptr);
  EXPECT_EQ(obs::StatServer::requests_served(), before + 2);
}

TEST(StatHandle, UnknownPathIs404) {
  int st = 0;
  std::string ct;
  const std::string body = obs::StatServer::handle("/nope", &st, &ct);
  EXPECT_EQ(st, 404);
  EXPECT_EQ(ct, "application/json");
  EXPECT_NE(body.find("not found"), std::string::npos);
}

TEST(StatHandle, ProgressInactiveThenPublished) {
  int st = 0;
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/progress", &st, nullptr), &v, &err))
      << err;
  EXPECT_FALSE(v["active"].as_bool());

  obs::ProgressMeter meter;
  meter.begin(1000.0, 1e9);
  {
    obs::ScopedStatProgress pub(meter, "test-leg");
    ASSERT_TRUE(obs::JsonValue::parse(
        obs::StatServer::handle("/progress", &st, nullptr), &v, &err))
        << err;
    EXPECT_TRUE(v["active"].as_bool());
    EXPECT_EQ(v["label"].as_string(), "test-leg");
    EXPECT_EQ(v["updates_total"].as_double(), 1000.0);
    EXPECT_GE(v["fraction"].as_double(), 0.0);
  }
  // RAII teardown unpublishes.
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/progress", &st, nullptr), &v, &err))
      << err;
  EXPECT_FALSE(v["active"].as_bool());
}

TEST(StatHandle, ClearProgressIgnoresStaleMeter) {
  obs::ProgressMeter a, b;
  a.begin(10.0);
  b.begin(20.0);
  obs::StatServer::set_progress(&a, "a");
  obs::StatServer::set_progress(&b, "b");
  obs::StatServer::clear_progress(&a);  // stale: must NOT clobber b
  int st = 0;
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/progress", &st, nullptr), &v, &err))
      << err;
  EXPECT_TRUE(v["active"].as_bool());
  EXPECT_EQ(v["label"].as_string(), "b");
  obs::StatServer::clear_progress(&b);
}

TEST(StatHandle, IoModelComparesMeasuredToPrediction) {
  int st = 0;
  obs::JsonValue v;
  std::string err;
  const obs::IoBoundPrediction pred =
      obs::igep_io_prediction(1024.0, 1 << 20, 1 << 12);
  std::atomic<std::uint64_t> measured{0};
  {
    obs::ScopedStatIoModel pub(
        pred, [&measured] { return measured.load(); });
    measured.store(static_cast<std::uint64_t>(pred.total()));
    ASSERT_TRUE(obs::JsonValue::parse(
        obs::StatServer::handle("/io", &st, nullptr), &v, &err))
        << err;
    EXPECT_TRUE(v["active"].as_bool());
    EXPECT_EQ(v["io_predicted"].as_double(), pred.total());
    EXPECT_NEAR(v["io_ratio"].as_double(), 1.0, 1e-2);
  }
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/io", &st, nullptr), &v, &err))
      << err;
  EXPECT_FALSE(v["active"].as_bool());
}

TEST(StatHandle, ProfileIsParsableJson) {
  int st = 0;
  std::string ct;
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/profile", &st, &ct), &v, &err))
      << err;
  EXPECT_EQ(st, 200);
  EXPECT_TRUE(v["entries"].is_array());
}

TEST(StatHandle, HealthzFlipsTo503DuringStallAndBack) {
  ASSERT_FALSE(obs::Watchdog::running());
  int st = 0;
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/healthz", &st, nullptr), &v, &err))
      << err;
  EXPECT_EQ(st, 200) << "no watchdog, no degradation: healthy";

  obs::WatchdogThreadSource src("test-healthz-stall");
  obs::Watchdog::Options opts;
  opts.threshold_ms = 100.0;
  opts.poll_ms = 25.0;
  opts.dump_on_stall = false;
  ASSERT_TRUE(obs::Watchdog::start(opts));
  obs::flight::record(obs::flightfmt::kMark, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/healthz", &st, nullptr), &v, &err))
      << err;
  EXPECT_EQ(st, 503) << "an open stall incident must fail the probe";
  EXPECT_EQ(v["status"].as_string(), "stalled");
  EXPECT_EQ(v["watchdog"]["state"].as_string(), "stalled");
  EXPECT_EQ(v["watchdog"]["source"].as_string(), "test-healthz-stall");

  obs::flight::record(obs::flightfmt::kMark, 1);
  obs::flight::record(obs::flightfmt::kTaskPark);  // work done: exempt
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/healthz", &st, nullptr), &v, &err))
      << err;
  EXPECT_EQ(st, 200) << "a closed incident restores the probe";
  EXPECT_EQ(v["status"].as_string(), "ok");
  EXPECT_EQ(v["watchdog"]["state"].as_string(), "recovered");

  obs::Watchdog::stop();
}

TEST(StatHandle, HealthzDegradesWithAsyncGauge) {
  ASSERT_FALSE(obs::Watchdog::running());
  obs::Gauge g = obs::gauge("extmem.async.degraded");
  g.set(1.0);
  int st = 0;
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/healthz", &st, nullptr), &v, &err))
      << err;
  EXPECT_EQ(st, 503);
  EXPECT_EQ(v["status"].as_string(), "degraded");
  EXPECT_TRUE(v["async_degraded"].as_bool());
  g.set(0.0);
  ASSERT_TRUE(obs::JsonValue::parse(
      obs::StatServer::handle("/healthz", &st, nullptr), &v, &err))
      << err;
  EXPECT_EQ(st, 200);
}

// ---- the live listener ----------------------------------------------------

TEST(StatServerLive, ServesAllEndpointsOverRealSockets) {
  ScopedServer server(0);  // ephemeral: never collides with CI jobs
  ASSERT_TRUE(server.up);
  ASSERT_TRUE(obs::StatServer::running());
  ASSERT_GT(server.port(), 0);
  EXPECT_FALSE(obs::StatServer::start(0)) << "double start must refuse";

  const HttpReply metrics = http_get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.head.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gep_build_info"), std::string::npos);

  for (const char* path : {"/healthz", "/progress", "/profile", "/io"}) {
    const HttpReply r = http_get(server.port(), path);
    EXPECT_GE(r.status, 200) << path;
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::JsonValue::parse(r.body, &v, &err)) << path << ": "
                                                         << err;
  }
  const HttpReply index = http_get(server.port(), "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  // HEAD: headers only, with the body's true Content-Length.
  const HttpReply head = http_txn(
      server.port(), "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  EXPECT_NE(head.head.find("Content-Length: "), std::string::npos);
}

TEST(StatServerLive, RejectsMalformedOversizedAndNonGet) {
  ScopedServer server(0);
  ASSERT_TRUE(server.up);

  EXPECT_EQ(http_txn(server.port(), "BOGUS\r\n\r\n").status, 400);
  EXPECT_EQ(http_txn(server.port(), "GET /metrics\r\n\r\n").status, 400)
      << "missing HTTP version";

  const HttpReply post = http_txn(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(post.status, 405);
  EXPECT_NE(post.head.find("Allow: GET, HEAD"), std::string::npos);

  // A request head larger than the 8 KiB cap is refused without the
  // server buffering it forever.
  std::string huge = "GET /";
  huge.append(10 * 1024, 'a');
  huge += " HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(http_txn(server.port(), huge).status, 400);
}

TEST(StatServerLive, SlowClientCompletesAndHungClientDoesNotBlockOthers) {
  ScopedServer server(0);
  ASSERT_TRUE(server.up);

  // A connection that never sends a byte must not stop other clients
  // from being served (it is reaped by the per-conn deadline later).
  const int hung = connect_loopback(server.port());
  ASSERT_GE(hung, 0);

  // A trickled request still gets its response once complete.
  const int slow = connect_loopback(server.port());
  ASSERT_GE(slow, 0);
  const std::string req = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::size_t half = req.size() / 2;
  ASSERT_EQ(::send(slow, req.data(), half, 0),
            static_cast<ssize_t>(half));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::send(slow, req.data() + half, req.size() - half, 0),
            static_cast<ssize_t>(req.size() - half));
  const HttpReply trickled = read_reply(slow);
  ::close(slow);
  EXPECT_EQ(trickled.status, 200);

  EXPECT_EQ(http_get(server.port(), "/metrics").status, 200)
      << "a hung peer must not starve the poll loop";
  ::close(hung);
}

TEST(StatServerLive, PortInUseFallsBackToNeighborPort) {
  // Occupy a port with a plain listener, then ask the server for it:
  // it must come up anyway on a different port and report it.
  const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(blocker, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int taken = static_cast<int>(ntohs(addr.sin_port));

  ScopedServer server(taken);
  ASSERT_TRUE(server.up) << "a busy port must not keep the exporter down";
  EXPECT_NE(server.port(), taken);
  EXPECT_EQ(http_get(server.port(), "/healthz").status, 200);
  ::close(blocker);
}

TEST(StatServerLive, StartFromEnvParsesPortStrictly) {
  ASSERT_FALSE(obs::StatServer::running());
  ::unsetenv("GEP_STAT_PORT");
  EXPECT_FALSE(obs::StatServer::start_from_env());
  ::setenv("GEP_STAT_PORT", "", 1);
  EXPECT_FALSE(obs::StatServer::start_from_env());
  ::setenv("GEP_STAT_PORT", "notaport", 1);
  EXPECT_FALSE(obs::StatServer::start_from_env());
  ::setenv("GEP_STAT_PORT", "-1", 1);
  EXPECT_FALSE(obs::StatServer::start_from_env());
  ::setenv("GEP_STAT_PORT", "70000", 1);
  EXPECT_FALSE(obs::StatServer::start_from_env());
  ::setenv("GEP_STAT_PORT", "0", 1);  // valid: ephemeral
  EXPECT_TRUE(obs::StatServer::start_from_env());
  EXPECT_GT(obs::StatServer::port(), 0);
  obs::StatServer::stop();
  ::unsetenv("GEP_STAT_PORT");
}

TEST(StatServerLive, ConcurrentScrapesWhileJobRuns) {
  ScopedServer server(0);
  ASSERT_TRUE(server.up);
  const int port = server.port();

  // A "job": counters ticking and a published progress meter, exactly
  // what a scraper sees mid-run.
  obs::ProgressMeter meter;
  meter.begin(1e6, 1e9);
  obs::ScopedStatProgress pub(meter, "stress");
  std::atomic<bool> stop{false};
  std::thread job([&stop] {
    obs::Counter c = obs::counter("test.stat.jobticks");
    while (!stop.load()) {
      c.inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const char* paths[] = {"/metrics", "/healthz", "/progress", "/profile",
                         "/io"};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&failures, port, &paths, t] {
      for (int i = 0; i < 20; ++i) {
        const HttpReply r = http_get(port, paths[(t + i) % 5]);
        if (r.status < 200 || r.body.empty()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true);
  job.join();
  EXPECT_EQ(failures.load(), 0)
      << "every concurrent scrape must get a complete response";
  EXPECT_GE(obs::StatServer::requests_served(), 80u);
}

#endif  // GEP_OBS

}  // namespace
}  // namespace gep
