// The embedded status server, bottom to top: the Prometheus renderer, the
// request router (no sockets), the live view it shares with the heartbeat
// (and the Span that names its phase), the real
// HTTP/1.1 transport (timeouts, oversized requests, port-in-use soft
// degradation) — and the layer's hard invariant: a spilled multi-shard
// search scraped in a tight client loop produces certificates, incumbent
// logs and checkpoints byte-identical to an unobserved serial run.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "test_paths.hpp"
#include "exp/search_driver.hpp"
#include "support/statusd.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace aurv {
namespace {

namespace statusd = support::statusd;
namespace telemetry = support::telemetry;
using exp::SearchOptions;
using exp::SearchSpec;
using numeric::Rational;
using support::Json;
using testpaths::copy_dir;
using testpaths::fresh_dir;
using testpaths::slurp;
using testpaths::temp_path;

// ------------------------------------------------------------- helpers --

/// One blocking HTTP GET against the loopback server: full raw response
/// (status line + headers + body), or "" when the connection yields no
/// bytes (refused, or dropped by a server-side timeout).
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ------------------------------------------------- prometheus renderer --

TEST(StatusdPrometheus, RendersCountersGaugesAndRunInfo) {
  telemetry::registry().reset();
  telemetry::registry().counter("statusd-test.count").add(3);
  telemetry::registry().gauge("statusd_test.level").set(-5);

  telemetry::RunInfo run;
  run.kind = "search";
  run.spec = "spec\"with\\odd\nchars.json";
  run.fingerprint = "deadbeefdeadbeef";
  run.threads = 4;
  const std::string text =
      statusd::render_prometheus(telemetry::registry().read_snapshot(), run, 1.5);

  EXPECT_TRUE(contains(text,
                       "aurv_run_info{kind=\"search\",spec=\"spec\\\"with\\\\odd\\nchars.json\","
                       "fingerprint=\"deadbeefdeadbeef\",threads=\"4\"} 1\n"));
  EXPECT_TRUE(contains(text, "aurv_uptime_seconds 1.500000000\n"));
  // Dots and dashes both mangle to underscores; counters carry _total.
  EXPECT_TRUE(contains(text, "# TYPE aurv_statusd_test_count_total counter\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_count_total 3\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_level -5\n"));
}

TEST(StatusdPrometheus, HistogramBucketsAreCumulativeWithInf) {
  telemetry::registry().reset();
  auto& histogram = telemetry::registry().histogram("statusd_test.hist");
  histogram.record(0);    // bucket le="0"
  histogram.record(1);    // bucket le="1"
  histogram.record(5);    // bucket le="7"
  histogram.record(100);  // bucket le="127"
  const std::string text =
      statusd::render_prometheus(telemetry::registry().read_snapshot(), telemetry::RunInfo{}, 0.0);

  EXPECT_TRUE(contains(text, "# TYPE aurv_statusd_test_hist histogram\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_hist_bucket{le=\"0\"} 1\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_hist_bucket{le=\"1\"} 2\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_hist_bucket{le=\"7\"} 3\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_hist_bucket{le=\"127\"} 4\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_hist_bucket{le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_hist_sum 106\n"));
  EXPECT_TRUE(contains(text, "aurv_statusd_test_hist_count 4\n"));
}

// ----------------------------------------------------------- routing --

TEST(StatusdRouter, RejectsNonGetAndUnknownPaths) {
  telemetry::registry().reset();
  const statusd::Response post = statusd::handle_request("POST", "/metrics", {}, 0.0);
  EXPECT_EQ(post.status, 405);
  const statusd::Response missing = statusd::handle_request("GET", "/nope", {}, 0.0);
  EXPECT_EQ(missing.status, 404);
  EXPECT_TRUE(contains(missing.body, "/metrics"));  // 404 lists the endpoints
  EXPECT_GE(telemetry::registry().counter("statusd.requests").value(), 2u);
}

TEST(StatusdRouter, JsonBodiesEndInExactlyOneNewline) {
  telemetry::registry().reset();
  ASSERT_TRUE(support::trace::sink().open(temp_path("statusd_router_newline.json")));
  for (const auto& [method, target, status] :
       {std::tuple{"GET", "/status", 200}, std::tuple{"GET", "/nope", 404},
        std::tuple{"POST", "/status", 405}, std::tuple{"GET", "/trace?last=bogus", 400}}) {
    const statusd::Response response = statusd::handle_request(method, target, {}, 0.0);
    EXPECT_EQ(response.status, status) << target;
    ASSERT_GE(response.body.size(), 2u) << target;
    EXPECT_EQ(response.body.back(), '\n') << target;
    EXPECT_NE(response.body[response.body.size() - 2], '\n') << target;
  }
  support::trace::sink().close();
}

TEST(StatusdRouter, HealthzReflectsDegradedGauges) {
  telemetry::registry().reset();
  const statusd::Response healthy = statusd::handle_request("GET", "/healthz", {}, 0.0);
  EXPECT_EQ(healthy.status, 200);
  EXPECT_EQ(healthy.body, "ok\n");

  telemetry::registry().gauge("statusd_test.degraded").set(1);
  const statusd::Response sick = statusd::handle_request("GET", "/healthz", {}, 0.0);
  EXPECT_EQ(sick.status, 503);
  EXPECT_TRUE(contains(sick.body, "statusd_test.degraded"));
  telemetry::registry().gauge("statusd_test.degraded").set(0);
}

TEST(StatusdRouter, StatusEmbedsRunAndProviders) {
  telemetry::registry().reset();
  telemetry::RunInfo run;
  run.kind = "campaign";
  run.spec = "scenario.json";
  run.fingerprint = "0123456789abcdef";
  run.threads = 2;
  telemetry::registry().gauge("runner.jobs_done").set(12);
  const statusd::Response response = statusd::handle_request("GET", "/status", run, 3.0);
  EXPECT_EQ(response.status, 200);
  const Json body = Json::parse(response.body);
  EXPECT_EQ(body.at("kind").as_string(), "campaign");
  EXPECT_EQ(body.at("fingerprint").as_string(), "0123456789abcdef");
  EXPECT_EQ(body.at("threads").as_uint(), 2u);
  EXPECT_EQ(body.at("gauges").at("runner.jobs_done").as_int(), 12);
}

TEST(StatusdRouter, TraceEndpointNeedsAnOpenSink) {
  support::trace::sink().close();
  const statusd::Response off = statusd::handle_request("GET", "/trace", {}, 0.0);
  EXPECT_EQ(off.status, 404);

  ASSERT_TRUE(support::trace::sink().open(temp_path("statusd_router_trace.json")));
  support::trace::sink().emit(R"({"name":"a","cat":"t","ph":"X","ts":1,"dur":2,"pid":1,"tid":0})");
  support::trace::sink().emit(R"({"name":"b","cat":"t","ph":"X","ts":3,"dur":4,"pid":1,"tid":0})");
  const statusd::Response two = statusd::handle_request("GET", "/trace?last=2", {}, 0.0);
  EXPECT_EQ(two.status, 200);
  const Json spans = Json::parse(two.body).at("spans");
  ASSERT_EQ(spans.as_array().size(), 2u);
  EXPECT_EQ(spans.as_array()[0].at("name").as_string(), "a");
  EXPECT_EQ(spans.as_array()[1].at("name").as_string(), "b");

  for (const char* malformed : {"/trace?last=bogus", "/trace?last=", "/trace?last=-1",
                                "/trace?last=+2", "/trace?last=2x",
                                "/trace?last=99999999999999999999"}) {
    EXPECT_EQ(statusd::handle_request("GET", malformed, {}, 0.0).status, 400) << malformed;
  }
  const statusd::Response all = statusd::handle_request("GET", "/trace?last=4294967296", {}, 0.0);
  EXPECT_EQ(all.status, 200);
  // The header event plus the two spans: the whole ring, oldest first.
  const Json whole = Json::parse(all.body);
  const Json::Array& tail = whole.at("spans").as_array();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].at("name").as_string(), "process_name");
  EXPECT_EQ(tail[2].at("name").as_string(), "b");
  support::trace::sink().close();
}

TEST(StatusdRouter, TraceTailKeepsTheLast1024Events) {
  ASSERT_TRUE(support::trace::sink().open(temp_path("statusd_router_ring.json")));
  for (int k = 0; k < 1100; ++k) {
    support::trace::sink().emit(R"({"name":"e)" + std::to_string(k) +
                                R"(","cat":"t","ph":"i","s":"p","ts":0,"pid":1,"tid":0})");
  }
  const std::vector<std::string> ring = support::trace::sink().recent(5000);
  ASSERT_EQ(ring.size(), 1024u);
  EXPECT_EQ(Json::parse(ring.front()).at("name").as_string(), "e76");  // 1101 lines - 1024 + header
  EXPECT_EQ(Json::parse(ring.back()).at("name").as_string(), "e1099");
  const Json last3 = Json::parse(statusd::handle_request("GET", "/trace?last=3", {}, 0.0).body);
  const Json::Array& tail = last3.at("spans").as_array();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].at("name").as_string(), "e1097");
  EXPECT_EQ(tail[2].at("name").as_string(), "e1099");
  support::trace::sink().close();
}

// --------------------------------------------------------- live view --

/// The keys of a JSON object, in order.
std::vector<std::string> keys_of(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.as_object()) keys.push_back(key);
  return keys;
}

/// One synchronous heartbeat line for `run`, parsed.
Json beat_once(const telemetry::RunInfo& run) {
  const std::string path = temp_path("statusd_live_view_beat.jsonl");
  std::FILE* out = std::fopen(path.c_str(), "wb");
  EXPECT_NE(out, nullptr);
  {
    telemetry::HeartbeatConfig config;
    config.interval_s = 0.0;  // manual beats only
    config.out = out;
    config.run = run;
    telemetry::Heartbeat heartbeat(std::move(config));
    heartbeat.beat_now();
  }
  std::fclose(out);
  return Json::parse(slurp(path));
}

TEST(StatusdLiveView, StatusKeysAreHeartbeatKeysMinusBeatAndRates) {
  telemetry::registry().reset();
  telemetry::registry().counter("statusd_test.keys").add(2);
  telemetry::RunInfo run;
  run.kind = "search";
  const Json line = beat_once(run);
  const Json status = Json::parse(statusd::handle_request("GET", "/status", run, 1.0).body);

  std::vector<std::string> expected;
  for (const std::string& key : keys_of(line))
    if (key != "heartbeat" && key != "rates") expected.push_back(key);
  EXPECT_EQ(keys_of(status), expected);
  EXPECT_EQ(expected, (std::vector<std::string>{"kind", "spec", "fingerprint", "threads",
                                                 "elapsed_s", "phase", "counters", "gauges",
                                                 "degraded"}));
  EXPECT_TRUE(line.at("rates").is_object());
}

TEST(StatusdLiveView, SpanTimesAnnouncesAndTraces) {
  telemetry::registry().reset();
  telemetry::Timer& timer = telemetry::registry().timer("statusd_test.span");
  const std::string trace_path = temp_path("statusd_span_trace.json");
  ASSERT_TRUE(support::trace::sink().open(trace_path));
  {
    const support::trace::Span span(timer, "unit-phase", "test", {.announce = true});
    EXPECT_EQ(beat_once({}).at("phase").as_string(), "unit-phase");
    const Json status = Json::parse(statusd::handle_request("GET", "/status", {}, 0.0).body);
    EXPECT_EQ(status.at("phase").as_string(), "unit-phase");
  }
  support::trace::sink().close();
  EXPECT_EQ(timer.count(), 1u);
  EXPECT_EQ(beat_once({}).at("phase").as_string(), "");

  std::uint64_t complete_events = 0;
  const Json document = Json::load_file(trace_path);
  for (const Json& event : document.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    ++complete_events;
    EXPECT_EQ(event.at("name").as_string(), "unit-phase");
    EXPECT_EQ(event.at("cat").as_string(), "test");
  }
  EXPECT_EQ(complete_events, 1u);
}

// ---------------------------------------------------------- transport --

TEST(StatusdServer, ServesAllEndpointsOverHttp) {
  telemetry::registry().reset();
  telemetry::registry().counter("statusd_test.live").add(1);
  statusd::Config config;
  config.run.kind = "search";
  config.run.fingerprint = "feedfacefeedface";
  const auto server = statusd::StatusServer::start(std::move(config));
  ASSERT_NE(server, nullptr);
  EXPECT_GT(server->port(), 0);

  const std::string health = http_get(server->port(), "/healthz");
  EXPECT_TRUE(contains(health, "200 OK"));
  EXPECT_TRUE(contains(health, "ok\n"));

  const std::string metrics = http_get(server->port(), "/metrics");
  EXPECT_TRUE(contains(metrics, "text/plain; version=0.0.4"));
  EXPECT_TRUE(contains(metrics, "aurv_statusd_test_live_total 1\n"));
  EXPECT_TRUE(contains(metrics, "fingerprint=\"feedfacefeedface\""));

  const std::string status = http_get(server->port(), "/status");
  EXPECT_TRUE(contains(status, "application/json"));
  EXPECT_TRUE(contains(status, "\"kind\": \"search\""));
}

TEST(StatusdServer, PortInUseDegradesSoft) {
  telemetry::registry().reset();
  const auto first = statusd::StatusServer::start({});
  ASSERT_NE(first, nullptr);

  statusd::Config clashing;
  clashing.port = first->port();
  const auto second = statusd::StatusServer::start(std::move(clashing));
  EXPECT_EQ(second, nullptr);
  EXPECT_EQ(telemetry::registry().counter("statusd.dropped").value(), 1u);
  // The first server is unaffected by the failed bind.
  EXPECT_TRUE(contains(http_get(first->port(), "/healthz"), "200 OK"));
}

TEST(StatusdServer, SlowClientTimesOutWithoutWedgingService) {
  statusd::Config config;
  config.timeout_ms = 100;
  const auto server = statusd::StatusServer::start(std::move(config));
  ASSERT_NE(server, nullptr);

  // A client that connects and never sends: the server must drop it at
  // the read deadline and get back to serving.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let accept() pick it up

  const std::string after = http_get(server->port(), "/healthz");
  EXPECT_TRUE(contains(after, "200 OK")) << "server wedged behind a stalled client";

  char byte = 0;
  EXPECT_LE(::recv(stalled, &byte, 1, 0), 0);  // dropped without a response
  ::close(stalled);
}

TEST(StatusdServer, OversizedRequestIsRejected) {
  const auto server = statusd::StatusServer::start({});
  ASSERT_NE(server, nullptr);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  // Exactly the 8 KiB cap and no header terminator: the server answers
  // 400 with nothing left unread, so its close cannot reset the reply.
  const std::string flood = "GET /" + std::string(8192 - 5, 'A');
  (void)::send(fd, flood.data(), flood.size(), 0);
  std::string response;
  char chunk[1024];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_TRUE(contains(response, "400"));
}

// -------------------------------------------------------- determinism --

/// The same fast tuple-space spec the telemetry/spill determinism tests
/// use: 48 boxes in waves of 8 — several waves, several incumbents.
SearchSpec search_spec() {
  SearchSpec spec;
  spec.name = "test_statusd_search";
  spec.algorithm = "aurv";
  spec.objective = "max-meet-time";
  spec.space.family = search::SearchSpace::Family::Tuple;
  spec.space.chi = -1;
  spec.space.fixed = {{"r", Rational(1)},
                      {"y", Rational(numeric::BigInt(6), numeric::BigInt(5))},
                      {"phi", Rational(0)}};
  spec.space.dim_names = {"x", "t"};
  spec.box = {search::Interval{Rational(numeric::BigInt(3), numeric::BigInt(2)),
                               Rational(numeric::BigInt(7), numeric::BigInt(2))},
              search::Interval{Rational(0), Rational(3)}};
  spec.limits.max_boxes = 48;
  spec.limits.wave_size = 8;
  spec.limits.min_width = Rational(numeric::BigInt(1), numeric::BigInt(64));
  spec.engine.max_events = 2'000'000;
  spec.engine.horizon = Rational(256);
  return spec;
}

/// (relative path, bytes) of every regular file under `dir`, sorted —
/// the whole-directory byte-identity primitive.
std::map<std::string, std::string> dir_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[std::filesystem::relative(entry.path(), dir).string()] = slurp(entry.path().string());
  }
  return files;
}

TEST(StatusdDeterminism, ArtifactsByteIdenticalUnderScraping) {
  const SearchSpec spec = search_spec();
  // Checkpoints may embed the paths they were asked to write, so both
  // runs use the *same* option paths; the baseline is stashed between.
  const std::string log_path = temp_path("statusd_det.jsonl");
  const std::string ckpt_leaf = "statusd_det_ckpt";
  const std::string spill_leaf = "statusd_det_spill";

  SearchOptions options;
  options.max_shards = 1;
  options.incumbent_log_path = log_path;
  options.checkpoint_path = fresh_dir(ckpt_leaf) + "/base.json";
  options.checkpoint_every = 2;
  options.spill_dir = fresh_dir(spill_leaf);
  options.frontier_mem = 2;

  // Baseline: serial, spilled, checkpointed, unobserved.
  telemetry::registry().reset();
  const exp::SearchRunResult baseline = exp::run_search(spec, options);
  const std::string baseline_certificate = baseline.certificate(spec).dump(2);
  const std::string baseline_log = slurp(log_path);
  const std::string stash = temp_path("statusd_det_ckpt_stash");
  copy_dir(temp_path(ckpt_leaf), stash);

  // Observed: 4 shards, the status server up, and a client hammering all
  // four endpoints in a tight loop for the whole run.
  telemetry::registry().reset();
  options.max_shards = 4;
  (void)fresh_dir(ckpt_leaf);
  (void)fresh_dir(spill_leaf);
  statusd::Config config;
  config.run.kind = "search";
  config.run.fingerprint = "0";
  config.run.threads = 4;
  const auto server = statusd::StatusServer::start(std::move(config));
  ASSERT_NE(server, nullptr);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const char* target : {"/metrics", "/status", "/healthz", "/trace?last=8"}) {
        if (!http_get(server->port(), target).empty()) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  const exp::SearchRunResult observed = exp::run_search(spec, options);
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(observed.certificate(spec).dump(2), baseline_certificate);
  EXPECT_EQ(slurp(log_path), baseline_log);
  EXPECT_EQ(dir_bytes(temp_path(ckpt_leaf)), dir_bytes(stash))
      << "checkpoint bytes must not see the observer";
  EXPECT_GT(scrapes.load(), 0u) << "the server was never actually scraped";
}

}  // namespace
}  // namespace aurv
