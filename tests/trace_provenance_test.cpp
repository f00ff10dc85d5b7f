// The PR-8 observability contract, enforced end to end:
//
//   * the prune-provenance stream is byte-identical at any worker count,
//     with spilling on or off, and across checkpoint/resume — and turning
//     it on changes no other artifact, including the checkpoint bytes;
//   * the trace sink records real runs as loadable Chrome-trace JSON and
//     never perturbs a deterministic artifact;
//   * both writers degrade soft under injected I/O faults: torn writes
//     are absorbed by bounded retry, a dead disk drops the diagnostic
//     stream (visible in trace.dropped / provenance.dropped) while the
//     run and its artifacts continue untouched, and a failed trace close
//     degrades the sink like a failed write;
//   * the activity stack feeds the heartbeat's "phase" field.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "test_paths.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/search_driver.hpp"
#include "support/json.hpp"
#include "support/statusd.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"
#include "support/vfs.hpp"

namespace aurv {
namespace {

namespace fs = std::filesystem;
namespace telemetry = support::telemetry;
namespace statusd = support::statusd;
namespace trace = support::trace;
using exp::SearchSpec;
using numeric::Rational;
using search::BnbOptions;
using support::FaultClass;
using support::FaultSchedule;
using support::FaultSpec;
using support::FaultVfs;
using support::Json;
using support::ScopedVfs;
using testpaths::fresh_dir;
using testpaths::slurp;
using testpaths::temp_path;

/// The same fast tuple-space spec the telemetry/spill determinism tests
/// use: 48 boxes in waves of 8 — several waves, incumbents and prunes.
SearchSpec search_spec() {
  SearchSpec spec;
  spec.name = "test_provenance_search";
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

exp::ScenarioSpec campaign_spec() {
  exp::ScenarioSpec spec;
  spec.name = "test_provenance_campaign";
  spec.algorithm = "aurv";
  spec.seed = 7;
  spec.sampler = "type2";
  spec.count = 40;
  spec.engine.max_events = 2'000'000;
  return spec;
}

/// Returns every regular file under `dir` as name -> contents; the
/// sharpest possible "these two runs left identical state" comparator.
std::map<std::string, std::string> dir_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file())
      files[entry.path().filename().string()] = slurp(entry.path().string());
  }
  return files;
}

/// Re-arms the global sink on a healthy scratch path and seals it again,
/// clearing any degraded state a fault test left behind.
void reset_trace_sink() {
  trace::sink().open(temp_path("trace_reset_scratch.json"));
  trace::sink().close();
}

std::uint64_t counter_value(const char* name) {
  return telemetry::registry().counter(name).value();
}

// ---------------------------------------------------------- activity stack --

TEST(TraceProvenance, ActivityStackTracksNestedAndOutOfOrderSpans) {
  telemetry::ActivityStack& stack = telemetry::activity();
  EXPECT_EQ(stack.current(), "");

  const std::uint64_t outer = stack.push("run");
  EXPECT_EQ(stack.current(), "run");
  const std::uint64_t inner = stack.push("wave");
  EXPECT_EQ(stack.current(), "wave");

  // Spans are not strictly LIFO (shard-local spans end in merge order):
  // popping the outer token first must keep the inner name current.
  stack.pop(outer);
  EXPECT_EQ(stack.current(), "wave");
  stack.pop(inner);
  EXPECT_EQ(stack.current(), "");

  stack.pop(inner);  // double-pop is a no-op, not a crash
  EXPECT_EQ(stack.current(), "");
}

TEST(TraceProvenance, HeartbeatLinesNameTheActivePhase) {
  const std::string path = temp_path("trace_heartbeat_phase.jsonl");
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  {
    telemetry::HeartbeatConfig config;
    config.interval_s = 0.0;  // manual beats only
    config.out = out;
    telemetry::Heartbeat heartbeat(std::move(config));
    {
      const trace::Span phase(telemetry::registry().timer("test.phase"), "wave", "test",
                              {.announce = true});
      heartbeat.beat_now();
    }
    heartbeat.beat_now();  // idle again
  }
  std::fclose(out);

  const std::string text = slurp(path);
  const std::size_t split = text.find('\n');
  ASSERT_NE(split, std::string::npos);
  const Json busy = Json::parse(text.substr(0, split));
  EXPECT_EQ(busy.at("phase").as_string(), "wave");
  const Json idle = Json::parse(text.substr(split + 1));
  EXPECT_EQ(idle.at("phase").as_string(), "");
}

// ------------------------------------------- provenance determinism matrix --

TEST(TraceProvenance, ProvenanceByteIdenticalAcrossWorkersAndSpill) {
  const SearchSpec spec = search_spec();

  BnbOptions serial;
  serial.max_shards = 1;
  serial.provenance_path = temp_path("prov_serial.jsonl");
  const std::string serial_cert = exp::run_search(spec, serial).certificate(spec).dump(2);
  const std::string serial_stream = slurp(serial.provenance_path);
  EXPECT_FALSE(serial_stream.empty());

  BnbOptions parallel;
  parallel.max_shards = 4;
  parallel.provenance_path = temp_path("prov_parallel.jsonl");
  parallel.spill_dir = fresh_dir("prov_spill");
  parallel.frontier_mem = 2;  // forces real spill traffic
  EXPECT_EQ(exp::run_search(spec, parallel).certificate(spec).dump(2), serial_cert);
  EXPECT_EQ(slurp(parallel.provenance_path), serial_stream)
      << "the provenance stream is part of the determinism contract";

  // And recording provenance must not have changed the certificate at all.
  BnbOptions plain;
  plain.max_shards = 1;
  EXPECT_EQ(exp::run_search(spec, plain).certificate(spec).dump(2), serial_cert);
}

TEST(TraceProvenance, ProvenanceSurvivesResumeAndLeavesCheckpointsUntouched) {
  const SearchSpec spec = search_spec();

  // Ground truth: one-shot run with provenance.
  BnbOptions oneshot;
  oneshot.max_shards = 2;
  oneshot.provenance_path = temp_path("prov_oneshot.jsonl");
  const std::string full_cert = exp::run_search(spec, oneshot).certificate(spec).dump(2);
  const std::string full_stream = slurp(oneshot.provenance_path);

  // Sliced run A: provenance on. The stream lives outside the checkpoint
  // directory so the directories stay comparable across configurations.
  const std::string dir_with = fresh_dir("prov_ckpt_with");
  BnbOptions sliced;
  sliced.max_shards = 2;
  sliced.provenance_path = temp_path("prov_sliced.jsonl");
  sliced.checkpoint_path = dir_with + "/search.ckpt";
  sliced.checkpoint_every = 2;
  sliced.max_waves = 2;
  EXPECT_FALSE(exp::run_search(spec, sliced).bnb.complete());
  const auto ckpt_with_provenance = dir_bytes(dir_with);

  // Sliced run B: identical but provenance off. Checkpoint bytes must be
  // identical — the stream needs no checkpoint bookkeeping.
  const std::string dir_without = fresh_dir("prov_ckpt_without");
  BnbOptions control = sliced;
  control.provenance_path.clear();
  control.checkpoint_path = dir_without + "/search.ckpt";
  EXPECT_FALSE(exp::run_search(spec, control).bnb.complete());
  EXPECT_EQ(dir_bytes(dir_without), ckpt_with_provenance)
      << "enabling --provenance must not change a checkpoint byte";

  // Resume run A to completion: certificate and stream match one-shot.
  sliced.resume = true;
  sliced.max_waves = 0;
  const exp::SearchRunResult resumed = exp::run_search(spec, sliced);
  EXPECT_TRUE(resumed.bnb.complete());
  EXPECT_EQ(resumed.certificate(spec).dump(2), full_cert);
  EXPECT_EQ(slurp(sliced.provenance_path), full_stream)
      << "resume must extend the stream to the identical bytes";
}

TEST(TraceProvenance, ProvenanceResumeTruncatesRecordsPastTheCheckpoint) {
  const SearchSpec spec = search_spec();

  BnbOptions oneshot;
  oneshot.max_shards = 1;
  oneshot.provenance_path = temp_path("prov_trunc_oneshot.jsonl");
  (void)exp::run_search(spec, oneshot);
  const std::string full_stream = slurp(oneshot.provenance_path);

  // Slice, then append garbage the journal never folded (simulating a
  // kill after the provenance flush but before the journal append —
  // flush order makes the other interleaving impossible).
  const std::string dir = fresh_dir("prov_trunc_ckpt");
  BnbOptions sliced;
  sliced.max_shards = 1;
  sliced.provenance_path = temp_path("prov_trunc_sliced.jsonl");
  sliced.checkpoint_path = dir + "/search.ckpt";
  sliced.max_waves = 3;
  ASSERT_FALSE(exp::run_search(spec, sliced).bnb.complete());
  {
    auto file = support::vfs().open_write(sliced.provenance_path,
                                          support::Vfs::OpenMode::Append);
    file->write("{\"wave\":4,\"box\":\"zz\",\"action\":\"leaf\",\"bound\":0,\"inc\":0}\n");
    file->close();
  }

  sliced.resume = true;
  sliced.max_waves = 0;
  const exp::SearchRunResult resumed = exp::run_search(spec, sliced);
  EXPECT_TRUE(resumed.bnb.complete());
  EXPECT_EQ(slurp(sliced.provenance_path), full_stream)
      << "resume must truncate past-checkpoint records before re-running";
}

// ----------------------------------------------------------- trace content --

TEST(TraceProvenance, TraceRecordsLoadableChromeTraceWithoutPerturbingArtifacts) {
  const SearchSpec spec = search_spec();

  BnbOptions plain;
  plain.max_shards = 2;
  const std::string baseline = exp::run_search(spec, plain).certificate(spec).dump(2);

  telemetry::registry().reset();
  const std::string trace_path = temp_path("trace_search.json");
  ASSERT_TRUE(trace::sink().open(trace_path));
  BnbOptions traced;
  traced.max_shards = 2;
  traced.checkpoint_path = fresh_dir("trace_ckpt") + "/search.ckpt";
  traced.checkpoint_every = 2;
  traced.spill_dir = fresh_dir("trace_spill");
  traced.frontier_mem = 2;
  const std::string traced_cert = exp::run_search(spec, traced).certificate(spec).dump(2);
  trace::sink().close();
  EXPECT_EQ(traced_cert, baseline) << "tracing must not change the certificate";
  EXPECT_GT(counter_value("trace.events"), 0u);
  EXPECT_EQ(counter_value("trace.dropped"), 0u);

  const Json document = Json::parse(slurp(trace_path));
  const auto& events = document.at("traceEvents").as_array();
  ASSERT_GT(events.size(), 4u);
  std::map<std::string, std::uint64_t> names;
  for (const Json& event : events) ++names[event.at("name").as_string()];
  EXPECT_EQ(names.count("process_name"), 1u);  // metadata record
  EXPECT_GT(names["wave"], 0u);
  EXPECT_GT(names["box"], 0u);
  EXPECT_GT(names["checkpoint"], 0u);
  EXPECT_GT(names["spill.segment"], 0u) << "frontier_mem=2 must spill";
  for (const Json& event : events) {
    EXPECT_TRUE(event.at("ph").is_string());
    EXPECT_EQ(event.at("pid").as_uint(), 1u);
  }

  // The campaign runner's shard spans land in the same sink vocabulary.
  const std::string campaign_path = temp_path("trace_campaign.json");
  ASSERT_TRUE(trace::sink().open(campaign_path));
  (void)exp::run_campaign(campaign_spec(), {});
  trace::sink().close();
  const Json campaign_doc = Json::parse(slurp(campaign_path));
  bool saw_shard = false;
  for (const Json& event : campaign_doc.at("traceEvents").as_array())
    saw_shard = saw_shard || event.at("name").as_string() == "shard";
  EXPECT_TRUE(saw_shard);
}

// -------------------------------------------------------- fault tolerance --

TEST(TraceProvenance, TraceWriterAbsorbsTornWritesAndSurvivesDeadDisk) {
  const SearchSpec spec = search_spec();
  BnbOptions plain;
  plain.max_shards = 2;
  const std::string baseline = exp::run_search(spec, plain).certificate(spec).dump(2);

  // Torn write: the first write to the trace file fails halfway, once.
  // Bounded retry rewinds the torn prefix and the file stays loadable.
  {
    telemetry::registry().reset();
    FaultSpec torn;
    torn.after = 1;  // let open_write through, tear the first write
    torn.path_contains = "trace_torn.json";
    torn.klass = FaultClass::ShortWrite;
    FaultVfs faulty{FaultSchedule{{torn}}};
    const ScopedVfs seam(faulty);
    const std::string path = temp_path("trace_torn.json");
    ASSERT_TRUE(trace::sink().open(path));
    BnbOptions traced;
    traced.max_shards = 2;
    EXPECT_EQ(exp::run_search(spec, traced).certificate(spec).dump(2), baseline);
    trace::sink().close();
    EXPECT_FALSE(trace::sink().degraded());
    EXPECT_GT(counter_value("vfs.retries"), 0u);
    EXPECT_EQ(counter_value("trace.dropped"), 0u);
    EXPECT_GT(Json::parse(slurp(path)).at("traceEvents").as_array().size(), 2u);
  }

  // Dead disk at open: the sink degrades at open time, every would-be
  // span is counted, the run is untouched.
  {
    telemetry::registry().reset();
    FaultSpec dead;
    dead.after = 0;
    dead.path_contains = "trace_dead_open.json";
    dead.klass = FaultClass::NoSpace;
    dead.sticky = true;
    FaultVfs faulty{FaultSchedule{{dead}}};
    const ScopedVfs seam(faulty);
    EXPECT_FALSE(trace::sink().open(temp_path("trace_dead_open.json")));
    EXPECT_TRUE(trace::sink().degraded());
    BnbOptions traced;
    traced.max_shards = 2;
    EXPECT_EQ(exp::run_search(spec, traced).certificate(spec).dump(2), baseline);
    trace::sink().close();
    EXPECT_GT(counter_value("trace.dropped"), 0u)
        << "dropped spans must be visible in the metrics";
  }

  // Disk dies mid-stream (sticky failure on the flush): the sink drops
  // its pending events, degrades, and the run still completes untouched.
  {
    telemetry::registry().reset();
    FaultSpec dead;
    dead.after = 1;
    dead.path_contains = "trace_dead_flush.json";
    dead.klass = FaultClass::NoSpace;
    dead.sticky = true;
    FaultVfs faulty{FaultSchedule{{dead}}};
    const ScopedVfs seam(faulty);
    ASSERT_TRUE(trace::sink().open(temp_path("trace_dead_flush.json")));
    BnbOptions traced;
    traced.max_shards = 2;
    EXPECT_EQ(exp::run_search(spec, traced).certificate(spec).dump(2), baseline);
    trace::sink().close();
    EXPECT_TRUE(trace::sink().degraded());
    EXPECT_GT(counter_value("trace.dropped"), 0u);
  }
  reset_trace_sink();
}

// A trace whose close fails (the footer write lands, the close's flush
// does not) degrades like a failed write: gauge 1, /healthz 503.
TEST(TraceProvenance, FailedTraceCloseDegradesTheSink) {
  telemetry::registry().reset();
  FaultSpec dead;
  dead.after = 2;  // open_write and the footer write go through
  dead.path_contains = "trace_dead_close.json";
  dead.klass = FaultClass::FlushIo;
  dead.sticky = true;
  FaultVfs faulty{FaultSchedule{{dead}}};
  {
    const ScopedVfs seam(faulty);
    ASSERT_TRUE(trace::sink().open(temp_path("trace_dead_close.json")));
    trace::sink().close();
  }
  EXPECT_TRUE(trace::sink().degraded());
  EXPECT_EQ(telemetry::registry().gauge("trace.degraded").value(), 1);
  const statusd::Response health = statusd::handle_request("GET", "/healthz", {}, 0.0);
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("trace.degraded"), std::string::npos) << health.body;
  reset_trace_sink();
}

TEST(TraceProvenance, ProvenanceWriterAbsorbsTornWritesAndDegradesSoft) {
  const SearchSpec spec = search_spec();
  BnbOptions plain;
  plain.max_shards = 2;
  const std::string baseline = exp::run_search(spec, plain).certificate(spec).dump(2);
  BnbOptions clean;
  clean.max_shards = 2;
  clean.provenance_path = temp_path("prov_clean.jsonl");
  (void)exp::run_search(spec, clean);
  const std::string clean_stream = slurp(clean.provenance_path);

  // Torn write: absorbed by the sink's bounded retry; the stream is
  // byte-identical to the unfaulted run.
  {
    telemetry::registry().reset();
    FaultSpec torn;
    torn.after = 2;
    torn.path_contains = "prov_torn.jsonl";
    torn.klass = FaultClass::ShortWrite;
    FaultVfs faulty{FaultSchedule{{torn}}};
    const ScopedVfs seam(faulty);
    BnbOptions faulted;
    faulted.max_shards = 2;
    faulted.provenance_path = temp_path("prov_torn.jsonl");
    EXPECT_EQ(exp::run_search(spec, faulted).certificate(spec).dump(2), baseline);
    EXPECT_GT(counter_value("vfs.retries"), 0u);
    EXPECT_EQ(counter_value("provenance.dropped"), 0u);
    EXPECT_EQ(slurp(faulted.provenance_path), clean_stream);
  }

  // Sticky dead disk: the stream degrades soft — dropped records are
  // counted, the run and its certificate continue untouched.
  {
    telemetry::registry().reset();
    FaultSpec dead;
    dead.after = 3;
    dead.path_contains = "prov_dead.jsonl";
    dead.klass = FaultClass::NoSpace;
    dead.sticky = true;
    FaultVfs faulty{FaultSchedule{{dead}}};
    const ScopedVfs seam(faulty);
    BnbOptions faulted;
    faulted.max_shards = 2;
    faulted.provenance_path = temp_path("prov_dead.jsonl");
    EXPECT_EQ(exp::run_search(spec, faulted).certificate(spec).dump(2), baseline);
    EXPECT_GT(counter_value("provenance.dropped"), 0u)
        << "dropped records must be visible in the metrics";
    EXPECT_EQ(telemetry::registry().gauge("provenance.degraded").value(), 1);
    const statusd::Response health = statusd::handle_request("GET", "/healthz", {}, 0.0);
    EXPECT_EQ(health.status, 503);
    EXPECT_NE(health.body.find("provenance.degraded"), std::string::npos) << health.body;
  }
}

}  // namespace
}  // namespace aurv
