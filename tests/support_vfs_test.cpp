// VFS seam + deterministic fault-injection tests: FaultVfs must count,
// trace and script failures exactly as advertised; the retry layer must
// absorb transient faults with a deterministic backoff schedule and
// nothing else; and the persistence primitives built on the seam
// (JsonlSink, save_json_atomically, SpillDeque) must
// recover from torn writes, keep atomic checkpoints atomic, and degrade
// the spill store gracefully — producing byte-identical artifacts
// throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "test_paths.hpp"
#include "support/jsonl.hpp"
#include "support/spill.hpp"
#include "support/vfs.hpp"

namespace aurv::support {
namespace {

using testpaths::fresh_dir;
using testpaths::slurp;
using testpaths::temp_path;

FaultSpec fault(std::uint64_t after, const std::string& path_contains, FaultClass klass,
                bool sticky = false) {
  FaultSpec spec;
  spec.after = after;
  spec.path_contains = path_contains;
  spec.klass = klass;
  spec.sticky = sticky;
  return spec;
}

// ------------------------------------------------------------ the seam --

TEST(Vfs, ScopedVfsSwapsAndRestoresTheSeam) {
  Vfs& before = vfs();
  FaultVfs counting(FaultSchedule{});
  {
    ScopedVfs guard(counting);
    EXPECT_EQ(&vfs(), &counting);
    {
      FaultVfs nested(FaultSchedule{});
      ScopedVfs inner(nested);
      EXPECT_EQ(&vfs(), &nested);
    }
    EXPECT_EQ(&vfs(), &counting);
  }
  EXPECT_EQ(&vfs(), &before);
}

TEST(Vfs, FaultVfsCountsMutatingOpsAndTracesSites) {
  FaultVfs counting(FaultSchedule{});
  ScopedVfs guard(counting);
  const std::string path = temp_path("vfs_trace.txt");

  auto file = vfs().open_write(path, Vfs::OpenMode::Truncate);
  file->write("hello");
  file->flush();
  file->close();
  EXPECT_TRUE(vfs().exists(path));                    // read side: not counted
  EXPECT_EQ(vfs().file_size(path), 5u);               // not counted
  EXPECT_EQ(vfs().read_file(path), "hello");          // not counted
  EXPECT_TRUE(vfs().remove(path));

  const std::vector<FaultVfs::OpRecord> log = counting.op_log();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(counting.ops(), 5u);
  const char* expected[] = {"open_write", "write", "flush", "close", "remove"};
  for (std::size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].index, k);
    EXPECT_EQ(log[k].op, expected[k]);
  }
}

TEST(Vfs, FaultScheduleRoundTripsThroughJson) {
  FaultSchedule schedule;
  schedule.faults.push_back(fault(3, "seg-", FaultClass::ShortWrite));
  schedule.faults.push_back(fault(0, "", FaultClass::CrashStop, /*sticky=*/true));
  const FaultSchedule reloaded = FaultSchedule::from_json(schedule.to_json());
  ASSERT_EQ(reloaded.faults.size(), 2u);
  EXPECT_EQ(reloaded.faults[0].after, 3u);
  EXPECT_EQ(reloaded.faults[0].path_contains, "seg-");
  EXPECT_EQ(reloaded.faults[0].klass, FaultClass::ShortWrite);
  EXPECT_FALSE(reloaded.faults[0].sticky);
  EXPECT_EQ(reloaded.faults[1].klass, FaultClass::CrashStop);
  EXPECT_TRUE(reloaded.faults[1].sticky);
  EXPECT_THROW((void)fault_class_from_string("made-up"), JsonError);
}

TEST(Vfs, PathFilterAndAfterSelectTheFaultSite) {
  // Only the 2nd (0-based after=1) operation touching "target" faults.
  FaultSchedule schedule;
  schedule.faults.push_back(fault(1, "target", FaultClass::NoSpace));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);

  const std::string other = temp_path("vfs_other.txt");
  const std::string target = temp_path("vfs_target.txt");
  {  // ops on non-matching paths never fault
    auto file = vfs().open_write(other, Vfs::OpenMode::Truncate);
    file->write("x");
    file->close();
  }
  auto file = vfs().open_write(target, Vfs::OpenMode::Truncate);  // match #1: passes
  EXPECT_THROW(file->write("y"), VfsError);                       // match #2: fires
  file->write("y");                                               // one-shot: clear again
  file->close();
  EXPECT_EQ(slurp(target), "y");
}

TEST(Vfs, StickyFaultKeepsFiringAndIsNotTransient) {
  FaultSchedule schedule;
  schedule.faults.push_back(fault(0, "", FaultClass::NoSpace, /*sticky=*/true));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  const std::string path = temp_path("vfs_sticky.txt");
  for (int k = 0; k < 3; ++k) {
    try {
      (void)vfs().open_write(path, Vfs::OpenMode::Truncate);
      FAIL() << "sticky fault must keep firing";
    } catch (const VfsError& error) {
      EXPECT_FALSE(error.transient());  // retries may not absorb a dead disk
      EXPECT_EQ(error.op(), "open_write");
    }
  }
}

// ------------------------------------------------------------ retry_io --

TEST(Vfs, RetryAbsorbsTransientFaultsWithDeterministicBackoff) {
  // Three one-shot faults make attempts 1-3 fail; attempt 4 (the last the
  // default policy allows) succeeds. Backoff is 1, 2, 4 ms — recorded by
  // FaultVfs, never slept. (All three use after=0: when a spec fires it
  // short-circuits the scan, so each attempt consumes exactly one spec.)
  FaultSchedule schedule;
  for (int k = 0; k < 3; ++k)
    schedule.faults.push_back(fault(0, "", FaultClass::NoSpace));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  const std::string path = temp_path("vfs_retry.txt");

  auto file = retry_io(RetryPolicy{}, [&] {
    return vfs().open_write(path, Vfs::OpenMode::Truncate);
  });
  file->write("recovered");
  file->close();
  EXPECT_EQ(slurp(path), "recovered");
  EXPECT_EQ(faulty.backoff_recorded_ms(), 1u + 2u + 4u);
}

TEST(Vfs, RetryGivesUpAfterTheConfiguredAttempts) {
  FaultSchedule schedule;
  for (int k = 0; k < 8; ++k)
    schedule.faults.push_back(fault(0, "", FaultClass::NoSpace));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  RetryPolicy policy;
  policy.attempts = 3;
  EXPECT_THROW(retry_io(policy, [&] {
                 return vfs().open_write(temp_path("vfs_give_up.txt"),
                                         Vfs::OpenMode::Truncate);
               }),
               VfsError);
  EXPECT_EQ(faulty.ops(), 3u);                      // exactly 3 attempts issued
  EXPECT_EQ(faulty.backoff_recorded_ms(), 1u + 2u);  // backoff between them only
}

TEST(Vfs, RetryNeverRetriesPersistentFaults) {
  FaultSchedule schedule;
  schedule.faults.push_back(fault(0, "", FaultClass::NoSpace, /*sticky=*/true));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  EXPECT_THROW(retry_io(RetryPolicy{}, [&] {
                 return vfs().open_write(temp_path("vfs_persistent.txt"),
                                         Vfs::OpenMode::Truncate);
               }),
               VfsError);
  EXPECT_EQ(faulty.ops(), 1u);  // no second attempt against a dead disk
  EXPECT_EQ(faulty.backoff_recorded_ms(), 0u);
}

// ----------------------------------------------------------- crash-stop --

TEST(Vfs, CrashStopKeepsOpKDurableAndSuppressesEverythingAfter) {
  const std::string path = temp_path("vfs_crash.txt");
  FaultSchedule schedule;
  schedule.faults.push_back(fault(1, "", FaultClass::CrashStop));  // die after write #1
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);

  bool crashed = false;
  try {
    auto file = vfs().open_write(path, Vfs::OpenMode::Truncate);  // op 0
    file->write("durable");                                       // op 1: completes, then dies
    file->write("lost");
    file->close();
  } catch (const VfsCrashStop& crash) {
    crashed = true;
    EXPECT_EQ(crash.op_index, 1u);
    EXPECT_EQ(crash.op, "write");
  }
  ASSERT_TRUE(crashed);
  EXPECT_TRUE(faulty.crashed());
  // The dying op's bytes are on disk; nothing leaked after the "death" —
  // not even from unwinding destructors or fresh open/write attempts.
  EXPECT_EQ(slurp(path), "durable");
  auto post_mortem = vfs().open_write(path, Vfs::OpenMode::Truncate);
  post_mortem->write("ghost");
  post_mortem->close();
  EXPECT_EQ(slurp(path), "durable");
}

// ----------------------------------------------- JsonlSink under faults --

TEST(Vfs, JsonlSinkRecoversTornAppendsWithoutDuplicatingBytes) {
  const std::string clean_path = temp_path("jsonl_clean.jsonl");
  {
    JsonlSink clean(clean_path);
    clean.append("first-record\n");
    clean.append("second-record\n");
    clean.flush();
  }

  // The torn write leaves half of record two on disk before failing; the
  // sink must truncate back to its durable offset and rewrite — identical
  // bytes, no duplicated prefix.
  const std::string faulted_path = temp_path("jsonl_faulted.jsonl");
  FaultSchedule schedule;
  schedule.faults.push_back(fault(2, faulted_path, FaultClass::ShortWrite));
  FaultVfs faulty(schedule);
  {
    ScopedVfs guard(faulty);
    JsonlSink sink(faulted_path);
    sink.append("first-record\n");
    sink.append("second-record\n");
    sink.flush();
  }
  EXPECT_EQ(slurp(faulted_path), slurp(clean_path));
  EXPECT_GT(faulty.backoff_recorded_ms(), 0u);  // the retry actually happened
}

TEST(Vfs, JsonlSinkPropagatesPersistentAppendFailures) {
  const std::string path = temp_path("jsonl_dead.jsonl");
  FaultSchedule schedule;
  schedule.faults.push_back(fault(1, path, FaultClass::NoSpace, /*sticky=*/true));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  JsonlSink sink(path);
  EXPECT_THROW(sink.append("doomed\n"), VfsError);
}

TEST(Vfs, JsonlSinkFlushFailuresAreNoLongerSilent) {
  // The log-before-journal ordering depends on flush() actually meaning
  // durable: a persistent flush failure must surface, not vanish.
  const std::string path = temp_path("jsonl_flush.jsonl");
  FaultSchedule schedule;
  // Ops on this sink: open (0), append write (1), flush (2, dies for good).
  schedule.faults.push_back(fault(2, path, FaultClass::FlushIo, /*sticky=*/true));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  JsonlSink sink(path);
  sink.append("record\n");
  EXPECT_THROW(sink.flush(), VfsError);
}

// -------------------------------------- atomic checkpoints under faults --

TEST(Vfs, AtomicSaveSurvivesTransientRenameFailure) {
  const std::string path = temp_path("atomic_transient.json");
  Json payload = Json::object();
  payload.set("value", Json(std::uint64_t{42}));
  FaultSchedule schedule;
  schedule.faults.push_back(fault(0, ".tmp -> ", FaultClass::RenameFail));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  save_json_atomically(path, payload);
  EXPECT_EQ(Json::load_file(path).at("value").as_uint(), 42u);
}

TEST(Vfs, AtomicSaveLeavesThePreviousCheckpointOnPersistentFailure) {
  const std::string path = temp_path("atomic_previous.json");
  Json old_payload = Json::object();
  old_payload.set("generation", Json(std::uint64_t{1}));
  save_json_atomically(path, old_payload);
  const std::string before = slurp(path);

  Json new_payload = Json::object();
  new_payload.set("generation", Json(std::uint64_t{2}));
  FaultSchedule schedule;
  schedule.faults.push_back(fault(0, ".tmp -> ", FaultClass::RenameFail, /*sticky=*/true));
  FaultVfs faulty(schedule);
  {
    ScopedVfs guard(faulty);
    EXPECT_THROW(save_json_atomically(path, new_payload), VfsError);
  }
  // Write-then-rename is the whole point: the failed replacement never
  // touched the live checkpoint.
  EXPECT_EQ(slurp(path), before);
  EXPECT_EQ(Json::load_file(path).at("generation").as_uint(), 1u);
}

TEST(Vfs, AtomicSaveNeverLeavesATornCheckpointBehind) {
  const std::string path = temp_path("atomic_torn.json");
  Json old_payload = Json::object();
  old_payload.set("generation", Json(std::uint64_t{1}));
  save_json_atomically(path, old_payload);
  const std::string before = slurp(path);

  Json new_payload = Json::object();
  new_payload.set("generation", Json(std::uint64_t{2}));
  FaultSchedule schedule;
  schedule.faults.push_back(fault(1, ".tmp", FaultClass::ShortWrite, /*sticky=*/true));
  FaultVfs faulty(schedule);
  {
    ScopedVfs guard(faulty);
    EXPECT_THROW(save_json_atomically(path, new_payload), VfsError);
  }
  EXPECT_EQ(slurp(path), before);  // live checkpoint untouched by the torn tmp
}

// --------------------------------------- SpillDeque graceful degradation --

std::vector<std::string> pop_all_tags(auto& deque) {
  std::vector<std::string> tags;
  while (!deque.empty()) tags.push_back(deque.pop_best().tag);
  return tags;
}

struct Item {
  double priority;
  std::string tag;
};
struct ItemOrder {
  bool operator()(const Item& a, const Item& b) const {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.tag < b.tag;
  }
};
struct ItemCodec {
  static Json to_json(const Item& item) {
    Json json = Json::object();
    json.set("priority", Json(item.priority));
    json.set("tag", Json(item.tag));
    return json;
  }
  static std::string encode(const Item& item) { return to_json(item).dump(); }
  static Item from_json(const Json& json) {
    return Item{json.at("priority").as_number(), json.at("tag").as_string()};
  }
};
using ItemDeque = SpillDeque<Item, ItemOrder, ItemCodec>;

std::vector<Item> some_items(std::size_t count) {
  std::vector<Item> items;
  for (std::size_t k = 0; k < count; ++k)
    items.push_back(Item{static_cast<double>((k * 7919) % 101), "tag" + std::to_string(k)});
  return items;
}

TEST(Vfs, SpillDequeRewindsATornSegmentRecordWithoutDegrading) {
  // A segment is written through JsonlSink, one append per record: a torn
  // record is rewound to the last record boundary and retried, so the
  // segment bytes, and the pops, are those of a clean run.
  const std::vector<Item> items = some_items(5);
  const auto spill = [&](const std::string& dir, std::vector<std::string>& tags) {
    ItemDeque::Config config;
    config.spill_dir = dir;
    config.mem_capacity = 4;
    ItemDeque deque(config);
    for (const Item& item : items) deque.insert(item);  // the fifth insert spills
    EXPECT_EQ(deque.segment_count(), 1u);
    EXPECT_FALSE(deque.degraded()) << deque.degradation();
    const std::string bytes = slurp(dir + "/seg-0.jsonl");
    tags = pop_all_tags(deque);
    return bytes;
  };
  std::vector<std::string> clean_tags;
  const std::string clean = spill(fresh_dir("vfs_torn_segment_clean"), clean_tags);

  // Segment ops: open (0), record 1 (1), record 2 (2, torn), ...
  FaultSchedule schedule;
  schedule.faults.push_back(fault(2, "seg-", FaultClass::ShortWrite));
  FaultVfs faulty(schedule);
  std::vector<std::string> faulted_tags;
  std::string faulted;
  {
    ScopedVfs guard(faulty);
    faulted = spill(fresh_dir("vfs_torn_segment_faulted"), faulted_tags);
  }
  EXPECT_GT(faulty.backoff_recorded_ms(), 0u);  // the fault fired and was retried
  EXPECT_EQ(faulted, clean);
  EXPECT_EQ(faulted_tags, clean_tags);
}

TEST(Vfs, SpillDequeDegradesToInMemoryOnAFullDiskWithIdenticalPops) {
  const std::vector<Item> items = some_items(40);
  std::vector<std::string> expected;
  {
    ItemDeque unbounded;
    for (const Item& item : items) unbounded.insert(item);
    expected = pop_all_tags(unbounded);
  }

  // The disk dies after the first couple of segment writes: the deque
  // must keep the unspillable tail hot, keep draining the segments it
  // already wrote, and pop the exact same sequence.
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("vfs_degrade");
  config.mem_capacity = 4;
  FaultSchedule schedule;
  schedule.faults.push_back(fault(8, "seg-", FaultClass::NoSpace, /*sticky=*/true));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  ItemDeque deque(config);
  for (const Item& item : items) deque.insert(item);
  EXPECT_TRUE(deque.degraded());
  EXPECT_FALSE(deque.degradation().empty());
  EXPECT_EQ(pop_all_tags(deque), expected);
}

TEST(Vfs, SpillDequeDegradesFromBirthWhenTheDirectoryCannotBeCreated) {
  ItemDeque::Config config;
  config.spill_dir = temp_path("vfs_no_dir") + "/nested";
  config.mem_capacity = 2;
  FaultSchedule schedule;
  schedule.faults.push_back(fault(0, "vfs_no_dir", FaultClass::NoSpace, /*sticky=*/true));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  ItemDeque deque(config);
  EXPECT_TRUE(deque.degraded());
  std::vector<std::string> expected;
  const std::vector<Item> items = some_items(12);
  for (const Item& item : items) deque.insert(item);  // runs fully in memory
  ItemDeque unbounded;
  for (const Item& item : items) unbounded.insert(item);
  EXPECT_EQ(pop_all_tags(deque), pop_all_tags(unbounded));
}

TEST(Vfs, DegradedCapacityBoundsTheUnspillableHotSet) {
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("vfs_degrade_cap");
  config.mem_capacity = 2;
  config.degraded_capacity = 6;
  FaultSchedule schedule;
  schedule.faults.push_back(fault(0, "seg-", FaultClass::NoSpace, /*sticky=*/true));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  ItemDeque deque(config);
  const std::vector<Item> items = some_items(20);
  bool failed = false;
  try {
    for (const Item& item : items) deque.insert(item);
  } catch (const VfsError& error) {
    failed = true;
    // The structured error names the degraded bound and the root cause.
    EXPECT_NE(std::string(error.reason()).find("degraded_capacity=6"), std::string::npos);
    EXPECT_FALSE(error.transient());
  }
  EXPECT_TRUE(failed) << "an unbounded degraded frontier would exhaust memory silently";
  EXPECT_TRUE(deque.degraded());
}

TEST(Vfs, SpillDequeMergeFailureDegradesWithoutLosingRecords) {
  const std::vector<Item> items = some_items(60);
  std::vector<std::string> expected;
  {
    ItemDeque unbounded;
    for (const Item& item : items) unbounded.insert(item);
    expected = pop_all_tags(unbounded);
  }

  // Let several segments spill fine, then kill the disk mid-merge: the
  // merge reads through scratch readers, so the live segments are intact
  // and the deque degrades instead of losing the records the failed merge
  // had already consumed.
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("vfs_merge_fail");
  config.mem_capacity = 4;
  config.max_segments = 2;
  FaultSchedule schedule;
  schedule.faults.push_back(fault(40, "seg-", FaultClass::NoSpace, /*sticky=*/true));
  FaultVfs faulty(schedule);
  ScopedVfs guard(faulty);
  ItemDeque deque(config);
  for (const Item& item : items) deque.insert(item);
  EXPECT_TRUE(deque.degraded());
  EXPECT_EQ(pop_all_tags(deque), expected);
}

}  // namespace
}  // namespace aurv::support
