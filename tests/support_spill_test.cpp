// SpillDeque unit tests: the bounded-memory best-first container must pop
// the exact sequence an unbounded in-memory set would — at any capacity,
// across segment merges, and across a state_to_json/from_json round trip —
// and must refuse segment files that do not match the recorded state.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "test_paths.hpp"
#include "support/spill.hpp"
#include "support/vfs.hpp"

namespace aurv::support {
namespace {

using testpaths::fresh_dir;
using testpaths::temp_path;

/// A priority/payload pair mirroring the frontier's (bound, box-id) shape:
/// priority descending, tag ascending — tags unique, so never a tie.
struct Item {
  double priority;
  std::string tag;

  friend bool operator==(const Item& a, const Item& b) = default;
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

/// Deterministic pseudo-random items (fixed seed: the test is reproducible).
std::vector<Item> random_items(std::size_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> priority(-10.0, 10.0);
  std::vector<Item> items;
  items.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    items.push_back(Item{priority(rng), "tag" + std::to_string(k)});
  return items;
}

TEST(SpillDeque, UnboundedModeNeedsNoDirectory) {
  ItemDeque deque;
  deque.insert(Item{1.0, "a"});
  deque.insert(Item{2.0, "b"});
  EXPECT_EQ(deque.size(), 2u);
  EXPECT_EQ(deque.pop_best().tag, "b");  // highest priority first
  EXPECT_EQ(deque.pop_best().tag, "a");
  EXPECT_TRUE(deque.empty());
  EXPECT_EQ(deque.spilled(), 0u);
}

TEST(SpillDeque, CapacityWithoutDirectoryIsRejected) {
  ItemDeque::Config config;
  config.mem_capacity = 4;
  EXPECT_THROW(ItemDeque{config}, std::logic_error);
}

TEST(SpillDeque, SpilledPopSequenceMatchesInMemory) {
  // Interleave inserts and pops; every capacity (including ones small
  // enough to force many spills and segment merges) must yield the same
  // pop sequence as the unbounded in-memory deque.
  const std::vector<Item> items = random_items(200, 7);
  const auto run = [&](ItemDeque deque) {
    std::vector<Item> popped;
    std::size_t next = 0;
    while (next < items.size() || !deque.empty()) {
      // Two inserts then one pop, tail-drained at the end.
      for (int burst = 0; burst < 2 && next < items.size(); ++burst)
        deque.insert(items[next++]);
      if (!deque.empty()) popped.push_back(deque.pop_best());
    }
    return popped;
  };

  const std::vector<Item> expected = run(ItemDeque{});
  ASSERT_EQ(expected.size(), items.size());
  for (const std::size_t capacity : {1u, 2u, 5u, 17u, 100u}) {
    ItemDeque::Config config;
    config.spill_dir = fresh_dir("spill_seq_" + std::to_string(capacity));
    config.mem_capacity = capacity;
    config.max_segments = 3;  // force merges, not just spills
    ItemDeque deque(config);
    EXPECT_EQ(run(std::move(deque)), expected) << "capacity " << capacity;
  }
}

TEST(SpillDeque, SpillsTrackObservabilityCounters) {
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("spill_counters");
  config.mem_capacity = 4;
  ItemDeque deque(config);
  for (const Item& item : random_items(32, 3)) deque.insert(item);
  EXPECT_EQ(deque.size(), 32u);
  EXPECT_GT(deque.spilled(), 0u);
  EXPECT_LE(deque.hot_high_water(), 5u);  // capacity + the overflowing insert
  ASSERT_FALSE(deque.empty());
  // peek_best agrees with pop_best.
  const Item best = *deque.peek_best();
  EXPECT_EQ(deque.pop_best(), best);
}

TEST(SpillDeque, StateRoundTripContinuesTheSameSequence) {
  const std::vector<Item> items = random_items(64, 11);
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("spill_roundtrip");
  config.mem_capacity = 6;
  config.max_segments = 2;
  ItemDeque original(config);
  for (const Item& item : items) original.insert(item);
  for (int k = 0; k < 10; ++k) (void)original.pop_best();  // advance offsets

  const Json state = original.state_to_json();
  ItemDeque reloaded = ItemDeque::from_json(state, config);
  EXPECT_EQ(reloaded.size(), original.size());
  while (!original.empty()) {
    ASSERT_FALSE(reloaded.empty());
    EXPECT_EQ(reloaded.pop_best(), original.pop_best());
  }
  EXPECT_TRUE(reloaded.empty());
}

TEST(SpillDeque, RestoreSweepsOrphanedSegmentFiles) {
  // A kill between the owner's checkpoint write and prune_retired()
  // leaves segment files nothing references; restoring from the
  // checkpoint must reclaim them — and touch nothing else.
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("spill_orphans");
  config.mem_capacity = 2;
  ItemDeque deque(config);
  for (const Item& item : random_items(16, 13)) deque.insert(item);
  const Json state = deque.state_to_json();

  const auto plant = [&](const std::string& leaf) {
    const std::string path = (std::filesystem::path(config.spill_dir) / leaf).string();
    std::ofstream(path, std::ios::binary) << "leftover\n";
    return path;
  };
  const std::string orphan = plant("seg-999.jsonl");
  const std::string unrelated = plant("not-a-segment.txt");

  ItemDeque reloaded = ItemDeque::from_json(state, config);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(unrelated));  // only seg-<n>.jsonl is ours
  // The referenced segments survived the sweep and still drain in order.
  Item previous = reloaded.pop_best();
  while (!reloaded.empty()) {
    Item next = reloaded.pop_best();
    EXPECT_TRUE(ItemOrder{}(previous, next));
    previous = std::move(next);
  }
}

TEST(SpillDeque, RestoreRefusesMissingOrTruncatedSegments) {
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("spill_truncated");
  config.mem_capacity = 2;
  ItemDeque deque(config);
  for (const Item& item : random_items(16, 5)) deque.insert(item);
  const Json state = deque.state_to_json();
  ASSERT_FALSE(state.at("segments").as_array().empty());

  // Truncate the first referenced segment to zero records.
  const std::string path = state.at("segments").as_array()[0].at("path").as_string();
  { std::ofstream truncate(path, std::ios::binary | std::ios::trunc); }
  EXPECT_THROW((void)ItemDeque::from_json(state, config), std::invalid_argument);

  std::filesystem::remove(path);
  EXPECT_THROW((void)ItemDeque::from_json(state, config), std::invalid_argument);
}

TEST(SpillDeque, PruneRetiredDeletesOnlyDrainedFiles) {
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("spill_prune");
  config.mem_capacity = 2;
  config.max_segments = 2;  // merges retire their input files
  ItemDeque deque(config);
  for (const Item& item : random_items(24, 9)) deque.insert(item);

  const auto file_count = [&] {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(config.spill_dir))
      ++count;
    return count;
  };
  const std::size_t before = file_count();
  deque.prune_retired();
  const std::size_t after_prune = file_count();
  EXPECT_LT(after_prune, before);      // merge inputs are gone...
  EXPECT_EQ(after_prune, deque.segment_count());  // ...live segments are not

  // Draining everything and discarding leaves an empty directory.
  while (!deque.empty()) (void)deque.pop_best();
  deque.discard_files();
  EXPECT_EQ(file_count(), 0u);
}

// ------------------------------------------------- crash-stop recovery --

TEST(SpillDeque, CrashAtEveryFileOperationRestoresTheCheckpointedSequence) {
  // Kill the "process" (scripted crash-stop) after every single segment
  // file operation of an insert-heavy run — including ops inside segment
  // merges — then restore from the last in-memory checkpoint like a
  // restarted process would: the reloaded deque must pop exactly the
  // sequence an unbounded in-memory deque holding the checkpointed items
  // would, with the crashed run's newer files swept as orphans.
  const std::vector<Item> items = random_items(48, 21);

  const auto expected_after = [&](std::size_t count) {
    ItemDeque unbounded;
    for (std::size_t k = 0; k < count; ++k) unbounded.insert(items[k]);
    std::vector<Item> popped;
    while (!unbounded.empty()) popped.push_back(unbounded.pop_best());
    return popped;
  };

  std::size_t crashes = 0;
  for (std::uint64_t crash_op = 0;; ++crash_op) {
    ItemDeque::Config config;
    config.spill_dir = fresh_dir("spill_crash_" + std::to_string(crash_op));
    config.mem_capacity = 4;
    config.max_segments = 2;  // several merges happen within 48 inserts

    FaultSchedule schedule;
    FaultSpec spec;
    spec.after = crash_op;
    spec.path_contains = "seg-";
    spec.klass = FaultClass::CrashStop;
    schedule.faults.push_back(spec);
    FaultVfs faulty(schedule);

    Json checkpoint;
    std::size_t checkpointed = 0;
    bool crashed = false;
    {
      ScopedVfs guard(faulty);
      ItemDeque deque(config);
      try {
        for (std::size_t k = 0; k < items.size(); ++k) {
          deque.insert(items[k]);
          if ((k + 1) % 8 == 0) {  // the owner's checkpoint cadence
            checkpoint = deque.state_to_json();
            checkpointed = k + 1;
          }
        }
      } catch (const VfsCrashStop&) {
        crashed = true;
        ++crashes;
      }
    }
    if (!crashed) break;  // crash_op is past the run's op count: done
    if (checkpointed == 0) continue;  // died before the first checkpoint

    // "Restart": reload from the checkpoint through the real vfs.
    ItemDeque restored = ItemDeque::from_json(checkpoint, config);
    std::vector<Item> popped;
    while (!restored.empty()) popped.push_back(restored.pop_best());
    EXPECT_EQ(popped, expected_after(checkpointed)) << "crash after seg op " << crash_op;
  }
  EXPECT_GT(crashes, 50u) << "the sweep should cover spills AND merges";
}

TEST(SpillDeque, CrashDuringRetireLeavesARestorableState) {
  // prune_retired() deletes the files a merge/drain stopped referencing; a
  // crash after the first removal must leave a state the checkpoint still
  // restores byte-for-byte (the un-removed leftovers are swept on resume).
  const std::vector<Item> items = random_items(24, 17);
  ItemDeque::Config config;
  config.spill_dir = fresh_dir("spill_crash_retire");
  config.mem_capacity = 4;
  config.max_segments = 2;
  ItemDeque deque(config);
  for (const Item& item : items) deque.insert(item);

  const auto file_count = [&] {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(config.spill_dir))
      ++count;
    return count;
  };
  ASSERT_GT(file_count(), deque.segment_count()) << "merges must have retired files";
  const Json checkpoint = deque.state_to_json();

  FaultSchedule schedule;
  FaultSpec spec;
  spec.after = 0;  // the first removal completes, then the process dies
  spec.path_contains = "seg-";
  spec.klass = FaultClass::CrashStop;
  schedule.faults.push_back(spec);
  FaultVfs faulty(schedule);
  {
    ScopedVfs guard(faulty);
    EXPECT_THROW(deque.prune_retired(), VfsCrashStop);
  }

  ItemDeque restored = ItemDeque::from_json(checkpoint, config);
  EXPECT_EQ(file_count(), restored.segment_count());  // leftovers swept on resume
  ItemDeque unbounded;
  for (const Item& item : items) unbounded.insert(item);
  while (!unbounded.empty()) {
    ASSERT_FALSE(restored.empty());
    EXPECT_EQ(restored.pop_best(), unbounded.pop_best());
  }
  EXPECT_TRUE(restored.empty());
}

}  // namespace
}  // namespace aurv::support
