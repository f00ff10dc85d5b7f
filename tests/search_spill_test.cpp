// Spill-to-disk frontier + delta-checkpoint tests: a search forced onto
// disk by a tiny hot-set capacity must produce byte-identical artifacts to
// the in-memory run; the per-wave journal must reproduce those bytes when
// resumed from a simulated kill at every wave boundary — including kills
// mid-compaction (stale journal left behind) and mid-append (partial or
// torn trailing record); and the segment store must round-trip
// exact-rational boxes losslessly.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "test_paths.hpp"
#include "exp/scenario.hpp"
#include "exp/search_driver.hpp"
#include "search/bnb.hpp"
#include "search/box.hpp"
#include "support/spill.hpp"

namespace aurv::search {
namespace {

namespace fs = std::filesystem;
using exp::SearchOptions;
using exp::SearchSpec;
using numeric::Rational;
using support::Json;
using testpaths::copy_dir;
using testpaths::fresh_dir;
using testpaths::slurp;
using testpaths::temp_path;

/// The same fast tuple-space spec the bnb determinism tests use: 48 boxes
/// in waves of 8 gives several waves, several incumbents and a frontier
/// deep enough that frontier_mem=2 forces heavy spilling.
SearchSpec small_spec() {
  SearchSpec spec;
  spec.name = "test_search_spill";
  spec.algorithm = "aurv";
  spec.objective = "max-meet-time";
  spec.space.family = SearchSpace::Family::Tuple;
  spec.space.chi = -1;
  spec.space.fixed = {{"r", Rational(1)},
                      {"y", Rational(numeric::BigInt(6), numeric::BigInt(5))},
                      {"phi", Rational(0)}};
  spec.space.dim_names = {"x", "t"};
  spec.box = {Interval{Rational(numeric::BigInt(3), numeric::BigInt(2)),
                       Rational(numeric::BigInt(7), numeric::BigInt(2))},
              Interval{Rational(0), Rational(3)}};
  spec.limits.max_boxes = 48;
  spec.limits.wave_size = 8;
  spec.limits.min_width = Rational(numeric::BigInt(1), numeric::BigInt(64));
  spec.engine.max_events = 2'000'000;
  spec.engine.horizon = Rational(256);
  return spec;
}

// ---------------------------------------------------- spill byte-identity --

TEST(SpillFrontier, SpilledRunIsByteIdenticalToInMemory) {
  const SearchSpec spec = small_spec();

  SearchOptions in_memory;
  in_memory.incumbent_log_path = temp_path("spill_mem.jsonl");
  const exp::SearchRunResult mem = exp::run_search(spec, in_memory);

  const std::string spill_dir = fresh_dir("spill_frontier_dir");
  SearchOptions spilled = in_memory;
  spilled.incumbent_log_path = temp_path("spill_disk.jsonl");
  spilled.spill_dir = spill_dir;
  spilled.frontier_mem = 2;
  spilled.spill_max_segments = 2;  // exercise segment merging too
  const exp::SearchRunResult disk = exp::run_search(spec, spilled);

  // The whole point: certificates (incumbent, prune stats, frontier
  // residual) and incumbent logs are byte-identical — only the
  // invocation-side observability may differ.
  EXPECT_EQ(mem.certificate(spec).dump(2), disk.certificate(spec).dump(2));
  EXPECT_EQ(slurp(in_memory.incumbent_log_path), slurp(spilled.incumbent_log_path));
  EXPECT_EQ(mem.bnb.stats, disk.bnb.stats);
  EXPECT_GT(disk.bnb.frontier_spilled, 0u) << "frontier_mem=2 must actually spill";
  EXPECT_LE(disk.bnb.frontier_hot_high_water, 3u);  // capacity + overflowing insert
  EXPECT_GE(mem.bnb.frontier_hot_high_water, disk.bnb.frontier_hot_high_water);
  EXPECT_EQ(mem.bnb.frontier_spilled, 0u);

  // A run without a checkpoint owes the disk nothing once it returns.
  EXPECT_TRUE(fs::is_empty(spill_dir));
}

TEST(SpillFrontier, SegmentStoreRoundTripsExactRationalBoxes) {
  using FrontierDeque = support::SpillDeque<OpenBox, FrontierOrder, OpenBoxCodec>;

  FrontierDeque::Config config;
  config.spill_dir = fresh_dir("spill_rational_roundtrip");
  config.mem_capacity = 1;  // everything beyond one box goes through disk
  FrontierDeque deque(config);

  const std::vector<OpenBox> boxes = {
      {ParamBox({Interval{Rational::from_string("1/3"), Rational::from_string("22/7")},
                 Interval{Rational::from_string("-5/391"), Rational(0)}},
                "0101"),
       3.5},
      {ParamBox({Interval{Rational::from_string("123456789123456789123456789/1000000007"),
                          Rational::from_string("123456789123456789123456790/1000000007")},
                 Interval{Rational(-2), Rational(5)}},
                "0110"),
       0.1},  // not exactly representable in decimal: needs shortest-exact doubles
      {ParamBox({Interval{Rational(numeric::BigInt(1), numeric::BigInt(1) << 40),
                          Rational(numeric::BigInt(3), numeric::BigInt(1) << 40)},
                 Interval{Rational(0), Rational(1)}},
                "1"),
       -1e-300},
      {ParamBox({Interval{Rational(0), Rational(1)}, Interval{Rational(0), Rational(1)}}, ""),
       std::numeric_limits<double>::infinity()},
  };
  for (const OpenBox& box : boxes) deque.insert(box);
  EXPECT_GT(deque.spilled(), 0u);

  // Pop order is bound-descending; every reloaded box must compare equal
  // down to the exact rational endpoints and the exact double bound.
  std::vector<OpenBox> popped;
  while (!deque.empty()) popped.push_back(deque.pop_best());
  ASSERT_EQ(popped.size(), boxes.size());
  EXPECT_EQ(popped[0], boxes[3]);  // +inf bound
  EXPECT_EQ(popped[1], boxes[0]);
  EXPECT_EQ(popped[2], boxes[1]);
  EXPECT_EQ(popped[3], boxes[2]);
}

// ----------------------------------------------- delta-checkpoint resume --

/// Harness for the kill simulations: runs the checkpointed search inside
/// one working directory (base checkpoint, wave journals, incumbent log
/// and spill segments all live there), snapshotting the directory after
/// every completed wave — exactly what a kill at that boundary leaves on
/// disk, since every artifact is flushed before the journal record that
/// references it.
struct KillHarness {
  /// `tag` keeps concurrently running tests out of each other's files.
  explicit KillHarness(std::string tag)
      : tag(std::move(tag)), work(fresh_dir(this->tag + "_work")) {}

  std::string tag;
  std::string work;
  std::vector<std::string> snapshots;  // one directory copy per wave

  SearchOptions options(bool spill) {
    SearchOptions options;
    options.incumbent_log_path = (fs::path(work) / "incumbents.jsonl").string();
    options.checkpoint_path = (fs::path(work) / "ck.json").string();
    options.checkpoint_every = 2;  // odd waves die mid-journal, even mid-cycle
    if (spill) {
      options.spill_dir = (fs::path(work) / "spill").string();
      options.frontier_mem = 2;
      options.spill_max_segments = 2;
    }
    return options;
  }

  /// Runs to completion, snapshotting after every wave; returns the final
  /// certificate text.
  std::string run_snapshotting(const SearchSpec& spec, bool spill) {
    SearchOptions opts = options(spill);
    opts.progress = [&](std::uint64_t, std::uint64_t) {
      const std::string snap = temp_path(tag + "_snap_" +
                                         std::to_string(snapshots.size()));
      copy_dir(work, snap);
      snapshots.push_back(snap);
    };
    return exp::run_search(spec, opts).certificate(spec).dump(2);
  }

  /// Restores snapshot `k` into the working directory — the disk state a
  /// kill at that wave boundary would have left behind.
  void restore(std::size_t k) { copy_dir(snapshots[k], work); }

  /// Path of the journal file(s) currently in the working directory.
  std::vector<std::string> journal_files() const {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(work)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("ck.json.wave.", 0) == 0) files.push_back(entry.path().string());
    }
    return files;
  }
};

TEST(DeltaCheckpoint, ResumeFromAKillAtEveryWaveBoundaryReproducesBytes) {
  const SearchSpec spec = small_spec();

  // Ground truth: an uninterrupted, unspilled, uncheckpointed run.
  SearchOptions oneshot;
  oneshot.incumbent_log_path = temp_path("spill_kill_oneshot.jsonl");
  const std::string expected = exp::run_search(spec, oneshot).certificate(spec).dump(2);
  const std::string expected_log = slurp(oneshot.incumbent_log_path);

  KillHarness harness("kill_every_wave");
  EXPECT_EQ(harness.run_snapshotting(spec, /*spill=*/true), expected);
  ASSERT_GE(harness.snapshots.size(), 4u);  // several waves, both parities

  for (std::size_t k = 0; k < harness.snapshots.size(); ++k) {
    harness.restore(k);
    SearchOptions resume = harness.options(/*spill=*/true);
    resume.resume = true;
    resume.max_shards = 3;  // and on a different worker count
    const exp::SearchRunResult finished = exp::run_search(spec, resume);
    EXPECT_TRUE(finished.bnb.complete());
    EXPECT_EQ(finished.certificate(spec).dump(2), expected) << "killed after wave " << k;
    EXPECT_EQ(slurp(resume.incumbent_log_path), expected_log) << "killed after wave " << k;
  }
}

TEST(DeltaCheckpoint, ResumeAcrossSpillModesReproducesBytes) {
  // A checkpoint written by a spilled run resumes in-memory and vice
  // versa: the frontier's location is invocation-side even across a kill.
  const SearchSpec spec = small_spec();
  SearchOptions oneshot;
  oneshot.incumbent_log_path = temp_path("spill_modes_oneshot.jsonl");
  const std::string expected = exp::run_search(spec, oneshot).certificate(spec).dump(2);

  {
    KillHarness spilled("modes_spilled");  // killed spilled run -> in-memory resume
    (void)spilled.run_snapshotting(spec, /*spill=*/true);
    spilled.restore(2);
    SearchOptions resume = spilled.options(/*spill=*/false);
    resume.resume = true;
    EXPECT_EQ(exp::run_search(spec, resume).certificate(spec).dump(2), expected);
  }
  {
    KillHarness in_memory("modes_mem");  // killed in-memory run -> spilled resume
    (void)in_memory.run_snapshotting(spec, /*spill=*/false);
    in_memory.restore(2);
    SearchOptions resume = in_memory.options(/*spill=*/true);
    resume.resume = true;
    const exp::SearchRunResult finished = exp::run_search(spec, resume);
    EXPECT_EQ(finished.certificate(spec).dump(2), expected);
    EXPECT_GT(finished.bnb.frontier_spilled, 0u);
    // The cap holds from the restore on, even though the checkpoint was
    // written by an uncapped in-memory run.
    EXPECT_LE(finished.bnb.frontier_hot_high_water, 3u);
  }
}

TEST(DeltaCheckpoint, PartialOrTornTrailingJournalRecordIsDiscarded) {
  // A kill mid-append leaves a record with no newline, or a torn line; the
  // replay must treat the durable prefix as the checkpoint and reproduce
  // the oneshot bytes (the lost wave is simply re-run).
  const SearchSpec spec = small_spec();
  SearchOptions oneshot;
  oneshot.incumbent_log_path = temp_path("spill_torn_oneshot.jsonl");
  const std::string expected = exp::run_search(spec, oneshot).certificate(spec).dump(2);

  for (const char* tail : {"{\"wave\":99,\"popped\":", "{\"wave\":99,]garbage[}\n"}) {
    KillHarness harness("kill_torn_journal");
    (void)harness.run_snapshotting(spec, /*spill=*/true);
    harness.restore(2);  // wave 3 of checkpoint_every=2: journal has a record
    const std::vector<std::string> journals = harness.journal_files();
    ASSERT_EQ(journals.size(), 1u);
    ASSERT_GT(fs::file_size(journals[0]), 0u) << "snapshot must be mid-journal";
    {
      std::ofstream append(journals[0], std::ios::binary | std::ios::app);
      append << tail;
    }
    SearchOptions resume = harness.options(/*spill=*/true);
    resume.resume = true;
    EXPECT_EQ(exp::run_search(spec, resume).certificate(spec).dump(2), expected) << tail;
  }
}

TEST(DeltaCheckpoint, JournalAndSegmentLinesAreCanonicalAndReplay) {
  // Journal records are assembled as text from worker-encoded children,
  // and segment records from OpenBox::encode(); both must be exactly what
  // the Json tree dumps, so every line re-parses and re-dumps to itself.
  // A resume from a mid-journal kill replays them to the oneshot bytes.
  const SearchSpec spec = small_spec();
  SearchOptions oneshot;
  oneshot.incumbent_log_path = temp_path("spill_canonical_oneshot.jsonl");
  const std::string expected = exp::run_search(spec, oneshot).certificate(spec).dump(2);

  KillHarness harness("canonical_lines");
  SearchOptions opts = harness.options(/*spill=*/true);
  std::size_t journal_lines = 0;
  std::size_t segment_lines = 0;
  const auto check_lines = [](const std::string& path, std::size_t& count) {
    std::ifstream in(path, std::ios::binary);
    for (std::string line; std::getline(in, line); ++count)
      EXPECT_EQ(Json::parse(line).dump(), line) << path;
  };
  opts.progress = [&](std::uint64_t, std::uint64_t) {
    for (const std::string& journal : harness.journal_files()) check_lines(journal, journal_lines);
    for (const auto& entry : fs::directory_iterator(opts.spill_dir))
      check_lines(entry.path().string(), segment_lines);
  };
  EXPECT_EQ(exp::run_search(spec, opts).certificate(spec).dump(2), expected);
  EXPECT_GT(journal_lines, 0u);
  EXPECT_GT(segment_lines, 0u);

  (void)harness.run_snapshotting(spec, /*spill=*/true);
  harness.restore(2);  // wave 3 of checkpoint_every=2: journal has a record
  ASSERT_EQ(harness.journal_files().size(), 1u);
  SearchOptions resume = harness.options(/*spill=*/true);
  resume.resume = true;
  resume.max_shards = 4;
  EXPECT_EQ(exp::run_search(spec, resume).certificate(spec).dump(2), expected);
}

TEST(DeltaCheckpoint, FreshStartSweepsForeignJournals) {
  // Journal records carry no fingerprint — only the base does. A fresh
  // start over a checkpoint path some earlier lineage used must sweep
  // that lineage's journal files immediately (generation 0 included):
  // one surviving until our own first append could be replayed onto the
  // new base by a resume after a kill in that window.
  const std::string work = fresh_dir("foreign_journal_work");
  const std::string checkpoint = (fs::path(work) / "ck.json").string();
  for (const char* leaf : {"ck.json.wave.0.jsonl", "ck.json.wave.7.jsonl"}) {
    std::ofstream out((fs::path(work) / leaf).string(), std::ios::binary);
    out << "{\"wave\":1,\"popped\":1,\"children\":[],\"incumbent\":null}\n";
  }

  // A spec whose whole box is provably infeasible runs zero waves, so
  // nothing ever opens (and thereby truncates) a journal: the fresh-start
  // sweep alone must have removed the foreign files.
  SearchSpec spec = small_spec();
  spec.box = {Interval{Rational(4), Rational(6)}, Interval{Rational(0), Rational(1)}};
  SearchOptions options;
  options.checkpoint_path = checkpoint;
  const exp::SearchRunResult result = exp::run_search(spec, options);
  EXPECT_TRUE(result.bnb.exhausted);
  EXPECT_EQ(result.bnb.stats.evaluated, 0u);

  EXPECT_TRUE(fs::exists(checkpoint));
  for (const auto& entry : fs::directory_iterator(work)) {
    EXPECT_EQ(entry.path().filename().string().rfind("ck.json.wave.", 0),
              std::string::npos)
        << entry.path() << " survived the fresh-start sweep";
  }
}

TEST(DeltaCheckpoint, TerminalBaseReflectsTheDrainedFrontier) {
  // Aggressive min_improvement pruning tends to end the search on
  // drain-only iterations (every remaining pop pruned, no journal
  // record); the terminal base must still capture that drain — an
  // exhausted search leaves a checkpoint saying so, not a stale
  // non-empty frontier that every resume re-drains forever.
  SearchSpec spec = small_spec();
  spec.limits.max_boxes = 4096;
  spec.limits.min_width = Rational(numeric::BigInt(1), numeric::BigInt(2));
  spec.limits.min_improvement = 1.0;

  const std::string work = fresh_dir("terminal_drain_work");
  SearchOptions options;
  options.incumbent_log_path = (fs::path(work) / "incumbents.jsonl").string();
  options.checkpoint_path = (fs::path(work) / "ck.json").string();
  options.checkpoint_every = 2;
  options.spill_dir = (fs::path(work) / "spill").string();
  options.frontier_mem = 2;
  const exp::SearchRunResult result = exp::run_search(spec, options);
  ASSERT_TRUE(result.bnb.exhausted);

  const Json base = Json::load_file(options.checkpoint_path);
  EXPECT_TRUE(base.at("frontier").at("hot").as_array().empty());
  EXPECT_TRUE(base.at("frontier").at("segments").as_array().empty());
  EXPECT_EQ(base.at("stats").at("evaluated").as_uint(), result.bnb.stats.evaluated);
  EXPECT_EQ(base.at("stats").at("pruned").as_uint(), result.bnb.stats.pruned);

  // Resuming the finished search is a no-op landing on the same bytes.
  SearchOptions resume = options;
  resume.resume = true;
  const exp::SearchRunResult again = exp::run_search(spec, resume);
  EXPECT_EQ(again.certificate(spec).dump(2), result.certificate(spec).dump(2));
}

TEST(DeltaCheckpoint, StaleJournalFromAKilledCompactionIsIgnored) {
  // Compaction writes the new base, then removes the previous journal; a
  // kill in between leaves the stale generation's file behind. Resume must
  // go by the base's recorded generation and ignore the stale file.
  const SearchSpec spec = small_spec();
  SearchOptions oneshot;
  oneshot.incumbent_log_path = temp_path("spill_stale_oneshot.jsonl");
  const std::string expected = exp::run_search(spec, oneshot).certificate(spec).dump(2);

  KillHarness harness("kill_mid_compaction");
  (void)harness.run_snapshotting(spec, /*spill=*/true);
  harness.restore(1);  // wave 2: a compaction boundary (checkpoint_every=2)
  const Json base = Json::load_file((fs::path(harness.work) / "ck.json").string());
  const std::uint64_t generation = base.at("generation").as_uint();
  ASSERT_GE(generation, 1u) << "snapshot must be right after a compaction";

  // Fabricate the stale pre-compaction journal the kill failed to delete:
  // plausible records of an older generation, plus pure garbage.
  const std::string stale = (fs::path(harness.work) /
                             ("ck.json.wave." + std::to_string(generation - 1) + ".jsonl"))
                                .string();
  {
    std::ofstream out(stale, std::ios::binary);
    out << "{\"wave\":1,\"popped\":1,\"children\":[],\"incumbent\":null}\n"
        << "not even json\n";
  }
  SearchOptions resume = harness.options(/*spill=*/true);
  resume.resume = true;
  EXPECT_EQ(exp::run_search(spec, resume).certificate(spec).dump(2), expected);
  // ...and the next compaction swept the stale generation away.
  EXPECT_FALSE(fs::exists(stale));
}

}  // namespace
}  // namespace aurv::search
