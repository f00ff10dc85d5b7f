// Spill-to-disk priority deque — the bounded-memory frontier primitive
// behind the search subsystem's million-box hunts.
//
// A SpillDeque orders elements by a strict total order `Less` (least =
// best = popped first) and keeps at most `mem_capacity` of them in memory
// (the "hot" set). When the hot set overflows, its cold tail is written —
// already sorted — into an append-only JSONL segment file under
// `spill_dir`; pop_best() k-way-merges the hot set with the head of every
// open segment, so the pop sequence is element-for-element the sequence an
// unbounded in-memory set would produce, at any capacity. That invariant
// is what lets the branch-and-bound promise byte-identical certificates
// whether the frontier lived in RAM or on disk (the Bobpp-style
// determinism discipline of Menouer & Le Cun, arXiv:1406.2844, extended
// to an externalized frontier).
//
// Segments are immutable once written: draining one only advances a read
// offset, never rewrites bytes. That makes them safe to reference from a
// base checkpoint — `state_to_json()` records each segment's path, byte
// offset and remaining record count plus the hot set, and `from_json()`
// reopens the exact same logical container; the deque's own `Segment`
// streams each open file from its recorded offset. Files drained or
// superseded by a merge are only *retired* (remembered, not deleted)
// until the owner calls `prune_retired()` after its next durable
// checkpoint, so a crash between the two never orphans state a resume
// still needs.
//
// `Codec` maps T to/from support::Json (lossless — segment records and
// checkpointed hot entries both go through it); `Codec::encode(value)`
// must equal `Codec::to_json(value).dump()` and is what segments store.
//
// Fault policy: a segment is written like every other durable record,
// through support::JsonlSink (one append per record), so transient
// failures are absorbed by its bounded deterministic retry and a torn
// record is rewound to the last record boundary; a *persistent* write
// failure (ENOSPC, EIO, read-only directory) does not kill the deque —
// it **degrades** to in-memory mode: the elements that failed to spill
// stay in the hot set, no further segments are written, and existing
// segments keep draining normally. Degradation never changes the pop
// sequence (the elements are the same, only their residence differs), so
// certificates stay byte-identical; it is surfaced through `degraded()` /
// `degradation()` for invocation-side observability only. If a
// `degraded_capacity` is configured and the unspillable hot set outgrows
// it, the deque fails the job with a structured VfsError instead of
// exhausting memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/json.hpp"
#include "support/jsonl.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"
#include "support/vfs.hpp"

namespace aurv::support {

template <typename T, typename Less, typename Codec>
class SpillDeque {
 public:
  struct Config {
    /// Directory for segment files; "" disables spilling entirely. The
    /// directory belongs to ONE deque (plus its checkpoint/resume
    /// lineage): segments are numbered from a per-deque counter and
    /// restore sweeps every unreferenced segment-named file, so two
    /// deques sharing a directory would truncate and delete each
    /// other's data — same exclusivity contract as a checkpoint path.
    std::string spill_dir;
    /// Max elements resident in memory; 0 = unbounded (never spills).
    /// Nonzero requires spill_dir.
    std::size_t mem_capacity = 0;
    /// Open-segment cap: one more spill past this k-way-merges every
    /// segment into a single sorted run (bounds open file handles and the
    /// per-pop head scan). Must be >= 1.
    std::size_t max_segments = 8;
    /// Hot-set bound while *degraded* (spill dir unwritable/full): exceed
    /// it and the deque fails the job with a structured VfsError instead
    /// of growing without limit. 0 = unbounded in-memory fallback.
    std::size_t degraded_capacity = 0;
  };

  explicit SpillDeque(Config config = {}, Less less = {})
      : config_(std::move(config)), less_(less), hot_(less) {
    AURV_CHECK_MSG(config_.max_segments >= 1, "SpillDeque: max_segments must be >= 1");
    AURV_CHECK_MSG(config_.mem_capacity == 0 || !config_.spill_dir.empty(),
                   "SpillDeque: mem_capacity requires a spill_dir");
    if (!config_.spill_dir.empty()) {
      try {
        vfs().create_directories(config_.spill_dir);
      } catch (const VfsError& error) {
        // An uncreatable spill dir degrades the deque from birth: it runs
        // fully in memory (under degraded_capacity) instead of failing.
        degrade(error.what());
      }
    }
  }

  [[nodiscard]] std::uint64_t size() const noexcept {
    std::uint64_t total = hot_.size();
    for (const Segment& segment : segments_) total += segment.remaining;
    return total;
  }
  [[nodiscard]] bool empty() const noexcept { return hot_.empty() && segments_.empty(); }

  /// `Less` must order every inserted element strictly (no two distinct
  /// live elements may compare equal — the frontier guarantees this via
  /// unique box ids): a duplicate's twin may already live in a segment,
  /// where it cannot be deduplicated, and the pop sequence would then
  /// depend on spill timing. The detectable half is checked here.
  void insert(T value) {
    AURV_CHECK_MSG(hot_.insert(std::move(value)).second,
                   "SpillDeque: duplicate element (Less must be a strict total order "
                   "over all live elements)");
    hot_high_water_ = std::max<std::uint64_t>(hot_high_water_, hot_.size());
    if (config_.mem_capacity > 0 && hot_.size() > config_.mem_capacity) spill_tail();
  }

  /// True once a persistent spill-write failure demoted the deque to
  /// in-memory mode (never part of any certificate).
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  /// The first failure that caused the degradation ("" when healthy).
  [[nodiscard]] const std::string& degradation() const noexcept { return degradation_; }

  /// The least (best) element across memory and disk; nullptr when empty.
  /// The pointer is valid until the next mutation.
  [[nodiscard]] const T* peek_best() const {
    const Segment* best = best_segment();
    if (best == nullptr) return hot_.empty() ? nullptr : &*hot_.begin();
    if (hot_.empty() || less_(*best->head, *hot_.begin())) return &*best->head;
    return &*hot_.begin();
  }

  T pop_best() {
    AURV_CHECK_MSG(!empty(), "SpillDeque: pop from an empty deque");
    Segment* best = best_segment();
    if (best != nullptr && (hot_.empty() || less_(*best->head, *hot_.begin()))) {
      T out = std::move(*best->head);
      advance_segment(*best);
      return out;
    }
    return std::move(hot_.extract(hot_.begin()).value());
  }

  /// ---- checkpoint support -------------------------------------------
  /// {"seq": n, "hot": [...], "segments": [{"path","offset","remaining"}]}
  [[nodiscard]] Json state_to_json() const {
    Json json = Json::object();
    json.set("seq", Json(seq_));
    Json hot = Json::array();
    for (const T& value : hot_) hot.push_back(Codec::to_json(value));
    json.set("hot", std::move(hot));
    Json segments = Json::array();
    for (const Segment& segment : segments_) {
      Json entry = Json::object();
      entry.set("path", Json(segment.path));
      entry.set("offset", Json(segment.offset));
      entry.set("remaining", Json(segment.remaining));
      segments.push_back(std::move(entry));
    }
    json.set("segments", std::move(segments));
    return json;
  }

  [[nodiscard]] static SpillDeque from_json(const Json& json, Config config, Less less = {}) {
    SpillDeque deque(std::move(config), less);
    deque.seq_ = json.at("seq").as_uint();
    // Through insert(), not straight into hot_: a state checkpointed
    // under a looser (or absent) memory cap can hold more hot entries
    // than this restore's config allows — e.g. an in-memory run resumed
    // on a smaller machine — and insert() spills the overflow as it
    // loads, keeping the cap honest even during the restore itself.
    for (const Json& entry : json.at("hot").as_array()) deque.insert(Codec::from_json(entry));
    for (const Json& entry : json.at("segments").as_array()) {
      Segment segment(entry.at("path").as_string(), entry.at("offset").as_uint(),
                      entry.at("remaining").as_uint());
      if (segment.head.has_value()) deque.segments_.push_back(std::move(segment));
    }
    // A kill between the owner's checkpoint write and its prune_retired()
    // call leaves segment files no state references; without this sweep,
    // repeated crash/resume cycles would accumulate them forever (the
    // restored state only ever recreates files with seq >= the stored
    // counter). Deleting unreferenced segment-named files is always safe:
    // anything needed again is rewritten from scratch.
    deque.sweep_orphans();
    return deque;
  }

  /// Deletes every file retired by draining or merging since the last
  /// call. Call only after the state that stopped referencing them is
  /// durable (e.g. right after a base checkpoint write), so a crash in
  /// between never deletes a file an older checkpoint still needs.
  void prune_retired() {
    for (const std::string& path : retired_) vfs().remove(path);  // best-effort
    retired_.clear();
  }

  /// Closes every open segment and deletes every file this deque created
  /// (open and retired alike), emptying the container. For runs without
  /// durable checkpoints, where segment files have no value once the run
  /// ends; never call while a checkpoint still references the files.
  void discard_files() {
    for (Segment& segment : segments_) retired_.push_back(segment.path);
    segments_.clear();
    hot_.clear();
    prune_retired();
  }

  /// Deletes every segment-named file ("seg-<n>.jsonl"), in the
  /// configured spill directory and in the directories of the referenced
  /// segments, that the current state does not reference. The reclaim
  /// half of the exclusive-directory contract: leftovers of a crashed
  /// run are garbage *because* no other deque may share the directory.
  /// from_json() calls this automatically; call it on a fresh start too,
  /// before the first spill renumbers segments from zero.
  void sweep_orphans() const {
    std::error_code ec;
    std::set<std::filesystem::path> keep;
    std::set<std::filesystem::path> dirs;
    if (!config_.spill_dir.empty())
      dirs.insert(std::filesystem::weakly_canonical(config_.spill_dir, ec));
    for (const Segment& segment : segments_) {
      const std::filesystem::path path = std::filesystem::weakly_canonical(segment.path, ec);
      keep.insert(path);
      dirs.insert(path.parent_path());
    }
    for (const std::filesystem::path& dir : dirs) {
      for (const std::string& name : vfs().list_dir(dir.string())) {
        if (!is_segment_name(name)) continue;
        const std::filesystem::path candidate = dir / name;
        if (keep.count(std::filesystem::weakly_canonical(candidate, ec)) == 0)
          vfs().remove(candidate.string());  // best-effort
      }
    }
  }

  /// ---- invocation-side observability (never part of any certificate) --
  [[nodiscard]] std::uint64_t hot_high_water() const noexcept { return hot_high_water_; }
  [[nodiscard]] std::uint64_t spilled() const noexcept { return spilled_; }
  [[nodiscard]] std::size_t segment_count() const noexcept { return segments_.size(); }

 private:
  /// An immutable segment file, streamed from a byte offset. The current
  /// record ("head") stays loaded, raw and decoded; advance() moves on.
  struct Segment {
    std::string path;
    std::uint64_t offset = 0;     ///< byte offset of the head (what a checkpoint stores)
    std::uint64_t remaining = 0;  ///< records left, the head included
    std::unique_ptr<std::ifstream> file;  // pointer: keeps the segment movable
    std::string line;             ///< the head record as stored
    std::optional<T> head;        ///< the head record, decoded

    /// Opens `path` at `offset` with `remaining` records left; throws
    /// std::invalid_argument when the file is missing or holds fewer
    /// records than promised (a segment/checkpoint mismatch).
    Segment(std::string segment_path, std::uint64_t at, std::uint64_t records)
        : path(std::move(segment_path)), offset(at), remaining(records) {
      if (remaining == 0) return;  // fully drained: nothing to open
      file = std::make_unique<std::ifstream>(path, std::ios::binary);
      if (!file->is_open())
        throw std::invalid_argument("spill: cannot open segment " + path +
                                    " (missing or unreadable; the spill directory does not "
                                    "match this checkpoint)");
      file->seekg(static_cast<std::streamoff>(offset));
      read_head();
    }

    [[nodiscard]] bool done() const noexcept { return remaining == 0; }

    void advance() {
      AURV_CHECK_MSG(remaining > 0, "spill: advance past the end of a segment");
      offset += line.size() + 1;  // the record and its newline
      --remaining;
      if (remaining > 0) read_head();
    }

   private:
    void read_head() {
      if (!std::getline(*file, line))
        throw std::invalid_argument("spill: segment " + path +
                                    " is shorter than the checkpoint's recorded record count "
                                    "(truncated or mismatched segment file)");
      head = Codec::from_json(Json::parse(line));
    }
  };

  /// "seg-<digits>.jsonl" — the only files the sweep may touch.
  [[nodiscard]] static bool is_segment_name(const std::string& name) {
    const std::string::size_type dot = name.size() > 6 ? name.size() - 6 : 0;
    if (name.rfind("seg-", 0) != 0 || dot <= 4 || name.compare(dot, 6, ".jsonl") != 0)
      return false;
    for (std::string::size_type k = 4; k < dot; ++k)
      if (name[k] < '0' || name[k] > '9') return false;
    return true;
  }

  [[nodiscard]] std::string segment_path(std::uint64_t seq) const {
    return (std::filesystem::path(config_.spill_dir) / ("seg-" + std::to_string(seq) + ".jsonl"))
        .string();
  }

  [[nodiscard]] const Segment* best_segment() const {
    const Segment* best = nullptr;
    for (const Segment& segment : segments_)
      if (best == nullptr || less_(*segment.head, *best->head)) best = &segment;
    return best;
  }
  [[nodiscard]] Segment* best_segment() {
    return const_cast<Segment*>(std::as_const(*this).best_segment());
  }

  void advance_segment(Segment& segment) {
    segment.advance();
    if (segment.done()) {
      retired_.push_back(segment.path);
      for (auto it = segments_.begin(); it != segments_.end(); ++it) {
        if (&*it == &segment) {
          segments_.erase(it);
          break;
        }
      }
    }
  }

  /// Marks the deque degraded (first failure wins) — spilling stops,
  /// elements stay hot, existing segments keep draining.
  void degrade(const std::string& reason) {
    if (!degraded_) {
      degradation_ = reason;
      telemetry::registry().counter("spill.degradations").add();
    }
    degraded_ = true;
  }

  /// While degraded, an unspillable hot set may not outgrow the
  /// configured bound — beyond it, fail the job with a structured error
  /// rather than exhaust memory.
  void enforce_degraded_cap() const {
    if (config_.degraded_capacity == 0 || hot_.size() <= config_.degraded_capacity) return;
    throw VfsError("spill", config_.spill_dir,
                   "degraded frontier exceeds degraded_capacity=" +
                       std::to_string(config_.degraded_capacity) + " (hot=" +
                       std::to_string(hot_.size()) + "; first failure: " + degradation_ + ")",
                   /*transient=*/false);
  }

  /// Writes the next segment file through `write(sink)`, which appends
  /// the records and returns how many, and opens it for reading. Only a
  /// cleanly closed segment ticks the spill counters and sets the span's
  /// "records" argument. On a persistent failure the partial file is
  /// removed, the deque degrades, and the result is empty.
  template <typename Write>
  std::optional<Segment> write_segment(trace::Span& span, Write&& write) {
    static telemetry::Counter& segments_counter = telemetry::registry().counter("spill.segments");
    static telemetry::Counter& records_counter = telemetry::registry().counter("spill.records");
    static telemetry::Counter& bytes_counter = telemetry::registry().counter("spill.bytes");
    const std::string path = segment_path(seq_++);
    std::uint64_t records = 0;
    try {
      JsonlSink sink(path);  // truncates a pre-crash leftover of the same name
      records = write(sink);
      sink.close();
      segments_counter.add();
      records_counter.add(records);
      bytes_counter.add(sink.bytes());
    } catch (const VfsError& error) {
      vfs().remove(path);
      degrade(error.what());
      return std::nullopt;
    }
    if (span.armed()) {
      Json args = Json::object();
      args.set("records", Json(records));
      span.set_args(std::move(args));
    }
    return Segment(path, 0, records);
  }

  /// Moves the worst half of the hot set, in sorted order, into a fresh
  /// segment file. A persistent write failure degrades the deque instead
  /// of propagating: the unspilled elements simply stay hot (the pop
  /// sequence — and thus every certificate — is unchanged).
  void spill_tail() {
    if (degraded_) {
      enforce_degraded_cap();
      return;
    }
    static telemetry::Timer& segment_timer = telemetry::registry().timer("spill.segment");
    trace::Span span(segment_timer, "spill.segment", "spill", {.announce = true});
    const std::size_t keep = config_.mem_capacity / 2;
    auto first_cold = hot_.begin();
    std::advance(first_cold, keep);
    // Nothing is erased from hot_ before the segment is durable, so a
    // failed one is dropped wholesale and its elements served from memory.
    std::optional<Segment> segment = write_segment(span, [&](JsonlSink& sink) {
      std::uint64_t records = 0;
      for (auto it = first_cold; it != hot_.end(); ++it, ++records)
        sink.append(Codec::encode(*it) + "\n");
      return records;
    });
    if (!segment.has_value()) {
      enforce_degraded_cap();
      return;
    }
    spilled_ += segment->remaining;
    hot_.erase(first_cold, hot_.end());
    segments_.push_back(std::move(*segment));
    if (segments_.size() > config_.max_segments) merge_segments();
  }

  /// K-way-merges every open segment into one sorted run. Raw record
  /// lines are copied as-is (no decode/re-encode), so a merged segment is
  /// byte-equivalent to the concatenation of its inputs in pop order.
  /// Fault-safe: the merge reads through *scratch* segments opened at the
  /// live segments' current offsets, so a failed merge write leaves the
  /// live state untouched — the deque degrades (keeps serving from the
  /// unmerged segments) instead of losing records.
  void merge_segments() {
    if (segments_.size() <= 1) return;
    static telemetry::Timer& merge_timer = telemetry::registry().timer("spill.merge");
    trace::Span span(merge_timer, "spill.merge", "spill", {.announce = true});
    std::vector<Segment> scratch;
    scratch.reserve(segments_.size());
    for (const Segment& segment : segments_)
      scratch.emplace_back(segment.path, segment.offset, segment.remaining);
    std::optional<Segment> merged = write_segment(span, [&](JsonlSink& sink) {
      std::uint64_t records = 0;
      std::size_t open = scratch.size();
      while (open > 0) {
        Segment* best = nullptr;
        for (Segment& s : scratch)
          if (!s.done() && (best == nullptr || less_(*s.head, *best->head))) best = &s;
        sink.append(best->line + "\n");
        ++records;
        best->advance();
        if (best->done()) --open;
      }
      return records;
    });
    if (!merged.has_value()) return;
    AURV_CHECK_MSG(merged->head.has_value(),
                   "SpillDeque: merged zero records from nonempty segments");
    telemetry::registry().counter("spill.merges").add();
    for (Segment& segment : segments_) retired_.push_back(segment.path);
    segments_.clear();
    segments_.push_back(std::move(*merged));
  }

  Config config_;
  Less less_;
  std::set<T, Less> hot_;
  std::vector<Segment> segments_;
  std::uint64_t seq_ = 0;                 ///< next segment file number
  std::vector<std::string> retired_;      ///< files awaiting prune_retired()
  std::uint64_t spilled_ = 0;             ///< lifetime records written to disk
  std::uint64_t hot_high_water_ = 0;      ///< max elements resident at once
  bool degraded_ = false;                 ///< spilling demoted to in-memory mode
  std::string degradation_;               ///< first failure behind the demotion
};

}  // namespace aurv::support
