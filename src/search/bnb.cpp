#include "search/bnb.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/jsonl.hpp"
#include "support/parallel.hpp"
#include "support/spill.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace aurv::search {

using numeric::Rational;
using support::Json;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string dim_label(const std::vector<std::string>& names, std::size_t index) {
  if (index < names.size()) return names[index];
  std::string label = "d";  // two statements sidestep a GCC 12 -Wrestrict
  label += std::to_string(index);  // false positive on operator+(const char*, string&&)
  return label;
}

Json point_to_json(const std::vector<Rational>& point, const std::vector<std::string>& names) {
  Json json = Json::object();
  for (std::size_t k = 0; k < point.size(); ++k)
    json.set(dim_label(names, k), Json(point[k].to_string()));
  return json;
}

std::vector<Rational> point_from_json(const Json& json, const std::vector<std::string>& names,
                                      std::size_t dim_count) {
  std::vector<Rational> point;
  for (const auto& [name, value] : json.as_object()) {
    // Order in the object is dimension order; a renamed or reordered key
    // would otherwise silently permute coordinates across dimensions.
    const std::string expected = dim_label(names, point.size());
    if (name != expected)
      throw support::JsonError("point: expected dimension \"" + expected + "\", got \"" +
                               name + "\" (corrupted or hand-edited checkpoint)");
    point.push_back(Rational::from_string(value.as_string()));
  }
  if (point.size() != dim_count)
    throw support::JsonError("point: expected " + std::to_string(dim_count) +
                             " dimensions, got " + std::to_string(point.size()) +
                             " (corrupted or hand-edited checkpoint)");
  return point;
}

Json incumbent_to_json(const Incumbent& incumbent, const std::vector<std::string>& names) {
  Json json = Json::object();
  json.set("score", Json(incumbent.score));
  json.set("box", Json(incumbent.box_id));
  json.set("found_at_box", Json(incumbent.found_at_box));
  json.set("point", point_to_json(incumbent.point, names));
  json.set("evaluation", incumbent.evaluation.to_json());
  return json;
}

Incumbent incumbent_from_json(const Json& json, const std::vector<std::string>& names,
                              std::size_t dim_count) {
  Incumbent incumbent;
  incumbent.found = true;
  incumbent.score = json.at("score").as_number();
  incumbent.box_id = json.at("box").as_string();
  incumbent.found_at_box = json.at("found_at_box").as_uint();
  incumbent.point = point_from_json(json.at("point"), names, dim_count);
  incumbent.evaluation = Evaluation::from_json(json.at("evaluation"));
  return incumbent;
}

Json stats_to_json(const BnbStats& stats) {
  Json json = Json::object();
  json.set("evaluated", Json(stats.evaluated));
  json.set("pruned", Json(stats.pruned));
  json.set("branched", Json(stats.branched));
  json.set("leaves", Json(stats.leaves));
  json.set("waves", Json(stats.waves));
  json.set("max_frontier", Json(stats.max_frontier));
  json.set("improvements", Json(stats.improvements));
  return json;
}

BnbStats stats_from_json(const Json& json) {
  BnbStats stats;
  stats.evaluated = json.at("evaluated").as_uint();
  stats.pruned = json.at("pruned").as_uint();
  stats.branched = json.at("branched").as_uint();
  stats.leaves = json.at("leaves").as_uint();
  stats.waves = json.at("waves").as_uint();
  stats.max_frontier = json.at("max_frontier").as_uint();
  stats.improvements = json.at("improvements").as_uint();
  return stats;
}

/// The open frontier: in memory by default, cold tail in JSONL disk
/// segments when BnbOptions configures spilling. Pop order is identical
/// either way, so the spill mode can never change a certificate byte.
using Frontier = support::SpillDeque<OpenBox, FrontierOrder, OpenBoxCodec>;

struct SearchState {
  Frontier frontier;
  Incumbent incumbent;
  BnbStats stats;
  std::uint64_t log_bytes = 0;
  /// Journal generation: each compaction starts a fresh journal file so a
  /// kill between the base write and the old journal's removal leaves a
  /// stale file the resume path ignores by name.
  std::uint64_t generation = 0;
};

std::string journal_path(const std::string& checkpoint_path, std::uint64_t generation) {
  return checkpoint_path + ".wave." + std::to_string(generation) + ".jsonl";
}

/// Removes every sibling journal file of `checkpoint_path` except
/// `keep_filename` ("" keeps nothing — a fresh start owns no journal yet,
/// and a leftover from whatever lineage previously used this path must
/// never be mistaken for the new lineage's records). The cleanup half of
/// compaction, and the sweep that erases leftovers of a kill.
void remove_stale_journals(const std::string& checkpoint_path, const std::string& keep_filename) {
  const std::filesystem::path base(checkpoint_path);
  const std::string prefix = base.filename().string() + ".wave.";
  const std::string& keep = keep_filename;
  const std::filesystem::path dir =
      base.has_parent_path() ? base.parent_path() : std::filesystem::path(".");
  for (const std::string& name : support::vfs().list_dir(dir.string())) {
    if (name.rfind(prefix, 0) == 0 && name != keep)
      support::vfs().remove((dir / name).string());  // best-effort
  }
}

Json checkpoint_to_json(const SearchState& state, const ParamBox& root,
                        const Objective& objective, const BnbLimits& limits,
                        const BnbOptions& options) {
  Json json = Json::object();
  json.set("schema", Json(std::uint64_t{2}));
  json.set("kind", Json("search-checkpoint"));
  json.set("fingerprint", Json(options.fingerprint));
  json.set("root", root.to_json());
  json.set("objective", objective.descriptor());
  json.set("wave_size", Json(limits.wave_size));
  json.set("max_boxes", Json(limits.max_boxes));
  json.set("min_width", Json(limits.min_width.to_string()));
  json.set("min_improvement", Json(limits.min_improvement));
  json.set("incumbent_log_path", Json(options.incumbent_log_path));
  json.set("log_bytes", Json(state.log_bytes));
  json.set("generation", Json(state.generation));
  json.set("stats", stats_to_json(state.stats));
  json.set("incumbent", state.incumbent.found
                            ? incumbent_to_json(state.incumbent, options.dim_names)
                            : Json());
  json.set("frontier", state.frontier.state_to_json());
  return json;
}

SearchState checkpoint_from_json(const Json& json, const std::string& path, const ParamBox& root,
                                 const Objective& objective, const BnbLimits& limits,
                                 const BnbOptions& options,
                                 const Frontier::Config& frontier_config) {
  // "Foreign" checkpoints — written by a different search, spec or build —
  // are CheckpointErrors: structured (path + reason) so a driver can emit
  // one machine-parseable diagnostic line instead of a bare what().
  if (json.string_or("kind", "") != "search-checkpoint")
    throw support::CheckpointError(path, "not a search-checkpoint file (foreign checkpoint)");
  if (json.uint_or("schema", 0) != 2)
    throw support::CheckpointError(
        path, "schema " + std::to_string(json.uint_or("schema", 0)) +
                  " (written by a different build of the search; delete the checkpoint to "
                  "start over)");
  if (json.at("fingerprint").as_string() != options.fingerprint)
    throw support::CheckpointError(
        path,
        "search fingerprint mismatch (spec edited since the checkpoint was "
        "written; delete the checkpoint to start over)");
  // The spec fingerprint covers these for exp::run_search, but direct
  // run_bnb callers may leave it empty — guard the search identity itself
  // (root box plus the objective's full construction descriptor) so a
  // stale checkpoint can never seed a different search.
  if (!(json.at("root") == root.to_json()) ||
      !(json.at("objective") == objective.descriptor()))
    throw support::CheckpointError(
        path,
        "root box or objective mismatch with the running search (stale "
        "checkpoint from a different search; delete it to start over)");
  if (json.at("wave_size").as_uint() != limits.wave_size ||
      json.at("max_boxes").as_uint() != limits.max_boxes ||
      Rational::from_string(json.at("min_width").as_string()) != limits.min_width ||
      json.at("min_improvement").as_number() != limits.min_improvement)
    throw std::invalid_argument("checkpoint: budget mismatch with the running search");
  if (json.at("incumbent_log_path").as_string() != options.incumbent_log_path)
    throw std::invalid_argument(
        "checkpoint: --incumbent-log path differs from the original run's (\"" +
        json.at("incumbent_log_path").as_string() +
        "\"); resuming would truncate the wrong file");
  SearchState state;
  state.log_bytes = json.at("log_bytes").as_uint();
  state.generation = json.at("generation").as_uint();
  state.stats = stats_from_json(json.at("stats"));
  if (!json.at("incumbent").is_null())
    state.incumbent =
        incumbent_from_json(json.at("incumbent"), options.dim_names, root.dim_count());
  state.frontier = Frontier::from_json(json.at("frontier"), frontier_config);
  return state;
}

/// Re-applies one journaled wave's deterministic merge: pop the same
/// boxes (prune decisions recompute identically against the replayed
/// incumbent), adopt the recorded incumbent, insert the surviving
/// children, take the recorded stats — no midpoint is re-simulated.
void replay_record(SearchState& state, const Json& record,
                   const std::vector<std::string>& names, std::size_t dim_count) {
  const std::uint64_t wave = record.at("wave").as_uint();
  if (wave != state.stats.waves + 1)
    throw std::invalid_argument(
        "journal: wave " + std::to_string(wave) + " does not continue this base checkpoint "
        "(expected wave " + std::to_string(state.stats.waves + 1) +
        "; journal and checkpoint are out of sync — delete both to start over)");
  const std::uint64_t popped = record.at("popped").as_uint();
  if (popped > state.frontier.size())
    throw std::invalid_argument(
        "journal: a record pops more boxes than the frontier holds (journal and "
        "checkpoint are out of sync — delete both to start over)");
  for (std::uint64_t k = 0; k < popped; ++k) (void)state.frontier.pop_best();
  if (!record.at("incumbent").is_null())
    state.incumbent = incumbent_from_json(record.at("incumbent"), names, dim_count);
  for (const Json& child : record.at("children").as_array())
    state.frontier.insert(OpenBox::from_json(child));
  state.stats = stats_from_json(record.at("stats"));
  state.log_bytes = record.at("log_bytes").as_uint();
}

/// One wave's journal line: the bytes of the compact Json record
/// {"wave", "popped", "children", "incumbent", "stats", "log_bytes"},
/// built as text so the children — already encoded by the workers, joined
/// by commas — are spliced in rather than re-encoded. `incumbent` is null
/// when the wave did not improve it.
std::string journal_record(std::uint64_t wave, std::uint64_t popped, const std::string& children,
                           const Incumbent* incumbent, const std::vector<std::string>& names,
                           const BnbStats& stats, std::uint64_t log_bytes) {
  const auto number = [](std::uint64_t value) {
    return support::json_number_to_string(static_cast<double>(value));
  };
  std::string line = "{\"wave\":" + number(wave);
  line += ",\"popped\":" + number(popped);
  line += ",\"children\":[";
  line += children;
  line += "],\"incumbent\":";
  line += incumbent != nullptr ? incumbent_to_json(*incumbent, names).dump() : "null";
  line += ",\"stats\":" + stats_to_json(stats).dump();
  line += ",\"log_bytes\":" + number(log_bytes);
  line += "}\n";
  return line;
}

/// Replays the wave journal on top of a freshly loaded base checkpoint.
/// Returns the byte length of the journal's durable prefix (a partial or
/// torn trailing record, lost to the kill, is excluded; the sink
/// truncates it on reopen).
std::uint64_t replay_journal(SearchState& state, const std::string& path,
                             const std::vector<std::string>& names, std::size_t dim_count) {
  if (!support::vfs().exists(path)) return 0;
  const std::string data = support::vfs().read_file(path);
  std::size_t consumed = 0;
  while (true) {
    const std::size_t newline = data.find('\n', consumed);
    if (newline == std::string::npos) break;  // partial trailing record
    Json record;
    try {
      record = Json::parse(std::string_view(data).substr(consumed, newline - consumed));
    } catch (const support::JsonError&) {
      break;  // torn write at the kill point: the durable prefix ends here
    }
    // Past this point the record parsed, so a missing or mistyped field is
    // not a torn write but real corruption — refuse with the same guidance
    // as the other mismatch paths instead of leaking a bare key error.
    try {
      replay_record(state, record, names, dim_count);
    } catch (const support::JsonError& error) {
      throw std::invalid_argument(std::string("journal: malformed record (") + error.what() +
                                  "); journal and checkpoint are out of sync — delete both "
                                  "to start over");
    }
    consumed = newline + 1;
  }
  return consumed;
}

/// One line per incumbent improvement: progress counters, the box, the
/// exact point, then the full evaluation record.
std::string improvement_record(const Incumbent& incumbent,
                               const std::vector<std::string>& names) {
  Json record = Json::object();
  record.set("boxes_evaluated", Json(incumbent.found_at_box));
  record.set("box", Json(incumbent.box_id));
  record.set("point", point_to_json(incumbent.point, names));
  Json evaluation = incumbent.evaluation.to_json();
  for (auto& [key, value] : evaluation.as_object()) record.set(key, std::move(value));
  return record.dump() + "\n";
}

// ------------------------------------------------------------------------
// Prune provenance: the auditable decision journal (--provenance). Every
// record is emitted on the serialized side of the wave — assembly loop or
// in-order completion hook — so the stream is byte-identical at any
// worker count. Each record carries the wave number it is folded under
// (the next journal record's wave), which is what lets resume truncate
// the stream to the replayed wave boundary WITHOUT storing any provenance
// bookkeeping in checkpoints: checkpoint bytes are identical with the
// stream on or off.
// ------------------------------------------------------------------------

/// First line of every stream: identifies the search it belongs to.
std::string provenance_header(const std::string& fingerprint) {
  Json record = Json::object();
  record.set("kind", Json("search-provenance"));
  record.set("schema", Json(std::uint64_t{1}));
  record.set("fingerprint", Json(fingerprint));
  return record.dump() + "\n";
}

/// One decision per box: what happened to it and under which incumbent.
/// `children` (branched only) records each child's id and inserted bound —
/// the data the auditor needs to reconstruct the open frontier.
std::string decision_record(std::uint64_t wave, const std::string& box_id, const char* action,
                            double bound, std::uint64_t incumbent_seq,
                            const Json::Array* children) {
  Json record = Json::object();
  record.set("wave", Json(wave));
  record.set("box", Json(box_id));
  record.set("action", Json(action));
  record.set("bound", bound_to_json(bound));
  record.set("inc", Json(incumbent_seq));
  if (children != nullptr) record.set("children", Json(*children));
  return record.dump() + "\n";
}

/// One record per incumbent improvement: the sequence number is the
/// value decision records cite in their "inc" field.
std::string incumbent_provenance_record(std::uint64_t wave, const Incumbent& incumbent,
                                        std::uint64_t seq) {
  Json record = Json::object();
  record.set("wave", Json(wave));
  record.set("incumbent", Json(seq));
  record.set("box", Json(incumbent.box_id));
  record.set("score", Json(incumbent.score));
  record.set("at", Json(incumbent.found_at_box));
  return record.dump() + "\n";
}

/// Resume support: the byte length of the stream's prefix covering waves
/// <= `waves` (the replayed state). Everything past it belongs to waves
/// the resumed run will re-execute — and re-emit byte-identically. A torn
/// trailing line is excluded like every other durable-prefix scan.
std::uint64_t provenance_resume_offset(const std::string& path, std::uint64_t waves,
                                       const std::string& fingerprint) {
  if (!support::vfs().exists(path))
    throw std::invalid_argument(
        "provenance: " + path +
        " is missing; cannot resume --provenance without the original stream (drop "
        "--provenance, or delete the checkpoint to start over)");
  const std::string data = support::vfs().read_file(path);
  std::size_t consumed = 0;
  bool saw_header = false;
  while (true) {
    const std::size_t newline = data.find('\n', consumed);
    if (newline == std::string::npos) break;  // partial trailing record
    Json record;
    try {
      record = Json::parse(std::string_view(data).substr(consumed, newline - consumed));
    } catch (const support::JsonError&) {
      break;  // torn write at the kill point: the durable prefix ends here
    }
    if (!saw_header) {
      if (record.string_or("kind", "") != "search-provenance")
        throw std::invalid_argument("provenance: " + path +
                                    " is not a search-provenance stream; resuming would "
                                    "truncate the wrong file");
      if (record.string_or("fingerprint", "") != fingerprint)
        throw std::invalid_argument(
            "provenance: " + path +
            " belongs to a different search (fingerprint mismatch); delete it to start over");
      saw_header = true;
    } else if (record.uint_or("wave", 0) > waves) {
      break;  // first record of a wave the resumed run will re-execute
    }
    consumed = newline + 1;
  }
  if (!saw_header)
    throw std::invalid_argument("provenance: " + path +
                                " has no stream header; resuming would truncate the wrong file");
  return consumed;
}

}  // namespace

Json BnbResult::to_json() const {
  Json json = Json::object();
  json.set("incumbent", incumbent.found ? incumbent_to_json(incumbent, dim_names) : Json());
  json.set("stats", stats_to_json(stats));
  json.set("complete", Json(complete()));
  json.set("exhausted", Json(exhausted));
  json.set("budget_reached", Json(budget_reached));
  json.set("open_boxes", Json(open_boxes));
  json.set("frontier_bound", open_boxes > 0 ? bound_to_json(frontier_bound) : Json());
  if (incumbent.found && open_boxes > 0 && std::isfinite(frontier_bound))
    json.set("gap", Json(std::max(0.0, frontier_bound - incumbent.score)));
  return json;
}

BnbResult run_bnb(const ParamBox& root, const Objective& objective, const BnbLimits& limits,
                  const BnbOptions& options) {
  AURV_CHECK_MSG(limits.wave_size >= 1, "wave_size must be >= 1");
  AURV_CHECK_MSG(limits.max_boxes >= 1, "max_boxes must be >= 1");
  AURV_CHECK_MSG(options.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  AURV_CHECK_MSG(options.dim_names.empty() || options.dim_names.size() == root.dim_count(),
                 "dim_names must match the root box dimensions");

  // Telemetry. Every counter and gauge bump below happens on the
  // serialized side of the wave (assembly loop, in-order completion hook,
  // post-wave bookkeeping), so the counter sequence — not just the totals
  // — is shard-count-invariant; only the wall-clock `search.box` timer is
  // fed from the workers. The post-wave gauges and the `search.*`
  // counters are the search's live progress (heartbeat and /status).
  // Certificate stats (state.stats) are tracked independently; telemetry
  // is a read-only shadow that can never change an artifact byte.
  namespace telemetry = support::telemetry;
  telemetry::Registry& metrics = telemetry::registry();
  telemetry::Counter& waves_counter = metrics.counter("search.waves");
  telemetry::Counter& popped_counter = metrics.counter("search.popped");
  telemetry::Counter& evaluated_counter = metrics.counter("search.evaluated");
  telemetry::Counter& pruned_pop_counter = metrics.counter("search.pruned_pop");
  telemetry::Counter& pruned_spawn_counter = metrics.counter("search.pruned_spawn");
  telemetry::Counter& pruned_infeasible_counter = metrics.counter("search.pruned_infeasible");
  telemetry::Counter& branched_counter = metrics.counter("search.branched");
  telemetry::Counter& leaves_counter = metrics.counter("search.leaves");
  telemetry::Counter& improvements_counter = metrics.counter("search.improvements");
  telemetry::Gauge& frontier_open_gauge = metrics.gauge("search.frontier_open");
  telemetry::Gauge& frontier_high_water_gauge = metrics.gauge("search.frontier_high_water");
  telemetry::Gauge& frontier_spilled_gauge = metrics.gauge("search.frontier_spilled");
  telemetry::Gauge& frontier_degraded_gauge = metrics.gauge("search.frontier.degraded");
  telemetry::Timer& wave_timer = metrics.timer("search.wave");
  telemetry::Timer& box_timer = metrics.timer("search.box");
  telemetry::Timer& checkpoint_timer = metrics.timer("search.checkpoint");
  using support::trace::Span;

  Frontier::Config frontier_config;
  frontier_config.spill_dir = options.spill_dir;
  frontier_config.mem_capacity = options.frontier_mem;
  frontier_config.max_segments = options.spill_max_segments;
  frontier_config.degraded_capacity = options.frontier_degraded_capacity;

  const bool checkpointing = !options.checkpoint_path.empty();

  SearchState state;
  state.frontier = Frontier(frontier_config);
  bool resumed = false;
  bool root_infeasible = false;
  std::uint64_t journal_bytes = 0;
  if (options.resume && checkpointing) {
    // An explicit --resume with nothing (usable) to resume is refused with
    // a structured error instead of silently starting over: restarting
    // would overwrite the very artifacts the caller asked to extend.
    if (!support::vfs().exists(options.checkpoint_path))
      throw support::CheckpointError(
          options.checkpoint_path,
          "missing (no checkpoint at this path; run without --resume to start fresh)");
    Json checkpoint;
    try {
      checkpoint = Json::load_file(options.checkpoint_path);
    } catch (const support::JsonError& error) {
      throw support::CheckpointError(
          options.checkpoint_path,
          std::string("unreadable or truncated (") + error.what() + ")");
    }
    state = checkpoint_from_json(checkpoint, options.checkpoint_path, root, objective, limits,
                                 options, frontier_config);
    journal_bytes = replay_journal(state, journal_path(options.checkpoint_path, state.generation),
                                   options.dim_names, root.dim_count());
    resumed = true;
  } else {
    const double root_bound = objective.bound(root);
    AURV_CHECK_MSG(!std::isnan(root_bound), "objective bound must not be NaN");
    if (root_bound == -kInf) {
      ++state.stats.pruned;  // the entire space is provably scoreless
      root_infeasible = true;
      pruned_infeasible_counter.add();
    } else {
      state.frontier.insert(OpenBox{root, root_bound});
      state.stats.max_frontier = 1;
    }
  }

  // Without a checkpoint no artifact references the segment files, so they
  // are garbage the moment this invocation ends — on every exit path,
  // including an objective throwing mid-wave.
  struct FrontierJanitor {
    Frontier* frontier;
    bool active;
    ~FrontierJanitor() {
      if (active) frontier->discard_files();
    }
  } janitor{&state.frontier, !checkpointing};

  support::JsonlSink log(options.incumbent_log_path, resumed ? state.log_bytes : 0);

  // The prune-provenance stream. Fail-soft by contract: an unwritable
  // stream degrades to a counting no-op and can never perturb the search.
  const bool provenance_on = !options.provenance_path.empty();
  std::uint64_t provenance_resume = 0;
  if (provenance_on && resumed)
    provenance_resume = provenance_resume_offset(options.provenance_path, state.stats.waves,
                                                 options.fingerprint);
  support::SoftJsonlSink provenance(options.provenance_path, "provenance", provenance_resume);
  if (provenance_on && !resumed) {
    provenance.append(provenance_header(options.fingerprint));
    if (root_infeasible)
      provenance.append(decision_record(0, root.id(), "pruned-infeasible", -kInf, 0, nullptr));
  }

  // A box survives only if its bound can still beat the incumbent.
  const auto prunable = [&](double bound) {
    if (bound == -kInf) return true;
    return state.incumbent.found && bound <= state.incumbent.score + limits.min_improvement;
  };

  // Compaction: fold the journal into a fresh base checkpoint. The write
  // order is what makes a kill at any point recoverable: the new base
  // lands atomically first, and only then are the previous generation's
  // journal and the frontier's retired segment files removed — a crash in
  // between leaves stale files the resume path ignores by name.
  std::optional<support::JsonlSink> journal;
  // Records appended (or replayed) since the last base write: when false
  // the base already holds this exact state, and compacting again would
  // only rewrite identical bytes under a new generation.
  bool journal_dirty = journal_bytes > 0;
  const auto compact = [&] {
    if (!checkpointing || !journal_dirty) return;
    log.flush();
    provenance.flush();
    state.log_bytes = log.bytes();
    ++state.generation;
    {
      const Span span(checkpoint_timer, "checkpoint", "search", {.announce = true});
      support::save_json_atomically(options.checkpoint_path,
                                    checkpoint_to_json(state, root, objective, limits, options));
    }
    metrics.counter("search.checkpoints").add();
    // The folded journal is closed and removed; the next generation's
    // file is only created when a wave actually appends to it (its
    // absence reads as "no records" on resume), so a terminal base — or
    // one a compaction-boundary stop leaves behind — never has an empty
    // journal sitting beside it.
    journal.reset();
    remove_stale_journals(
        options.checkpoint_path,
        std::filesystem::path(journal_path(options.checkpoint_path, state.generation))
            .filename()
            .string());
    state.frontier.prune_retired();
    journal_dirty = false;
  };

  // Opens the current generation's journal on first use. On a resumed
  // generation the first open truncates the replayed durable prefix's
  // torn tail (JsonlSink's resume contract); after a compaction the
  // generation is fresh and starts at zero.
  const auto journal_sink = [&]() -> support::JsonlSink& {
    if (!journal.has_value()) {
      journal.emplace(journal_path(options.checkpoint_path, state.generation), journal_bytes);
      journal_bytes = 0;
    }
    return *journal;
  };

  if (checkpointing && !resumed) {
    // Fresh start. First sweep EVERY journal leftover of whatever
    // lineage owned this path before — including its generation 0:
    // journal records carry no fingerprint, so a foreign wave.0 file
    // coexisting with our new base could be replayed onto it by a resume
    // after a kill. The sweep comes BEFORE the base write: a kill in
    // between merely costs the old lineage its replay shortcut (its base
    // re-simulates those waves to identical bytes), whereas the reverse
    // order would leave the new base beside the foreign journal. Then
    // put the generation-0 base on disk so a kill before the first
    // compaction still has a base to replay onto.
    remove_stale_journals(options.checkpoint_path, "");
    support::save_json_atomically(options.checkpoint_path,
                                  checkpoint_to_json(state, root, objective, limits, options));
  }

  // Fresh start: the spill directory is exclusively this lineage's (see
  // BnbOptions), so any segment files in it are leftovers of a crashed or
  // abandoned run — reclaim them before the first spill renumbers from 0.
  // Only now, with the generation-0 base already on disk: sweeping before
  // the overwrite would delete segments the *old* checkpoint still
  // references, bricking its resume if we died in between.
  if (!resumed && !options.spill_dir.empty()) state.frontier.sweep_orphans();

  std::uint64_t waves_this_invocation = 0;
  // Pops since the last journal record — includes boxes drained by waves
  // that pruned away entirely (those write no record of their own, so the
  // next record carries their pops; replay stays aligned).
  std::uint64_t pending_popped = 0;

  while (true) {
    if (state.stats.evaluated >= limits.max_boxes || state.frontier.empty()) break;
    if (options.max_waves > 0 && waves_this_invocation >= options.max_waves) break;

    // Provenance records emitted from here to the next completed wave are
    // folded under its journal wave number — drain-only iterations (which
    // write no journal record of their own) included, exactly like their
    // pops ride in pending_popped.
    const std::uint64_t wave_number = state.stats.waves + 1;

    // Assemble the wave: pop best-first, dropping boxes that can no longer
    // beat the incumbent. Wave size is spec-fixed — never thread-derived.
    std::vector<OpenBox> wave;
    const std::uint64_t budget_left = limits.max_boxes - state.stats.evaluated;
    const std::uint64_t target = std::min<std::uint64_t>(limits.wave_size, budget_left);
    while (wave.size() < target && !state.frontier.empty()) {
      OpenBox open = state.frontier.pop_best();
      ++pending_popped;
      popped_counter.add();
      if (prunable(open.bound)) {
        ++state.stats.pruned;
        (open.bound == -kInf ? pruned_infeasible_counter : pruned_pop_counter).add();
        if (provenance_on)
          provenance.append(decision_record(
              wave_number, open.box.id(),
              open.bound == -kInf ? "pruned-infeasible" : "pruned-pop", open.bound,
              state.stats.improvements, nullptr));
        continue;
      }
      wave.push_back(std::move(open));
    }
    // Pops diverge the in-memory state from the base even when the wave
    // comes up empty (a drain-only iteration writes no journal record);
    // without this a search *finishing* on such a drain would skip its
    // terminal compaction and leave a stale, never-terminal base behind.
    if (pending_popped > 0) journal_dirty = true;
    if (wave.empty()) continue;  // frontier drained by pruning; loop re-checks

    // Parallel part: evaluate midpoints and pre-compute child boxes/bounds
    // (and, for the journal, their encoded records). Each shard writes only
    // its own slot; all cross-shard state mutation happens in the in-order
    // completion hook below.
    struct ShardOutput {
      std::vector<Rational> point;
      Evaluation evaluation;
      std::vector<OpenBox> children;
      std::vector<std::string> encoded;  ///< children[k].encode(), when checkpointing
      support::trace::TraceBuffer trace;  ///< shard-local spans, merged in order
    };
    std::vector<ShardOutput> outputs(wave.size());

    const auto body = [&](std::size_t shard) {
      ShardOutput& out = outputs[shard];
      out.trace = support::trace::TraceBuffer(static_cast<std::uint32_t>(shard + 1));
      Span span(box_timer, "box", "search", {.buffer = &out.trace});
      if (span.armed()) {
        Json args = Json::object();
        args.set("id", Json(wave[shard].box.id()));
        span.set_args(std::move(args));
      }
      out.point = wave[shard].box.midpoint();
      out.evaluation = objective.evaluate(out.point);
      if (wave[shard].box.width() > limits.min_width) {
        auto [lower, upper] = wave[shard].box.bisect();
        for (ParamBox* child : {&lower, &upper}) {
          // A child's bound never exceeds its parent's (the parent box
          // contains it), so tighten against the cached parent bound.
          const double child_bound = std::min(wave[shard].bound, objective.bound(*child));
          AURV_CHECK_MSG(!std::isnan(child_bound), "objective bound must not be NaN");
          out.children.push_back(OpenBox{std::move(*child), child_bound});
          if (checkpointing) out.encoded.push_back(out.children.back().encode());
        }
      }
    };

    std::string wave_children;  // journal payload: encoded children as inserted, comma-joined
    const std::uint64_t improvements_before = state.stats.improvements;

    const auto complete = [&](std::size_t shard) {
      ShardOutput& out = outputs[shard];
      support::trace::sink().merge(out.trace);
      ++state.stats.evaluated;
      evaluated_counter.add();
      if (!state.incumbent.found || out.evaluation.score > state.incumbent.score) {
        state.incumbent.found = true;
        state.incumbent.score = out.evaluation.score;
        state.incumbent.box_id = wave[shard].box.id();
        state.incumbent.point = std::move(out.point);
        state.incumbent.evaluation = std::move(out.evaluation);
        state.incumbent.found_at_box = state.stats.evaluated;
        ++state.stats.improvements;
        improvements_counter.add();
        log.append(improvement_record(state.incumbent, options.dim_names));
        if (provenance_on)
          provenance.append(incumbent_provenance_record(wave_number, state.incumbent,
                                                        state.stats.improvements));
      }
      if (out.children.empty()) {
        ++state.stats.leaves;
        leaves_counter.add();
        if (provenance_on)
          provenance.append(decision_record(wave_number, wave[shard].box.id(), "leaf",
                                            wave[shard].bound, state.stats.improvements,
                                            nullptr));
      } else {
        ++state.stats.branched;
        branched_counter.add();
        if (provenance_on) {
          // The branched record lists every child with its inserted bound
          // — spawn-pruned ones get their own decision record below, and
          // the remainder is exactly what the auditor reconstructs as the
          // open frontier.
          Json::Array child_entries;
          for (const OpenBox& child : out.children) {
            Json entry = Json::object();
            entry.set("box", Json(child.box.id()));
            entry.set("bound", bound_to_json(child.bound));
            child_entries.push_back(std::move(entry));
          }
          provenance.append(decision_record(wave_number, wave[shard].box.id(), "branched",
                                            wave[shard].bound, state.stats.improvements,
                                            &child_entries));
        }
        for (std::size_t k = 0; k < out.children.size(); ++k) {
          OpenBox& child = out.children[k];
          if (prunable(child.bound)) {
            ++state.stats.pruned;
            (child.bound == -kInf ? pruned_infeasible_counter : pruned_spawn_counter).add();
            if (provenance_on)
              provenance.append(decision_record(
                  wave_number, child.box.id(),
                  child.bound == -kInf ? "pruned-infeasible" : "pruned-bound", child.bound,
                  state.stats.improvements, nullptr));
          } else {
            if (checkpointing) {
              if (!wave_children.empty()) wave_children += ',';
              wave_children += out.encoded[k];
            }
            state.frontier.insert(std::move(child));
          }
        }
      }
      state.stats.max_frontier =
          std::max<std::uint64_t>(state.stats.max_frontier, state.frontier.size());
    };

    support::ShardedRunOptions sharded;
    sharded.threads = options.max_shards;
    {
      Span span(wave_timer, "wave", "search", {.announce = true});
      if (span.armed()) {
        Json args = Json::object();
        args.set("wave", Json(wave_number));
        args.set("boxes", Json(static_cast<std::uint64_t>(wave.size())));
        span.set_args(std::move(args));
      }
      support::run_sharded(wave.size(), body, complete, sharded);
    }

    ++state.stats.waves;
    ++waves_this_invocation;
    waves_counter.add();
    frontier_open_gauge.set(static_cast<std::int64_t>(state.frontier.size()));
    frontier_high_water_gauge.set_max(static_cast<std::int64_t>(state.stats.max_frontier));
    frontier_spilled_gauge.set(static_cast<std::int64_t>(state.frontier.spilled()));
    frontier_degraded_gauge.set(state.frontier.degraded() ? 1 : 0);

    if (checkpointing) {
      // Delta checkpoint: flush the incumbent log (so its recorded offset
      // is durable before the record referencing it) and the provenance
      // stream (its wave-W records must be durable before the wave-W
      // journal record — a resume that replays wave W never re-emits
      // them), then append and flush this wave's journal record.
      log.flush();
      provenance.flush();
      state.log_bytes = log.bytes();
      support::JsonlSink& sink = journal_sink();
      sink.append(journal_record(
          state.stats.waves, pending_popped, wave_children,
          state.stats.improvements > improvements_before ? &state.incumbent : nullptr,
          options.dim_names, state.stats, state.log_bytes));
      sink.flush();
      journal_dirty = true;
      pending_popped = 0;
      if (state.stats.waves % options.checkpoint_every == 0) compact();
    } else {
      // No checkpoint references segment files, so drained/merged ones
      // can be deleted as soon as the frontier retires them.
      state.frontier.prune_retired();
    }
    if (options.progress) options.progress(state.stats.evaluated, state.frontier.size());
  }

  // Fold the journal into a terminal base even off a compaction boundary,
  // so the next invocation resumes from exactly where this one stopped —
  // and a finished search leaves a terminal checkpoint behind.
  compact();
  provenance.flush();

  BnbResult result;
  result.incumbent = state.incumbent;
  result.stats = state.stats;
  result.exhausted = state.frontier.empty();
  result.budget_reached = state.stats.evaluated >= limits.max_boxes;
  result.open_boxes = state.frontier.size();
  const OpenBox* best = state.frontier.peek_best();
  result.frontier_bound = best == nullptr ? -kInf : best->bound;
  result.dim_names = options.dim_names;
  result.frontier_hot_high_water = state.frontier.hot_high_water();
  result.frontier_spilled = state.frontier.spilled();
  result.frontier_degraded = state.frontier.degraded();
  result.frontier_degradation = state.frontier.degradation();
  return result;
}

}  // namespace aurv::search
