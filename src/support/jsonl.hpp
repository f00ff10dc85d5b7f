// The durable-record path: every step that makes a record survive a kill
// is implemented once, here, and shared by the campaign and census runner
// (exp/stream_runner.hpp), the search (search/bnb.cpp), the spill
// frontier (support/spill.hpp) and the trace sink (support/trace.cpp):
//
//   1. Append a record — JsonlSink::append. All mutating I/O goes through
//      the support::vfs() seam (see vfs.hpp) with a bounded deterministic
//      retry; a torn append is rolled back to the sink's durable byte
//      count before the retry, so a rewrite never duplicates a partial
//      record. Spill segments, JSONL streams, incumbent logs, wave
//      journals, the trace file and the provenance stream are all
//      written this way; the last two through SoftJsonlSink, the one
//      fail-soft stream, which turns a persistent failure into a
//      `<name>.degraded` gauge and counted drops instead of an error.
//   2. Rewind a torn write on resume — JsonlSink(path, resume_bytes). A
//      checkpoint stores the byte offset of the stream's durable prefix;
//      on resume the sink truncates the file back to it (dropping records
//      written after the checkpoint) and appends from there. A file
//      *shorter* than the recorded offset means stream and checkpoint are
//      out of sync, which is refused instead of silently padding the hole.
//   3. Read back the durable prefix — scan_durable_prefix walks complete
//      records and stops at the first torn line.
//   4. Refuse a foreign checkpoint — checkpoint_header writes the identity
//      keys every checkpoint starts with, load_checkpoint checks them and
//      throws a structured CheckpointError. save_json_atomically writes
//      checkpoints with write-then-rename.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/json.hpp"
#include "support/vfs.hpp"

namespace aurv::support {

/// A checkpoint that cannot be resumed: missing, unreadable/truncated, or
/// written by a different run ("foreign"). Carries the path and a
/// one-line reason so drivers can exit with a structured diagnostic
/// instead of a bare parse error. Derived from std::invalid_argument: it
/// *is* an option/checkpoint mismatch, just a self-describing one.
class CheckpointError : public std::invalid_argument {
 public:
  CheckpointError(std::string path, std::string reason)
      : std::invalid_argument("checkpoint " + path + ": " + reason),
        path_(std::move(path)),
        reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

  /// One-line machine-parseable form for CLI stderr:
  ///   {"error":"checkpoint-resume","path":"...","reason":"..."}
  [[nodiscard]] std::string structured() const {
    Json json = Json::object();
    json.set("error", Json("checkpoint-resume"));
    json.set("path", Json(path_));
    json.set("reason", Json(reason_));
    return json.dump();
  }

 private:
  std::string path_;
  std::string reason_;
};

/// Write-then-rename so an interrupted write can never leave a truncated
/// checkpoint behind: the previous checkpoint survives until the new one is
/// fully on disk. Transient write/rename failures are retried with
/// deterministic backoff; persistent ones propagate as VfsError.
inline void save_json_atomically(const std::string& path, const Json& json) {
  const std::string tmp = path + ".tmp";
  const std::string text = json.dump(2);
  retry_io([&] {
    // Reopen-truncate on every attempt: a torn first try leaves no prefix
    // for the retry to double-write.
    const std::unique_ptr<VfsFile> file = vfs().open_write(tmp, Vfs::OpenMode::Truncate);
    file->write(text);
    file->close();
  });
  retry_io([&] { vfs().rename(tmp, path); });
}

/// The identity keys every checkpoint starts with, in file order:
/// {"schema", "kind", "fingerprint"}. load_checkpoint checks all three.
inline Json checkpoint_header(const std::string& kind, std::uint64_t schema,
                              const std::string& fingerprint) {
  Json json = Json::object();
  json.set("schema", Json(schema));
  json.set("kind", Json(kind));
  json.set("fingerprint", Json(fingerprint));
  return json;
}

/// Loads the checkpoint a resume continues from. An explicit resume with
/// nothing usable to resume is refused rather than silently started over,
/// because restarting would overwrite the very artifacts the caller asked
/// to extend: a missing or unreadable file, another kind, another schema
/// or another spec fingerprint all throw CheckpointError.
inline Json load_checkpoint(const std::string& path, const std::string& kind,
                            std::uint64_t schema, const std::string& fingerprint) {
  if (!vfs().exists(path))
    throw CheckpointError(
        path, "missing (no checkpoint at this path; run without --resume to start fresh)");
  Json json;
  try {
    json = Json::load_file(path);
  } catch (const JsonError& error) {
    throw CheckpointError(path, std::string("unreadable or truncated (") + error.what() + ")");
  }
  if (json.string_or("kind", "") != kind)
    throw CheckpointError(path, "not a " + kind + " file (foreign checkpoint)");
  if (json.uint_or("schema", 0) != schema)
    throw CheckpointError(path, "schema " + std::to_string(json.uint_or("schema", 0)) +
                                    " (written by a different build; delete the checkpoint "
                                    "to start over)");
  if (json.at("fingerprint").as_string() != fingerprint)
    throw CheckpointError(path,
                          "spec fingerprint mismatch (spec edited since the checkpoint was "
                          "written; delete the checkpoint to start over)");
  return json;
}

/// Walks the records of a JSONL stream's bytes in order and returns the
/// byte length of its durable prefix. The walk stops before a line that
/// has no newline or does not parse (a torn write at the kill point), and
/// before a record for which `visit(record)` returns false.
template <typename Visit>
std::uint64_t scan_durable_prefix(std::string_view data, Visit&& visit) {
  std::size_t consumed = 0;
  while (true) {
    const std::size_t newline = data.find('\n', consumed);
    if (newline == std::string_view::npos) break;  // partial trailing record
    Json record;
    try {
      record = Json::parse(data.substr(consumed, newline - consumed));
    } catch (const JsonError&) {
      break;  // torn write at the kill point: the durable prefix ends here
    }
    if (!visit(record)) break;
    consumed = newline + 1;
  }
  return consumed;
}

/// Canonical rendering of a spec fingerprint in checkpoint files: 16
/// zero-padded lowercase hex digits. Campaign and search checkpoints share
/// this format, so keep them on one helper.
inline std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, fingerprint);
  return buffer;
}

class JsonlSink {
 public:
  /// Opens `path` for writing ("" = disabled sink, every call a no-op).
  /// `resume_bytes` > 0 truncates to that offset and appends; 0 starts the
  /// stream over.
  explicit JsonlSink(const std::string& path, std::uint64_t resume_bytes = 0) {
    if (path.empty()) return;
    if (resume_bytes > 0) {
      std::uint64_t existing = 0;  // stays 0 for a missing or unreadable file
      try {
        if (vfs().exists(path)) existing = vfs().file_size(path);
      } catch (const VfsError&) {
      }
      if (existing < resume_bytes)
        throw std::invalid_argument(
            "jsonl: " + path + " is shorter than the checkpoint's recorded offset (" +
            std::to_string(resume_bytes) +
            " bytes); the stream does not match this checkpoint — delete both to start over");
      try {
        retry_io([&] { vfs().resize_file(path, resume_bytes); });
      } catch (const VfsError& error) {
        throw std::invalid_argument("jsonl: cannot truncate " + path +
                                    " for resume: " + error.reason());
      }
      file_ = retry_io([&] { return vfs().open_write(path, Vfs::OpenMode::Append); });
    } else {
      file_ = retry_io([&] { return vfs().open_write(path, Vfs::OpenMode::Truncate); });
    }
    bytes_ = resume_bytes;
  }

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  void append(const std::string& text) {
    if (file_ == nullptr) return;
    retry_io([&] {
      try {
        file_->write(text);
      } catch (const VfsError&) {
        // Roll back whatever torn prefix reached the file so a retry (or
        // a later resume against the recorded offset) never sees it.
        try {
          file_->truncate_to(bytes_);
        } catch (const VfsError&) {
          // The rewind itself failed: the durable-prefix contract now
          // rests on the resume-side truncation, which uses the recorded
          // offset and is therefore still sound.
        }
        throw;
      }
    });
    bytes_ += text.size();
  }

  void flush() {
    if (file_ == nullptr) return;
    retry_io([&] { file_->flush(); });
  }

  /// Flushes (retried), then closes; throws VfsError when either fails.
  void close() {
    if (file_ == nullptr) return;
    flush();
    file_->close();
    file_ = nullptr;
  }

  /// Durable-prefix offset to record in checkpoints.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::unique_ptr<VfsFile> file_;  ///< closed silently by the destructor
  std::uint64_t bytes_ = 0;
};

/// The one fail-soft stream, shared by the search's prune-provenance
/// stream and the trace file: a JsonlSink while healthy, but it must never
/// fail the run. A persistent I/O failure — at open, on an append, a flush
/// or the close — degrades it to a no-op: one warning lands on stderr, the
/// gauge `<name>.degraded` turns 1 (so /healthz answers 503), and every
/// record it then cannot write ticks `<name>.dropped`. A "" path is an off
/// stream that registers no metric. Resume-offset mismatches (a checkpoint
/// pointed at the wrong file) still throw: those are configuration errors,
/// not disk weather.
class SoftJsonlSink {
 public:
  SoftJsonlSink(std::string_view name, const std::string& path, std::uint64_t resume_bytes = 0)
      : name_(name), path_(path) {
    if (path.empty()) return;
    degraded_gauge_ = &telemetry::registry().gauge(name_ + ".degraded");
    dropped_ = &telemetry::registry().counter(name_ + ".dropped");
    degraded_gauge_->set(0);
    try {
      sink_ = std::make_unique<JsonlSink>(path, resume_bytes);
    } catch (const VfsError& error) {
      degrade(error.reason());
    }
  }

  /// Appends `text`, `records` records that are dropped together when
  /// the write fails. The file rolls back to its durable prefix first.
  void append(const std::string& text, std::uint64_t records = 1) {
    guard([&] { sink_->append(text); });
    if (degraded_) dropped_->add(records);
  }

  void flush() { guard([this] { sink_->flush(); }); }

  /// Flushes and closes the file (a failure degrades the stream).
  void close() {
    guard([this] { sink_->close(); });
    sink_.reset();
  }

  /// Whether a persistent failure turned the stream into a no-op. Held
  /// here, not read back from the gauge, which `registry().reset()` zeroes.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

 private:
  template <typename Io>
  void guard(Io&& io) {
    if (sink_ == nullptr) return;
    try {
      io();
    } catch (const VfsError& error) {
      degrade(error.reason());
    }
  }

  void degrade(const std::string& reason) {
    sink_.reset();
    degraded_ = true;
    degraded_gauge_->set(1);
    std::fprintf(stderr, "aurv: %s: %s (%s); stream disabled, records dropped\n", name_.c_str(),
                 path_.c_str(), reason.c_str());
  }

  std::string name_;
  std::string path_;
  telemetry::Gauge* degraded_gauge_ = nullptr;  ///< null for an off stream
  telemetry::Counter* dropped_ = nullptr;
  std::unique_ptr<JsonlSink> sink_;  ///< null when off, closed or degraded
  bool degraded_ = false;
};

}  // namespace aurv::support
