// The file-I/O seam of the persistence layer.
//
// Everything that makes state durable — spill segments, JSONL sinks,
// checkpoint bases and wave journals — performs its mutating I/O through
// the process-current `Vfs` instead of calling the C/std::filesystem
// APIs directly. In production the seam is a thin passthrough to the
// real filesystem. In tests it can be swapped (ScopedVfs) for a
// `FaultVfs`, which wraps that same real backend and injects *scripted,
// deterministic* failures: fail the Nth write, persist only a torn
// prefix, report ENOSPC, fail a flush with EIO, fail a rename, or
// crash-stop the whole process image after operation K. Only mutating
// operations are injectable; the read side (exists, file_size,
// read_file, list_dir) is plain, non-virtual `Vfs` functions.
//
// Why this is worth a seam at all: the stack is deterministic in the
// Bobpp sense — certificates and JSONL streams are byte-identical at any
// shard count and across resume — so fault recovery is *exactly*
// checkable. For any injected failure the run must either complete with
// byte-identical artifacts (the fault was absorbed by bounded retry or
// by graceful degradation) or die and then *resume* to byte-identical
// artifacts (the fault was crash-equivalent). tests/search_fault_test.cpp
// enumerates every mutating I/O operation of a smoke run and asserts
// exactly that, for every fault class, at every site.
//
// Failure vocabulary:
//   * VfsError      — a structured I/O failure (op, path, reason,
//                     transient?). Transient errors may be absorbed by
//                     `retry_io`; persistent ones propagate to the
//                     caller's degradation or abort policy.
//   * VfsCrashStop  — thrown by FaultVfs for a scripted crash: simulates
//                     the process dying right after operation K.
//                     Deliberately NOT a VfsError (and not a
//                     std::exception subclass the retry helper would
//                     recognize): no retry or degradation layer may
//                     absorb it. After it fires, every later operation on
//                     the same FaultVfs silently does nothing — exactly
//                     like a dead process — so unwinding destructors
//                     cannot leak "post-mortem" bytes onto disk.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace aurv::support {

/// Structured persistence-layer failure: which operation, on which path,
/// why, and whether a bounded retry is worth attempting.
class VfsError : public std::runtime_error {
 public:
  VfsError(std::string op, std::string path, std::string reason, bool transient);

  [[nodiscard]] const std::string& op() const noexcept { return op_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }
  /// True when the failure is plausibly momentary (injected one-shot
  /// faults; EINTR-class errors): `retry_io` retries these, nothing else.
  [[nodiscard]] bool transient() const noexcept { return transient_; }

 private:
  std::string op_;
  std::string path_;
  std::string reason_;
  bool transient_;
};

/// Scripted process death (FaultVfs only). Not derived from VfsError on
/// purpose: see the header comment.
struct VfsCrashStop {
  std::uint64_t op_index = 0;  ///< the operation the "process" died after
  std::string op;
  std::string path;
};

/// A writable file handle. Writes are durable in operation order (the
/// fault model treats every completed operation as on disk).
class VfsFile {
 public:
  virtual ~VfsFile() = default;
  /// Appends `data`; throws VfsError (possibly after a torn prefix
  /// reached the file — the caller's byte accounting is the truth).
  virtual void write(std::string_view data) = 0;
  virtual void flush() = 0;
  /// Truncates the file back to `size` bytes (recovery from a torn
  /// write: rewind to the last known-good offset, then rewrite).
  virtual void truncate_to(std::uint64_t size) = 0;
  /// Flush + close; throws VfsError if either fails. The destructor
  /// closes silently instead (never throws).
  virtual void close() = 0;
};

class Vfs {
 public:
  enum class OpenMode { Truncate, Append };

  virtual ~Vfs() = default;

  /// ---- mutating operations (the fault-injection surface) -------------
  [[nodiscard]] virtual std::unique_ptr<VfsFile> open_write(const std::string& path,
                                                            OpenMode mode) = 0;
  virtual void rename(const std::string& from, const std::string& to) = 0;
  /// Best-effort removal: returns whether the file went away; never
  /// throws VfsError (many call sites are cleanup paths that must not
  /// fail the run) — but a scripted crash-stop still propagates.
  virtual bool remove(const std::string& path) = 0;
  virtual void resize_file(const std::string& path, std::uint64_t size) = 0;
  virtual void create_directories(const std::string& dir) = 0;

  /// Backoff hook for retry_io: production sleeps, FaultVfs records the
  /// would-be sleep instead so the torture matrix runs at full speed.
  virtual void sleep_for_ms(std::uint64_t ms);

  /// ---- read side (never fault-injected: a failure here is a *resume*
  ///      diagnostic, exercised by its own tests) ------------------------
  [[nodiscard]] bool exists(const std::string& path);
  /// Size in bytes; throws VfsError (non-transient) when unreadable.
  [[nodiscard]] std::uint64_t file_size(const std::string& path);
  /// Whole-file read; throws VfsError (non-transient) when unreadable.
  [[nodiscard]] std::string read_file(const std::string& path);
  /// Filenames (leaf names, sorted) in `dir`; empty when unreadable.
  [[nodiscard]] std::vector<std::string> list_dir(const std::string& dir);
};

/// The process-current seam every persistence call site routes through.
[[nodiscard]] Vfs& vfs();

/// Swaps the current seam for the guard's lifetime (tests only; nesting
/// restores in reverse order).
class ScopedVfs {
 public:
  explicit ScopedVfs(Vfs& replacement);
  ~ScopedVfs();
  ScopedVfs(const ScopedVfs&) = delete;
  ScopedVfs& operator=(const ScopedVfs&) = delete;

 private:
  Vfs* previous_;
};

/// Bounded deterministic retry: `kRetryAttempts` tries in total, the
/// k-th retry after `kRetryBackoffMs << (k-1)` ms (1, 2, 4 ms), retrying
/// only transient VfsErrors. The schedule is a pure function of the
/// attempt — no randomness, no clock reads — so a faulted run and its
/// replay issue the identical operation sequence.
inline constexpr int kRetryAttempts = 4;
inline constexpr std::uint64_t kRetryBackoffMs = 1;

template <typename Fn>
auto retry_io(Fn&& fn) -> decltype(fn()) {
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const VfsError& error) {
      if (!error.transient() || attempt >= kRetryAttempts) throw;
      const std::uint64_t backoff = kRetryBackoffMs << (attempt - 1);
      telemetry::registry().counter("vfs.retries").add();
      telemetry::registry().counter("vfs.backoff_ms").add(backoff);
      trace::instant("vfs.retry", "vfs");
      vfs().sleep_for_ms(backoff);
    }
  }
}

// ------------------------------------------------------------------------
// Deterministic fault injection
// ------------------------------------------------------------------------

/// The injectable failure classes (the schedule's vocabulary).
enum class FaultClass {
  ShortWrite,  ///< half the payload reaches the file, then the write fails
  NoSpace,     ///< ENOSPC: nothing written, non-transient while sticky
  FlushIo,     ///< EIO on flush (or on the flush half of close)
  RenameFail,  ///< rename fails; source and destination are untouched
  CrashStop,   ///< process dies right after this operation completes
};

[[nodiscard]] const char* to_string(FaultClass klass);
[[nodiscard]] FaultClass fault_class_from_string(const std::string& name);

/// One scripted fault. Matching is deterministic: among mutating
/// operations whose path contains `path_contains` (empty matches all),
/// let `after` of them through, then fire. `sticky` keeps firing on every
/// later matching operation (a dead disk / full filesystem) — and marks
/// the error non-transient, so retries cannot absorb it; a non-sticky
/// fault fires once and is transient (a retry succeeds).
struct FaultSpec {
  std::uint64_t after = 0;
  std::string path_contains;
  FaultClass klass = FaultClass::NoSpace;
  bool sticky = false;

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static FaultSpec from_json(const Json& json);
};

/// A replayable fault schedule — what the torture harness iterates over
/// and what CI uploads as the reproducer artifact on a mismatch.
struct FaultSchedule {
  std::vector<FaultSpec> faults;

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static FaultSchedule from_json(const Json& json);
};

/// A Vfs that wraps the real backend, counts mutating operations,
/// injects the scripted faults of its schedule, and records an operation
/// trace (the site enumeration the torture harness replays against).
/// Thread-safe; with an empty schedule it is a pure counting/tracing
/// passthrough.
class FaultVfs : public Vfs {
 public:
  struct OpRecord {
    std::uint64_t index;  ///< 0-based mutating-operation index
    std::string op;       ///< "open_write", "write", "flush", ...
    std::string path;
  };

  explicit FaultVfs(FaultSchedule schedule);

  std::unique_ptr<VfsFile> open_write(const std::string& path, OpenMode mode) override;
  void rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) override;
  void resize_file(const std::string& path, std::uint64_t size) override;
  void create_directories(const std::string& dir) override;
  void sleep_for_ms(std::uint64_t ms) override;

  /// Mutating operations observed (including the ones that faulted).
  [[nodiscard]] std::uint64_t ops() const;
  /// The operation trace, for site enumeration.
  [[nodiscard]] std::vector<OpRecord> op_log() const;
  /// Total backoff the retry layer *would* have slept (recorded, not slept).
  [[nodiscard]] std::uint64_t backoff_recorded_ms() const;
  /// Whether a scripted crash-stop has fired (everything after is a no-op).
  [[nodiscard]] bool crashed() const;

 private:
  friend class FaultFile;

  /// The one interception path of every mutating op. Records the op,
  /// then: once crashed, does nothing and returns false; with no fault
  /// due, runs `perform`; with a CrashStop due, runs `perform` and throws
  /// VfsCrashStop; otherwise runs `torn` (ShortWrite only, when given)
  /// and throws the scheduled VfsError.
  bool apply(const char* op, const std::string& path, const std::function<void()>& perform,
             const std::function<void()>& torn = {});

  mutable std::mutex mutex_;
  FaultSchedule schedule_;
  std::vector<std::uint64_t> matched_;  ///< per-spec count of matching ops seen
  std::vector<OpRecord> log_;
  std::uint64_t backoff_ms_ = 0;
  bool crashed_ = false;
};

}  // namespace aurv::support
