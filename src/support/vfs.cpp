#include "support/vfs.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace aurv::support {

namespace fs = std::filesystem;

VfsError::VfsError(std::string op, std::string path, std::string reason, bool transient)
    : std::runtime_error("vfs: " + op + " " + path + ": " + reason),
      op_(std::move(op)),
      path_(std::move(path)),
      reason_(std::move(reason)),
      transient_(transient) {}

void Vfs::sleep_for_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

namespace {

/// Telemetry shadows of the real-backend operations (counted at the
/// RealFile/RealVfs layer, so FaultVfs-wrapped runs tally the bytes that
/// actually reached the inner backend).
telemetry::Counter& vfs_opens_counter() {
  static telemetry::Counter& c = telemetry::registry().counter("vfs.opens");
  return c;
}
telemetry::Counter& vfs_writes_counter() {
  static telemetry::Counter& c = telemetry::registry().counter("vfs.writes");
  return c;
}
telemetry::Counter& vfs_bytes_counter() {
  static telemetry::Counter& c = telemetry::registry().counter("vfs.bytes_written");
  return c;
}
telemetry::Counter& vfs_renames_counter() {
  static telemetry::Counter& c = telemetry::registry().counter("vfs.renames");
  return c;
}

/// cstdio-backed writable file. EINTR is the one genuinely transient
/// errno here; everything else (ENOSPC, EIO, EROFS...) is persistent
/// until an operator intervenes, so it propagates non-transient and the
/// caller's degradation policy decides.
class RealFile final : public VfsFile {
 public:
  RealFile(std::string path, Vfs::OpenMode mode) : path_(std::move(path)) {
    file_ = std::fopen(path_.c_str(), mode == Vfs::OpenMode::Append ? "ab" : "wb");
    if (file_ == nullptr)
      throw VfsError("open_write", path_, std::strerror(errno), errno == EINTR);
    vfs_opens_counter().add();
  }
  ~RealFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  void write(std::string_view data) override {
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size())
      throw VfsError("write", path_, std::strerror(errno), errno == EINTR);
    vfs_writes_counter().add();
    vfs_bytes_counter().add(data.size());
  }
  void flush() override {
    if (std::fflush(file_) != 0 || std::ferror(file_) != 0)
      throw VfsError("flush", path_, std::strerror(errno), errno == EINTR);
  }
  void truncate_to(std::uint64_t size) override {
    // Flush the stdio buffer first so the kernel-side truncate sees every
    // byte, then rewind the stream position to the new end.
    if (std::fflush(file_) != 0 ||
        ::ftruncate(::fileno(file_), static_cast<off_t>(size)) != 0 ||
        std::fseek(file_, 0, SEEK_END) != 0)
      throw VfsError("truncate", path_, std::strerror(errno), errno == EINTR);
  }
  void close() override {
    if (file_ == nullptr) return;
    const bool flushed = std::fflush(file_) == 0 && std::ferror(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (!flushed || !closed)
      throw VfsError("close", path_, "flush-on-close failed", false);
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

class RealVfs final : public Vfs {
 public:
  std::unique_ptr<VfsFile> open_write(const std::string& path, OpenMode mode) override {
    return std::make_unique<RealFile>(path, mode);
  }
  void rename(const std::string& from, const std::string& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) throw VfsError("rename", from + " -> " + to, ec.message(), false);
    vfs_renames_counter().add();
  }
  bool remove(const std::string& path) override {
    std::error_code ec;
    return fs::remove(path, ec) && !ec;
  }
  void resize_file(const std::string& path, std::uint64_t size) override {
    std::error_code ec;
    fs::resize_file(path, size, ec);
    if (ec) throw VfsError("resize", path, ec.message(), false);
  }
  void create_directories(const std::string& dir) override {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) throw VfsError("mkdir", dir, ec.message(), false);
  }
};

RealVfs& real_backend() {
  static RealVfs real;
  return real;
}

std::atomic<Vfs*>& current_vfs_slot() {
  static std::atomic<Vfs*> current{&real_backend()};
  return current;
}

}  // namespace

bool Vfs::exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

std::uint64_t Vfs::file_size(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) throw VfsError("stat", path, ec.message(), false);
  return size;
}

std::string Vfs::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw VfsError("read", path, "cannot open", false);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw VfsError("read", path, "read failed", false);
  return buffer.str();
}

std::vector<std::string> Vfs::list_dir(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

Vfs& vfs() { return *current_vfs_slot().load(std::memory_order_acquire); }

ScopedVfs::ScopedVfs(Vfs& replacement)
    : previous_(current_vfs_slot().exchange(&replacement, std::memory_order_acq_rel)) {}

ScopedVfs::~ScopedVfs() { current_vfs_slot().store(previous_, std::memory_order_release); }

// ------------------------------------------------------------------------
// Fault schedule
// ------------------------------------------------------------------------

const char* to_string(FaultClass klass) {
  switch (klass) {
    case FaultClass::ShortWrite: return "short-write";
    case FaultClass::NoSpace: return "enospc";
    case FaultClass::FlushIo: return "eio-flush";
    case FaultClass::RenameFail: return "rename-fail";
    case FaultClass::CrashStop: return "crash-stop";
  }
  return "?";
}

FaultClass fault_class_from_string(const std::string& name) {
  for (const FaultClass klass :
       {FaultClass::ShortWrite, FaultClass::NoSpace, FaultClass::FlushIo,
        FaultClass::RenameFail, FaultClass::CrashStop}) {
    if (name == to_string(klass)) return klass;
  }
  throw JsonError("fault schedule: unknown fault class \"" + name + "\"");
}

Json FaultSpec::to_json() const {
  Json json = Json::object();
  json.set("after", Json(after));
  json.set("path_contains", Json(path_contains));
  json.set("class", Json(to_string(klass)));
  json.set("sticky", Json(sticky));
  return json;
}

FaultSpec FaultSpec::from_json(const Json& json) {
  FaultSpec spec;
  spec.after = json.at("after").as_uint();
  spec.path_contains = json.string_or("path_contains", "");
  spec.klass = fault_class_from_string(json.at("class").as_string());
  spec.sticky = json.bool_or("sticky", false);
  return spec;
}

Json FaultSchedule::to_json() const {
  Json json = Json::object();
  Json list = Json::array();
  for (const FaultSpec& fault : faults) list.push_back(fault.to_json());
  json.set("faults", std::move(list));
  return json;
}

FaultSchedule FaultSchedule::from_json(const Json& json) {
  FaultSchedule schedule;
  for (const Json& entry : json.at("faults").as_array())
    schedule.faults.push_back(FaultSpec::from_json(entry));
  return schedule;
}

// ------------------------------------------------------------------------
// FaultVfs
// ------------------------------------------------------------------------

// Not in an anonymous namespace: FaultVfs befriends this exact type so it
// can reach the private apply().
/// Wraps a real file: every operation goes through the owner's apply().
class FaultFile final : public VfsFile {
 public:
  FaultFile(FaultVfs& owner, std::string path, std::unique_ptr<VfsFile> inner)
      : owner_(owner), path_(std::move(path)), inner_(std::move(inner)) {}

  void write(std::string_view data) override {
    try {
      // A torn write leaves half the payload on disk before the error
      // surfaces — the signature failure mode of a real kill mid-fwrite.
      owner_.apply("write", path_, [&] { inner_->write(data); },
                   [&] { inner_->write(data.substr(0, data.size() / 2)); });
    } catch (const VfsCrashStop&) {
      inner_->flush();  // "after operation K": K's bytes are on disk
      throw;
    }
  }
  void flush() override {
    owner_.apply("flush", path_, [&] { inner_->flush(); });
  }
  void truncate_to(std::uint64_t size) override {
    owner_.apply("truncate", path_, [&] { inner_->truncate_to(size); });
  }
  void close() override {
    owner_.apply("close", path_, [&] { inner_->close(); });
  }

 private:
  FaultVfs& owner_;
  std::string path_;
  std::unique_ptr<VfsFile> inner_;
};

FaultVfs::FaultVfs(FaultSchedule schedule)
    : schedule_(std::move(schedule)), matched_(schedule_.faults.size(), 0) {}

bool FaultVfs::apply(const char* op, const std::string& path,
                     const std::function<void()>& perform, const std::function<void()>& torn) {
  const FaultSpec* due = nullptr;
  std::uint64_t index = 0;
  {
    const std::scoped_lock lock(mutex_);
    if (crashed_) return false;
    index = log_.size();
    log_.push_back(OpRecord{index, op, path});
    for (std::size_t k = 0; k < schedule_.faults.size() && due == nullptr; ++k) {
      const FaultSpec& fault = schedule_.faults[k];
      if (!fault.path_contains.empty() && path.find(fault.path_contains) == std::string::npos)
        continue;
      const std::uint64_t seen = matched_[k]++;
      if (seen == fault.after || (fault.sticky && seen > fault.after))
        due = &fault;  // first matching fault wins
    }
  }
  if (due == nullptr) {
    perform();
    return true;
  }
  if (due->klass == FaultClass::CrashStop) {
    perform();  // the op completes, then the process dies
    {
      const std::scoped_lock lock(mutex_);
      crashed_ = true;
    }
    throw VfsCrashStop{index, op, path};
  }
  if (due->klass == FaultClass::ShortWrite && torn) torn();
  telemetry::registry().counter("vfs.faults_injected").add();
  const char* reason = "";
  switch (due->klass) {
    case FaultClass::ShortWrite: reason = "short write (injected torn write)"; break;
    case FaultClass::NoSpace: reason = "no space left on device (injected ENOSPC)"; break;
    case FaultClass::FlushIo: reason = "input/output error (injected EIO)"; break;
    case FaultClass::RenameFail: reason = "rename failed (injected)"; break;
    case FaultClass::CrashStop: break;
  }
  throw VfsError(op, path, reason, /*transient=*/!due->sticky);
}

std::uint64_t FaultVfs::ops() const {
  const std::scoped_lock lock(mutex_);
  return log_.size();
}

std::vector<FaultVfs::OpRecord> FaultVfs::op_log() const {
  const std::scoped_lock lock(mutex_);
  return log_;
}

std::uint64_t FaultVfs::backoff_recorded_ms() const {
  const std::scoped_lock lock(mutex_);
  return backoff_ms_;
}

bool FaultVfs::crashed() const {
  const std::scoped_lock lock(mutex_);
  return crashed_;
}

std::unique_ptr<VfsFile> FaultVfs::open_write(const std::string& path, OpenMode mode) {
  std::unique_ptr<VfsFile> file;
  // On a crash-stop the open itself completes (creating/truncating the
  // file), then the process dies and the handle is dropped unused.
  if (!apply("open_write", path, [&] { file = real_backend().open_write(path, mode); })) {
    // A dead process opens nothing; hand back a sink that swallows
    // everything so unwinding destructors stay silent.
    struct DeadFile final : VfsFile {
      void write(std::string_view) override {}
      void flush() override {}
      void truncate_to(std::uint64_t) override {}
      void close() override {}
    };
    return std::make_unique<DeadFile>();
  }
  return std::make_unique<FaultFile>(*this, path, std::move(file));
}

void FaultVfs::rename(const std::string& from, const std::string& to) {
  apply("rename", from + " -> " + to, [&] { real_backend().rename(from, to); });
}

bool FaultVfs::remove(const std::string& path) {
  bool removed = false;
  try {
    apply("remove", path, [&] { removed = real_backend().remove(path); });
  } catch (const VfsError&) {
    // Removal is best-effort: an injected fault just fails it.
  }
  return removed;
}

void FaultVfs::resize_file(const std::string& path, std::uint64_t size) {
  apply("resize", path, [&] { real_backend().resize_file(path, size); });
}

void FaultVfs::create_directories(const std::string& dir) {
  apply("mkdir", dir, [&] { real_backend().create_directories(dir); });
}

void FaultVfs::sleep_for_ms(std::uint64_t ms) {
  const std::scoped_lock lock(mutex_);
  backoff_ms_ += ms;  // recorded, never slept: torture runs stay fast
}

}  // namespace aurv::support
