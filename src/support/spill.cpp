#include "support/spill.hpp"

#include <stdexcept>

#include "support/telemetry.hpp"
#include "support/vfs.hpp"

namespace aurv::support {

SpillSegmentWriter::SpillSegmentWriter(std::string path) : path_(std::move(path)) {
  // Truncate: a leftover segment of the same name from a pre-crash run is
  // overwritten — deterministic replay recreates it byte-identically.
  file_ = retry_io(RetryPolicy{}, [&] { return vfs().open_write(path_, Vfs::OpenMode::Truncate); });
}

SpillSegmentWriter::~SpillSegmentWriter() = default;  // VfsFile closes silently

void SpillSegmentWriter::append(const std::string& line) {
  retry_io(RetryPolicy{}, [&] {
    try {
      file_->write(line);
      file_->write("\n");
    } catch (const VfsError&) {
      // A torn record may have reached the file; rewind to the last
      // record boundary so a retry cannot leave duplicate bytes behind.
      try {
        file_->truncate_to(bytes_);
      } catch (const VfsError&) {
        // Rewind failed too: once the retries give up, the caller
        // removes the partially-written segment.
      }
      throw;
    }
  });
  bytes_ += line.size() + 1;
  ++records_;
}

void SpillSegmentWriter::close() {
  if (file_ == nullptr) return;
  // flush() failures may be transient (retried); a failed close is final.
  retry_io(RetryPolicy{}, [&] { file_->flush(); });
  file_->close();
  file_ = nullptr;
  // Tally only durably closed segments: a writer abandoned mid-fault is
  // removed by its caller and never becomes a live segment.
  namespace telemetry = support::telemetry;
  static telemetry::Counter& segments_counter = telemetry::registry().counter("spill.segments");
  static telemetry::Counter& records_counter = telemetry::registry().counter("spill.records");
  static telemetry::Counter& bytes_counter = telemetry::registry().counter("spill.bytes");
  segments_counter.add();
  records_counter.add(records_);
  bytes_counter.add(bytes_);
}

SpillSegmentReader::SpillSegmentReader(std::string path, std::uint64_t offset,
                                       std::uint64_t remaining)
    : path_(std::move(path)), offset_(offset), remaining_(remaining) {
  if (remaining_ == 0) return;  // fully drained: nothing to open
  file_ = std::make_unique<std::ifstream>(path_, std::ios::binary);
  if (!file_->is_open())
    throw std::invalid_argument("spill: cannot open segment " + path_ +
                                " (missing or unreadable; the spill directory does not match "
                                "this checkpoint)");
  file_->seekg(static_cast<std::streamoff>(offset_));
  read_head();
}

void SpillSegmentReader::advance() {
  AURV_CHECK_MSG(remaining_ > 0, "spill: advance past the end of a segment");
  offset_ += head_.size() + 1;  // the record and its newline
  --remaining_;
  if (remaining_ > 0) read_head();
}

void SpillSegmentReader::read_head() {
  if (!std::getline(*file_, head_))
    throw std::invalid_argument("spill: segment " + path_ +
                                " is shorter than the checkpoint's recorded record count "
                                "(truncated or mismatched segment file)");
}

}  // namespace aurv::support
