#include "support/spill.hpp"

#include <stdexcept>

namespace aurv::support {

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
