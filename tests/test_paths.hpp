// Path plumbing shared by the exp/search test suites: per-test temp files,
// whole-file reads for byte-identity assertions, and locating the committed
// scenarios/ directory and the aurv_sweep CLI from any working directory.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace aurv::testpaths {

inline std::string temp_path(const std::string& leaf) {
  return (std::filesystem::path(::testing::TempDir()) / leaf).string();
}

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Per-test scratch directory, recreated empty on every call.
inline std::string fresh_dir(const std::string& leaf) {
  const std::string dir = temp_path(leaf);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Recursive directory copy replacing `to` — the snapshot/restore
/// primitive of the kill-simulation tests.
inline void copy_dir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

/// A committed scenarios/ file, under the source dir recorded at configure
/// time (AURV_SOURCE_DIR, set by CMakeLists.txt).
inline std::string scenario_path(const std::string& leaf) {
  return (std::filesystem::path(AURV_SOURCE_DIR) / "scenarios" / leaf).string();
}

/// The aurv_sweep binary of the same build (AURV_SWEEP_BINARY, set by
/// CMakeLists.txt); it may not exist when only the test targets were built.
inline std::string sweep_binary() { return AURV_SWEEP_BINARY; }

}  // namespace aurv::testpaths
