// Minimal JSON emission for the committed benchmark baseline files.
//
// `micro_kernels --json[=path]` writes a flat { benchmark name -> ns/op }
// object (default path BENCH_micro.json). The committed BENCH_micro.json at
// the repo root is the per-kernel perf trajectory: each optimization PR
// re-runs the kernels and updates it, so regressions are visible in review
// as a diff.
//
// The JSON-writing half of this header is dependency-free; the
// JsonCaptureReporter needs google-benchmark, so it is only compiled when
// the including TU has already pulled in <benchmark/benchmark.h> (as
// micro_kernels does, under AURV_BENCH).
#pragma once

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace aurv::bench {

#ifdef BENCHMARK_BENCHMARK_H_  // <benchmark/benchmark.h> include guard

namespace detail {

/// google-benchmark renamed Run::error_occurred to Run::skipped in v1.8;
/// both library generations are in the wild (system packages are often
/// 1.6/1.7, the FetchContent fallback pins 1.8.3). Resolve at compile time
/// via overload ranking instead of a version macro.
template <typename RunT>
auto run_errored(const RunT& run, int) -> decltype(static_cast<bool>(run.error_occurred)) {
  return run.error_occurred;
}
template <typename RunT>
auto run_errored(const RunT& run, long) -> decltype(run.skipped != RunT::NotSkipped) {
  return run.skipped != RunT::NotSkipped;
}

}  // namespace detail

/// Console reporter that additionally collects adjusted real time per
/// benchmark (in the benchmark's time unit; all kernels here use the
/// default, nanoseconds).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (detail::run_errored(run, 0)) continue;
      if (run.run_type != Run::RT_Iteration) continue;  // skip aggregates
      if (run.iterations == 0) continue;
      // Normalize to ns/op regardless of the benchmark's display time unit
      // (real_accumulated_time is in seconds).
      results_[run.benchmark_name()] =
          run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::map<std::string, double>& results() const { return results_; }

 private:
  std::map<std::string, double> results_;
};

#endif  // BENCHMARK_BENCHMARK_H_

/// Escapes the handful of characters benchmark names can contain that JSON
/// strings cannot hold verbatim.
inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Extracts the raw `"pre_change_baseline": { ... }` block from an existing
/// baseline file, so refreshing the benchmarks section never discards the
/// historical record (the whole point of committing it). Returns "" when
/// the file or section does not exist.
inline std::string read_preserved_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::size_t key = text.find("\"pre_change_baseline\"");
  if (key == std::string::npos) return "";
  const std::size_t open = text.find('{', key);
  if (open == std::string::npos) return "";
  int depth = 0;
  for (std::size_t pos = open; pos < text.size(); ++pos) {
    if (text[pos] == '{') ++depth;
    if (text[pos] == '}' && --depth == 0)
      return text.substr(key, pos + 1 - key);
  }
  return "";
}

/// Writes { "schema": 1, "unit": "ns/op", "benchmarks": { name: ns, ... } },
/// carrying over an existing pre_change_baseline section verbatim.
inline void write_json(const std::string& path, const std::map<std::string, double>& results) {
  const std::string preserved = read_preserved_baseline(path);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("bench_json: cannot open " + path);
  std::fprintf(file, "{\n  \"schema\": 1,\n  \"unit\": \"ns/op\",\n  \"benchmarks\": {\n");
  std::size_t index = 0;
  for (const auto& [name, ns] : results) {
    std::fprintf(file, "    \"%s\": %.2f%s\n", json_escape(name).c_str(), ns,
                 ++index < results.size() ? "," : "");
  }
  if (preserved.empty()) {
    std::fprintf(file, "  }\n}\n");
  } else {
    std::fprintf(file, "  },\n  %s\n}\n", preserved.c_str());
  }
  std::fclose(file);
}

}  // namespace aurv::bench
