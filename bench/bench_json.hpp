// Minimal JSON emission for the committed benchmark baseline files.
//
// `micro_kernels --json[=path]` writes its { benchmark name -> ns/op } rows
// into the `benchmarks` object of a baseline file (default path
// BENCH_micro.json). The committed BENCH_micro.json at the repo root is the
// per-kernel perf trajectory: each optimization PR re-runs the kernels and
// updates it, so regressions are visible in review as a diff.
//
// The JSON-writing half of this header needs only support::Json; the
// JsonCaptureReporter needs google-benchmark, so it is only compiled when
// the including TU has already pulled in <benchmark/benchmark.h> (as
// micro_kernels does, under AURV_BENCH).
#pragma once

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

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

/// Writes the re-measured `results` (ns/op, rounded to 2 decimals) into
/// the `benchmarks` object of `path`. An existing file keeps every other
/// row and every other top-level section (the `pre_*_baseline` ledger) as
/// it was, in order; a new row goes in name order. A missing file starts
/// as { "schema": 1, "unit": "ns/op", "benchmarks": {} }.
inline void write_json(const std::string& path, const std::map<std::string, double>& results) {
  using support::Json;
  Json document = Json::object();
  if (std::filesystem::exists(path)) {
    document = Json::load_file(path);
  } else {
    document.set("schema", Json(1));
    document.set("unit", Json("ns/op"));
  }
  if (document.find("benchmarks") == nullptr) document.set("benchmarks", Json::object());
  Json::Object& top = document.as_object();
  Json::Object& rows =
      std::find_if(top.begin(), top.end(), [](const auto& entry) {
        return entry.first == "benchmarks";
      })->second.as_object();
  for (const auto& [name, ns] : results) {
    const Json value(std::round(ns * 100) / 100);
    const auto row_named = [&name](const auto& row) { return row.first == name; };
    const auto row_after = [&name](const auto& row) { return row.first > name; };
    if (const auto same = std::find_if(rows.begin(), rows.end(), row_named); same != rows.end()) {
      same->second = value;
    } else {
      rows.emplace(std::find_if(rows.begin(), rows.end(), row_after), name, value);
    }
  }
  document.save_file(path);
}

}  // namespace aurv::bench
