// Decision counters and the exact-only switch shared by the numeric
// filters: the Filtered time type (numeric/filter.hpp) and the semi-static
// contact predicates (geom/closest_approach.cpp). Kept apart from
// filter.hpp so that geometry can count its exact fallbacks and honour
// AURV_EXACT_ONLY without depending on the Filtered ladder.
#pragma once

#include <atomic>
#include <cstdint>

namespace aurv::numeric {

// Per-thread counters. Plain integers on purpose: bumping one costs a
// register increment, not an atomic; flush_filter_stats() moves them into
// the process-wide telemetry registry at deterministic points.
struct FilterStats {
  std::uint64_t fast_hits = 0;             // Filtered: interval tier decided
  std::uint64_t limb2_hits = 0;            // Filtered: two-limb dyadic tier decided
  std::uint64_t exact_escapes = 0;         // Filtered: fell through to Rational
  std::uint64_t geom_exact_fallbacks = 0;  // contact sign inside its error bound
};

[[nodiscard]] FilterStats& filter_stats() noexcept;

/// Adds this thread's counts to the telemetry counters filter.fast_hits,
/// filter.limb2_hits, filter.exact_escapes and geom.exact_fallbacks, and
/// zeroes them. Call sites are the engines' finish paths, so counter totals
/// stay thread-count-invariant like every other telemetry series.
void flush_filter_stats();

namespace filter_detail {
extern std::atomic<bool> exact_only_flag;
}  // namespace filter_detail

/// When true, every decision goes straight to exact Rational arithmetic:
/// the determinism proof mode behind the AURV_EXACT_ONLY=1 environment
/// toggle (read once at startup). Artifacts must be byte-identical either
/// way. Inline: the contact predicates read it once per call.
[[nodiscard]] inline bool filter_exact_only() noexcept {
  return filter_detail::exact_only_flag.load(std::memory_order_relaxed);
}
void set_filter_exact_only(bool exact_only) noexcept;

}  // namespace aurv::numeric
