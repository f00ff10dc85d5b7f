#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "geom/closest_approach.hpp"
#include "numeric/rational.hpp"
#include "sim/track.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace aurv::sim {

using numeric::Rational;

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::Rendezvous: return "rendezvous";
    case StopReason::FuelExhausted: return "fuel-exhausted";
    case StopReason::HorizonReached: return "horizon-reached";
    case StopReason::BothIdle: return "both-idle";
  }
  return "unknown";
}

Engine::Engine(agents::Instance instance, EngineConfig config)
    : instance_(std::move(instance)), config_(std::move(config)) {
  if (config_.r_a) AURV_CHECK_MSG(*config_.r_a > 0.0, "r_a override must be positive");
  if (config_.r_b) AURV_CHECK_MSG(*config_.r_b > 0.0, "r_b override must be positive");
  AURV_CHECK_MSG(config_.contact_slack >= 0.0, "contact_slack must be nonnegative");
  if (config_.horizon)
    AURV_CHECK_MSG(!config_.horizon->is_negative(), "horizon must be nonnegative");
}

SimResult Engine::run(const AlgorithmFactory& factory) const {
  return run(factory(), factory());
}

SimResult Engine::run(program::Program for_a, program::Program for_b) const {
  namespace telemetry = support::telemetry;
  static telemetry::Counter& runs_counter = telemetry::registry().counter("engine.runs");
  static telemetry::Counter& events_counter = telemetry::registry().counter("engine.events");
  static telemetry::Counter& instructions_counter =
      telemetry::registry().counter("engine.instructions");
  static telemetry::Counter& rendezvous_counter =
      telemetry::registry().counter("engine.rendezvous");
  static telemetry::Counter& window_solves_counter =
      telemetry::registry().counter("engine.window_solves");
  static telemetry::Counter& trace_dropped_counter =
      telemetry::registry().counter("engine.trace_dropped");
  static telemetry::Log2Histogram& events_histogram =
      telemetry::registry().histogram("engine.events_per_run");

  Track a(agents::AgentFrame::for_a(instance_), std::move(for_a));
  Track b(agents::AgentFrame::for_b(instance_), std::move(for_b));
  std::uint64_t window_solves = 0;

  const double radius_a = config_.r_a.value_or(instance_.r());
  const double radius_b = config_.r_b.value_or(instance_.r());
  const double r_success = std::min(radius_a, radius_b) + config_.contact_slack;
  const double r_big = std::max(radius_a, radius_b) + config_.contact_slack;
  const bool distinct_radii = radius_a != radius_b;
  // The far-sighted agent sees (and freezes) first in the Section 5 model.
  Track* const far_sighted = radius_a >= radius_b ? &a : &b;

  SimResult result;
  result.min_distance_seen = std::numeric_limits<double>::infinity();
  result.trace = Trace(config_.trace_capacity);

  const std::optional<Rational>& horizon = config_.horizon;

  Rational now;

  const auto record = [&](const Rational& time) {
    if (!result.trace.enabled()) return;
    const geom::Vec2 pa = a.position_at(time);
    const geom::Vec2 pb = b.position_at(time);
    result.trace.record({time.to_double(), pa, pb, geom::dist(pa, pb)});
  };
  const auto finish = [&](StopReason reason, const Rational& time) {
    result.reason = reason;
    result.met = reason == StopReason::Rendezvous;
    result.a_position = a.position_at(time);
    result.b_position = b.position_at(time);
    result.final_distance = geom::dist(result.a_position, result.b_position);
    result.min_distance_seen = std::min(result.min_distance_seen, result.final_distance);
    result.instructions_a = a.instructions();
    result.instructions_b = b.instructions();
    record(time);
    // Telemetry only observes the finished run — it never feeds back into
    // the result, so instrumented and plain runs produce identical bytes.
    runs_counter.add();
    events_counter.add(result.events);
    instructions_counter.add(result.instructions_a + result.instructions_b);
    window_solves_counter.add(window_solves);
    if (result.met) rendezvous_counter.add();
    if (result.trace.enabled()) trace_dropped_counter.add(result.trace.dropped());
    events_histogram.record(result.events);
    // The contact fallback count drains here, at the run's deterministic
    // end, so its total stays thread-count-invariant like every series.
    geom::flush_contact_stats();
    return result;
  };

  record(now);
  while (true) {
    if (result.events >= config_.max_events) return finish(StopReason::FuelExhausted, now);

    // Window end: earliest segment boundary, possibly clipped by the
    // horizon. Tracked by pointer: event times can hold multi-limb
    // rationals, so a per-event std::optional<Rational> copy is an
    // allocation the loop does not need.
    const Rational* window_end = nullptr;
    for (const Track* agent : {&a, &b}) {
      const std::optional<Rational>& seg_end = agent->segment_end();
      if (seg_end && (window_end == nullptr || *seg_end < *window_end)) window_end = &*seg_end;
    }
    bool at_horizon = false;
    if (horizon && (window_end == nullptr || *window_end >= *horizon)) {
      window_end = &*horizon;
      at_horizon = true;
    }

    const geom::Vec2 pa = a.position_at(now);
    const geom::Vec2 pb = b.position_at(now);
    const geom::Vec2 offset = pa - pb;
    const geom::Vec2 relative_velocity = a.velocity() - b.velocity();

    if (!window_end) {
      // Both agents idle forever: the distance never changes again.
      result.min_distance_seen = std::min(result.min_distance_seen, offset.norm());
      return finish(offset.norm() <= r_success ? StopReason::Rendezvous : StopReason::BothIdle,
                    now);
    }

    Rational window_span = *window_end;
    window_span -= now;
    const double window = window_span.to_double();
    result.min_distance_seen = std::min(
        result.min_distance_seen,
        geom::closest_approach(offset, relative_velocity, window).min_distance);

    if (distinct_radii && !far_sighted->frozen()) {
      // The larger radius is crossed first; the far-sighted agent freezes
      // there while the other keeps executing (Section 5 of the paper).
      ++window_solves;
      if (const std::optional<double> hit =
              geom::first_contact(offset, relative_velocity, r_big, window)) {
        Rational freeze_time = now;
        freeze_time += Rational::from_double(*hit);
        if (freeze_time > *window_end) freeze_time = *window_end;  // round-off guard
        far_sighted->freeze_at(freeze_time);
        now = freeze_time;
        ++result.events;
        record(now);
        continue;
      }
    } else if (++window_solves; const std::optional<double> hit =
                   geom::first_contact(offset, relative_velocity, r_success, window)) {
      Rational meet_time = now;
      meet_time += Rational::from_double(*hit);
      if (meet_time > *window_end) meet_time = *window_end;  // round-off guard
      result.meet_window_start = now;
      result.meet_window_offset = *hit;
      result.meet_time = meet_time.to_double();
      a.freeze_at(meet_time);
      b.freeze_at(meet_time);
      return finish(StopReason::Rendezvous, meet_time);
    }

    if (at_horizon) return finish(StopReason::HorizonReached, *window_end);

    now = *window_end;
    for (Track* agent : {&a, &b}) {
      if (agent->segment_end() && *agent->segment_end() == now) {
        agent->advance_segment();
        ++result.events;
      }
    }
    record(now);
  }
}

SimResult simulate(const agents::Instance& instance, const AlgorithmFactory& factory,
                   const EngineConfig& config) {
  return Engine(instance, config).run(factory);
}

}  // namespace aurv::sim
