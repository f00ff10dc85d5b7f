#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "geom/angle.hpp"
#include "geom/closest_approach.hpp"
#include "numeric/rational.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace aurv::sim {

namespace {

using numeric::Rational;

/// Execution state of one agent: the current constant-velocity segment plus
/// the pending instruction stream. Positions are derived lazily from the
/// segment anchor so long waits cost nothing and positions accumulate
/// round-off only once per instruction.
struct AgentSim {
  AgentSim(agents::AgentFrame frame_in, program::Program stream_in)
      : frame(std::move(frame_in)),
        stream(std::move(stream_in)) {
    seg_start_pos = frame.start_position();
    seg_end_pos = seg_start_pos;
    if (frame.wake_time().sign() > 0) {
      // Pre-wake-up sleep is a segment, not an instruction.
      seg_end = frame.wake_time();
    } else {
      next_instruction();
    }
  }

  [[nodiscard]] geom::Vec2 position_at(const Rational& time) const {
    if (velocity.x == 0.0 && velocity.y == 0.0) return seg_start_pos;
    Rational elapsed = time;
    elapsed -= seg_start;
    return seg_start_pos + elapsed.to_double() * velocity;
  }

  void next_instruction() {
    if (frozen || exhausted) return;
    if (!stream.next()) {
      exhausted = true;
      seg_end.reset();
      velocity = {};
      seg_end_pos = seg_start_pos;
      return;
    }
    const program::Instruction& instruction = stream.value();
    ++instructions;
    // Built in place (scale, then accumulate) so the huge event times do
    // not pass through a chain of temporaries.
    Rational end_time = frame.time_unit();
    end_time *= program::duration_of(instruction);
    end_time += seg_start;
    seg_end = std::move(end_time);
    if (const auto* move = std::get_if<program::Go>(&instruction)) {
      if (move->distance.is_zero()) {
        velocity = {};
        seg_end_pos = seg_start_pos;
      } else {
        const geom::Vec2 direction = geom::unit_vector(frame.absolute_heading(move->heading));
        velocity = frame.speed() * direction;
        seg_end_pos =
            seg_start_pos + (move->distance.to_double() * frame.length_unit()) * direction;
      }
    } else {
      velocity = {};
      seg_end_pos = seg_start_pos;
    }
  }

  /// Timeline reached the end of the current segment: anchor there and pull
  /// the next instruction.
  void advance_segment() {
    AURV_CHECK(seg_end.has_value());
    seg_start = std::move(*seg_end);  // the segment end is consumed, not copied
    seg_start_pos = seg_end_pos;
    velocity = {};
    seg_end.reset();
    next_instruction();
  }

  /// The agent saw its peer: it stops forever at `time` (Alg. 1 line 1).
  void freeze_at(const Rational& time) {
    seg_start_pos = position_at(time);
    seg_start = time;
    seg_end.reset();
    seg_end_pos = seg_start_pos;
    velocity = {};
    frozen = true;
  }

  agents::AgentFrame frame;
  program::Program stream;
  Rational seg_start;                     // absolute time of the segment anchor
  std::optional<Rational> seg_end;        // empty = idle forever
  geom::Vec2 seg_start_pos;
  geom::Vec2 seg_end_pos;
  geom::Vec2 velocity;                    // absolute units per absolute time
  std::uint64_t instructions = 0;
  bool frozen = false;
  bool exhausted = false;
};

}  // namespace

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

  AgentSim a(agents::AgentFrame::for_a(instance_), std::move(for_a));
  AgentSim b(agents::AgentFrame::for_b(instance_), std::move(for_b));
  std::uint64_t window_solves = 0;

  const double radius_a = config_.r_a.value_or(instance_.r());
  const double radius_b = config_.r_b.value_or(instance_.r());
  const double r_success = std::min(radius_a, radius_b) + config_.contact_slack;
  const double r_big = std::max(radius_a, radius_b) + config_.contact_slack;
  const bool distinct_radii = radius_a != radius_b;
  // The far-sighted agent sees (and freezes) first in the Section 5 model.
  AgentSim* const far_sighted = radius_a >= radius_b ? &a : &b;

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
    result.instructions_a = a.instructions;
    result.instructions_b = b.instructions;
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
    for (const AgentSim* agent : {&a, &b}) {
      if (agent->seg_end && (window_end == nullptr || *agent->seg_end < *window_end))
        window_end = &*agent->seg_end;
    }
    bool at_horizon = false;
    if (horizon && (window_end == nullptr || *window_end >= *horizon)) {
      window_end = &*horizon;
      at_horizon = true;
    }

    const geom::Vec2 pa = a.position_at(now);
    const geom::Vec2 pb = b.position_at(now);
    const geom::Vec2 offset = pa - pb;
    const geom::Vec2 relative_velocity = a.velocity - b.velocity;

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

    if (distinct_radii && !far_sighted->frozen) {
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
    for (AgentSim* agent : {&a, &b}) {
      if (agent->seg_end && *agent->seg_end == now) {
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
